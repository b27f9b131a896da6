"""Self-test of the benchmark harness on tiny inputs.

    python3 perfbench/selftest.py

Runs every workload at the tiny size, untraced and traced, and checks that
every named metric appears with its unit, that spans nest (every self
time >= 0, and their sum fits in the instance's time), that the traced
over untraced overhead is recorded, that BENCHMARK.json matches the
definitions, and that the benchmark refuses to run without the package
source.  Exits 1 if any check fails.
"""
import json
import math
import shutil
import subprocess
import sys

from record import manifest
from run import HERE, ROOT, WORK, measure, result_json
from workloads import END_TO_END, PER_LAYER, WORKLOADS

# float slack for sums of perf_counter differences
EPS = 1e-6


def check_report(report, expected, failures):
    res = result_json(report)
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        failures.append(f"{report.workload}: result keys {sorted(res)}")
    for name, unit, *_ in expected:
        m = res["metrics"].get(name)
        if m is None or m["unit"] != unit or m["value"] is None or not math.isfinite(m["value"]):
            failures.append(f"{report.workload}: metric {name} missing or without unit {unit}: {m}")
    extra = set(res["metrics"]) - {name for name, *_ in expected}
    if extra:
        failures.append(f"{report.workload}: unexpected metrics {sorted(extra)}")


def check_nesting(report, failures):
    for inst in report.instances:
        if not inst.traced:
            continue
        selfs = inst.self_times
        negative = {k: v for k, v in selfs.items() if v < -EPS}
        if negative:
            failures.append(f"{report.workload}: negative self times {negative}")
        # load_config runs before the wall clock starts; it is part of set-up
        setup_span = selfs.get("config.load_config", 0.0)
        inner = sum(v for k, v in selfs.items() if k != "config.load_config")
        if inner > inst.wall_s + EPS or setup_span > inst.setup_s + EPS:
            failures.append(
                f"{report.workload}: self times {inner:.4f} s exceed wall {inst.wall_s:.4f} s "
                f"or load_config {setup_span:.4f} s exceeds set-up {inst.setup_s:.4f} s"
            )


def check_bare_directory(failures):
    """Without the package source the benchmark must fail and print no result."""
    bare = WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", next(iter(WORKLOADS)),
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        failures.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}")


def main():
    failures = []
    on_disk = json.loads((ROOT / "BENCHMARK.json").read_text())
    if on_disk != manifest():
        failures.append("BENCHMARK.json differs from the definitions; run record.py manifest")
    for name in WORKLOADS:
        plain = measure(name, 1, 1, trace=False, tiny=True)
        check_report(plain, END_TO_END, failures)
        traced = measure(name, 1, 1, trace=True, tiny=True)
        check_report(traced, PER_LAYER, failures)
        check_nesting(traced, failures)
        overhead = traced.metrics.get("trace_overhead_frac", {}).get("value", math.nan)
        if not math.isfinite(overhead):
            failures.append(f"{name}: trace overhead not recorded")
        print(f"{name}: untraced wall {plain.metrics['wall_s']['value']:.4f} s, "
              f"trace overhead {overhead:+.3f}, correct {plain.correct and traced.correct}")
    check_bare_directory(failures)
    for f in failures:
        print("FAIL:", f)
    print("selftest:", "PASS" if not failures else f"FAIL ({len(failures)})")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
