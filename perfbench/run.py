"""Outside-in benchmark of the tumorctrl package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the repository root.  One run is a closed loop with one client:
it starts one fresh interpreter per workload instance (BLAS threads
pinned to 1), waits for it, and starts the next while the next one is
expected to end within --seconds.  Every instance of a run sees the same
seeded inputs.  With --trace 0 the run reports the end-to-end metrics as
medians over its instances; with --trace 1 it alternates traced and
untraced instances and reports the per-layer metrics.  The last line of
standard output is one JSON object; `--workload all` runs every workload
both ways and prints every metric by name and unit.
"""
import argparse
import compileall
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from workloads import (
    END_TO_END, EXACT_COUNTS, PER_LAYER, WORKLOADS, check_outputs, make_inputs,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
REFERENCE = HERE / "reference.json"

BLAS_PIN = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
RUN_LIMIT_S = 170.0
INSTANCE_TIMEOUT_S = 150.0

KNOWN_FAILURES = {
    "optimize-48": "exit 1 is the seed's known failure: vi_residual requires the worst "
    "pairing >= -1e-6*scale, a bound below the continuous adjoint's first-order "
    "gradient error, so the certificate fails on this control problem",
}


@dataclass
class Instance:
    traced: bool
    setup_s: float = None
    wall_s: float = None
    peak_rss_mb: float = None
    exit_code: int = None
    error: str = ""
    outputs: dict = None
    fingerprint: str = ""
    layers: dict = None
    self_times: dict = None
    checks: list = field(default_factory=list)

    @property
    def failed(self):
        return bool(self.error) or self.exit_code != 0 or not all(c.ok for c in self.checks)


@dataclass
class Report:
    workload: str
    seed: int
    trace: bool
    instances: list
    metrics: dict
    correct: bool
    notes: list


def reference_for(name, seed):
    if not REFERENCE.exists():
        return None
    return json.loads(REFERENCE.read_text()).get(name, {}).get(str(seed))


def run_instance(name, ini_path, direction_seed, traced, workdir, budget_s):
    kind = WORKLOADS[name]["kind"]
    outdir = workdir / "out"
    shutil.rmtree(outdir, ignore_errors=True)
    spec = {
        "kind": kind, "src": str(SRC), "ini": str(ini_path), "outdir": str(outdir),
        "direction_seed": direction_seed, "trace": traced, "result": str(workdir / "result.json"),
    }
    spec_path = workdir / "spec.json"
    spec_path.write_text(json.dumps(spec))
    Path(spec["result"]).unlink(missing_ok=True)
    env = dict(os.environ, **BLAS_PIN)
    inst = Instance(traced=traced)
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), str(spec_path)],
            env=env, capture_output=True, text=True, timeout=budget_s,
        )
    except subprocess.TimeoutExpired:
        inst.error = f"instance exceeded {budget_s:.0f} s and was killed"
        return inst
    if proc.returncode != 0 or not Path(spec["result"]).exists():
        inst.error = f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"
        return inst
    res = json.loads(Path(spec["result"]).read_text())
    stamps = res["stamps"]
    inst.exit_code = res["exit_code"]
    inst.error = res.get("error", "")
    inst.peak_rss_mb = res["peak_rss_mb"]
    if "loaded" in stamps:
        inst.setup_s = stamps["loaded"] - t_spawn
        inst.wall_s = stamps["done"] - stamps["loaded"]
    elif not inst.error:
        inst.error = "load_config never returned"
    inst.outputs = res.get("outputs")
    inst.fingerprint = res.get("fingerprint", "")
    inst.layers, inst.self_times = res.get("layers"), res.get("self_times")
    return inst


def _median(xs):
    return statistics.median(xs) if xs else float("nan")


def measure(name, seed, seconds, trace, tiny=False):
    """Run instances of one workload for about `seconds`; return the report."""
    t_start = time.monotonic()
    workdir = WORK / name
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    ini, direction_seed = make_inputs(name, seed, tiny=tiny)
    ini_path = workdir / "run.ini"
    ini_path.write_text(ini)
    ref = None if tiny else reference_for(name, seed)
    kind = WORKLOADS[name]["kind"]

    # traced runs alternate traced and untraced instances: T U T U ...
    minimum = 3 if trace else 1
    instances, durations = [], []
    while True:
        elapsed = time.monotonic() - t_start
        if len(instances) >= minimum and elapsed + _median(durations) > seconds:
            break
        budget = min(INSTANCE_TIMEOUT_S, RUN_LIMIT_S - elapsed)
        if budget < 1.0:
            break
        traced = trace and len(instances) % 2 == 0
        t0 = time.monotonic()
        inst = run_instance(name, ini_path, direction_seed, traced, workdir, budget)
        durations.append(time.monotonic() - t0)
        if inst.outputs is not None:
            inst.checks = check_outputs(kind, inst.outputs, ref)
        instances.append(inst)
        if inst.error:
            break
    shutil.rmtree(workdir, ignore_errors=True)

    notes = []
    prints = {i.fingerprint for i in instances}
    deterministic = len(prints) == 1
    if not deterministic:
        notes.append(f"outputs differ between instances of one input: {len(prints)} fingerprints")
    bad_checks = {c.name: c.detail for i in instances for c in i.checks if not c.ok}
    errors = [i.error for i in instances if i.error]
    unexpected_exit = [i.exit_code for i in instances if i.exit_code not in (0, 1)]
    correct = deterministic and not bad_checks and not errors and not unexpected_exit
    notes += [f"check {c} out of tolerance: {detail}" for c, detail in sorted(bad_checks.items())]
    if errors:
        notes.append("error: " + errors[0].strip().splitlines()[-1])
    if any(i.exit_code not in (0, None) for i in instances) and name in KNOWN_FAILURES:
        notes.append(KNOWN_FAILURES[name])

    untraced = [i for i in instances if not i.traced and not i.error]
    traced = [i for i in instances if i.traced and not i.error]
    metrics = {}
    if trace:
        for key, unit, _ in PER_LAYER:
            if key == "trace_overhead_frac":
                value = _median([i.wall_s for i in traced]) / _median([i.wall_s for i in untraced]) - 1.0
            elif key in EXACT_COUNTS:
                seen = [i.layers.get(key, math.nan) for i in traced]
                if len(set(seen)) > 1:
                    notes.append(f"count {key} differs between traced instances: {seen}")
                value = seen[0] if seen else math.nan
            else:
                value = _median([i.layers.get(key, math.nan) for i in traced])
            metrics[key] = {"value": value, "unit": unit}
    else:
        for key, unit, _, _ in END_TO_END:
            metrics[key] = {"value": _median([getattr(i, key) for i in untraced]), "unit": unit}
    return Report(name, seed, trace, instances, metrics, correct, notes)


def info_metrics(report):
    """Figures printed by name beside the JSON result: failures and answers."""
    n = len(report.instances)
    out = [("failed_frac", sum(i.failed for i in report.instances) / n, "ratio")]
    answers = [i.outputs for i in report.instances if i.outputs]
    kind = WORKLOADS[report.workload]["kind"]
    if answers and kind == "sensitivity":
        out.append(("grad_rel_err", max(answers[0]["rel"]), "ratio"))
    if answers and kind == "optimize":
        out.append(("final_cost", answers[0]["cost"], "cost"))
    return out


def print_report(report):
    for k, inst in enumerate(report.instances, 1):
        state = "error" if inst.error else f"exit {inst.exit_code}"
        failing = [c.name for c in inst.checks if not c.ok]
        timing = (
            f"setup {inst.setup_s:.4f} s, wall {inst.wall_s:.4f} s, rss {inst.peak_rss_mb:.1f} MB"
            if inst.wall_s is not None else "no timing"
        )
        print(f"{report.workload} seed {report.seed} instance {k} "
              f"({'traced' if inst.traced else 'untraced'}): {timing}, {state}, "
              f"checks {'ok' if not failing else 'FAILED ' + ','.join(failing)}")
    for name, value, unit in info_metrics(report):
        print(f"{report.workload}: {name} = {value:.6g} {unit} (n={len(report.instances)})")
    n = sum(1 for i in report.instances if i.traced == report.trace and not i.error)
    for key, m in report.metrics.items():
        print(f"{report.workload}: {key} = {m['value']:.6g} {m['unit']} (n={n})")
    for note in report.notes:
        print(f"{report.workload}: note: {note}")


def result_json(report):
    # a metric no instance could measure is null, never a made-up number
    metrics = {
        k: {"value": None if math.isnan(m["value"]) else m["value"], "unit": m["unit"]}
        for k, m in report.metrics.items()
    }
    return {
        "correct": report.correct and all(m["value"] is not None for m in metrics.values()),
        "attempted": len(report.instances),
        "failed": sum(i.failed for i in report.instances),
        "metrics": metrics,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "tumorctrl" / "__init__.py").exists():
        print(f"package source not found under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    # compile once up front, so no instance pays the bytecode cache that users pay once
    compileall.compile_dir(SRC, quiet=1)

    if args.workload != "all":
        report = measure(args.workload, args.seed, args.seconds, bool(args.trace))
        print_report(report)
        print(json.dumps(result_json(report)))
        return 0
    summary = {}
    for name in WORKLOADS:
        for trace in (False, True):
            report = measure(name, args.seed, args.seconds, trace)
            print_report(report)
            summary.setdefault(name, {}).update(result_json(report)["metrics"])
            summary[name].update({k: {"value": v, "unit": u} for k, v, u in info_metrics(report)})
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
