"""Write the benchmark's committed records.

    python3 perfbench/record.py manifest
        BENCHMARK.json at the repository root, from the definitions in
        workloads.py, and perfbench/environment.json: CPU model, nproc,
        last-level cache, Python/numpy/scipy versions, the BLAS pin, and
        each workload's trajectory bytes computed from array sizes.
    python3 perfbench/record.py reference FIRST LAST
        Runs one untimed instance per workload for each seed in
        FIRST..LAST and stores its checked outputs in
        perfbench/reference.json.  Run it on the commit whose outputs
        are the reference.
"""
import json
import os
import platform
import sys
from importlib.metadata import version
from pathlib import Path

from run import BLAS_PIN, HERE, REFERENCE, ROOT, WORK, run_instance
from workloads import (
    END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS, make_inputs, trajectory_bytes,
)


def manifest():
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w["why"]} for n, w in WORKLOADS.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


def _cpu_model():
    for line in Path("/proc/cpuinfo").read_text().splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor()


def _llc():
    caches = sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"))
    top = max(caches, key=lambda c: int((c / "level").read_text()))
    return {"level": int((top / "level").read_text()), "size": (top / "size").read_text().strip()}


def environment():
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "last_level_cache": _llc(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_pin": BLAS_PIN,
        "trajectory_bytes": {
            name: {
                "value": trajectory_bytes(name),
                "basis": "computed from array sizes: 8 float64 fields (phi, sigma, z, "
                "2 displacement, 3 strain) x (steps + 1) x (nx + 1)^2 nodes",
            }
            for name in WORKLOADS
        },
        "bandwidth_note": "every workload's trajectory fits in the last-level cache, so no "
        "change measured by this benchmark can claim a memory-bandwidth gain",
    }


def reference(first, last):
    table = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    for seed in range(first, last + 1):
        for name in WORKLOADS:
            workdir = WORK / "reference"
            workdir.mkdir(parents=True, exist_ok=True)
            ini, direction_seed = make_inputs(name, seed)
            (workdir / "run.ini").write_text(ini)
            inst = run_instance(name, workdir / "run.ini", direction_seed, False, workdir, 150.0)
            if inst.error:
                raise SystemExit(f"{name} seed {seed}: {inst.error}")
            table.setdefault(name, {})[str(seed)] = inst.outputs
            print(f"{name} seed {seed}: exit {inst.exit_code}", flush=True)
        REFERENCE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


def main(argv):
    if argv[:1] == ["manifest"]:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(manifest(), indent=2) + "\n")
        (HERE / "environment.json").write_text(json.dumps(environment(), indent=2) + "\n")
    elif argv[:1] == ["reference"] and len(argv) == 3:
        reference(int(argv[1]), int(argv[2]))
    else:
        raise SystemExit(__doc__)


if __name__ == "__main__":
    main(sys.argv[1:])
