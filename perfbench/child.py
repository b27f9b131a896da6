"""One workload instance in a fresh interpreter.

Usage: python3 child.py SPEC.json

SPEC names the workload kind, the package source directory, the INI, the
output directory, the tangent-direction seed, whether to trace, and where
to write the result.  The result holds CLOCK_MONOTONIC stamps for the
moment load_config returned and the moment the command returned, the
peak resident set, the exit code, the checked outputs and, when traced,
the per-layer figures.  Everything after the second stamp is untimed.
"""
import contextlib
import hashlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

from workloads import N_DIRECTIONS, dir_digest, parse_outputs


def run_sensitivity(load, ini, direction_seed):
    import numpy as np
    from tumorctrl import adjoint, control, linearized, state

    cfg = load(ini)
    traj = state.solve_state(cfg.control0, cfg.spec)
    adj = adjoint.solve_adjoint(traj, cfg.weights, cfg.targets, cfg.spec)
    grad = control.reduced_gradient(traj, adj, cfg.weights, cfg.spec)
    rng = np.random.default_rng(direction_seed)
    shape = cfg.control0.chi1.shape
    gaps = []
    for _ in range(N_DIRECTIONS):
        d = state.Control(rng.uniform(0.0, 1.0, shape), rng.uniform(0.0, 1.0, shape))
        lin = linearized.solve_linearized(traj, d, cfg.spec)
        gaps.append(adjoint.duality_residual(traj, lin, adj, d, cfg.weights, cfg.targets, cfg.spec))
    return traj.tau, grad, gaps


def main(spec_path):
    spec = json.loads(Path(spec_path).read_text())
    sys.path.insert(0, spec["src"])
    from tumorctrl import cli

    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    stamps = {}
    load = cli.load_config

    def timed_load(path):
        cfg = load(path)
        stamps["loaded"] = time.monotonic()
        return cfg

    cli.load_config = timed_load
    kind = spec["kind"]
    printed = io.StringIO()
    result = {"exit_code": None}
    try:
        with contextlib.redirect_stdout(printed):
            if kind == "sensitivity":
                tau, grad, gaps = run_sensitivity(timed_load, spec["ini"], spec["direction_seed"])
                result["exit_code"] = 0
            else:
                result["exit_code"] = cli.main(
                    [kind, "--config", spec["ini"], "--out", spec["outdir"]]
                )
    except Exception:
        # the instance counts as failed; the traceback goes to the report
        result["error"] = traceback.format_exc()
    stamps["done"] = time.monotonic()
    result["stamps"] = stamps
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    result["stdout"] = printed.getvalue()

    if "error" not in result:
        try:
            if kind == "sensitivity":
                h = hashlib.sha256(grad.chi1.tobytes() + grad.chi2.tobytes())
                h.update(repr([(g["lhs"], g["rhs"]) for g in gaps]).encode())
                result["outputs"] = {
                    "lhs": [g["lhs"] for g in gaps],
                    "rhs": [g["rhs"] for g in gaps],
                    "rel": [g["rel"] for g in gaps],
                    "tau": tau,
                }
                result["fingerprint"] = h.hexdigest()
            else:
                result["outputs"] = parse_outputs(kind, result["stdout"], spec["outdir"])
                result["fingerprint"] = dir_digest(spec["outdir"])
        except (ValueError, OSError):
            result["error"] = traceback.format_exc()
    if tracer is not None:
        result["layers"], result["self_times"] = tracer.metrics()
    Path(spec["result"]).write_text(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1])
