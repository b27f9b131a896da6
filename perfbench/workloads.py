"""Workload definitions, seeded inputs, metric specs and output checks.

Each workload is one closed-loop client: the harness starts one fresh
interpreter per instance and waits for it before starting the next.  The
seed generates the run's INI (tumor Gaussian centre and width, the two
dose fields, the `[run] seed`) and the tangent directions; the program
sees only those generated inputs.

The seeded ranges are narrow on purpose: within them the optimizer takes
the same path (iterations, backtracks, active-ball iterations) on every
seed, so the work a run measures does not depend on the seed.
"""
import hashlib
import random
import re
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = {
    "simulate-96": {
        "kind": "simulate",
        "nx": 96,
        "steps": 80,
        "why": "forward march at the largest grid, sparse solves and CSV snapshot I/O; "
        "no tangent, adjoint or control code runs",
    },
    "optimize-48": {
        "kind": "optimize",
        "nx": 48,
        "steps": 40,
        "why": "the control loop: forward and adjoint sweeps, Armijo line search, "
        "projection and VI probes; the only workload that runs control",
    },
    "sensitivity-24": {
        "kind": "sensitivity",
        "nx": 24,
        "steps": 200,
        "why": "small grid, long horizon: per-step assembly and coefficient evaluation "
        "dominate; the only workload where the tangent does most of the work",
    },
}

# seconds one benchmark run measures
RUN_SECONDS = 40

# grid and steps of the self-test's tiny harness run
TINY = {"nx": 8, "steps": 8}

N_DIRECTIONS = 4
SNAPSHOT_STRIDE = 10

COST = {"alpha1": 1, "alpha2": 1, "alpha6": 0.3, "alpha7": 1, "alpha9": 0.1}
ADMISSIBLE = {"chi1_low": 0, "chi1_high": 0.5, "chi2_low": 0, "chi2_high": 0.5, "c_ad": 0.1}
OPTIMIZER = {"step0": 50, "tol": 1e-4}

# (name, unit, better, bound); bound is the share of the parent's median
# by which a later change may worsen the metric.  The shared 2-CPU machine
# drifts by 10-20% in speed over minutes (CPU time drifts with wall time, so
# it is not steal), which no median inside one run removes; hence the
# widest bound for both times.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
]

CG_LABELS = (
    "phi-step", "sigma-step", "u-step", "z-newton",
    "xi-step", "rho-step", "omega-step", "zeta-step",
    "q-step", "r-step", "v-step", "s-step",
)


def _per_layer():
    m = [("grid.elastic_matrix.calls", "count"), ("grid.elastic_matrix.s", "s")]
    for label in CG_LABELS:
        m += [(f"linalg.cg.{label}.calls", "count"), (f"linalg.cg.{label}.iters", "count"),
              (f"linalg.cg.{label}.s", "s")]
    m += [
        ("linalg.cg.one_iter_share", "ratio"),
        ("linalg.splu.calls", "count"), ("linalg.splu.s", "s"),
        ("state.solve_state.calls", "count"), ("state.solve_state.s", "s"),
        ("state.step_phi.s", "s"), ("state.step_sigma.s", "s"),
        ("state.step_u.s", "s"), ("state.step_z.s", "s"),
        ("state.u_operator.calls", "count"), ("state.u_operator.s", "s"),
        ("state.newton_iters", "count"),
        ("model.separation_bounds.calls", "count"), ("model.separation_bounds.s", "s"),
        ("model.check_hypotheses.s", "s"),
        ("linearized.solve_linearized.calls", "count"), ("linearized.solve_linearized.self_s", "s"),
        ("adjoint.solve_adjoint.calls", "count"), ("adjoint.solve_adjoint.self_s", "s"),
        ("adjoint.eval_cost.calls", "count"), ("adjoint.eval_cost.s", "s"),
        ("adjoint.duality_residual.s", "s"),
        ("control.optimize.self_s", "s"),
        ("control.forward_solves_per_optimize", "count"),
        ("control.armijo_accept_ratio", "ratio"),
        ("control.project_admissible.calls", "count"), ("control.project_admissible.s", "s"),
        ("control.reduced_gradient.s", "s"), ("control.vi_residual.s", "s"),
        ("snapshots.write.calls", "count"), ("snapshots.write.s", "s"),
        ("snapshots.write.bytes", "bytes"),
        ("config.load_config.s", "s"),
        ("trace_overhead_frac", "ratio"),
    ]
    higher = {"control.armijo_accept_ratio"}
    return [(name, unit, "higher" if name in higher else "lower") for name, unit in m]


PER_LAYER = _per_layer()

# counts that must repeat exactly between two traced instances of one input
EXACT_COUNTS = {n for n, unit, _ in PER_LAYER if unit in ("count", "bytes")} | {
    "linalg.cg.one_iter_share", "control.armijo_accept_ratio",
}


def make_inputs(name, seed, tiny=False):
    """INI text and tangent-direction seed for one workload instance."""
    w = WORKLOADS[name]
    nx, steps = (TINY["nx"], TINY["steps"]) if tiny else (w["nx"], w["steps"])
    r = random.Random(f"{name}:{seed}")
    cx, cy = 0.5 + r.uniform(-0.005, 0.005), 0.5 + r.uniform(-0.005, 0.005)
    width = 0.04 + r.uniform(-0.0005, 0.0005)
    amp1 = 0.3 + r.uniform(-0.02, 0.02)
    dx, dy = 0.5 + r.uniform(-0.0075, 0.0075), 0.5 + r.uniform(-0.0075, 0.0075)
    chi2 = 0.2 + r.uniform(-0.005, 0.005)
    sections = {
        "grid": {"nx": nx, "ny": nx},
        "time": {"t_final": 0.5, "steps": steps},
        "model": {"phi0": f"gaussian:0.3,{cx!r},{cy!r},{width!r}"},
        "controls": {"chi1": f"gaussian:{amp1!r},{dx!r},{dy!r},0.1", "chi2": f"const:{chi2!r}"},
        "output": {"stride": min(SNAPSHOT_STRIDE, steps), "format": "csv"},
        "run": {"seed": r.randrange(1 << 30)},
    }
    if w["kind"] in ("optimize", "sensitivity"):
        sections["cost"] = COST
    if w["kind"] == "optimize":
        sections["admissible"] = ADMISSIBLE
        sections["optimizer"] = OPTIMIZER
    ini = "".join(
        f"[{sec}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
        for sec, keys in sections.items()
    )
    return ini, r.randrange(1 << 30)


def trajectory_bytes(name):
    """Computed bytes of one stored state trajectory (8 float64 fields per node)."""
    w = WORKLOADS[name]
    return 8 * 8 * (w["steps"] + 1) * (w["nx"] + 1) ** 2


def dir_digest(path):
    """sha256 over the names and bytes of every file in an output directory."""
    h = hashlib.sha256()
    for f in sorted(Path(path).iterdir()):
        h.update(f.name.encode() + b"\0" + f.read_bytes())
    return h.hexdigest()


_NUM = r"([-+]?\d[\d.]*(?:e[-+]?\d+)?|nan|inf)"


def _grab(pattern, text):
    m = re.search(pattern.replace("NUM", _NUM), text)
    if m is None:
        raise ValueError(f"output line not found: {pattern}")
    return [float(g) for g in m.groups()]


def parse_outputs(kind, stdout, outdir):
    """Pull the checked values out of one instance's printed lines and files."""
    if kind == "simulate":
        vphi, vsig = _grab(r"tumor violation NUM, lactate violation NUM", stdout)
        zmin, zmax, rlo, rhi = _grab(r"damage in \[NUM, NUM\], certified \[NUM, NUM\]", stdout)
        return {
            "viol_phi": vphi, "viol_sig": vsig, "zmin": zmin, "zmax": zmax,
            "r_low": rlo, "r_high": rhi,
            "contained": "-> contained" in stdout,
            "verdict": "PASS" if "simulate: PASS" in stdout else "FAIL",
        }
    if kind == "optimize":
        j0, cost, iters = _grab(r"cost NUM -> NUM in NUM iterations", stdout)
        pairing, scale = _grab(r"worst directional pairing NUM \(\S+\) at scale NUM", stdout)
        probe = re.search(r"worst directional pairing \S+ \((\S+)\)", stdout).group(1)
        rows = (Path(outdir) / "history.csv").read_text().strip().split("\n")[1:]
        history = [[float(v) for v in row.split(",")] for row in rows]
        return {
            "j0": j0, "cost": cost, "iterations": int(iters), "history": history,
            "worst_pairing": pairing, "scale": scale, "worst_probe": probe,
            "verdict": "PASS" if "optimize: PASS" in stdout else "FAIL",
        }
    raise ValueError(f"no printed outputs for workload kind {kind!r}")


@dataclass
class Check:
    name: str
    ok: bool
    detail: str


def _close(a, b, rtol, atol=0.0):
    return abs(a - b) <= atol + rtol * abs(b)


def check_outputs(kind, out, ref=None):
    """Seed-independent invariants, plus reference values when the seed has them.

    Reference values come from the seed commit; they are compared within a
    tolerance at the precision the program prints, never bitwise.
    """
    checks = []
    add = lambda name, ok, detail="": checks.append(Check(name, bool(ok), detail))
    if kind == "simulate":
        add("bounds", out["viol_phi"] <= 1e-9 and out["viol_sig"] <= 1e-9,
            f"violations {out['viol_phi']:.3e}, {out['viol_sig']:.3e}")
        add("damage-contained", out["contained"] and out["r_low"] <= out["zmin"] <= out["zmax"] <= out["r_high"],
            f"[{out['zmin']}, {out['zmax']}] in [{out['r_low']}, {out['r_high']}]")
        add("pass-line", out["verdict"] == "PASS", out["verdict"])
        if ref:
            for key in ("zmin", "zmax", "r_low", "r_high"):
                add(f"ref-{key}", _close(out[key], ref[key], 1e-5), f"{out[key]} vs {ref[key]}")
            for key in ("viol_phi", "viol_sig"):
                add(f"ref-{key}", _close(out[key], ref[key], 1e-3, 1e-12), f"{out[key]} vs {ref[key]}")
    elif kind == "optimize":
        add("cost-decreases", out["cost"] <= out["j0"], f"{out['j0']:.9e} -> {out['cost']:.9e}")
        add("history-rows", len(out["history"]) == out["iterations"],
            f"{len(out['history'])} rows, {out['iterations']} iterations")
        add("history-monotone", all(b[1] <= a[1] for a, b in zip(out["history"], out["history"][1:])))
        if ref:
            add("ref-j0", _close(out["j0"], ref["j0"], 1e-7), f"{out['j0']} vs {ref['j0']}")
            add("ref-cost", _close(out["cost"], ref["cost"], 1e-7), f"{out['cost']} vs {ref['cost']}")
            add("ref-iterations", out["iterations"] == ref["iterations"],
                f"{out['iterations']} vs {ref['iterations']}")
            rows_ok = len(out["history"]) == len(ref["history"]) and all(
                a[0] == b[0] and a[3] == b[3] and a[4] == b[4]
                and _close(a[1], b[1], 1e-7) and _close(a[2], b[2], 1e-4, 1e-12)
                for a, b in zip(out["history"], ref["history"])
            )
            add("ref-history", rows_ok, f"{len(out['history'])} rows vs {len(ref['history'])}")
            add("ref-worst-pairing",
                out["worst_probe"] == ref["worst_probe"]
                and _close(out["worst_pairing"], ref["worst_pairing"], 1e-4)
                and _close(out["scale"], ref["scale"], 1e-4),
                f"{out['worst_pairing']:+.6e} ({out['worst_probe']}) at {out['scale']:.6e} vs "
                f"{ref['worst_pairing']:+.6e} ({ref['worst_probe']}) at {ref['scale']:.6e}")
    elif kind == "sensitivity":
        # the gap is first order in the step; C = 1 leaves a wide margin at every size
        add("duality-gap", max(out["rel"]) <= out["tau"],
            f"worst relative gap {max(out['rel']):.3e}, step {out['tau']:.3e}")
        if ref:
            add("ref-gaps", len(out["rel"]) == len(ref["rel"]) and all(
                _close(a, b, 1e-6, 1e-15) for a, b in zip(out["lhs"] + out["rhs"], ref["lhs"] + ref["rhs"])
            ) and all(_close(a, b, 1e-3) for a, b in zip(out["rel"], ref["rel"])),
                "relative gaps " + ", ".join(f"{v:.3e}" for v in out["rel"]))
    return checks
