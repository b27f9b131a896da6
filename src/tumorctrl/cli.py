"""Command line front end.

Subcommands::

    simulate         forward solve, snapshots, invariant report
    gradient-check   tangent slope test plus adjoint-vs-difference table
    optimize         projected descent, history CSV, optimality report
    separation       damage barrier radii and post-hoc containment
    hypothesis-check structural-condition sampling report

Exit codes: 0 the run's acceptance predicate holds, 1 it fails (a
SeparationError counts as failing), 2 configuration error, 3 solver
failure (SolverError, a DomainError from a nonlinearity evaluated
outside its domain, or a floating-point overflow, division by zero or
invalid operation).  All randomness is seeded from the config, so
repeated runs write identical files.
"""
import argparse
import sys
from pathlib import Path

import numpy as np

from . import model as mdl
from .adjoint import solve_adjoint
from .config import load_config
from .control import control_inner, fd_directional, optimize, reduced_gradient, vi_residual
from .errors import ConfigError, DomainError, SeparationError, SolverError
from .linearized import taylor_test
from .snapshots import write_history, write_manifest, write_snapshots
from .state import Control, Diagnostics, march, solve_state

EXIT_PASS, EXIT_FAIL, EXIT_CONFIG, EXIT_SOLVER = 0, 1, 2, 3

# gradient tolerance is anchored at the reference spatial resolution and
# loosens proportionally on coarser grids, consistent with the observed
# first-order error decay of the dual march
_GRAD_TOL, _REF_NX, _SLOPE_MIN, _IMPROVE_MIN = 1e-2, 48, 1.25, 1.5
# how far a contained damage range may leave its certified interval, by rounding
_Z_ROUNDING = 1e-12


def _hypothesis_report(cfg):
    return mdl.check_hypotheses(cfg.spec, np.random.default_rng(cfg.seed))


def _gate_passes(cfg, where=""):
    """Hypothesis gate run before any solve; prints the failed rows, and where if given."""
    report = _hypothesis_report(cfg)
    if not report.ok:
        print(f"hypothesis gate failed{where}:")
        for row in report.failures:
            print(f"  {row.name}: margin {row.margin: .3e} at {row.witness}")
    return report.ok


def _make_outdir(cfg):
    """Create the output directory, run before any solve; an unusable path is a ConfigError."""
    out = Path(cfg.outdir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise ConfigError(f"cannot create output directory {out}: {e}") from e
    return out


def snapshot_fields(phi, sigma, u, z):
    """The (name, values) pairs a forward run writes at one time level."""
    return (("phi", phi), ("sigma", sigma), ("z", z), ("ux", u[0]), ("uy", u[1]))


def run_manifest(grid, times, fmt, d, z_excess):
    """The run.manifest entries of a forward run: Diagnostics d and damage excess z_excess."""
    return {
        "n_steps": str(len(times) - 1),
        "tau": f"{float(times[1] - times[0]):.17g}",
        "nx": str(grid.nx),
        "ny": str(grid.ny),
        "hx": f"{grid.hx:.17g}",
        "hy": f"{grid.hy:.17g}",
        "format": fmt,
        "phi_clamp_max": f"{d.phi_clamp.max():.6e}",
        "sigma_clamp_max": f"{d.sigma_clamp.max():.6e}",
        "newton_iters_max": str(d.newton_iters.max()),
        "cg_iters_max": str(d.cg_u.max()),
        "sigma_cap": f"{d.sigma_cap:.6e}",
        # sigma_cap_for is a monitored bound, not a proven one
        "sigma_cap_heuristic": "true",
        "z_excess": f"{z_excess:.3e}",
    }


def cmd_simulate(cfg, args):
    """forward solve, snapshots, invariant report"""
    if args.oracle:
        _oracle_preflight(cfg)
    if not _gate_passes(cfg):
        return EXIT_FAIL
    out = _make_outdir(cfg)
    sb = cfg.spec.separation
    spec, control, grid = cfg.spec, cfg.control0, cfg.spec.grid
    times = np.linspace(0.0, spec.T, control.n_steps + 1)
    exact = _ode_oracle(cfg, times) if args.oracle else None

    # snapshots are written as the march runs and the manifest last, so a
    # directory without run.manifest holds the levels of a failed run
    (out / "run.manifest").unlink(missing_ok=True)
    d = Diagnostics.empty(control, spec)
    oracle_err = 0.0
    for n, (phi, sigma, u, _, z) in enumerate(march(control, spec, d)):
        if n % cfg.stride == 0:
            named = snapshot_fields(phi, sigma, u, z)
            write_snapshots(out, grid, n, float(times[n]), named, cfg.fmt)
        if exact is not None:
            oracle_err = max(oracle_err, float(np.abs(phi - exact[0, n]).max()),
                             float(np.abs(z - exact[1, n]).max()))
    z_excess = sb.excess(d.lo[2], d.hi[2])
    contained = z_excess <= _Z_ROUNDING
    write_manifest(out / "run.manifest", run_manifest(grid, times, cfg.fmt, d, z_excess))

    viol_phi = max(0.0, float(-d.lo[0]), float(d.hi[0] - spec.N))
    viol_sig = max(0.0, float(-d.lo[1]), float(d.hi[1] - d.sigma_cap))

    print(f"wrote {out}")
    print(
        f"bounds: tumor violation {viol_phi:.3e}, lactate violation {viol_sig:.3e} "
        f"(cap {d.sigma_cap:.6g}, heuristic)"
    )
    print(
        f"clamp excess before projection: tumor {d.phi_clamp.max():.3e}, "
        f"lactate {d.sigma_clamp.max():.3e}"
    )
    print(
        f"separation: damage in [{d.lo[2]:.6g}, {d.hi[2]:.6g}], "
        f"certified [{sb.r_low:.6g}, {sb.r_high:.6g}] -> "
        f"{'contained' if contained else 'VIOLATED'}"
    )
    if args.oracle:
        print(f"pointwise oracle: sup error {oracle_err:.6e} over {len(times)} time levels "
              f"(step {float(times[1] - times[0]):.3e})")

    print("simulate: " + ("PASS" if contained else "FAIL"))
    return EXIT_PASS if contained else EXIT_FAIL


def _oracle_preflight(cfg):
    """Reject configs whose dynamics do not reduce to pointwise equations."""
    spec = cfg.spec
    data = [spec.phi0, spec.sigma0, spec.z0, spec.iota, spec.sigma_gamma,
            cfg.control0.chi1, cfg.control0.chi2]
    if max(float(np.ptp(a)) for a in data) > 1e-12 or float(np.abs(spec.f).max()) > 1e-12:
        raise ConfigError(
            "the pointwise oracle needs spatially homogeneous data, constant "
            "doses, and zero body force"
        )
    sg = float(spec.sigma0.flat[0])
    if abs(sg - float(spec.sigma_gamma.flat[0])) > 1e-12:
        raise ConfigError("the pointwise oracle needs the lactate pinned at its boundary level")
    chi2 = float(cfg.control0.chi2.flat[0])
    # the reduction holds only when the lactate balance cannot drift: supply
    # and consumption are blind to tumor and damage, and chi2*S = K(sg)
    probes = [(0.0, 0.0), (0.6 * spec.N, 0.9), (0.3 * spec.N, 0.2)]
    s_vals = [float(spec.S.value(np.array(p), np.array(z))) for p, z in probes]
    k_vals = [float(mdl.eval_K(np.array(p), np.array(sg), np.array(z), spec)) for p, z in probes]
    drift = abs(chi2 * s_vals[0] - k_vals[0])
    if np.ptp(s_vals) > 1e-12 or np.ptp(k_vals) > 1e-12 or drift > 1e-10:
        raise ConfigError(
            "the pointwise oracle needs constant lactate kinetics "
            "(k1_const, k2_const, s_const) with a balancing second dose"
        )


def ode_rhs(spec, sigma_level, chi1):
    """Pointwise right-hand sides of the reduced system (phi, z)."""
    iota = float(spec.iota.flat[0])

    def rhs(t, yv):
        ph, zz = yv
        U = mdl.eval_U(ph, sigma_level, zz, chi1, spec)
        psi = spec.psi.value(np.array([ph]), np.zeros((3, 1)))[0]
        dz = iota - psi - float(mdl.beta(zz, spec)) - float(mdl.pi(zz, spec))
        return [float(U), dz]

    return rhs


def _ode_oracle(cfg, times):
    """Stiff pointwise integration of the homogeneous run; rows phi and z at times."""
    from scipy.integrate import solve_ivp

    spec = cfg.spec
    sg = float(spec.sigma0.flat[0])
    ph0, z0 = float(spec.phi0.flat[0]), float(spec.z0.flat[0])
    chi1 = float(cfg.control0.chi1.flat[0])
    sol = solve_ivp(
        ode_rhs(spec, sg, chi1),
        (0.0, spec.T),
        [ph0, z0],
        t_eval=times,
        method="LSODA",
        rtol=1e-11,
        atol=1e-13,
    )
    return sol.y


def cmd_gradient_check(cfg, args):
    """tangent slope test plus adjoint-vs-difference table"""
    # every refined level is gated before any solve
    levels = [cfg] + [load_config(args.config, refine=m) for m in range(1, 1 + args.refine)]
    for m, level in enumerate(levels):
        g = level.spec.grid
        where = f" at refinement level {m} ({g.nx}x{g.ny}, {level.control0.n_steps} steps)"
        if not _gate_passes(level, where if m else ""):
            return EXIT_FAIL
    rng = np.random.default_rng(cfg.seed)

    def draw(n_steps, grid):
        # positive draws keep the directional derivative away from zero
        shape = (n_steps + 1,) + grid.shape
        return Control(rng.uniform(0.0, 1.0, shape), rng.uniform(0.0, 1.0, shape))

    print(f"tolerance anchor: {_GRAD_TOL:.1e} at {_REF_NX}x{_REF_NX}, "
          f"scaled by the coarsening factor")
    tt = taylor_test(cfg.control0, draw(cfg.control0.n_steps, cfg.spec.grid), cfg.spec)
    print(f"taylor slope {tt['slope']:.4f} (remainders "
          + ", ".join(f"{r:.3e}" for r in tt["remainder"]) + ")")

    ok = True
    for m, level in enumerate(levels):
        spec, targets, control0 = level.spec, level.targets, level.control0
        traj = solve_state(control0, spec) if m else tt["base"]
        grid, n_steps = spec.grid, control0.n_steps
        adj = solve_adjoint(traj, cfg.weights, targets, spec)
        grad = reduced_gradient(traj, adj, cfg.weights, spec)
        errs = []
        for _ in range(3):
            d = draw(n_steps, grid)
            pred = control_inner(grad, d, grid, spec.T)
            ref = fd_directional(control0, d, cfg.weights, targets, spec)
            errs.append(abs(pred - ref) / max(abs(ref), 1e-14))
        worst = max(errs)
        tol = _GRAD_TOL * max(1.0, _REF_NX / grid.nx)
        line_ok = worst < tol
        ok = ok and line_ok
        print(f"level {m}: {grid.nx}x{grid.ny}, {n_steps} steps, "
              f"relative errors " + ", ".join(f"{e:.3e}" for e in errs)
              + f", tolerance {tol:.1e} -> {'ok' if line_ok else 'FAIL'}")
        if m:
            ratio = prev_err / max(worst, 1e-300)
            imp_ok = ratio >= _IMPROVE_MIN
            ok = ok and imp_ok
            print(f"  improvement over previous level {ratio:.2f}x "
                  f"(needs >= {_IMPROVE_MIN}) -> {'ok' if imp_ok else 'FAIL'}")
        prev_err = worst

    if tt["slope"] < _SLOPE_MIN:
        print(f"taylor slope {tt['slope']} below {_SLOPE_MIN}")
        ok = False
    print("gradient-check: " + ("PASS" if ok else "FAIL"))
    return EXIT_PASS if ok else EXIT_FAIL


def cmd_optimize(cfg, args):
    """projected descent, history CSV, optimality report"""
    if not _gate_passes(cfg):
        return EXIT_FAIL
    out = _make_outdir(cfg)
    res = optimize(
        cfg.spec,
        cfg.weights,
        cfg.targets,
        cfg.admissible,
        cfg.control0,
        max_iters=cfg.max_iters,
        tol=cfg.tol,
        step0=cfg.step0,
    )
    write_history(out / "history.csv", res.history)
    for n in range(0, cfg.control0.n_steps + 1, cfg.stride):
        named = (("chi1", res.control.chi1[n]), ("chi2", res.control.chi2[n]))
        write_snapshots(out, cfg.spec.grid, n, float(res.trajectory.times[n]), named, cfg.fmt)

    vi = vi_residual(res.control, res.gradient, cfg.spec, cfg.admissible, seed=cfg.seed)
    print(f"cost {res.initial_cost:.9e} -> {res.cost:.9e} in {res.iterations} iterations "
          f"(stationarity {res.stationarity:.3e}, {res.reason})")
    print(str(vi))
    print(f"wrote {out / 'history.csv'}")

    ok = res.cost <= res.initial_cost + 1e-15 and vi.worst_pairing >= -1e-6 * vi.scale
    print("optimize: " + ("PASS" if ok else "FAIL"))
    return EXIT_PASS if ok else EXIT_FAIL


def cmd_separation(cfg, args):
    """damage barrier radii and post-hoc containment"""
    if not _gate_passes(cfg):
        return EXIT_FAIL
    sb = cfg.spec.separation
    print(f"source magnitude b = {sb.b:.6g}")
    print(f"barrier roots before widening: {sb.root_low:.5f} / {sb.root_high:.5f}")
    print(f"certified interval: [{sb.r_low:.6g}, {sb.r_high:.6g}]")

    d = Diagnostics.empty(cfg.control0, cfg.spec)
    for _ in march(cfg.control0, cfg.spec, d):
        pass
    contained = sb.excess(d.lo[2], d.hi[2]) <= _Z_ROUNDING
    print(f"simulated damage range: [{d.lo[2]:.6g}, {d.hi[2]:.6g}] -> "
          f"{'contained' if contained else 'VIOLATED'}")
    print("separation: " + ("PASS" if contained else "FAIL"))
    return EXIT_PASS if contained else EXIT_FAIL


def cmd_hypothesis_check(cfg, args):
    """structural-condition sampling report"""
    report = _hypothesis_report(cfg)
    print(report)
    return EXIT_PASS if report.ok else EXIT_FAIL


def _nonnegative_int(text):
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {n}")
    return n


_DISPATCH = {
    "simulate": cmd_simulate,
    "gradient-check": cmd_gradient_check,
    "optimize": cmd_optimize,
    "separation": cmd_separation,
    "hypothesis-check": cmd_hypothesis_check,
}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="tumorctrl",
        description="Tumor growth simulation and dose optimization runs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in _DISPATCH.items():
        p = sub.add_parser(name, help=fn.__doc__)
        p.add_argument("--config", required=True, help="run configuration INI file")
        p.add_argument("--out", default=None, help="override the output directory")
        if name == "simulate":
            p.add_argument("--oracle", action="store_true",
                           help="compare a homogeneous run against the pointwise oracle")
        if name == "gradient-check":
            p.add_argument("--refine", type=_nonnegative_int, default=0, metavar="N",
                           help="additional simultaneous step/mesh refinements")
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.out:
            cfg.outdir = Path(args.out)
        # a floating-point fault stops the run at its site as one solver
        # error; underflow to zero is harmless and stays silent
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            return _DISPATCH[args.command](cfg, args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (SolverError, DomainError, FloatingPointError) as e:
        print(f"solver error: {e}", file=sys.stderr)
        return EXIT_SOLVER
    except SeparationError as e:
        print(f"separation analysis failed ({e.condition}): {e}")
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
