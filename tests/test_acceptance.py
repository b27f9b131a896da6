"""Shipping acceptance suite.

One test per acceptance criterion, each printing a single PASS/FAIL line
with its measured quantities to the live terminal.  The tolerances here
are the shipping contract; finer-grained evidence lives in the unit
modules.  Everything is seeded, so the printed numbers are reproducible.
"""
import numpy as np
import pytest
from scipy.integrate import solve_ivp

from tumorctrl import model as mdl
from tumorctrl.adjoint import (
    CostWeights,
    Targets,
    duality_residual,
    eval_cost,
    solve_adjoint,
)
from tumorctrl.cli import main, ode_rhs
from tumorctrl.control import (
    AdmissibleSet,
    control_inner,
    fd_directional,
    optimize,
    reduced_gradient,
    vi_residual,
)
from tumorctrl.grid import Grid, stress_from_strain
from tumorctrl.linearized import solve_linearized, taylor_test
from tumorctrl.state import Control, solve_state

from scenarios import (
    bounds_stress_scenario,
    level_coefficients,
    ode_scenario,
    smooth_scenario,
    synthetic_inverse_pair,
)


@pytest.fixture
def announce(capsys):
    def _announce(num, slug, ok, detail):
        with capsys.disabled():
            print(f"\n[criterion {num}: {slug}] {'PASS' if ok else 'FAIL'} -- {detail}")

    return _announce


@pytest.fixture(scope="module")
def default_run():
    sc = smooth_scenario(nx=48, n_steps=100)
    return sc, solve_state(sc.control, sc.spec)


def full_weights():
    return CostWeights(1.0, 0.5, 0.2, 1.0, 0.5, 0.3, 1.0, 0.2, 1e-3)


def test_hypothesis_gate(announce):
    spec = mdl.DefaultLogisticFamily().build(Grid.unit(48, 48))
    report = mdl.check_hypotheses(spec, rng=np.random.default_rng(0))
    ok = report.ok and report.elapsed < 5.0
    announce(
        1,
        "hypothesis-gate",
        ok,
        f"{len(report.rows)} conditions sampled at 10^4 draws, "
        f"{len(report.failures)} violations, {report.elapsed:.2f}s (< 5s)",
    )
    assert report.ok
    assert report.elapsed < 5.0


def test_state_bounds(default_run, announce):
    sc, traj = default_run
    cap = traj.diagnostics.sigma_cap
    viol = max(
        0.0,
        float(-traj.phi.min()),
        float(traj.phi.max() - sc.spec.N),
        float(-traj.sigma.min()),
        float(traj.sigma.max() - cap),
    )
    excess = {}
    for K in (10, 20):
        stress = bounds_stress_scenario(n_steps=K)
        excess[K] = float(solve_state(stress.control, stress.spec).diagnostics.phi_clamp.max())
    ratio = excess[10] / excess[20]
    ok = viol <= 1e-9 and 1.7 <= ratio <= 2.3
    announce(
        2,
        "state-bounds",
        ok,
        f"post-clamp violation {viol:.3e} (<= 1e-9); pre-clamp excess "
        f"{excess[10]:.3e} -> {excess[20]:.3e} under step halving, "
        f"ratio {ratio:.3f} in [1.7, 2.3]",
    )
    assert viol <= 1e-9
    assert 1.7 <= ratio <= 2.3


def test_separation(default_run, announce):
    sc, traj = default_run
    sb = mdl.separation_bounds(sc.spec)

    def G(r):
        return float(mdl.beta(r, sc.spec) + mdl.pi(r, sc.spec))

    lo_pts = np.geomspace(1e-12, sb.r_low, 1000)
    hi_pts = 1.0 - np.geomspace(1e-12, 1.0 - sb.r_high, 1000)
    sign_lo = max(G(r) + sb.b for r in lo_pts)
    sign_hi = min(G(r) - sb.b for r in hi_pts)
    zmin, zmax = float(traj.z.min()), float(traj.z.max())
    contained = sb.r_low - 1e-12 <= zmin and zmax <= sb.r_high + 1e-12

    closed = mdl.separation_bounds(
        mdl.DefaultLogisticFamily(C1=1.0, C2=0.0, iota_const=1.9).build(Grid.unit(8, 8))
    )
    want_lo, want_hi = 1.0 / (1.0 + np.e**2), 1.0 / (1.0 + np.e**-2)
    gap = max(abs(closed.root_low - want_lo), abs(closed.root_high - want_hi))

    ok = sign_lo <= 1e-8 and sign_hi >= -1e-8 and contained and gap <= 1e-9
    announce(
        3,
        "damage-separation",
        ok,
        f"sign margins {sign_lo:.2e} / {sign_hi:.2e} at 10^3 points each; "
        f"damage in [{zmin:.4f}, {zmax:.4f}] within "
        f"[{sb.r_low:.4f}, {sb.r_high:.4f}]; closed-form radii off by {gap:.2e} (<= 1e-9)",
    )
    assert sign_lo <= 1e-8
    assert sign_hi >= -1e-8
    assert contained
    assert gap <= 1e-9


def test_ode_reduction_oracle(announce):
    errs = {}
    consts = None
    for K in (50, 100):
        sc = ode_scenario(n_steps=K)
        spec = sc.spec
        rhs = ode_rhs(spec, sc.extras["sigma_level"], sc.extras["chi1"])
        traj = solve_state(sc.control, spec)
        sol = solve_ivp(
            rhs,
            (0.0, spec.T),
            [float(spec.phi0.flat[0]), float(spec.z0.flat[0])],
            t_eval=traj.times,
            method="LSODA",
            rtol=1e-11,
            atol=1e-13,
            dense_output=True,
        )
        errs[K] = max(
            max(
                float(np.abs(traj.phi[n] - sol.y[0, n]).max()),
                float(np.abs(traj.z[n] - sol.y[1, n]).max()),
            )
            for n in range(K + 1)
        )
        if consts is None:
            # one-step error growth constant: max curvature over the
            # trajectory and a Lipschitz bound over a box around it
            h = 1e-6
            lam = 0.0
            for p in np.linspace(sol.y[0].min() - 0.05, sol.y[0].max() + 0.05, 25):
                for z in np.linspace(sol.y[1].min() - 0.05, sol.y[1].max() + 0.05, 25):
                    jp = (np.array(rhs(0, [p + h, z])) - np.array(rhs(0, [p - h, z]))) / (2 * h)
                    jz = (np.array(rhs(0, [p, z + h])) - np.array(rhs(0, [p, z - h]))) / (2 * h)
                    lam = max(lam, abs(jp[0]) + abs(jz[0]), abs(jp[1]) + abs(jz[1]))
            ts = np.linspace(0.0, spec.T, 400)
            ys = sol.sol(ts)
            curv = np.gradient(np.array([rhs(t, y) for t, y in zip(ts, ys.T)]), ts, axis=0)
            consts = (lam, float(np.abs(curv).max()))
    lam, curv_max = consts
    C = 0.5 * curv_max * float(np.expm1(lam * 0.5)) / lam
    tau = 0.5 / 50
    bound_ok = errs[50] <= 5 * tau * C and errs[100] <= 5 * (tau / 2) * C
    ratio = errs[50] / errs[100]
    ok = bound_ok and 1.7 <= ratio <= 2.3
    announce(
        4,
        "pointwise-reduction-oracle",
        ok,
        f"sup errors {errs[50]:.3e} / {errs[100]:.3e} vs bounds "
        f"{5 * tau * C:.3e} / {5 * tau / 2 * C:.3e} "
        f"(Lipschitz-scale constant {C:.4f}, rate {lam:.3f}, curvature {curv_max:.3f}); "
        f"halving ratio {ratio:.3f} in [1.7, 2.3]",
    )
    assert bound_ok
    assert 1.7 <= ratio <= 2.3


def _uniform_direction(rng, n_steps, grid):
    shape = (n_steps + 1,) + grid.shape
    return Control(rng.uniform(0.0, 1.0, shape), rng.uniform(0.0, 1.0, shape))


def test_linearization_taylor_and_superposition(announce):
    base = smooth_scenario(nx=8, n_steps=6)
    scen = [
        ("smooth", base.spec, base.control),
        (
            "variable-kinetics",
            mdl.DefaultLogisticFamily(k2_variable=True).build(base.spec.grid),
            base.control,
        ),
    ]
    inverse = synthetic_inverse_pair(nx=8, n_steps=6)
    scen.append(("synthetic-inverse", inverse.spec, inverse.control))

    rng = np.random.default_rng(7)
    slopes = {}
    for name, spec, control in scen:
        d = _uniform_direction(rng, control.n_steps, spec.grid)
        slopes[name] = taylor_test(control, d, spec)["slope"]

    traj = solve_state(base.control, base.spec)
    d1 = _uniform_direction(rng, 6, base.spec.grid)
    d2 = _uniform_direction(rng, 6, base.spec.grid)
    a, b = 0.7, -1.3
    mix = Control(a * d1.chi1 + b * d2.chi1, a * d1.chi2 + b * d2.chi2)
    lin_mix = solve_linearized(traj, mix, base.spec)
    l1 = solve_linearized(traj, d1, base.spec)
    l2 = solve_linearized(traj, d2, base.spec)
    fields = lambda lin: (lin.xi, lin.rho, lin.omega, lin.strain(), lin.zeta)
    super_err = max(
        float(np.abs(m - a * f1 - b * f2).max())
        for m, f1, f2 in zip(fields(lin_mix), fields(l1), fields(l2))
    )

    ok = all(s >= 1.25 for s in slopes.values()) and super_err <= 1e-9
    detail = ", ".join(f"{k} slope {v:.4f}" for k, v in slopes.items())
    announce(
        5,
        "tangent-accuracy",
        ok,
        f"{detail} (all >= 1.25); superposition defect {super_err:.2e} (<= 1e-9)",
    )
    for name, s in slopes.items():
        assert s >= 1.25, name
    assert super_err <= 1e-9


def _central(f, x, h):
    return (f(x + h) - f(x - h)) / (2.0 * h)


def _coefficient_errors(spec, seed=5):
    """Max relative error per coefficient over 50 random nodes."""
    g = spec.grid
    rng = np.random.default_rng(seed)
    phi = rng.uniform(0.05, 0.95 * spec.N, g.shape)
    sigma = rng.uniform(0.05, 1.5, g.shape)
    z = rng.uniform(0.1, 0.9, g.shape)
    eps = 0.2 * rng.standard_normal((3,) + g.shape)
    chi1 = rng.uniform(0.0, 1.0, g.shape)
    chi2 = rng.uniform(0.0, 1.0, g.shape)
    co = level_coefficients(phi, sigma, z, eps, chi1, chi2, spec)
    picks = np.random.default_rng(11).choice(g.n_nodes, size=50, replace=False)
    nodes = [tuple(int(v) for v in p) for p in zip(*np.unravel_index(picks, g.shape))]
    h = 1e-6
    worst = {}

    def note(name, got, want):
        err = abs(got - want) / max(1.0, abs(want))
        worst[name] = max(worst.get(name, 0.0), err)

    for j, i in nodes:
        ph, sg, zz = float(phi[j, i]), float(sigma[j, i]), float(z[j, i])
        ee = eps[:, j, i].copy()
        x1, x2 = float(chi1[j, i]), float(chi2[j, i])

        U = lambda a, b, c, d: float(mdl.eval_U(a, b, c, d, spec))
        note("a1", co.a1[j, i], _central(lambda v: U(v, sg, zz, x1), ph, h))
        note("a2", co.a2[j, i], _central(lambda v: U(ph, v, zz, x1), sg, h))
        note("a3", co.a3[j, i], _central(lambda v: U(ph, sg, v, x1), zz, h))
        note("a4", co.a4[j, i], _central(lambda v: U(ph, sg, zz, v), x1, h))

        R = lambda a, b, c, d: float(d * spec.S.value(a, c) - mdl.eval_K(a, b, c, spec))
        note("b1", co.b1[j, i], _central(lambda v: R(v, sg, zz, x2), ph, h))
        note("b2", co.b2[j, i], _central(lambda v: R(ph, v, zz, x2), sg, h))
        note("b3", co.b3[j, i], _central(lambda v: R(ph, sg, v, x2), zz, h))
        note("b4", co.b4[j, i], _central(lambda v: R(ph, sg, zz, v), x2, h))

        for comp in range(3):
            stress_p = lambda a: float(
                stress_from_strain(spec.B_mu.value(a, zz), spec.B_lam.value(a, zz), ee)[comp]
            )
            stress_z = lambda c: float(
                stress_from_strain(spec.B_mu.value(ph, c), spec.B_lam.value(ph, c), ee)[comp]
            )
            note("c1", co.c1[comp, j, i], -_central(stress_p, ph, h))
            note("c2", co.c2[comp, j, i], -_central(stress_z, zz, h))

        psi = lambda a, e: float(spec.psi.value(np.array([a]), e.reshape(3, 1))[0])
        note("d1", co.d1[j, i], -_central(lambda v: psi(v, ee), ph, h))
        for comp, scale in ((0, 1.0), (1, 1.0), (2, 2.0)):

            def psi_comp(v, comp=comp):
                e = ee.copy()
                e[comp] = v
                return psi(ph, e)

            note("d2", co.d2[comp, j, i], -_central(psi_comp, ee[comp], h) / scale)

        barrier = lambda v: float(mdl.beta(v, spec) + mdl.pi(v, spec))
        note("d3", co.d3[j, i], -_central(barrier, zz, min(h, 0.1 * zz * (1 - zz))))
    return worst


def test_coefficient_correctness(announce):
    worst = {}
    for variant in (False, True):
        spec = mdl.DefaultLogisticFamily(k2_variable=variant).build(Grid.unit(8, 8))
        for name, err in _coefficient_errors(spec).items():
            worst[name] = max(worst.get(name, 0.0), err)
    top = max(worst.values())
    ok = len(worst) == 13 and top < 1e-5
    announce(
        6,
        "coefficient-table",
        ok,
        f"{len(worst)} coefficients vs central differences at 50 nodes "
        f"on two kinetic variants, worst relative error {top:.2e} (< 1e-5)",
    )
    assert len(worst) == 13
    assert top < 1e-5


def test_adjoint_gradient_and_duality(announce):
    w = full_weights()
    levels = {}
    for nx, K in ((24, 100), (48, 200)):
        sc = smooth_scenario(nx=nx, n_steps=K)
        spec = sc.spec
        tg = Targets.resting(spec)
        traj = solve_state(sc.control, spec)
        adj = solve_adjoint(traj, w, tg, spec)
        grad = reduced_gradient(traj, adj, w, spec)
        rng = np.random.default_rng(11)
        errs = []
        for _ in range(5):
            d = _uniform_direction(rng, K, spec.grid)
            pred = control_inner(grad, d, spec.grid, spec.T)
            ref = fd_directional(sc.control, d, w, tg, spec)
            errs.append(abs(pred - ref) / abs(ref))
        dd = _uniform_direction(rng, K, spec.grid)
        lin = solve_linearized(traj, dd, spec)
        dual = duality_residual(traj, lin, adj, dd, w, tg, spec)
        levels[(nx, K)] = (errs, dual["rel"])

    coarse_errs, coarse_dual = levels[(24, 100)]
    fine_errs, fine_dual = levels[(48, 200)]
    grad_impr = max(coarse_errs) / max(fine_errs)
    dual_impr = coarse_dual / fine_dual
    ok = (
        max(fine_errs) < 1e-2
        and grad_impr >= 1.5
        and fine_dual < 5e-2
        and dual_impr >= 1.5
    )
    announce(
        7,
        "adjoint-gradient",
        ok,
        f"5 directions at 48x48/200 steps: worst relative error {max(fine_errs):.2e} "
        f"(< 1e-2), improving {grad_impr:.2f}x from 24x24/100 (>= 1.5); "
        f"duality residual {fine_dual:.2e} (< 5e-2), improving {dual_impr:.2f}x",
    )
    assert max(fine_errs) < 1e-2
    assert grad_impr >= 1.5
    assert fine_dual < 5e-2
    assert dual_impr >= 1.5


def test_optimizer(announce):
    sc = smooth_scenario(nx=6, n_steps=4)
    spec = sc.spec
    effort = CostWeights(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0)
    tgz = Targets.zeros(spec.grid)
    adm = AdmissibleSet()
    res1 = optimize(
        spec, effort, tgz, adm,
        Control.constant(spec.grid, 4, 0.5, 0.5),
        max_iters=200, tol=1e-12,
    )
    vi = vi_residual(res1.control, res1.gradient, spec, adm)

    # unconstrained effort minimum has an exactly zero gradient, so also
    # certify a candidate pinned to an active box face, where the
    # optimality pairing is nonzero and the sign actually matters
    boxed = AdmissibleSet(0.1, 1.0, 0.1, 1.0)
    res_face = optimize(
        spec, effort, tgz, boxed,
        Control.constant(spec.grid, 4, 0.8, 0.8),
        max_iters=200, tol=1e-12,
    )
    vi_face = vi_residual(res_face.control, res_face.gradient, spec, boxed)

    pair = synthetic_inverse_pair(nx=10, n_steps=12)
    w, tg = pair.extras["weights"], pair.extras["targets"]
    zero = Control.zeros(pair.spec.grid, pair.n_steps)
    j0, _ = eval_cost(solve_state(zero, pair.spec), w, tg, pair.spec)
    res2 = optimize(pair.spec, w, tg, AdmissibleSet(), zero, max_iters=12, tol=1e-10, step0=16.0)
    costs = [r[1] for r in res2.history]
    monotone = all(b <= a + 1e-15 for a, b in zip(costs, costs[1:]))

    ok = (
        res1.cost < 1e-8
        and res1.iterations <= 200
        and vi.worst_pairing >= -1e-6 * vi.scale
        and vi_face.worst_pairing >= -1e-6 * vi_face.scale
        and monotone
        and res2.cost <= 0.5 * j0
    )
    announce(
        8,
        "optimizer",
        ok,
        f"quadratic floor {res1.cost:.2e} (< 1e-8) in {res1.iterations} iterations; "
        f"optimality pairings {vi.worst_pairing:+.2e} (free) and "
        f"{vi_face.worst_pairing:+.2e} at scale {vi_face.scale:.2e} (box face), "
        f"both >= -1e-6*scale; synthetic inverse monotone={monotone}, "
        f"cost {j0:.3e} -> {res2.cost:.3e} (<= half)",
    )
    assert res1.cost < 1e-8
    assert res1.iterations <= 200
    assert vi.worst_pairing >= -1e-6 * vi.scale
    assert vi_face.worst_pairing >= -1e-6 * vi_face.scale
    assert monotone
    assert res2.cost <= 0.5 * j0


def test_determinism(tmp_path, announce):
    cfg = tmp_path / "run.ini"
    cfg.write_text(
        """
[grid]
nx = 8
ny = 8
[time]
t_final = 0.3
steps = 6
[model]
phi0 = gaussian:0.2,0.5,0.5,0.04
[controls]
chi1 = const:0.1
chi2 = const:0.15
[cost]
alpha1 = 0.0
alpha2 = 0.0
alpha9 = 1.0
[optimizer]
max_iters = 5
[run]
seed = 9
"""
    )
    pairs = []
    for cmd, sub in (("simulate", "sim"), ("optimize", "opt")):
        a, b = tmp_path / f"{sub}_a", tmp_path / f"{sub}_b"
        assert main([cmd, "--config", str(cfg), "--out", str(a)]) == 0
        assert main([cmd, "--config", str(cfg), "--out", str(b)]) == 0
        names = sorted(p.name for p in a.iterdir() if p.suffix == ".csv")
        assert names and names == sorted(p.name for p in b.iterdir() if p.suffix == ".csv")
        same = all((a / n).read_bytes() == (b / n).read_bytes() for n in names)
        pairs.append((cmd, len(names), same))
    ok = all(same for _, _, same in pairs)
    announce(
        9,
        "determinism",
        ok,
        "; ".join(f"{cmd}: {n} CSV files byte-identical={same}" for cmd, n, same in pairs),
    )
    assert ok
