"""Adjoint tests: cost quadrature against closed forms, the cost partials
against central differences of the cost, terminal payoffs, a decoupled
backward recursion oracle, and the duality gap ladder."""
from dataclasses import replace

import numpy as np
import pytest

from tumorctrl import model as mdl
from tumorctrl.adjoint import (
    AdjointTrajectory,
    CostWeights,
    Targets,
    duality_residual,
    eval_cost,
    march_adjoint,
    running_partials,
    solve_adjoint,
    terminal_partials,
)
from tumorctrl.control import reduced_gradient
from tumorctrl.grid import Grid, tensor_dot, trapezoid_weights
from tumorctrl.linearized import solve_linearized
from tumorctrl.state import Control, Diagnostics, StateTrajectory, solve_state

from scenarios import smooth_scenario


def constant_trajectory(spec, K=4, T=0.4, phi=0.3, sigma=0.6, z=0.5, shear=0.2, c1=0.7, c2=0.4):
    grid = spec.grid
    x, _ = grid.meshes
    u = np.stack([shear * x, np.zeros(grid.shape)])
    times = np.linspace(0.0, T, K + 1)
    rep = lambda f: np.repeat(f[None], K + 1, axis=0)
    control = Control.constant(grid, K, c1, c2)
    return StateTrajectory(
        grid=grid,
        times=times,
        phi=rep(np.full(grid.shape, phi)),
        sigma=rep(np.full(grid.shape, sigma)),
        u=rep(u),
        z=rep(np.full(grid.shape, z)),
        control=control,
        diagnostics=Diagnostics.empty(control, spec),
    )


def test_cost_closed_form_on_constants():
    g = Grid.unit(8, 8)
    spec = mdl.DefaultLogisticFamily().build(g)
    traj = constant_trajectory(spec)
    T, area = 0.4, 1.0
    w = CostWeights(1.0, 2.0, 0.5, 3.0, 0.25, 1.5, 0.8, 0.6, 0.1)
    tg = Targets(
        phi_track=np.full(g.shape, 0.1),
        phi_final=np.full(g.shape, 0.05),
        sigma_track=np.full(g.shape, 0.5),
        sigma_final=np.full(g.shape, 0.55),
        z_track=np.full(g.shape, 0.45),
    )
    total, parts = eval_cost(traj, w, tg, spec)
    gam = float(spec.gamma.value(np.array(0.3)))
    want = {
        "phi-tracking": 0.5 * 1.0 * T * (0.3 - 0.1) ** 2 * area,
        "phi-final-tracking": 0.5 * 2.0 * (0.3 - 0.05) ** 2 * area,
        "phi-final-mass": 0.5 * 0.3 * area,
        "sigma-tracking": 0.5 * 3.0 * T * (0.6 - 0.5) ** 2 * area,
        "sigma-final-tracking": 0.5 * 0.25 * (0.6 - 0.55) ** 2 * area,
        "strain-burden": 0.5 * 1.5 * T * gam * 0.2**2 * area,
        "z-tracking": 0.5 * 0.8 * T * (0.5 - 0.45) ** 2 * area,
        "z-final-mass": 0.6 * 0.5 * area,
        "dose-effort": 0.5 * 0.1 * T * (0.7**2 + 0.4**2) * area,
    }
    for name, val in want.items():
        assert parts[name] == pytest.approx(val, rel=1e-12), name
    assert total == pytest.approx(sum(want.values()), rel=1e-12)


def test_cost_partials_are_the_derivative_of_eval_cost():
    # a synthetic trajectory with strains of order 0.1, so that every
    # partial is well above the differences' rounding; the cost is
    # quadratic in each field except through gamma, so central differences
    # match the partials to O(h^2)
    g = Grid.unit(8, 8)
    spec = mdl.DefaultLogisticFamily().build(g)
    K, x, y = 4, *g.meshes
    lv = np.arange(K + 1)[:, None, None]
    u = np.stack([0.2 * x * y, 0.1 * np.sin(np.pi * x) * y])
    control = Control.constant(g, K, 0.7, 0.4)
    traj = StateTrajectory(
        grid=g,
        times=np.linspace(0.0, 0.4, K + 1),
        phi=0.3 + 0.1 * np.sin(np.pi * x) * np.cos(np.pi * y) + 0.02 * lv,
        sigma=0.6 + 0.1 * x * y - 0.01 * lv,
        u=u * (1.0 + 0.1 * lv[:, None]),
        z=0.5 + 0.05 * np.cos(np.pi * x) + 0.01 * lv,
        control=control,
        diagnostics=Diagnostics.empty(control, spec),
    )
    w = CostWeights(1.0, 2.0, 0.5, 3.0, 0.25, 1.5, 0.8, 0.6, 0.1)
    tg = Targets(0.1 + 0.05 * x, 0.2 * y, 0.4 + 0.2 * x * y, 0.5 - 0.1 * x, 0.45 + 0.05 * y)
    tw = traj.tau * trapezoid_weights(K)
    wq = g.quad_weights.reshape(g.shape)
    h = 1e-4

    def central(name, n, delta):
        costs = []
        for sign in (1.0, -1.0):
            moved = getattr(traj, name).copy()
            moved[n] += sign * h * delta
            costs.append(eval_cost(replace(traj, **{name: moved}), w, tg, spec)[0])
        return (costs[0] - costs[1]) / (2.0 * h)

    terminal = terminal_partials(traj, w, tg)
    for n in (0, 2, K):
        eps = traj.strain(n, n + 1)[:, 0]
        l_phi, l_sigma, l_z, l_eps = running_partials(traj.phi[n], traj.sigma[n], traj.z[n], eps, w, tg, spec)
        for node in ((0, 0), (3, 5), (8, 2)):
            delta = np.zeros(g.shape)
            delta[node] = 1.0
            for name, part, end in zip(("phi", "sigma", "z"), (l_phi, l_sigma, l_z), terminal):
                want = wq[node] * (tw[n] * part[node] + (end[node] if n == K else 0.0))
                assert central(name, n, delta) == pytest.approx(want, rel=1e-7), (name, n, node)
            du = np.zeros((2,) + g.shape)
            du[0][node], du[1][node[::-1]] = 1.0, -0.5
            want = tw[n] * g.integrate(tensor_dot(l_eps, g.sym_grad(du)))
            assert central("u", n, du) == pytest.approx(want, rel=1e-7), ("u", n, node)


def test_cost_weight_validation():
    with pytest.raises(ValueError):
        CostWeights(alpha1=-1.0).validate()
    with pytest.raises(ValueError):
        CostWeights(*([0.0] * 9)).validate()
    CostWeights().validate()


def test_target_validation():
    g = Grid.unit(6, 6)
    t = Targets.zeros(g)
    t.validate(g)
    t.phi_track = np.zeros((3, 3))
    with pytest.raises(ValueError, match="phi_track"):
        t.validate(g)


@pytest.fixture(scope="module")
def small_run():
    sc = smooth_scenario(nx=8, n_steps=8)
    return sc, solve_state(sc.control, sc.spec)


def full_weights():
    return CostWeights(1.0, 0.5, 0.2, 1.0, 0.5, 0.3, 1.0, 0.2, 1e-3)


def adjoint_levels(traj, w, tg, spec):
    """The (q, r, v, s) levels march_adjoint yields, stacked in time order."""
    levels = list(march_adjoint(traj, w, tg, spec))[::-1]
    return tuple(np.array(field) for field in zip(*levels))


def test_terminal_payoffs(small_run):
    sc, traj = small_run
    w = full_weights()
    tg = Targets.resting(sc.spec)
    adj = solve_adjoint(traj, w, tg, sc.spec)
    K = traj.n_steps
    assert np.allclose(adj.q[K], 0.5 * (traj.phi[K] - tg.phi_final) + 0.2, atol=1e-14)
    assert np.allclose(adj.r[K], 0.5 * (traj.sigma[K] - tg.sigma_final), atol=1e-14)
    q, r, v, s = next(march_adjoint(traj, w, tg, sc.spec))
    assert np.array_equal(q, adj.q[K]) and np.array_equal(r, adj.r[K])
    assert np.all(v == 0.0)
    assert np.allclose(s, 0.2, atol=1e-14)


def test_dose_only_cost_gives_zero_adjoint(small_run):
    sc, traj = small_run
    w = CostWeights(0, 0, 0, 0, 0, 0, 0, 0, 1.0)
    adj = solve_adjoint(traj, w, Targets.zeros(sc.spec.grid), sc.spec)
    for arr in (adj.q, adj.r) + adjoint_levels(traj, w, Targets.zeros(sc.spec.grid), sc.spec):
        assert np.abs(arr).max() == 0.0


def test_backward_recursion_oracle():
    # tumor-free stationary state decouples the dual system into two
    # scalar backward recursions through the damage coupling
    g = Grid.unit(8, 8)
    base = mdl.DefaultLogisticFamily().build(g)
    zbar = 0.45
    iota = float(mdl.beta(zbar, base) + mdl.pi(zbar, base))
    spec = replace(
        base,
        phi0=np.zeros(g.shape),
        sigma0=np.zeros(g.shape),
        sigma_gamma=np.zeros(g.shape),
        z0=np.full(g.shape, zbar),
        u0=np.zeros((2,) + g.shape),
        f=np.zeros((2,) + g.shape),
        iota=np.full(g.shape, iota),
    )
    K = 12
    traj = solve_state(Control.zeros(g, K), spec)
    w = CostWeights(0, 0, 1.0, 0, 0, 0, 0, 0.7, 0)
    adj = solve_adjoint(traj, w, Targets.zeros(g), spec)
    q, r, v, s = adjoint_levels(traj, w, Targets.zeros(g), spec)
    assert np.array_equal(q, adj.q) and np.array_equal(r, adj.r)

    tau = traj.tau
    a1 = float(spec.p.value(0.0, zbar) - spec.g.value(0.0, zbar))
    d1 = -float(spec.psi.grad(np.array(0.0), np.zeros(3))[0])
    slope = float(mdl.beta_prime(zbar, spec) + mdl.pi_prime(zbar, spec))
    q_ref = np.zeros(K + 1)
    s_ref = np.zeros(K + 1)
    q_ref[K], s_ref[K] = 1.0, 0.7
    for m in range(K, 0, -1):
        q_ref[m - 1] = q_ref[m] + tau * (a1 * q_ref[m] + d1 * s_ref[m])
        s_ref[m - 1] = s_ref[m] / (1.0 + tau * slope)
    for n in range(K + 1):
        assert np.abs(adj.q[n] - q_ref[n]).max() < 1e-9
        assert np.abs(s[n] - s_ref[n]).max() < 1e-9
    assert np.abs(adj.r).max() < 1e-12
    assert np.abs(v).max() < 1e-12


def test_duality_gap_shrinks_with_step():
    w = full_weights()
    rng = np.random.default_rng(23)
    rels = []
    for K in (8, 16, 32):
        sc = smooth_scenario(nx=10, n_steps=K)
        traj = solve_state(sc.control, sc.spec)
        tg = Targets.resting(sc.spec)
        g = sc.spec.grid
        x, y = g.meshes
        base1 = np.sin(np.pi * x) * np.sin(np.pi * y)
        base2 = 0.5 + 0.5 * np.cos(np.pi * x)
        h = Control(
            np.repeat(base1[None], K + 1, axis=0), np.repeat(base2[None], K + 1, axis=0)
        )
        lin = solve_linearized(traj, h, sc.spec)
        adj = solve_adjoint(traj, w, tg, sc.spec)
        out = duality_residual(traj, lin, adj, h, w, tg, sc.spec)
        rels.append(out["rel"])
    assert rels[0] > rels[1] > rels[2]
    assert rels[2] < 5e-2


def test_duality_residual_rejects_mismatched_inputs(small_run):
    sc, traj = small_run
    w, tg = full_weights(), Targets.resting(sc.spec)
    adj = solve_adjoint(traj, w, tg, sc.spec)
    lin = solve_linearized(traj, sc.control, sc.spec)
    longer = smooth_scenario(nx=8, n_steps=traj.n_steps + 2)
    long_traj = solve_state(longer.control, longer.spec)
    long_lin = solve_linearized(long_traj, longer.control, longer.spec)
    long_adj = solve_adjoint(long_traj, w, tg, longer.spec)
    run = lambda lin=lin, adj=adj, d=sc.control, w=w, tg=tg: duality_residual(
        traj, lin, adj, d, w, tg, sc.spec
    )
    with pytest.raises(ValueError, match=r"^lin has levels \(11, 9, 9\), the trajectory \(9, 9, 9\)"):
        run(lin=long_lin)
    with pytest.raises(ValueError, match=r"^adj has levels \(11, 9, 9\)"):
        run(adj=long_adj)
    with pytest.raises(ValueError, match=r"^direction has levels \(11, 9, 9\)"):
        run(d=longer.control)
    with pytest.raises(ValueError, match=r"^direction has levels \(9, 7, 7\)"):
        run(d=Control.zeros(Grid.unit(6, 6), traj.n_steps))
    nan = sc.control.chi2.copy()
    nan[3, 2, 2] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        run(d=Control(sc.control.chi1, nan))
    with pytest.raises(ValueError, match="cost weights"):
        run(w=CostWeights(alpha1=-1.0))
    with pytest.raises(ValueError, match="z_track"):
        run(tg=Targets(tg.phi_track, tg.phi_final, tg.sigma_track, tg.sigma_final, np.zeros((3, 3))))
    assert run()["gap"] >= 0.0


def sensitivity_sequence(control, directions, weights, targets, spec):
    """The calls of the sensitivity benchmark: state, adjoint and gradient,
    then a tangent and its duality pairing per direction, the previous
    tangent still alive while the next one is solved."""
    traj = solve_state(control, spec)
    adj = solve_adjoint(traj, weights, targets, spec)
    grad = reduced_gradient(traj, adj, weights, spec)
    lin = None
    for d in directions:
        lin = solve_linearized(traj, d, spec)
        duality_residual(traj, lin, adj, d, weights, targets, spec)
    return grad


def test_sweeps_and_pairings_store_only_what_they_read(traced_peak, field_bytes):
    sc = smooth_scenario(nx=12, n_steps=120)
    spec = sc.spec
    rng = np.random.default_rng(3)
    shape = sc.control.chi1.shape
    directions = [Control(rng.uniform(0.0, 1.0, shape), rng.uniform(0.0, 1.0, shape)) for _ in range(2)]
    solve_state(sc.control, spec)  # the cached step operators are built outside the trace
    _, peak = traced_peak(
        sensitivity_sequence, sc.control, directions, full_weights(), Targets.resting(spec), spec
    )
    # the trajectory (5 fields), q and r, the gradient (2) and two tangents
    # (5 each) make 19; the coefficient blocks of a sweep bring the peak to
    # 32.2 here.  It was 40.8 while the adjoint stored v and s, the tangent
    # its strain, and the pairing built the strain of every level at once.
    assert peak < 36 * field_bytes(spec.grid, 120)
