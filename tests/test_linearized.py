"""Tangent solver tests: coefficient tables against finite differences,
linearity, and the Taylor remainder ladder."""
from dataclasses import fields, replace

import numpy as np
import pytest

from tumorctrl import linearized
from tumorctrl import model as mdl
from tumorctrl.adjoint import (
    CostWeights,
    Targets,
    march_adjoint,
    running_partials,
    solve_adjoint,
    terminal_partials,
)
from tumorctrl.errors import DomainError
from tumorctrl.grid import Grid, stress_from_strain, tensor_dot
from tumorctrl.linearized import (
    LinearizedCoefficients,
    TangentStep,
    assemble_coefficients,
    block_steps,
    coefficient_levels,
    one_sided,
    solve_linearized,
    taylor_test,
    trajectory_distance,
)
from tumorctrl.state import (
    Control, solve_state, step_operators, step_phi, step_sigma, step_u, step_z, u_operator,
)

from scenarios import bounds_stress_scenario, level_coefficients, smooth_scenario


@pytest.fixture(scope="module", params=["default", "k2-variable"])
def spec(request):
    fam = mdl.DefaultLogisticFamily(k2_variable=request.param == "k2-variable")
    return fam.build(Grid.unit(8, 8))


def random_fields(spec, seed=5):
    g = spec.grid
    rng = np.random.default_rng(seed)
    phi = rng.uniform(0.05, 0.95 * spec.N, g.shape)
    sigma = rng.uniform(0.05, 1.5, g.shape)
    z = rng.uniform(0.1, 0.9, g.shape)
    eps = 0.2 * rng.standard_normal((3,) + g.shape)
    chi1 = rng.uniform(0.0, 1.0, g.shape)
    chi2 = rng.uniform(0.0, 1.0, g.shape)
    return phi, sigma, z, eps, chi1, chi2


def central(f, x, h):
    return (f(x + h) - f(x - h)) / (2.0 * h)


def test_assembly_evaluates_each_logistic_map_once(monkeypatch):
    spec = mdl.DefaultLogisticFamily().build(Grid.unit(8, 8))
    expit, calls = mdl.expit, []

    def counted(x):
        calls.append(1)
        return expit(x)

    monkeypatch.setattr(mdl, "expit", counted)
    level_coefficients(*random_fields(spec), spec)
    # p, g, k1 and S with both partials, and the partials of the two moduli
    assert len(calls) == 6


def test_coefficients_match_finite_differences(spec):
    # every entry of the table is the derivative of a parent nonlinearity;
    # probe 50 random nodes per coefficient against central differences
    phi, sigma, z, eps, chi1, chi2 = random_fields(spec)
    co = level_coefficients(phi, sigma, z, eps, chi1, chi2, spec)
    rng = np.random.default_rng(11)
    g = spec.grid
    flat = [(int(j), int(i)) for j, i in zip(*np.unravel_index(
        rng.choice(g.n_nodes, size=50, replace=False), g.shape))]

    def rel(got, want):
        return abs(got - want) / max(1.0, abs(want))

    for j, i in flat:
        ph, sg, zz = phi[j, i], sigma[j, i], z[j, i]
        ee = eps[:, j, i]
        x1, x2 = chi1[j, i], chi2[j, i]
        h = 1e-6

        U = lambda a, b, c, d: float(mdl.eval_U(a, b, c, d, spec))
        assert rel(co.a1[j, i], central(lambda v: U(v, sg, zz, x1), ph, h)) < 1e-5
        assert rel(co.a2[j, i], central(lambda v: U(ph, v, zz, x1), sg, h)) < 1e-5
        assert rel(co.a3[j, i], central(lambda v: U(ph, sg, v, x1), zz, h)) < 1e-5
        assert rel(co.a4[j, i], central(lambda v: U(ph, sg, zz, v), x1, h)) < 1e-5

        R = lambda a, b, c, d: float(
            d * spec.S.value(a, c) - mdl.eval_K(a, b, c, spec)
        )
        assert rel(co.b1[j, i], central(lambda v: R(v, sg, zz, x2), ph, h)) < 1e-5
        assert rel(co.b2[j, i], central(lambda v: R(ph, v, zz, x2), sg, h)) < 1e-5
        assert rel(co.b3[j, i], central(lambda v: R(ph, sg, v, x2), zz, h)) < 1e-5
        assert rel(co.b4[j, i], central(lambda v: R(ph, sg, zz, v), x2, h)) < 1e-5

        for comp in range(3):
            stress = lambda a: float(
                stress_from_strain(spec.B_mu.value(a, zz), spec.B_lam.value(a, zz), ee)[comp]
            )
            assert rel(co.c1[comp, j, i], -central(stress, ph, h)) < 1e-5
            stress_z = lambda c: float(
                stress_from_strain(spec.B_mu.value(ph, c), spec.B_lam.value(ph, c), ee)[comp]
            )
            assert rel(co.c2[comp, j, i], -central(stress_z, zz, h)) < 1e-5

        psi = lambda a, e: float(spec.psi.value(np.array([a]), e.reshape(3, 1))[0])
        assert rel(co.d1[j, i], -central(lambda v: psi(v, ee), ph, h)) < 1e-5
        for comp, scale in ((0, 1.0), (1, 1.0), (2, 2.0)):
            def psi_comp(v):
                e = ee.copy()
                e[comp] = v
                return psi(ph, e)
            want = -central(psi_comp, ee[comp], h) / scale
            assert rel(co.d2[comp, j, i], want) < 1e-5

        barrier = lambda v: float(mdl.beta(v, spec) + mdl.pi(v, spec))
        assert rel(co.d3[j, i], -central(barrier, zz, min(h, 0.1 * zz * (1 - zz)))) < 1e-5


def test_non_finite_coefficient_is_a_domain_error(spec):
    phi, sigma, z, eps, chi1, chi2 = random_fields(spec)
    chi2 = chi2.copy()
    chi2[4, 1] = np.nan
    with pytest.raises(DomainError, match=r"coefficient b1 non-finite at step 0, node \(4, 1\)"):
        level_coefficients(phi, sigma, z, eps, chi1, chi2, spec)


def test_coefficient_validation_names_bad_node(spec):
    phi, sigma, z, eps, chi1, chi2 = random_fields(spec)
    phi = phi.copy()
    phi[2, 3] = np.nan
    with pytest.raises(ValueError, match=r"coefficient a1 non-finite at step 0, node \(2, 3\)"):
        level_coefficients(phi, sigma, z, eps, chi1, chi2, spec)


def test_block_error_names_the_step(spec):
    levels = [random_fields(spec, seed=s) for s in range(4)]
    phi, sigma, z, eps, chi1, chi2 = (np.stack(f) for f in zip(*levels))
    eps = np.moveaxis(eps, 1, 0)
    chi2[2, 4, 1] = np.nan
    with pytest.raises(DomainError, match=r"coefficient b1 non-finite at step 12, node \(4, 1\)"):
        assemble_coefficients(phi, sigma, z, eps, chi1, chi2, spec, phi, z, 10)
    chi2[2, 4, 1] = 0.5
    eps[1, 3, 2, 5] = np.nan
    with pytest.raises(DomainError, match=r"coefficient c1 non-finite at step 13, node \(0, 2, 5\)"):
        assemble_coefficients(phi, sigma, z, eps, chi1, chi2, spec, phi, z, 10)


def test_block_error_names_the_earliest_step_before_the_component():
    # a tensor's component leads its node, but the earliest step decides
    shape = (4, 3, 5)
    block = LinearizedCoefficients(**{
        f.name: np.zeros((3,) + shape if f.name in ("c1", "c2", "d2") else shape)
        for f in fields(LinearizedCoefficients)
    })
    block.d2[0, 3, 0, 0] = np.nan
    block.d2[1, 1, 2, 4] = np.inf
    with pytest.raises(DomainError, match=r"coefficient d2 non-finite at step 11, node \(1, 2, 4\)$"):
        block.validate(10)


def test_block_steps_follow_byte_budget(monkeypatch):
    assert block_steps(Grid.unit(24, 24)) == 6
    assert block_steps(Grid.unit(48, 48)) == 1
    assert block_steps(Grid.unit(96, 96)) == 1
    assert block_steps(Grid.unit(400, 400)) == 1
    monkeypatch.setattr(linearized, "BLOCK_BYTES", 1)
    assert block_steps(Grid.unit(8, 8)) == 1


def reference_tangent(traj, direction, spec):
    """Per-step tangent march, one coefficient evaluation per level."""
    g, K, tau = spec.grid, traj.n_steps, traj.tau
    chi1, chi2 = traj.control.chi1, traj.control.chi2
    xi, rho, zeta = (np.zeros((K + 1,) + g.shape) for _ in range(3))
    omega, eps_omega = np.zeros((K + 1, 2) + g.shape), np.zeros((K + 1, 3) + g.shape)
    ops = step_operators(spec, tau)
    gtw = g.sym_grad_weighted_transpose
    for n in range(K):
        co = level_coefficients(
            traj.phi[n], traj.sigma[n], traj.z[n], g.sym_grad(traj.u[n + 1]), chi1[n], chi2[n], spec,
            phi_mech=traj.phi[n + 1], z_slope=traj.z[n + 1],
        )
        rhs = xi[n] + tau * (co.a1 * xi[n] + co.a2 * rho[n] + co.a3 * zeta[n] + co.a4 * direction.chi1[n])
        xi[n + 1] = ops.neumann(rhs)
        rhs = rho[n] + tau * (co.b1 * xi[n] + co.b2 * rho[n] + co.b3 * zeta[n] + co.b4 * direction.chi2[n])
        rho[n + 1] = ops.robin(rhs)
        load = gtw @ (co.c1 * xi[n + 1] + co.c2 * zeta[n]).reshape(3, -1).ravel()
        M_int = u_operator(spec, *mdl.eval_B(traj.phi[n + 1], traj.z[n], spec), tau)
        omega[n + 1], eps_omega[n + 1], _ = ops.displace(omega[n], load, M_int, "omega-step")
        rhs = zeta[n] + tau * (co.d1 * xi[n + 1] + tensor_dot(co.d2, eps_omega[n + 1]))
        zeta[n + 1], _ = ops.damage(1.0 - tau * co.d3, rhs, "zeta-step", x0=zeta[n])
    return xi, rho, omega, zeta, np.moveaxis(eps_omega, 1, 0)


def reference_adjoint(traj, weights, targets, spec):
    """Per-step adjoint march, one coefficient evaluation per level.

    Its sources are the cost partials the march reads, so the two agree
    bitwise; test_cost_partials_are_the_derivative_of_eval_cost checks the
    partials themselves.
    """
    g, K, tau = spec.grid, traj.n_steps, traj.tau
    chi1, chi2 = traj.control.chi1, traj.control.chi2
    q, r, s = (np.zeros((K + 1,) + g.shape) for _ in range(3))
    v, eps_v = np.zeros((K + 1, 2) + g.shape), np.zeros((K + 1, 3) + g.shape)
    q[K], r[K], s[K] = terminal_partials(traj, weights, targets)
    ops = step_operators(spec, tau)
    gtw = g.sym_grad_weighted_transpose
    for m in range(K, 0, -1):
        ph, sg, zz, ee = traj.phi[m], traj.sigma[m], traj.z[m], g.sym_grad(traj.u[m])
        co = level_coefficients(ph, sg, zz, ee, chi1[m], chi2[m], spec)
        l_phi, l_sigma, l_z, l_eps = running_partials(ph, sg, zz, ee, weights, targets, spec)
        f_q = co.a1 * q[m] + co.b1 * r[m] + co.d1 * s[m] - tensor_dot(co.c1, eps_v[m]) + l_phi
        q[m - 1] = ops.neumann(q[m] + tau * f_q)
        f_r = co.a2 * q[m] + co.b2 * r[m] + l_sigma
        r[m - 1] = ops.robin(r[m] + tau * f_r)
        load = gtw @ (co.d2 * s[m] + l_eps).reshape(3, -1).ravel()
        M_int = u_operator(spec, *mdl.eval_B(ph, traj.z[m - 1], spec), tau)
        v[m - 1], eps_v[m - 1], _ = ops.displace(v[m], load, M_int, "v-step")
        f_s = co.a3 * q[m] + co.b3 * r[m] - tensor_dot(co.c2, eps_v[m]) + l_z
        s[m - 1], _ = ops.damage(1.0 - tau * co.d3, s[m] + tau * f_s, "s-step", x0=s[m])
    return q, r, v, s


def test_blocked_sweeps_equal_per_step_reference(monkeypatch):
    # five levels per block: 12 steps end on a partial block
    monkeypatch.setattr(linearized, "BLOCK_BYTES", 5 * 8 * 81)
    sc = smooth_scenario(nx=8, n_steps=12)
    assert block_steps(sc.spec.grid) == 5
    traj = solve_state(sc.control, sc.spec)
    weights = CostWeights(alpha3=0.5, alpha5=1.0, alpha6=1.0, alpha7=1.0, alpha8=0.5)
    targets = Targets.resting(sc.spec)

    lin = solve_linearized(traj, sc.control, sc.spec)
    want = reference_tangent(traj, sc.control, sc.spec)
    for got, ref in zip((lin.xi, lin.rho, lin.omega, lin.zeta, lin.strain()), want):
        assert np.array_equal(got, ref)
    assert np.array_equal(lin.strain(4, 9), want[4][:, 4:9])

    levels = list(march_adjoint(traj, weights, targets, sc.spec))[::-1]
    want = reference_adjoint(traj, weights, targets, sc.spec)
    for got, ref in zip(zip(*levels), want):
        assert np.array_equal(np.array(got), ref)
    adj = solve_adjoint(traj, weights, targets, sc.spec)
    assert np.array_equal(adj.q, want[0]) and np.array_equal(adj.r, want[1])


def test_tangent_evaluates_the_moduli_once_per_block(monkeypatch, small_run):
    # five levels per block: the 6 steps make two blocks
    monkeypatch.setattr(linearized, "BLOCK_BYTES", 5 * 8 * 81)
    sc, traj = small_run
    calls = []

    def counting(name, m):
        def value(a, b):
            # step_operators takes its reference moduli at the initial data
            calls.append((name, "value", a is sc.spec.phi0))
            return m.value(a, b)

        def value_grad(a, b):
            calls.append((name, "value_grad", a is sc.spec.phi0))
            return m.value_grad(a, b)

        return replace(m, value=value, value_grad=value_grad)

    spec = replace(sc.spec, B_mu=counting("mu", sc.spec.B_mu), B_lam=counting("lam", sc.spec.B_lam))
    lin = solve_linearized(traj, sc.control, spec)
    reference = [(name, "value", True) for name in ("mu", "lam")]
    blocks = [(name, "value_grad", False) for name in ("mu", "lam")] * 2
    assert sorted(calls) == sorted(reference + blocks)
    assert np.array_equal(lin.omega, solve_linearized(traj, sc.control, sc.spec).omega)


def test_sweep_errors_name_the_step(monkeypatch, small_run):
    monkeypatch.setattr(linearized, "BLOCK_BYTES", 5 * 8 * 81)
    sc, traj = small_run
    chi2 = traj.control.chi2.copy()
    chi2[3, 4, 1] = np.nan
    bad = replace(traj, control=Control(traj.control.chi1, chi2))
    with pytest.raises(DomainError, match=r"coefficient b1 non-finite at step 3, node \(4, 1\)"):
        solve_linearized(bad, sc.control, sc.spec)
    with pytest.raises(DomainError, match=r"coefficient b1 non-finite at step 3, node \(4, 1\)"):
        solve_adjoint(bad, CostWeights(), Targets.resting(sc.spec), sc.spec)


@pytest.fixture(scope="module")
def small_run():
    sc = smooth_scenario(nx=8, n_steps=6)
    traj = solve_state(sc.control, sc.spec)
    return sc, traj


def test_tangent_step_is_the_derivative_of_one_forward_step(small_run):
    # the state substeps rebuild level n + 1 from stored level n bitwise, and
    # central differences of that step along random (state, dose)
    # directions, the displacement zero on the boundary, resolve apply
    sc, traj = small_run
    spec, d = sc.spec, traj.diagnostics
    assert d.phi_clamp.max() == 0.0 and d.sigma_clamp.max() == 0.0
    ops = step_operators(spec, traj.tau)
    levels = {n: co for n, co, _ in coefficient_levels(traj, spec, range(traj.n_steps), shift=1)}

    def forward(phi, sigma, u, z, chi1, chi2):
        phi_new, _ = step_phi(phi, sigma, z, chi1, ops, spec)
        sigma_new, _ = step_sigma(sigma, phi, z, chi2, d.sigma_cap, ops, spec)
        u_new, eps_u, _ = step_u(u, phi_new, z, ops, spec)
        z_new, _ = step_z(z, phi_new, eps_u, ops, spec)
        return phi_new, sigma_new, u_new, z_new

    rng, h = np.random.default_rng(13), 1e-4
    for n in (0, 3, 5):
        x = (traj.phi[n], traj.sigma[n], traj.u[n], traj.z[n], traj.control.chi1[n], traj.control.chi2[n])
        stored = (traj.phi[n + 1], traj.sigma[n + 1], traj.u[n + 1], traj.z[n + 1])
        assert all(np.array_equal(got, want) for got, want in zip(forward(*x), stored))
        dx = [rng.standard_normal(f.shape) for f in x]
        dx[2] = dx[2] * ~spec.grid.boundary_mask
        plus = forward(*(f + h * df for f, df in zip(x, dx)))
        minus = forward(*(f - h * df for f, df in zip(x, dx)))
        tangent = TangentStep(traj, spec, n, levels[n], ops).apply(*dx)
        for name, p, m, t in zip(("xi", "rho", "omega", "zeta"), plus, minus, tangent):
            err = np.abs((p - m) / (2.0 * h) - t).max() / np.abs(t).max()
            assert err <= 1e-7, (n, name, err)


def smooth_direction(sc, seed, time_varying=True):
    g = sc.spec.grid
    rng = np.random.default_rng(seed)
    x, y = g.meshes
    K = sc.n_steps

    def field():
        a, b, c = rng.uniform(-1, 1, 3)
        base = a * np.sin(np.pi * x) * np.sin(np.pi * y) + b * np.cos(np.pi * x) + c
        out = np.repeat(base[None], K + 1, axis=0)
        if time_varying:
            out = out * (1.0 + 0.5 * np.linspace(0, 1, K + 1))[:, None, None]
        return out

    return Control(field(), field())


def test_zero_direction_gives_zero_tangent(small_run):
    sc, traj = small_run
    lin = solve_linearized(traj, Control.zeros(sc.spec.grid, sc.n_steps), sc.spec)
    assert np.all(lin.xi == 0.0)
    assert np.all(lin.rho == 0.0)
    assert np.all(lin.omega == 0.0)
    assert np.all(lin.zeta == 0.0)


def test_tangent_is_linear_in_the_direction(small_run):
    sc, traj = small_run
    h = smooth_direction(sc, 3)
    k = smooth_direction(sc, 4)
    a, b = 0.7, -1.3
    mix = Control(a * h.chi1 + b * k.chi1, a * h.chi2 + b * k.chi2)
    lh = solve_linearized(traj, h, sc.spec)
    lk = solve_linearized(traj, k, sc.spec)
    lm = solve_linearized(traj, mix, sc.spec)
    for name in ("xi", "rho", "zeta", "omega"):
        got = getattr(lm, name)
        want = a * getattr(lh, name) + b * getattr(lk, name)
        assert np.abs(got - want).max() < 1e-9


def test_taylor_remainder_second_order(small_run):
    sc, _ = small_run
    out = taylor_test(sc.control, smooth_direction(sc, 7), sc.spec)
    assert out["slope"] > 1.6
    # remainder is far below the first-order distance at the smallest step
    assert out["remainder"][-1] < 0.02 * out["first_order"][-1]


def test_first_order_distance_scales_linearly(small_run):
    sc, traj = small_run
    h = smooth_direction(sc, 9)
    dists = []
    for eps in (1e-3, 5e-4):
        pert = solve_state(
            Control(sc.control.chi1 + eps * h.chi1, sc.control.chi2 + eps * h.chi2), sc.spec
        )
        dists.append(trajectory_distance(traj, pert))
    assert 1.8 < dists[0] / dists[1] < 2.2


def test_mismatched_direction_rejected(small_run):
    sc, traj = small_run
    with pytest.raises(ValueError):
        solve_linearized(traj, Control.zeros(sc.spec.grid, sc.n_steps + 2), sc.spec)


def test_direction_on_another_grid_rejected(small_run):
    sc, traj = small_run
    other = Control.zeros(Grid.unit(10, 10), sc.n_steps)
    with pytest.raises(ValueError, match=r"nodes \(11, 11\), the grid has \(9, 9\)"):
        solve_linearized(traj, other, sc.spec)


def test_taylor_test_rejects_zero_direction(spec):
    control = Control.zeros(spec.grid, 4)
    with pytest.raises(ValueError, match="nonzero"):
        taylor_test(control, Control.zeros(spec.grid, 4), spec)


def uniform_direction(sc, seed=3):
    rng = np.random.default_rng(seed)
    shape = sc.control.chi1.shape
    return Control(rng.uniform(0.0, 1.0, shape), rng.uniform(0.0, 1.0, shape))


@pytest.mark.parametrize("chi1_level", [800.0, 100.0])
def test_taylor_slope_through_recorded_clamps(chi1_level):
    # the first tumor step clamps every node onto phi = 0; a tangent that
    # ignored the clamp would leave a first-order remainder (slope 1.000)
    sc = bounds_stress_scenario(n_steps=10, chi1_level=chi1_level)
    out = taylor_test(sc.control, uniform_direction(sc), sc.spec)
    assert out["base"].diagnostics.phi_clamp[0] > 0.0
    assert out["slope"] >= 1.9


def test_only_recorded_clamps_mask_the_sweeps(small_run):
    # a record whose clamps are zeroed masks nothing
    stress = bounds_stress_scenario(n_steps=10, chi1_level=100.0)
    runs = (small_run, (stress, solve_state(stress.control, stress.spec)))
    w = CostWeights(1, 1, 0, 1, 1, 0.3, 1, 0, 0.1)
    for clamped, (sc, traj) in zip((False, True), runs):
        d = traj.diagnostics
        assert (d.phi_clamp.max() > 0.0) == clamped
        zeroed = replace(
            d, phi_clamp=np.zeros_like(d.phi_clamp), sigma_clamp=np.zeros_like(d.sigma_clamp)
        )
        bare = replace(traj, diagnostics=zeroed)
        h, tg = uniform_direction(sc), Targets.resting(sc.spec)
        xi = [solve_linearized(t, h, sc.spec).xi for t in (traj, bare)]
        q = [solve_adjoint(t, w, tg, sc.spec).q for t in (traj, bare)]
        assert np.array_equal(*xi) != clamped
        assert np.array_equal(*q) != clamped


def test_one_sided_masks_only_after_a_recorded_clamp(small_run):
    sc, traj = small_run
    d = replace(traj.diagnostics, sigma_clamp=np.zeros_like(traj.diagnostics.sigma_clamp))
    sigma = traj.sigma.copy()
    sigma[3, 1, 1], sigma[3, 2, 2] = 0.0, d.sigma_cap
    run = replace(traj, sigma=sigma, diagnostics=d)
    ones = np.ones(sc.spec.grid.shape)
    assert one_sided(run, sc.spec, 3, ones, ones)[1] is ones  # step 2 clamped nothing
    d.sigma_clamp[2] = 1e-3
    dphi, dsigma = one_sided(run, sc.spec, 3, ones, ones)
    assert dphi is ones
    assert np.flatnonzero(dsigma == 0.0).tolist() == [10, 20]  # nodes (1, 1) and (2, 2) of 9x9
