"""Forward solver tests: substep oracles, invariants, convergence orders."""
import math
import sys
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sps

from tumorctrl.grid import Grid
from tumorctrl import linalg, linearized, state
from tumorctrl import model as mdl
from tumorctrl.adjoint import CostWeights, Targets, solve_adjoint
from tumorctrl.cli import ode_rhs
from tumorctrl.errors import SolverError
from tumorctrl.linearized import solve_linearized
from tumorctrl.state import (
    Control,
    Diagnostics,
    march,
    sigma_cap_for,
    solve_state,
    step_phi,
    step_operators,
    step_sigma,
    step_u,
    step_z,
    u_operator,
)

from scenarios import (
    bounds_stress_scenario,
    norm_h1_vec,
    norm_l2,
    ode_scenario,
    read_manifest,
    robin_linear_matrix,
    smooth_scenario,
)


@pytest.fixture(scope="module")
def small_spec():
    return mdl.DefaultLogisticFamily().build(Grid.unit(8, 8))


def const(grid, v):
    return np.full(grid.shape, float(v))


# -- tumor substep -----------------------------------------------------------


def test_phi_zero_stays_zero(small_spec):
    g = small_spec.grid
    ops = step_operators(small_spec, 0.01)
    out, excess = step_phi(const(g, 0), const(g, 0.4), const(g, 0.5), const(g, 0.2), ops, small_spec)
    assert np.all(out == 0.0)
    assert excess == 0.0


def test_phi_constant_matches_explicit_euler(small_spec):
    g = small_spec.grid
    c, sc, zc, x1 = 0.3, 0.6, 0.45, 0.1
    tau = 0.02
    ops = step_operators(small_spec, tau)
    out, excess = step_phi(const(g, c), const(g, sc), const(g, zc), const(g, x1), ops, small_spec)
    expected = c + tau * float(mdl.eval_U(c, sc, zc, x1, small_spec))
    assert np.abs(out - expected).max() < 1e-10
    assert excess == 0.0


def test_phi_clamp_excess_halves_with_tau():
    # constant data keep the diffusion inert, so the excess follows the
    # scalar prediction tau*|U| - phi0 and its halving ratio exactly
    e = {}
    for K in (10, 20):
        sc = bounds_stress_scenario(n_steps=K)
        traj = solve_state(sc.control, sc.spec)
        e[K] = traj.diagnostics.phi_clamp.max()
    spec = bounds_stress_scenario(10).spec
    tau = spec.T / 10
    U0 = float(mdl.eval_U(0.3, 0.5, 0.45, 800.0, spec))
    assert e[10] == pytest.approx(-(0.3 + tau * U0), rel=1e-8)
    assert 1.7 < e[10] / e[20] < 2.3


# -- lactate substep ---------------------------------------------------------


def test_sigma_zero_stays_zero(small_spec):
    g = small_spec.grid
    spec = replace(small_spec, sigma_gamma=const(g, 0.0))
    ops = step_operators(spec, 0.01)
    out, excess = step_sigma(const(g, 0), const(g, 0.2), const(g, 0.5), const(g, 0.0), 1.0, ops, spec)
    assert np.all(out == 0.0)
    assert excess == 0.0


def test_sigma_constant_steady_state(small_spec):
    g = small_spec.grid
    spec = replace(
        small_spec,
        k1=mdl.constant_map(0.0), sigma_gamma=const(g, spec_m0 := small_spec.M0)
    )
    ops = step_operators(spec, 0.05)
    out, excess = step_sigma(
        const(g, spec_m0), const(g, 0.3), const(g, 0.5), const(g, 0.0), 2.0, ops, spec
    )
    assert np.abs(out - spec_m0).max() < 1e-10
    assert excess == 0.0


def test_sigma_tracks_scalar_recursion_for_small_tau(small_spec):
    # boundary exchange pollutes a constant profile only at O(tau^2/h)
    g = small_spec.grid
    c, tau = 0.5, 1e-4
    spec = replace(small_spec, sigma_gamma=const(g, c))
    chi2 = const(g, 0.4)
    ops = step_operators(spec, tau)
    out, _ = step_sigma(const(g, c), const(g, 0.3), const(g, 0.5), chi2, 2.0, ops, spec)
    react = 0.4 * float(spec.S.value(0.3, 0.5)) - float(mdl.eval_K(0.3, c, 0.5, spec))
    assert np.abs(out - (c + tau * react)).max() < 1e-6


# -- displacement substep ----------------------------------------------------


def test_u_zero_data_zero_solution(small_spec):
    g = small_spec.grid
    z2 = np.zeros((2,) + g.shape)
    spec = replace(small_spec, f=z2)
    u_new, eps_new, _ = step_u(z2, const(g, 0.3), const(g, 0.5), step_operators(spec, 0.02), spec)
    assert np.all(u_new == 0.0)
    assert np.all(eps_new == 0.0)


def test_u_operator_positive_definite(small_spec):
    g = small_spec.grid
    M_int = u_operator(small_spec, *mdl.eval_B(const(g, 0.4), const(g, 0.5), small_spec), 0.02)
    rng = np.random.default_rng(13)
    for _ in range(20):
        w = rng.standard_normal(len(g.interior_vector_indices))
        assert float(w @ M_int(w)) > 0.0


def test_u_operator_is_interior_of_viscous_plus_elastic(small_spec):
    g = small_spec.grid
    x, y = g.meshes
    phi = 0.3 + 0.2 * np.sin(np.pi * x) * np.cos(np.pi * y)
    z = 0.5 + 0.1 * x * y
    tau = 0.02
    mu_b, lam_b = mdl.eval_B(phi, z, small_spec)
    K_A = g.elastic_matrix(small_spec.A_mu, small_spec.A_lam)
    idx = g.interior_vector_indices
    ref = (K_A / tau + g.elastic_matrix(mu_b, lam_b))[idx][:, idx]
    M_int = u_operator(small_spec, mu_b, lam_b, tau)
    rng = np.random.default_rng(6)
    for _ in range(5):
        x = rng.standard_normal(len(idx))
        assert np.abs(M_int(x) - ref @ x).max() <= 1e-13 * (abs(ref) @ np.abs(x)).max()


def test_viscous_product_is_interior_rows_of_assembled_form(small_spec):
    g = small_spec.grid
    tau = 0.02
    idx = g.interior_vector_indices
    K_A = g.elastic_matrix(small_spec.A_mu, small_spec.A_lam)
    rng = np.random.default_rng(17)
    for _ in range(5):
        # the old displacement vanishes on the boundary
        old = np.zeros(2 * g.n_nodes)
        old[idx] = rng.standard_normal(len(idx))
        ref = (K_A / tau @ old)[idx]
        got = step_operators(small_spec, tau).viscous(old[idx])
        assert np.linalg.norm(got - ref) <= 1e-13 * np.linalg.norm(ref)


def test_damage_jacobian_matches_assembled_form(small_spec):
    g = small_spec.grid
    rng = np.random.default_rng(4)
    tau = 0.02
    ops = step_operators(small_spec, tau)
    for _ in range(2):
        slope = rng.uniform(0.5, 2.0, g.shape)
        ref = (sps.diags(g.quad_weights * slope.ravel()) - tau * g.wl_neumann).tocsr()
        for _ in range(3):
            f = rng.standard_normal(g.shape)
            x, _ = ops.damage(slope, f, "test")
            b = g.quad_weights * f.ravel()
            assert np.linalg.norm(ref @ x.ravel() - b) <= 1e-9 * np.linalg.norm(b)


def test_elastic_assembly_is_not_repeated_per_step(monkeypatch):
    calls = []
    original = Grid.elastic_matrix

    def counted(self, mu, lam):
        calls.append(1)
        return original(self, mu, lam)

    monkeypatch.setattr(Grid, "elastic_matrix", counted)
    sc = smooth_scenario(nx=8, n_steps=12)
    traj = solve_state(sc.control, sc.spec)
    solve_linearized(traj, sc.control, sc.spec)
    solve_adjoint(traj, CostWeights(), Targets.resting(sc.spec), sc.spec)
    # every elastic operator, the viscous one included, is applied matrix-free
    assert len(calls) == 0


def test_sweeps_assemble_no_sparse_matrix_per_step(monkeypatch):
    made = []

    class Counted(sps.csr_matrix):
        def __init__(self, *args, **kwargs):
            made.append(1)
            super().__init__(*args, **kwargs)

    sc = smooth_scenario(nx=8, n_steps=12)
    w, tg = CostWeights(), Targets.resting(sc.spec)
    solve_adjoint(solve_state(sc.control, sc.spec), w, tg, sc.spec)  # warm the caches
    monkeypatch.setattr(sps, "csr_matrix", Counted)
    traj = solve_state(sc.control, sc.spec)
    solve_linearized(traj, sc.control, sc.spec)
    solve_adjoint(traj, w, tg, sc.spec)
    # the displacement and damage operators are applied, never built
    assert made == []


def test_sweeps_share_one_factorization(monkeypatch):
    calls = []
    original = state.elastic_solver

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(state, "elastic_solver", counted)
    # a step no other test uses, so every cached factor starts cold
    sc = smooth_scenario(nx=8, n_steps=12, T=0.37)
    traj = solve_state(sc.control, sc.spec)
    solve_linearized(traj, sc.control, sc.spec)
    solve_adjoint(traj, CostWeights(), Targets.resting(sc.spec), sc.spec)
    # only the shared displacement preconditioner; diffusion solves are separable
    assert len(calls) == 1


def test_sweeps_on_one_spec_evaluate_the_reference_moduli_once():
    sc = smooth_scenario(nx=8, n_steps=6)
    calls = []

    def counting(name, m):
        def value(a, b):
            if a is spec.phi0:
                calls.append(name)
            return m.value(a, b)

        return replace(m, value=value)

    spec = replace(sc.spec, B_mu=counting("mu", sc.spec.B_mu), B_lam=counting("lam", sc.spec.B_lam))
    traj = solve_state(sc.control, spec)
    solve_linearized(traj, sc.control, spec)
    solve_adjoint(traj, CostWeights(), Targets.resting(spec), spec)
    # the preconditioner's moduli at (phi0, z0) are a property of the spec
    assert sorted(calls) == ["lam", "mu"]


def test_step_operators_are_cached(small_spec):
    assert step_operators(small_spec, 0.02) is step_operators(small_spec, 0.02)


def test_step_operators_key_carries_reference_moduli(small_spec):
    # the displacement preconditioner is taken at the moduli of (phi0, z0)
    g = small_spec.grid
    other = replace(small_spec, phi0=small_spec.phi0 + 0.1)
    a, b = step_operators(small_spec, 0.02), step_operators(other, 0.02)
    assert a.u_factor is not b.u_factor
    r = np.random.default_rng(5).standard_normal(len(g.interior_vector_indices))
    assert not np.array_equal(a.u_factor(r), b.u_factor(r))


def test_each_sweep_looks_up_step_operators_once(monkeypatch):
    lookups = []
    orig = step_operators

    def counted(*args, **kwargs):
        lookups.append(1)
        return orig(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name.startswith("tumorctrl"):
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    monkeypatch.setattr(mod, attr, counted)

    sc = smooth_scenario(nx=8, n_steps=12)
    traj = solve_state(sc.control, sc.spec)
    solve_linearized(traj, sc.control, sc.spec)
    solve_adjoint(traj, CostWeights(), Targets.resting(sc.spec), sc.spec)
    assert len(lookups) == 3


def test_sweeps_share_one_linearization_and_direct_diffusion_solves(monkeypatch):
    labels, block_lengths = [], []
    cg_orig, co_orig = linalg.cg_solve, linearized.assemble_coefficients

    def cg_counted(*args, **kwargs):
        labels.append(kwargs.get("label", "cg"))
        return cg_orig(*args, **kwargs)

    def co_counted(*args, **kwargs):
        block_lengths.append(args[0].shape[0])
        return co_orig(*args, **kwargs)

    swap = {id(cg_orig): cg_counted, id(co_orig): co_counted}
    for name, mod in list(sys.modules.items()):
        if name.startswith("tumorctrl"):
            for attr, value in list(vars(mod).items()):
                if id(value) in swap:
                    monkeypatch.setattr(mod, attr, swap[id(value)])

    # five levels per block: 12 steps end on a partial block
    monkeypatch.setattr(linearized, "BLOCK_BYTES", 5 * 8 * 81)
    sc = smooth_scenario(nx=8, n_steps=12)
    K, B = sc.n_steps, linearized.block_steps(sc.spec.grid)
    traj = solve_state(sc.control, sc.spec)
    solve_linearized(traj, sc.control, sc.spec)
    assert len(block_lengths) == math.ceil(K / B) and sum(block_lengths) == K
    block_lengths.clear()
    solve_adjoint(traj, CostWeights(), Targets.resting(sc.spec), sc.spec)
    assert len(block_lengths) == math.ceil(K / B) and sum(block_lengths) == K
    # CG only where its preconditioner is inexact; diffusion solves are direct
    assert set(labels) == {"u-step", "z-newton", "omega-step", "zeta-step", "v-step", "s-step"}

    g, tau = sc.spec.grid, traj.tau
    ops = step_operators(sc.spec, tau)
    b = np.random.default_rng(2).standard_normal(g.n_nodes)
    pairs = ((g.lap_neumann_matrix, ops.solve_neumann), (robin_linear_matrix(g), ops.solve_robin))
    for lap, solve in pairs:
        A = sps.diags(g.quad_weights) @ (sps.eye(g.n_nodes) - tau * lap)
        assert np.linalg.norm(A @ solve(b) - b) <= 1e-12 * np.linalg.norm(b)


def test_u_one_step_manufactured_second_order():
    import sympy as sp

    x, y = sp.symbols("x y")
    tau = 0.02
    fam = mdl.DefaultLogisticFamily()
    phis = 0.5 + sp.Rational(3, 10) * sp.sin(sp.pi * x) * sp.sin(sp.pi * y)
    zs = sp.Rational(4, 10) + sp.Rational(1, 10) * sp.cos(sp.pi * x) * sp.cos(sp.pi * y)
    logistic = 1 / (1 + sp.exp(-(fam.a_B - fam.b_B * phis / fam.N - fam.c_B * zs)))
    mu = fam.mu_min + (fam.mu_max - fam.mu_min) * logistic + fam.A_mu / tau
    lam = fam.lam_min + (fam.lam_max - fam.lam_min) * logistic + fam.A_lam / tau
    u1 = sp.Rational(1, 100) * sp.sin(sp.pi * x) * sp.sin(sp.pi * y)
    u2 = sp.Rational(1, 100) * sp.sin(2 * sp.pi * x) * sp.sin(sp.pi * y)
    e11, e22 = sp.diff(u1, x), sp.diff(u2, y)
    e12 = (sp.diff(u1, y) + sp.diff(u2, x)) / 2
    s11 = 2 * mu * e11 + lam * (e11 + e22)
    s22 = 2 * mu * e22 + lam * (e11 + e22)
    s12 = 2 * mu * e12
    f1 = -(sp.diff(s11, x) + sp.diff(s12, y))
    f2 = -(sp.diff(s12, x) + sp.diff(s22, y))
    fns = [sp.lambdify((x, y), e, "numpy") for e in (f1, f2, u1, u2, phis, zs)]

    errs = []
    for n in (16, 32, 64):
        g = Grid.unit(n, n)
        X, Y = g.meshes
        f = np.stack([fns[0](X, Y), fns[1](X, Y)])
        exact = np.stack([fns[2](X, Y), fns[3](X, Y)])
        spec = replace(mdl.DefaultLogisticFamily().build(g), f=f)
        u_new, _, _ = step_u(
            np.zeros((2,) + g.shape), fns[4](X, Y), fns[5](X, Y), step_operators(spec, tau), spec
        )
        errs.append(np.abs(u_new - exact).max())
    assert 1.8 < np.log2(errs[0] / errs[1]) < 2.2
    assert 1.8 < np.log2(errs[1] / errs[2]) < 2.2


# -- damage substep ----------------------------------------------------------


def scalar_z_newton(z0, rhs, tau, spec):
    v = z0
    for _ in range(60):
        F = v + tau * (spec.C1 * np.log(v / (1 - v)) - 2 * spec.C2 * v) - rhs
        if abs(F) <= 1e-13:
            break
        J = 1 + tau * (spec.C1 / (v * (1 - v)) - 2 * spec.C2)
        d = -F / J
        a = 1.0
        while not 0.0 < v + a * d < 1.0:
            a *= 0.5
        v += a * d
    return v


def test_z_matches_scalar_newton(small_spec):
    g = small_spec.grid
    tau, zc, phc = 0.02, 0.45, 0.3
    eps0 = np.zeros((3,) + g.shape)
    ops = step_operators(small_spec, tau)
    out, iters = step_z(const(g, zc), const(g, phc), eps0, ops, small_spec)
    iota = float(small_spec.iota.flat[0])
    psi = float(small_spec.psi.value(np.array([phc]), np.zeros((3, 1)))[0])
    rhs = zc + tau * (iota - psi)
    ref = scalar_z_newton(zc, rhs, tau, small_spec)
    assert np.abs(out - ref).max() < 1e-9
    assert iters <= 10


def test_z_stationary_fixed_point(small_spec):
    g = small_spec.grid
    zbar, phc = 0.45, 0.3
    psi = float(small_spec.psi.value(np.array([phc]), np.zeros((3, 1)))[0])
    iota = float(mdl.beta(zbar, small_spec) + mdl.pi(zbar, small_spec)) + psi
    spec = replace(small_spec, iota=const(g, iota))
    ops = step_operators(spec, 0.05)
    out, _ = step_z(const(g, zbar), const(g, phc), np.zeros((3,) + g.shape), ops, spec)
    assert np.abs(out - zbar).max() < 1e-9


def test_z_output_strictly_inside_unit_interval(small_spec):
    g = small_spec.grid
    rng = np.random.default_rng(17)
    ops = step_operators(small_spec, 0.02)
    for _ in range(100):
        z = rng.uniform(0.1, 0.9) + 0.05 * rng.standard_normal(g.shape)
        z = np.clip(z, 0.05, 0.95)
        ph = rng.uniform(0.0, small_spec.N, g.shape)
        eps = 0.1 * rng.standard_normal((3,) + g.shape)
        out, _ = step_z(z, ph, eps, ops, small_spec)
        assert out.min() > 0.0
        assert out.max() < 1.0


def test_z_nonconvergence_names_the_last_residual(small_spec):
    g = small_spec.grid
    stalled = SimpleNamespace(tau=0.02, damage=lambda slope, rhs, label: (0.0 * rhs, 0))
    with pytest.raises(SolverError, match=r"50 iterations \(sup residual \d\.\d+e[-+]\d+\)"):
        step_z(const(g, 0.45), const(g, 0.3), np.zeros((3,) + g.shape), stalled, small_spec)


def test_z_jacobian_losing_positivity_is_a_solver_error():
    # at tau = 0.5 the concave slope of C2 = 10 outweighs the barrier at z = 0.5
    spec = replace(mdl.DefaultLogisticFamily().build(Grid.unit(6, 6)), C2=10.0)
    g = spec.grid
    with pytest.raises(SolverError, match=r"lost positivity.*\(min diagonal -8\.000e\+00\)"):
        step_z(const(g, 0.5), const(g, 0.2), np.zeros((3,) + g.shape), step_operators(spec, 0.5), spec)


# -- full solve --------------------------------------------------------------


def test_fixed_point_trajectory(small_spec):
    g = small_spec.grid
    zbar = 0.45
    iota = float(mdl.beta(zbar, small_spec) + mdl.pi(zbar, small_spec))
    spec = replace(
        small_spec,
        phi0=const(g, 0.0),
        sigma0=const(g, 0.0),
        sigma_gamma=const(g, 0.0),
        z0=const(g, zbar),
        u0=np.zeros((2,) + g.shape),
        f=np.zeros((2,) + g.shape),
        iota=const(g, iota),
    )
    traj = solve_state(Control.zeros(g, 12), spec)
    assert np.abs(traj.phi).max() < 1e-9
    assert np.abs(traj.sigma).max() < 1e-9
    assert np.abs(traj.u).max() < 1e-9
    assert np.abs(traj.z - zbar).max() < 1e-8


def test_ode_reduction_first_order():
    from scipy.integrate import solve_ivp

    errs = {}
    for K in (40, 80):
        sc = ode_scenario(n_steps=K)
        traj = solve_state(sc.control, sc.spec)
        spread = max(
            (traj.phi.max(axis=(1, 2)) - traj.phi.min(axis=(1, 2))).max(),
            (traj.z.max(axis=(1, 2)) - traj.z.min(axis=(1, 2))).max(),
            (traj.sigma.max(axis=(1, 2)) - traj.sigma.min(axis=(1, 2))).max(),
        )
        assert spread < 1e-9
        rhs = ode_rhs(sc.spec, sc.extras["sigma_level"], sc.extras["chi1"])
        sol = solve_ivp(
            rhs,
            (0.0, sc.spec.T),
            [sc.spec.phi0.flat[0], sc.spec.z0.flat[0]],
            t_eval=traj.times,
            rtol=1e-11,
            atol=1e-13,
            method="LSODA",
        )
        errs[K] = max(
            np.abs(traj.phi[:, 0, 0] - sol.y[0]).max(),
            np.abs(traj.z[:, 0, 0] - sol.y[1]).max(),
        )
        assert np.abs(traj.sigma - sc.extras["sigma_level"]).max() < 1e-9
        assert np.abs(traj.u).max() == 0.0
    assert 1.6 < errs[40] / errs[80] < 2.4


def traj_distance(a, b):
    # b has twice the step count of a; compare on the shared nodes
    g = a.grid
    stride = b.n_steps // a.n_steps
    d = 0.0
    for n in range(a.n_steps + 1):
        m = n * stride
        d = max(
            d,
            norm_l2(g, a.phi[n] - b.phi[m])
            + norm_l2(g, a.sigma[n] - b.sigma[m])
            + norm_l2(g, a.z[n] - b.z[m])
            + norm_h1_vec(g, a.u[n] - b.u[m]),
        )
    return d


def test_time_refinement_first_order():
    # the splitting error carries sizable second-order terms, so the
    # first-order ratio only settles once the step is reasonably small
    runs = {}
    for K in (128, 256, 512):
        sc = smooth_scenario(nx=12, n_steps=K)
        runs[K] = solve_state(sc.control, sc.spec)
    d1 = traj_distance(runs[128], runs[256])
    d2 = traj_distance(runs[256], runs[512])
    assert 1.7 < d1 / d2 < 2.3


def test_space_refinement_second_order():
    # self-convergence in h at a step small enough that the space error
    # shows: each pair of levels is compared on the coarser one's nodes, in
    # the grid L2 norm, maximum over time.  Measured: phi 2.02, sigma 1.90,
    # z 1.89, u 1.86.  u's bound is lower because of the first-order
    # closure rows of grid._d1_matrix.  In the sup norm u reads 1.64, and
    # sigma and z 1.55, still pre-asymptotic there, hence L2
    runs = {}
    for nx in (12, 24, 48):
        sc = smooth_scenario(nx=nx, n_steps=160)
        runs[nx] = solve_state(sc.control, sc.spec)

    def distance(nx, name):
        coarse, fine = runs[nx], runs[2 * nx]
        d = getattr(coarse, name) - getattr(fine, name)[..., ::2, ::2]
        sq = coarse.grid.integrate_levels(d * d).reshape(len(d), -1).sum(axis=1)
        return float(np.sqrt(sq).max())

    for name, least in (("phi", 1.8), ("sigma", 1.8), ("z", 1.8), ("u", 1.7)):
        order = np.log2(distance(12, name) / distance(24, name))
        assert order >= least, (name, order)


def test_continuous_dependence_ratio_stable():
    sc = smooth_scenario(nx=12, n_steps=16)
    base = solve_state(sc.control, sc.spec)
    g = sc.spec.grid
    x, y = g.meshes
    direction = np.sin(np.pi * x) * np.cos(np.pi * y)
    tau = sc.spec.T / sc.n_steps
    tw = np.full(sc.n_steps + 1, tau)
    tw[0] = tw[-1] = tau / 2
    dir_norm = np.sqrt(2.0 * tw.sum() * g.inner(direction, direction))
    ratios = []
    for k in range(6):
        delta = 0.02 * 0.5**k
        ctrl = Control(sc.control.chi1 + delta * direction, sc.control.chi2 + delta * direction)
        pert = solve_state(ctrl, sc.spec)
        dist = 0.0
        for n in range(sc.n_steps + 1):
            dist = max(
                dist,
                norm_l2(g, pert.phi[n] - base.phi[n])
                + norm_l2(g, pert.sigma[n] - base.sigma[n])
                + norm_l2(g, pert.z[n] - base.z[n])
                + norm_h1_vec(g, pert.u[n] - base.u[n]),
            )
        ratios.append(dist / (delta * dir_norm))
    ratios = np.array(ratios)
    assert (ratios.max() - ratios.min()) / ratios.mean() < 0.25


def test_invariants_under_stress():
    sc = bounds_stress_scenario(n_steps=10)
    traj = solve_state(sc.control, sc.spec)
    d = traj.diagnostics
    assert traj.phi.min() >= -1e-9
    assert traj.phi.max() <= sc.spec.N + 1e-9
    assert traj.sigma.min() >= -1e-9
    assert traj.sigma.max() <= d.sigma_cap + 1e-9
    sb = sc.spec.separation
    assert traj.z.min() >= sb.r_low - 1e-12
    assert traj.z.max() <= sb.r_high + 1e-12
    assert np.abs(traj.u[:, :, traj.grid.boundary_mask]).max() == 0.0
    assert np.array_equal(traj.phi[0], sc.spec.phi0)
    assert np.array_equal(traj.z[0], sc.spec.z0)


def test_march_yields_the_levels_solve_state_keeps():
    sc = bounds_stress_scenario(n_steps=10)
    traj = solve_state(sc.control, sc.spec)
    d = Diagnostics.empty(sc.control, sc.spec)
    levels = [tuple(f.copy() for f in level) for level in march(sc.control, sc.spec, d)]
    assert len(levels) == traj.n_steps + 1
    for n, level in enumerate(levels):
        for name, f in zip(("phi", "sigma", "u", "z"), level[:3] + level[4:]):
            assert np.array_equal(f, getattr(traj, name)[n]), (name, n)
        assert np.array_equal(level[3], traj.strain(n, n + 1)[:, 0]), ("eps_u", n)

    ref = traj.diagnostics
    for name in ("phi_clamp", "sigma_clamp", "newton_iters", "cg_u"):
        assert np.array_equal(getattr(d, name), getattr(ref, name)), name
    assert d.phi_clamp.max() > 0.0
    assert d.sigma_cap == ref.sigma_cap
    # the ranges span levels 0..K, the initial data included
    fields = (traj.phi, traj.sigma, traj.z)
    for got in (d, ref):
        assert np.array_equal(got.lo, [f.min() for f in fields])
        assert np.array_equal(got.hi, [f.max() for f in fields])
    # the interval holds the initial damage, so level 0 leaves the excess as it was
    sb = sc.spec.separation
    assert sb.excess(d.lo[2], d.hi[2]) == sb.excess(ref.lo[2], ref.hi[2]) == max(
        0.0, sb.r_low - traj.z[1:].min(), traj.z[1:].max() - sb.r_high)


def test_sigma_cap_uses_actual_drive(small_spec):
    g = small_spec.grid
    weak = Control.constant(g, 4, 0.0, 0.1)
    strong = Control.constant(g, 4, 0.0, 5.0)
    assert sigma_cap_for(small_spec, strong) > sigma_cap_for(small_spec, weak)


def test_save_trajectory_round_trip(tmp_path):
    # a solved trajectory written as a run directory reads back unchanged
    from tumorctrl.cli import run_manifest, snapshot_fields
    from tumorctrl.snapshots import read_snapshot_csv, write_manifest, write_snapshots

    sc = smooth_scenario(nx=8, n_steps=4)
    traj = solve_state(sc.control, sc.spec)
    grid = sc.spec.grid
    for n, t in enumerate(traj.times):
        named = snapshot_fields(traj.phi[n], traj.sigma[n], traj.u[n], traj.z[n])
        write_snapshots(tmp_path, grid, n, float(t), named, "csv")
    d = traj.diagnostics
    z_excess = sc.spec.separation.excess(d.lo[2], d.hi[2])
    write_manifest(tmp_path / "run.manifest", run_manifest(grid, traj.times, "csv", d, z_excess))
    info = read_manifest(tmp_path / "run.manifest")
    assert info["n_steps"] == "4"
    assert info["sigma_cap_heuristic"] == "true"
    _, f, t = read_snapshot_csv(tmp_path / "phi_00004.csv")
    assert t == pytest.approx(traj.times[-1])
    assert np.array_equal(f, traj.phi[4])


def test_control_validation():
    g = Grid.unit(6, 6)
    c = Control.zeros(g, 3)
    c.validate()
    bad = Control(c.chi1, c.chi2[:, :-1])
    with pytest.raises(ValueError):
        bad.validate()
    nan = Control(c.chi1.copy(), c.chi2.copy())
    nan.chi1[0, 0, 0] = np.nan
    with pytest.raises(ValueError):
        nan.validate()


def test_solve_state_rejects_zero_step_control(small_spec):
    with pytest.raises(ValueError, match="at least 2 time levels, got 1"):
        solve_state(Control.zeros(small_spec.grid, 0), small_spec)


def test_solve_state_rejects_mismatched_grid(small_spec):
    other = Grid.unit(10, 10)
    with pytest.raises(ValueError, match=r"nodes \(11, 11\), the grid has \(9, 9\)"):
        solve_state(Control.zeros(other, 4), small_spec)
