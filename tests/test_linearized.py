"""Tangent solver tests: coefficient tables against finite differences,
linearity, and the Taylor remainder ladder."""
import numpy as np
import pytest

from tumorctrl import model as mdl
from tumorctrl.errors import DomainError
from tumorctrl.grid import Grid, stress_from_strain
from tumorctrl.linearized import (
    assemble_coefficients,
    solve_linearized,
    taylor_test,
    trajectory_distance,
)
from tumorctrl.presets import smooth_scenario
from tumorctrl.state import Control, solve_state


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


def test_coefficients_match_finite_differences(spec):
    # every entry of the table is the derivative of a parent nonlinearity;
    # probe 50 random nodes per coefficient against central differences
    phi, sigma, z, eps, chi1, chi2 = random_fields(spec)
    co = assemble_coefficients(phi, sigma, z, eps, chi1, chi2, spec)
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
    with pytest.raises(DomainError, match=r"coefficient b1 non-finite at node \(4, 1\)"):
        assemble_coefficients(phi, sigma, z, eps, chi1, chi2, spec)


def test_coefficient_validation_names_bad_node(spec):
    phi, sigma, z, eps, chi1, chi2 = random_fields(spec)
    phi = phi.copy()
    phi[2, 3] = np.nan
    with pytest.raises(ValueError, match=r"coefficient a1 non-finite at node \(2, 3\)"):
        assemble_coefficients(phi, sigma, z, eps, chi1, chi2, spec)


@pytest.fixture(scope="module")
def small_run():
    sc = smooth_scenario(nx=8, n_steps=6)
    traj = solve_state(sc.control, sc.spec)
    return sc, traj


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
