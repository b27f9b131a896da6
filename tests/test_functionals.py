"""Space-time functionals against per-level reference loops.

Each reference below walks the time levels one at a time with
single-level grid quadrature.  The package evaluates the same sums as one
array expression over the whole trajectory, in another summation order,
so the two agree to rounding: 1e-13 relative, or bitwise where no sum is
taken.  The grid has hx != hy and the doses vary in space and time, so a
transposed axis or a dropped gradient term cannot cancel out.
"""
import numpy as np
import pytest

from tumorctrl import linearized
from tumorctrl.adjoint import CostWeights, Targets, duality_residual, eval_cost, solve_adjoint
from tumorctrl.control import control_inner, reduced_gradient, smoothness_norm
from tumorctrl.grid import Grid, tensor_dot, trapezoid_weights
from tumorctrl.linearized import (
    block_steps,
    dose_coefficients,
    solve_linearized,
    trajectory_distance,
)
from tumorctrl.model import DefaultLogisticFamily
from tumorctrl.state import Control, solve_state

from scenarios import norm_l2

RTOL = 1e-13
K = 8


def time_weights(tau):
    w = np.full(K + 1, tau)
    w[0] = w[-1] = tau / 2.0
    return w


def h1_sq(g, f):
    gr = g.grad(f)
    return g.inner(f, f) + g.inner(gr[0], gr[0]) + g.inner(gr[1], gr[1])


def assert_close(got, want):
    assert abs(got - want) <= RTOL * abs(want), (got, want)


@pytest.fixture(scope="module")
def case():
    g = Grid.unit(9, 6, 1.0, 0.8)
    assert g.hx != g.hy
    spec = DefaultLogisticFamily().build(g)
    x, y = g.meshes
    t = np.linspace(0.0, 1.0, K + 1)[:, None, None]
    control = Control(
        0.2 + 0.1 * np.cos(3.0 * x) * np.sin(2.0 * y) * (1.0 + t),
        0.3 + 0.05 * np.sin(5.0 * x + y) * (1.0 - 0.5 * t),
    )
    rng = np.random.default_rng(7)
    shape = control.chi1.shape
    direction = Control(rng.uniform(0.0, 1.0, shape), rng.uniform(0.0, 1.0, shape))
    weights = CostWeights(1.0, 0.5, 0.2, 1.0, 0.5, 0.3, 1.0, 0.2, 0.1)
    targets = Targets.resting(spec)
    traj = solve_state(control, spec)
    adj = solve_adjoint(traj, weights, targets, spec)
    lin = solve_linearized(traj, direction, spec)
    pert = solve_state(
        Control(control.chi1 + 1e-3 * direction.chi1, control.chi2 + 1e-3 * direction.chi2), spec
    )
    return dict(g=g, spec=spec, control=control, direction=direction, weights=weights,
                targets=targets, traj=traj, adj=adj, lin=lin, pert=pert)


def test_eval_cost_matches_level_loop(case):
    g, spec, traj, tg = case["g"], case["spec"], case["traj"], case["targets"]
    a = case["weights"].as_array()
    tw = time_weights(traj.tau)
    sq = lambda f: g.inner(f, f)
    run = lambda fn: sum(tw[n] * fn(n) for n in range(K + 1))
    strain = lambda n: g.sym_grad(traj.u[n])
    want = {
        "phi-tracking": 0.5 * a[0] * run(lambda n: sq(traj.phi[n] - tg.phi_track)),
        "phi-final-tracking": 0.5 * a[1] * sq(traj.phi[K] - tg.phi_final),
        "phi-final-mass": a[2] * g.integrate(traj.phi[K]),
        "sigma-tracking": 0.5 * a[3] * run(lambda n: sq(traj.sigma[n] - tg.sigma_track)),
        "sigma-final-tracking": 0.5 * a[4] * sq(traj.sigma[K] - tg.sigma_final),
        "strain-burden": 0.5 * a[5] * run(
            lambda n: g.integrate(spec.gamma.value(traj.phi[n]) * tensor_dot(strain(n), strain(n)))
        ),
        "z-tracking": 0.5 * a[6] * run(lambda n: sq(traj.z[n] - tg.z_track)),
        "z-final-mass": a[7] * g.integrate(traj.z[K]),
        "dose-effort": 0.5 * a[8] * run(
            lambda n: sq(traj.control.chi1[n]) + sq(traj.control.chi2[n])
        ),
    }
    total, parts = eval_cost(traj, case["weights"], tg, spec)
    assert parts.keys() == want.keys()
    for name, value in want.items():
        assert value > 0.0, name
        assert_close(parts[name], value)
    assert_close(total, sum(want.values()))


def test_duality_sides_match_level_loop(case):
    g, spec, traj, tg = case["g"], case["spec"], case["traj"], case["targets"]
    adj, lin, d = case["adj"], case["lin"], case["direction"]
    a = case["weights"].as_array()
    tw = time_weights(traj.tau)
    lhs = 0.0
    for n in range(K + 1):
        a4, b4 = dose_coefficients(traj.phi[n], traj.z[n], spec)
        lhs += tw[n] * (g.inner(a4 * d.chi1[n], adj.q[n]) + g.inner(b4 * d.chi2[n], adj.r[n]))
    rhs = (
        a[1] * g.inner(traj.phi[K] - tg.phi_final, lin.xi[K])
        + a[2] * g.integrate(lin.xi[K])
        + a[4] * g.inner(traj.sigma[K] - tg.sigma_final, lin.rho[K])
        + a[7] * g.integrate(lin.zeta[K])
    )
    for n in range(K + 1):
        ee = g.sym_grad(traj.u[n])
        rhs += tw[n] * (
            a[0] * g.inner(traj.phi[n] - tg.phi_track, lin.xi[n])
            + a[3] * g.inner(traj.sigma[n] - tg.sigma_track, lin.rho[n])
            + a[6] * g.inner(traj.z[n] - tg.z_track, lin.zeta[n])
            + 0.5 * a[5] * g.integrate(spec.gamma.d(traj.phi[n]) * tensor_dot(ee, ee) * lin.xi[n])
            + a[5] * g.integrate(
                spec.gamma.value(traj.phi[n]) * tensor_dot(ee, g.sym_grad(lin.omega[n]))
            )
        )
    res = duality_residual(traj, lin, adj, d, case["weights"], tg, spec)
    assert_close(res["lhs"], lhs)
    assert_close(res["rhs"], rhs)


def test_blocked_functionals_equal_whole_trajectory_reference(case, monkeypatch):
    # the running integrands are filled in blocks and summed over the whole
    # horizon at once, so they equal one whole-trajectory array expression
    g, spec, traj, tg = case["g"], case["spec"], case["traj"], case["targets"]
    adj, lin, d = case["adj"], case["lin"], case["direction"]
    monkeypatch.setattr(linearized, "BLOCK_BYTES", 4 * 8 * g.n_nodes)
    assert block_steps(g) == 4  # the K + 1 = 9 levels end on a partial block
    a = case["weights"].as_array()
    tw = traj.tau * trapezoid_weights(K)
    quad = lambda f: float(tw @ g.integrate_levels(f))
    eps, eps_lin = g.sym_grad(traj.u), g.sym_grad(lin.omega)
    chi1, chi2 = traj.control.chi1, traj.control.chi2
    running = {
        "phi-tracking": 0.5 * a[0] * quad((traj.phi - tg.phi_track) ** 2),
        "sigma-tracking": 0.5 * a[3] * quad((traj.sigma - tg.sigma_track) ** 2),
        "strain-burden": 0.5 * a[5] * quad(spec.gamma.value(traj.phi) * tensor_dot(eps, eps)),
        "z-tracking": 0.5 * a[6] * quad((traj.z - tg.z_track) ** 2),
        "dose-effort": 0.5 * a[8] * quad(chi1 * chi1 + chi2 * chi2),
    }
    _, parts = eval_cost(traj, case["weights"], tg, spec)
    for name, value in running.items():
        assert parts[name] == value, name

    a4, b4 = dose_coefficients(traj.phi, traj.z, spec)
    lhs = quad(a4 * d.chi1 * adj.q + b4 * d.chi2 * adj.r)
    rhs = (
        a[1] * g.inner(traj.phi[K] - tg.phi_final, lin.xi[K])
        + a[2] * g.integrate(lin.xi[K])
        + a[4] * g.inner(traj.sigma[K] - tg.sigma_final, lin.rho[K])
        + a[7] * g.integrate(lin.zeta[K])
        + quad(
            a[0] * (traj.phi - tg.phi_track) * lin.xi
            + a[3] * (traj.sigma - tg.sigma_track) * lin.rho
            + a[6] * (traj.z - tg.z_track) * lin.zeta
            + 0.5 * a[5] * spec.gamma.d(traj.phi) * tensor_dot(eps, eps) * lin.xi
            + a[5] * spec.gamma.value(traj.phi) * tensor_dot(eps, eps_lin)
        )
    )
    res = duality_residual(traj, lin, adj, d, case["weights"], tg, spec)
    assert res["lhs"] == lhs
    assert res["rhs"] == rhs


def test_control_inner_matches_level_loop(case):
    g, T, c, d = case["g"], case["spec"].T, case["control"], case["direction"]
    tw = time_weights(T / K)
    want = sum(
        tw[n] * (g.inner(c.chi1[n], d.chi1[n]) + g.inner(c.chi2[n], d.chi2[n]))
        for n in range(K + 1)
    )
    assert_close(control_inner(c, d, g, T), want)


def test_smoothness_norm_matches_level_loop_on_varying_dose(case):
    g, T, chi1 = case["g"], case["spec"].T, case["control"].chi1
    tw = time_weights(T / K)
    want = np.sqrt(sum(tw[n] * h1_sq(g, chi1[n]) for n in range(K + 1)))
    # the gradient part carries weight: the L2 part alone is visibly smaller
    l2 = np.sqrt(sum(tw[n] * g.inner(chi1[n], chi1[n]) for n in range(K + 1)))
    assert want > l2 * (1.0 + 1e-3)
    assert_close(smoothness_norm(chi1, g, T), want)


def test_reduced_gradient_equals_level_loop(case):
    spec, traj, adj = case["spec"], case["traj"], case["adj"]
    a9 = case["weights"].alpha9
    g1 = np.empty_like(traj.control.chi1)
    g2 = np.empty_like(traj.control.chi2)
    for n in range(K + 1):
        a4, b4 = dose_coefficients(traj.phi[n], traj.z[n], spec)
        g1[n] = a4 * adj.q[n] + a9 * traj.control.chi1[n]
        g2[n] = b4 * adj.r[n] + a9 * traj.control.chi2[n]
    grad = reduced_gradient(traj, adj, case["weights"], spec)
    assert np.array_equal(grad.chi1, g1)
    assert np.array_equal(grad.chi2, g2)


@pytest.mark.parametrize("with_lin", [False, True])
def test_trajectory_distance_matches_level_loop(case, with_lin):
    g, base, pert, lin = case["g"], case["traj"], case["pert"], case["lin"]
    # scale 0 subtracts exact zeros, so one loop serves both forms
    s = 1e-3 if with_lin else 0.0
    want = 0.0
    for n in range(K + 1):
        dphi = pert.phi[n] - base.phi[n] - s * lin.xi[n]
        dsig = pert.sigma[n] - base.sigma[n] - s * lin.rho[n]
        dz = pert.z[n] - base.z[n] - s * lin.zeta[n]
        du = pert.u[n] - base.u[n] - s * lin.omega[n]
        h1 = np.sqrt(h1_sq(g, du[0]) + h1_sq(g, du[1]))
        want = max(want, norm_l2(g, dphi) + norm_l2(g, dsig) + norm_l2(g, dz) + h1)
    if with_lin:
        got = trajectory_distance(base, pert, lin=lin, scale=s)
    else:
        got = trajectory_distance(base, pert)
    assert want > 0.0
    assert_close(got, want)
