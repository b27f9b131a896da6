"""Optimization-layer tests: dose geometry, reduced gradient against
finite differences, projected descent, and the optimality probes."""
import numpy as np
import pytest

from tumorctrl import control
from tumorctrl.adjoint import CostWeights, Targets, duality_residual, eval_cost, solve_adjoint
from tumorctrl.control import (
    AdmissibleSet,
    control_inner,
    control_norm,
    fd_directional,
    natural_residual,
    optimize,
    project_admissible,
    reduced_gradient,
    smoothness_norm,
    vi_residual,
)
from tumorctrl.grid import Grid
from tumorctrl.linearized import solve_linearized
from tumorctrl.snapshots import HISTORY_HEADER, write_history
from tumorctrl.state import Control, solve_state

from scenarios import bounds_stress_scenario, smooth_scenario, synthetic_inverse_pair


def full_weights():
    return CostWeights(1.0, 0.5, 0.2, 1.0, 0.5, 0.3, 1.0, 0.2, 1e-3)


def effort_only(a9=1.0):
    return CostWeights(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, a9)


def test_control_inner_closed_form_on_constants():
    g = Grid.unit(5, 7)
    T = 0.6
    a = Control.constant(g, 3, 0.7, 0.4)
    b = Control.constant(g, 3, -0.2, 0.5)
    want = T * (0.7 * -0.2 + 0.4 * 0.5)
    assert abs(control_inner(a, b, g, T) - want) < 1e-13
    assert abs(control_norm(a, g, T) - np.sqrt(T * (0.7**2 + 0.4**2))) < 1e-13


def test_smoothness_norm_of_constant():
    g = Grid.unit(6, 6)
    chi1 = np.full((5,) + g.shape, 0.8)
    # constant field: the gradient part vanishes, leaving c*sqrt(T)
    assert abs(smoothness_norm(chi1, g, 0.5) - 0.8 * np.sqrt(0.5)) < 1e-13


def test_admissible_validation():
    with pytest.raises(ValueError, match="boxes are empty"):
        AdmissibleSet(chi1_low=0.5, chi1_high=0.2).validate()
    with pytest.raises(ValueError, match="radius must be positive"):
        AdmissibleSet(c_ad=0.0).validate()


def test_projection_clamps_to_boxes():
    g = Grid.unit(6, 6)
    rng = np.random.default_rng(3)
    shape = (4,) + g.shape
    raw = Control(rng.uniform(-1.0, 2.0, shape), rng.uniform(-1.0, 2.0, shape))
    adm = AdmissibleSet(0.2, 0.7, 0.1, 0.9)
    proj, active = project_admissible(raw, adm, g, 0.5)
    assert np.array_equal(proj.chi1, np.clip(raw.chi1, 0.2, 0.7))
    assert np.array_equal(proj.chi2, np.clip(raw.chi2, 0.1, 0.9))
    assert not active


def test_projection_rescales_into_smoothness_ball():
    g = Grid.unit(8, 8)
    T = 0.5
    adm = AdmissibleSet(0.0, 1.0, 0.0, 1.0, c_ad=0.3)
    raw = Control.constant(g, 4, 0.8, 0.3)
    assert smoothness_norm(raw.chi1, g, T) > adm.c_ad
    proj, active = project_admissible(raw, adm, g, T)
    assert active
    assert abs(smoothness_norm(proj.chi1, g, T) - 0.3) < 1e-12
    assert np.array_equal(proj.chi2, raw.chi2)
    again, _ = project_admissible(proj, adm, g, T)
    assert np.allclose(again.chi1, proj.chi1, atol=1e-12)


def test_effort_only_gradient_is_weighted_dose():
    sc = smooth_scenario(nx=6, n_steps=4)
    spec = sc.spec
    w = effort_only(0.37)
    tg = Targets.zeros(spec.grid)
    traj = solve_state(sc.control, spec)
    adj = solve_adjoint(traj, w, tg, spec)
    grad = reduced_gradient(traj, adj, w, spec)
    assert np.max(np.abs(grad.chi1 - 0.37 * sc.control.chi1)) < 1e-13
    assert np.max(np.abs(grad.chi2 - 0.37 * sc.control.chi2)) < 1e-13


def gradient_fd_errors(n_steps, n_dirs=2, seed=11):
    sc = smooth_scenario(nx=8, n_steps=n_steps)
    spec = sc.spec
    w = full_weights()
    tg = Targets.resting(spec)
    traj = solve_state(sc.control, spec)
    adj = solve_adjoint(traj, w, tg, spec)
    grad = reduced_gradient(traj, adj, w, spec)
    rng = np.random.default_rng(seed)
    shape = (n_steps + 1,) + spec.grid.shape
    errs = []
    # positive draws keep the pairing away from zero; zero-mean noise can
    # cancel the directional derivative itself and wreck the relative error
    for _ in range(n_dirs):
        d = Control(rng.uniform(0.0, 1.0, shape), rng.uniform(0.0, 1.0, shape))
        pred = control_inner(grad, d, spec.grid, spec.T)
        ref = fd_directional(sc.control, d, w, tg, spec)
        errs.append(abs(pred - ref) / max(abs(ref), 1e-14))
    return np.array(errs)


def test_gradient_matches_directional_difference():
    # the dual march commits an O(tau) discretization of its own, so the
    # mismatch is dominated by a systematic first-order term that shrinks
    # with the step; assert the level and the improvement
    coarse = gradient_fd_errors(16)
    fine = gradient_fd_errors(32)
    assert coarse.max() < 0.03
    assert fine.max() < 0.015
    assert np.all(coarse / fine > 1.4)


def uniform_directions(sc, seed, n):
    rng = np.random.default_rng(seed)
    shape = sc.control.chi1.shape
    return [Control(rng.uniform(0.0, 1.0, shape), rng.uniform(0.0, 1.0, shape)) for _ in range(n)]


def test_gradient_through_recorded_clamps():
    # the first tumor step clamps every node onto phi = 0; a dual march
    # that ignored the clamp misses the difference by 6.5-8.1e-4
    sc = bounds_stress_scenario(n_steps=10, chi1_level=100.0)
    spec, w = sc.spec, CostWeights(1, 1, 0, 1, 1, 0.3, 1, 0, 0.1)
    tg = Targets.resting(spec)
    traj = solve_state(sc.control, spec)
    assert traj.diagnostics.phi_clamp[0] > 0.0
    grad = reduced_gradient(traj, solve_adjoint(traj, w, tg, spec), w, spec)
    for d in uniform_directions(sc, 7, 3):
        pred = control_inner(grad, d, spec.grid, spec.T)
        ref = fd_directional(sc.control, d, w, tg, spec)
        assert abs(pred - ref) < 1e-4 * abs(ref)


def test_central_difference_resolves_the_tangent():
    # the cost's central difference at eps 1e-4 against the tangent's cost
    # derivative plus the effort term agrees to about 1e-11; starting each
    # u-CG and z-Newton solve of the difference at the previous solve's
    # level meets the stopping tests before the O(eps) perturbation is
    # resolved and misses it by 5.5e-6 here (at 12x12, 20 steps it still
    # passes, so that size would not guard the hazard)
    sc = smooth_scenario(24, 40)
    spec, w = sc.spec, full_weights()
    tg = Targets.resting(spec)
    traj = solve_state(sc.control, spec)
    adj = solve_adjoint(traj, w, tg, spec)
    for d in uniform_directions(sc, 0, 2):
        lin = solve_linearized(traj, d, spec)
        pred = duality_residual(traj, lin, adj, d, w, tg, spec)["rhs"]
        pred += w.alpha9 * control_inner(sc.control, d, spec.grid, spec.T)
        ref = fd_directional(sc.control, d, w, tg, spec)
        assert abs(pred - ref) < 1e-6 * abs(ref)


def test_optimizer_drives_pure_effort_cost_to_floor():
    sc = smooth_scenario(nx=6, n_steps=4)
    spec = sc.spec
    res = optimize(
        spec,
        effort_only(),
        Targets.zeros(spec.grid),
        AdmissibleSet(),
        Control.constant(spec.grid, 4, 0.5, 0.5),
        max_iters=20,
        tol=1e-12,
    )
    assert res.cost < 1e-8
    assert res.reason == "converged"
    assert res.iterations <= 3


def test_optimizer_settles_on_active_box_face():
    sc = smooth_scenario(nx=6, n_steps=4)
    spec = sc.spec
    adm = AdmissibleSet(0.1, 1.0, 0.1, 1.0)
    res = optimize(
        spec,
        effort_only(),
        Targets.zeros(spec.grid),
        adm,
        Control.constant(spec.grid, 4, 0.8, 0.8),
        max_iters=20,
        tol=1e-12,
    )
    assert res.reason == "converged"
    assert np.max(np.abs(res.control.chi1 - 0.1)) < 1e-12
    assert np.max(np.abs(res.control.chi2 - 0.1)) < 1e-12

    vi = vi_residual(res.control, res.gradient, spec, adm)
    assert vi.worst_pairing >= -1e-9 * vi.scale
    assert vi.projection_residual < 1e-10


def test_vi_residual_flags_non_minimizer():
    sc = smooth_scenario(nx=6, n_steps=4)
    spec = sc.spec
    adm = AdmissibleSet(0.1, 1.0, 0.1, 1.0)
    bad = Control.constant(spec.grid, 4, 1.0, 1.0)
    traj = solve_state(bad, spec)
    adj = solve_adjoint(traj, effort_only(), Targets.zeros(spec.grid), spec)
    vi = vi_residual(bad, reduced_gradient(traj, adj, effort_only(), spec), spec, adm)
    assert vi.worst_pairing < -0.5 * vi.scale
    assert vi.projection_residual > 0.1


@pytest.mark.parametrize(
    "exit_kind, options",
    [
        ("converged", dict(max_iters=30, tol=1e-4, step0=100.0)),
        ("line search stalled", dict(max_iters=30, tol=0.0, step0=1000.0, max_backtracks=1)),
        ("iteration limit", dict(max_iters=1, tol=0.0)),
        # stalls on the last allowed iteration: the limit was not what stopped it
        ("line search stalled", dict(max_iters=2, tol=0.0, step0=1000.0, max_backtracks=1)),
    ],
)
def test_optimize_returns_start_cost_and_final_gradient(monkeypatch, exit_kind, options):
    sc = smooth_scenario(nx=6, n_steps=4)
    spec, w, tg, adm = sc.spec, full_weights(), Targets.zeros(sc.spec.grid), AdmissibleSet()
    adjoints = []

    def counted(*args, **kwargs):
        adjoints.append(1)
        return solve_adjoint(*args, **kwargs)

    monkeypatch.setattr(control, "solve_adjoint", counted)
    res = optimize(spec, w, tg, adm, sc.control, **options)
    assert res.reason == exit_kind
    assert res.cost < res.initial_cost  # at least one step was accepted
    # only the limit exit leaves the gradient one accepted step behind
    assert len(adjoints) == res.iterations + (exit_kind == "iteration limit")

    start, _ = project_admissible(sc.control, adm, spec.grid, spec.T)
    assert res.initial_cost == eval_cost(solve_state(start, spec), w, tg, spec)[0]
    traj = solve_state(res.control, spec)
    grad = reduced_gradient(traj, solve_adjoint(traj, w, tg, spec), w, spec)
    assert np.array_equal(res.gradient.chi1, grad.chi1)
    assert np.array_equal(res.gradient.chi2, grad.chi2)
    # the reported stationarity is that of the returned control, bitwise
    g, T = spec.grid, spec.T
    r = natural_residual(res.control, res.gradient, adm, g, T)
    assert res.stationarity == control_norm(r, g, T) / max(1.0, control_norm(res.control, g, T))


@pytest.fixture(scope="module")
def inverse_run():
    sc = synthetic_inverse_pair(nx=10, n_steps=12)
    spec = sc.spec
    w, tg = sc.extras["weights"], sc.extras["targets"]
    zero = Control.zeros(spec.grid, sc.n_steps)
    j0, _ = eval_cost(solve_state(zero, spec), w, tg, spec)
    res = optimize(spec, w, tg, AdmissibleSet(), zero, max_iters=12, tol=1e-10, step0=16.0)
    return j0, res


def test_synthetic_inverse_halves_the_cost(inverse_run):
    j0, res = inverse_run
    costs = [row[1] for row in res.history]
    assert all(b <= a + 1e-15 for a, b in zip(costs, costs[1:]))
    assert res.cost <= 0.5 * j0


def test_history_csv_round_trip(inverse_run, tmp_path):
    _, res = inverse_run
    path = tmp_path / "history.csv"
    write_history(path, res.history)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == HISTORY_HEADER
    assert len(lines) == len(res.history) + 1
    first = lines[1].split(",")
    assert int(first[0]) == res.history[0][0]
    assert abs(float(first[1]) - res.history[0][1]) < 1e-15


def test_optimize_memory_holds_one_trial_trajectory(traced_peak, field_bytes):
    # boxed and ball-constrained; iteration 2 rejects two candidates before accepting
    sc = smooth_scenario(nx=24, n_steps=32)
    spec = sc.spec
    adm = AdmissibleSet(chi1_high=0.5, chi2_high=0.5, c_ad=0.1)
    w = CostWeights(alpha1=1.0, alpha2=1.0, alpha6=0.3, alpha7=1.0, alpha9=0.1)
    solve_state(sc.control, spec)  # the cached step operators are built outside the trace
    res, peak = traced_peak(
        optimize, spec, w, Targets.resting(spec), adm, sc.control, max_iters=2, tol=1e-4, step0=50.0
    )
    assert [row[3] for row in res.history] == [50.0, 12.5]
    # the current and one trial trajectory (phi, sigma, z and two displacement
    # components each), the gradient and a few controls: 23.8 fields; 26.3
    # while the cost rebuilt the strain of every level at once, 53 while every
    # trajectory stored its strain and rejected candidates outlived the next solve
    assert peak < 40 * field_bytes(spec.grid, 32)


def _vi_case():
    sc = smooth_scenario(nx=8, n_steps=6)
    spec = sc.spec
    adm = AdmissibleSet(chi1_high=0.5, chi2_high=0.5, c_ad=0.1)
    candidate, _ = project_admissible(sc.control, adm, spec.grid, spec.T)
    traj = solve_state(candidate, spec)
    grad = reduced_gradient(traj, solve_adjoint(traj, full_weights(), Targets.resting(spec), spec),
                            full_weights(), spec)
    return spec, adm, candidate, grad


def test_vi_residual_memory_does_not_grow_with_probes(traced_peak):
    spec, adm, candidate, grad = _vi_case()
    few, peak_few = traced_peak(vi_residual, candidate, grad, spec, adm, n_random=8)
    many, peak_many = traced_peak(vi_residual, candidate, grad, spec, adm, n_random=32)
    assert (few.n_probes, many.n_probes) == (12, 36)
    control_bytes = 2 * candidate.chi1.nbytes
    assert peak_many <= peak_few + control_bytes


def test_streamed_vi_residual_equals_all_probe_reference(monkeypatch):
    spec, adm, candidate, grad = _vi_case()
    g, T, K = spec.grid, spec.T, candidate.n_steps
    # every probe made and projected first, then paired
    probes = {}
    for name, c1, c2 in (("corner-low-low", 0.0, 0.0), ("corner-low-high", 0.0, 0.5),
                         ("corner-high-low", 0.5, 0.0), ("corner-high-high", 0.5, 0.5)):
        probes[name], _ = project_admissible(Control.constant(g, K, c1, c2), adm, g, T)
    rng = np.random.default_rng(4)
    shape = (K + 1,) + g.shape
    for j in range(8):
        draw = Control(rng.uniform(0.0, 0.5, shape), rng.uniform(0.0, 0.5, shape))
        probes[f"random-{j}"], _ = project_admissible(draw, adm, g, T)
    gnorm = control_norm(grad, g, T)
    worst, worst_name, scale = np.inf, "none", 0.0
    for name, probe in probes.items():
        d = Control(probe.chi1 - candidate.chi1, probe.chi2 - candidate.chi2)
        val = control_inner(grad, d, g, T)
        scale = max(scale, gnorm * control_norm(d, g, T))
        if val < worst:
            worst, worst_name = val, name
    proj, _ = project_admissible(
        Control(candidate.chi1 - grad.chi1, candidate.chi2 - grad.chi2), adm, g, T)
    resid = control_norm(Control(candidate.chi1 - proj.chi1, candidate.chi2 - proj.chi2), g, T)

    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return project_admissible(*args, **kwargs)

    monkeypatch.setattr(control, "project_admissible", counted)
    vi = vi_residual(candidate, grad, spec, adm, seed=4)
    assert len(calls) == len(probes) + 1
    assert (vi.worst_pairing, vi.worst_probe, vi.projection_residual, vi.n_probes, vi.scale) == (
        worst, worst_name, resid, len(probes), max(scale, 1e-30))


@pytest.mark.parametrize("end", ["chi1_low", "chi1_high", "chi2_low", "chi2_high"])
def test_vi_residual_rejects_infinite_box_ends(end):
    # the boxes are sampled as given, so an infinite end is refused up front
    sc = smooth_scenario(nx=8, n_steps=4)
    g = sc.spec.grid
    adm = AdmissibleSet(**{end: np.inf if end.endswith("high") else -np.inf})
    with pytest.raises(ValueError, match="admissible box ends must be finite"):
        adm.validate()
    with pytest.raises(ValueError, match="admissible box ends must be finite"):
        vi_residual(Control.constant(g, 4, 0.2, 0.2), Control.constant(g, 4, 0.1, 0.1), sc.spec, adm)
