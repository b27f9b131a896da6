"""Dose optimization: admissible set, reduced gradient, projected descent.

The reduced gradient pairs the dual tumor and lactate fields with the
dose sensitivities of their equations and adds the quadratic effort
term.  Minimization runs projected gradient descent with an Armijo line
search; the projection clamps to the dose boxes and then rescales the
first dose into its smoothness ball, re-clamping once.  That composite
is the exact projection when the ball is inactive, and for constant
doses, but not in general: with the ball active on a non-constant dose
the radial rescale can land farther from the input than the nearest
admissible point.

The first-order condition is the variational inequality
u = P_U(u - grad J(u)); natural_residual forms its residual
r = x - P_U(x - g) with project_admissible, so it is exact only where
that projection is.  optimize stops on the relative norm of r and
returns it as stationarity together with the reduced gradient; on every
exit both describe the control it returns, so a caller can certify the
result without a further state or adjoint solve.  vi_residual probes
the first-order optimality of a candidate, given the reduced gradient at
that candidate, from two independent routes: directional pairings
against admissible probes and the norm of r.  Both are reported; a
negative directional value beyond tolerance disproves optimality no
matter what the projection residual says.
"""
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .adjoint import (
    AdjointTrajectory,
    CostWeights,
    Targets,
    eval_cost,
    solve_adjoint,
)
from .grid import trapezoid_weights
from .linearized import dose_coefficients
from .state import Control, StateTrajectory, solve_state


@dataclass(frozen=True)
class AdmissibleSet:
    """Pointwise dose boxes plus a smoothness ball on the first dose."""

    chi1_low: float = 0.0
    chi1_high: float = 1.0
    chi2_low: float = 0.0
    chi2_high: float = 1.0
    c_ad: float = np.inf

    def validate(self):
        if not np.isfinite((self.chi1_low, self.chi1_high, self.chi2_low, self.chi2_high)).all():
            raise ValueError("admissible box ends must be finite")
        if not (self.chi1_low <= self.chi1_high and self.chi2_low <= self.chi2_high):
            raise ValueError("admissible boxes are empty")
        if not self.c_ad > 0:
            raise ValueError("smoothness radius must be positive")
        return self


def control_inner(a: Control, b: Control, grid, T):
    """Space-time inner product of dose pairs, trapezoid in time."""
    tw = (T / a.n_steps) * trapezoid_weights(a.n_steps)
    return float(tw @ grid.integrate_levels(a.chi1 * b.chi1 + a.chi2 * b.chi2))


def control_norm(a: Control, grid, T):
    return float(np.sqrt(max(control_inner(a, a, grid, T), 0.0)))


def smoothness_norm(chi1, grid, T):
    """Time-quadrature of the spatial first-order norm of one dose."""
    K = chi1.shape[0] - 1
    tw = (T / K) * trapezoid_weights(K)
    gx, gy = grid.grad(chi1)
    return float(np.sqrt(tw @ grid.integrate_levels(chi1 * chi1 + gx * gx + gy * gy)))


def project_admissible(control: Control, adm: AdmissibleSet, grid, T):
    """Clamp to the boxes, rescale into the smoothness ball, re-clamp.

    Returns the projected control and whether the ball was active.
    """
    adm.validate()
    chi1 = np.clip(control.chi1, adm.chi1_low, adm.chi1_high)
    chi2 = np.clip(control.chi2, adm.chi2_low, adm.chi2_high)
    ball_active = False
    if np.isfinite(adm.c_ad):
        nb = smoothness_norm(chi1, grid, T)
        if nb > adm.c_ad:
            ball_active = True
            chi1 = chi1 * (adm.c_ad / nb)
            chi1 = np.clip(chi1, adm.chi1_low, adm.chi1_high)
    return Control(chi1, chi2), ball_active


def natural_residual(control: Control, grad: Control, adm: AdmissibleSet, grid, T):
    """The natural residual x - P_U(x - g) at the control x with reduced gradient g."""
    proj, _ = project_admissible(
        Control(control.chi1 - grad.chi1, control.chi2 - grad.chi2), adm, grid, T
    )
    return Control(control.chi1 - proj.chi1, control.chi2 - proj.chi2)


def reduced_gradient(traj: StateTrajectory, adj: AdjointTrajectory, weights: CostWeights, spec):
    """Gradient of the reduced objective in the dose metric.

    The first component pairs the dual tumor field with the dose
    sensitivity of the growth law, the second pairs the dual lactate
    field with the supply map; both add the weighted dose itself.
    """
    a9 = weights.alpha9
    a4, b4 = dose_coefficients(traj.phi, traj.z, spec)
    return Control(a4 * adj.q + a9 * traj.control.chi1, b4 * adj.r + a9 * traj.control.chi2)


def fd_directional(control: Control, direction: Control, weights, targets, spec):
    """Central difference of the reduced objective along a direction, step 1e-4."""
    eps = 1e-4
    up = Control(control.chi1 + eps * direction.chi1, control.chi2 + eps * direction.chi2)
    dn = Control(control.chi1 - eps * direction.chi1, control.chi2 - eps * direction.chi2)
    j_up, _ = eval_cost(solve_state(up, spec), weights, targets, spec)
    j_dn, _ = eval_cost(solve_state(dn, spec), weights, targets, spec)
    return (j_up - j_dn) / (2.0 * eps)


@dataclass
class OptimizeResult:
    """Returned control with its cost, trajectory and reduced gradient.

    initial_cost is the cost at the projected start; gradient is the
    reduced gradient at control, the input vi_residual certifies, and
    stationarity the relative natural residual there.  reason is why the
    loop stopped: converged, line search stalled or iteration limit.
    """

    control: Control
    cost: float
    stationarity: float
    iterations: int
    reason: str
    initial_cost: float
    gradient: Control
    history: list = field(default_factory=list)
    trajectory: Optional[StateTrajectory] = None


def optimize(
    spec,
    weights: CostWeights,
    targets: Targets,
    adm: AdmissibleSet,
    control0: Control,
    max_iters=100,
    tol=1e-6,
    step0=1.0,
    max_backtracks=30,
):
    """Projected gradient descent with Armijo backtracking.

    The accepted step doubles into the next iteration but never beyond
    the initial step.  Stationarity is the norm of the natural residual,
    relative to the dose size.  History records (iteration, cost,
    stationarity, step, ball_active) per iteration.
    """
    g = spec.grid
    T = spec.T
    weights.validate()
    adm.validate()

    def first_order(current, traj):
        """Reduced gradient and stationarity at an iterate."""
        grad = reduced_gradient(traj, solve_adjoint(traj, weights, targets, spec), weights, spec)
        r_norm = control_norm(natural_residual(current, grad, adm, g, T), g, T)
        return grad, r_norm / max(1.0, control_norm(current, g, T))

    current, _ = project_admissible(control0, adm, g, T)
    traj = solve_state(current, spec)
    cost, _ = eval_cost(traj, weights, targets, spec)
    initial_cost = cost
    grad, stat = first_order(current, traj)
    history = []
    lam = step0
    reason = "iteration limit"
    it = 0
    # besides traj, the loop keeps only grad and at most one candidate and
    # its trajectory alive across a solve
    for it in range(1, max_iters + 1):
        if stat <= tol:
            reason = "converged"
            history.append((it, cost, stat, 0.0, 0))
            break

        accepted = False
        ball_active = False
        for _ in range(max_backtracks):
            # a rejected candidate goes before the next one is made
            cand = cand_traj = None
            cand, ball_active = project_admissible(
                Control(current.chi1 - lam * grad.chi1, current.chi2 - lam * grad.chi2),
                adm,
                g,
                T,
            )
            move = Control(cand.chi1 - current.chi1, cand.chi2 - current.chi2)
            move_sq = control_inner(move, move, g, T)
            del move
            if move_sq == 0.0:
                break
            cand_traj = solve_state(cand, spec)
            cand_cost, _ = eval_cost(cand_traj, weights, targets, spec)
            if cand_cost <= cost - (1e-4 / lam) * move_sq:
                accepted = True
                break
            lam *= 0.5
        if not accepted:
            reason = "line search stalled"
            history.append((it, cost, stat, lam, int(ball_active)))
            break
        current, traj, cost = cand, cand_traj, cand_cost
        history.append((it, cost, stat, lam, int(ball_active)))
        lam = min(2.0 * lam, step0)
        del grad  # the stale gradient goes before the next one is made
        grad, stat = first_order(current, traj)

    return OptimizeResult(
        control=current,
        cost=cost,
        stationarity=stat,
        iterations=it,
        reason=reason,
        initial_cost=initial_cost,
        gradient=grad,
        history=history,
        trajectory=traj,
    )


@dataclass
class VIReport:
    """First-order optimality evidence for a candidate dose pair.

    scale is the largest Cauchy-Schwarz bound |<grad, probe - candidate>|
    over the probe set, the right yardstick for judging how negative a
    pairing is allowed to be at a discrete minimizer.
    """

    worst_pairing: float
    worst_probe: str
    projection_residual: float
    n_probes: int
    scale: float

    def __str__(self):
        return (
            f"worst directional pairing {self.worst_pairing:+.6e} ({self.worst_probe}) "
            f"at scale {self.scale:.6e}; projection residual "
            f"{self.projection_residual:.6e} over {self.n_probes} probes"
        )


def admissible_probes(n_steps, adm: AdmissibleSet, grid, T, n_random=8, seed=0):
    """Yield (name, probe) admissible controls one at a time.

    The four constant box corners come first, then n_random uniform draws
    from the boxes, each projected.
    """
    lo1, hi1, lo2, hi2 = adm.chi1_low, adm.chi1_high, adm.chi2_low, adm.chi2_high
    for name, c1, c2 in (
        ("corner-low-low", lo1, lo2),
        ("corner-low-high", lo1, hi2),
        ("corner-high-low", hi1, lo2),
        ("corner-high-high", hi1, hi2),
    ):
        yield name, project_admissible(Control.constant(grid, n_steps, c1, c2), adm, grid, T)[0]
    rng = np.random.default_rng(seed)
    shape = (n_steps + 1,) + grid.shape
    for j in range(n_random):
        draw = Control(rng.uniform(lo1, hi1, shape), rng.uniform(lo2, hi2, shape))
        probe = project_admissible(draw, adm, grid, T)[0]
        del draw
        yield f"random-{j}", probe


def vi_residual(candidate: Control, grad: Control, spec, adm: AdmissibleSet, n_random=8, seed=0):
    """Probe the variational inequality at a candidate minimizer.

    grad must be the reduced gradient at candidate, as
    OptimizeResult.gradient is for OptimizeResult.control; no state or
    adjoint is solved here.  Pairs it with admissible directions (box
    corners, random admissible draws) and reports the most negative
    pairing; a minimizer keeps every pairing nonnegative.  Also reports
    the norm of the natural residual as an independent route.
    """
    g = spec.grid
    T = spec.T
    worst, worst_name = np.inf, "none"
    gnorm = control_norm(grad, g, T)
    scale = 0.0
    n_probes = 0
    for name, probe in admissible_probes(candidate.n_steps, adm, g, T, n_random, seed):
        d = Control(probe.chi1 - candidate.chi1, probe.chi2 - candidate.chi2)
        val = control_inner(grad, d, g, T)
        scale = max(scale, gnorm * control_norm(d, g, T))
        if val < worst:
            worst, worst_name = val, name
        n_probes += 1
        del probe, d  # gone before the next probe is made

    return VIReport(
        worst_pairing=float(worst),
        worst_probe=worst_name,
        projection_residual=control_norm(natural_residual(candidate, grad, adm, g, T), g, T),
        n_probes=n_probes,
        scale=max(scale, 1e-30),
    )
