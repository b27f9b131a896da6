"""Cost functional, its first derivative in the state, and its adjoint system.

The objective combines nine weighted addends: running and terminal
tracking for tumor and lactate, terminal tumor and damage mass, a strain
burden weighted by a tumor-dependent density, running damage tracking,
and a quadratic dose effort.  Its state partials are written once, in
running_partials and terminal_partials.  march_adjoint seeds the dual
fields at T with the terminal ones and takes its sources from the running
ones, marching backward with implicit diffusion and explicit cross
couplings from the later time level (the forward splitting in reverse)
and yielding one level at a time; solve_adjoint keeps the dual tumor and
lactate fields, the only ones the gradient reads.  cost_derivative pairs
the partials with a tangent; duality_residual measures its gap to the
dual dose pairing, the committed discretization error of the gradient
(first order in the step).  eval_cost and cost_derivative evaluate their
running integrands in blocks of time levels, so neither holds more than
one field over the horizon besides its inputs.
"""
from dataclasses import astuple, dataclass, fields

import numpy as np

from .grid import tensor_dot, trapezoid_weights
from .linearized import block_steps, coefficient_levels, dose_coefficients, one_sided
from .model import eval_B
from .state import StateTrajectory, step_operators, u_operator


@dataclass(frozen=True)
class CostWeights:
    """Nonnegative weights of the nine cost addends, not all zero; checked when built."""

    alpha1: float = 1.0
    alpha2: float = 1.0
    alpha3: float = 0.0
    alpha4: float = 0.0
    alpha5: float = 0.0
    alpha6: float = 0.0
    alpha7: float = 0.0
    alpha8: float = 0.0
    alpha9: float = 1e-3

    def __post_init__(self):
        a = self.as_array()
        if not np.all(np.isfinite(a)) or (a < 0).any():
            raise ValueError("cost weights must be finite and nonnegative")
        if not (a > 0).any():
            raise ValueError("at least one cost weight must be positive")

    def as_array(self):
        return np.array(astuple(self))


@dataclass
class Targets:
    """Spatial target profiles; running targets are held fixed in time."""

    phi_track: np.ndarray
    phi_final: np.ndarray
    sigma_track: np.ndarray
    sigma_final: np.ndarray
    z_track: np.ndarray

    @classmethod
    def zeros(cls, grid):
        z = np.zeros(grid.shape)
        return cls(z.copy(), z.copy(), z.copy(), z.copy(), z.copy())

    @classmethod
    def resting(cls, spec):
        """Tumor-free, boundary-level lactate, initial damage held."""
        g = spec.grid
        return cls(
            phi_track=np.zeros(g.shape),
            phi_final=np.zeros(g.shape),
            sigma_track=np.array(spec.sigma_gamma, dtype=float).copy(),
            sigma_final=np.array(spec.sigma_gamma, dtype=float).copy(),
            z_track=np.array(spec.z0, dtype=float).copy(),
        )

    def validate(self, grid):
        for f in fields(self):
            name, arr = f.name, getattr(self, f.name)
            if arr.shape != grid.shape:
                raise ValueError(f"target {name} has shape {arr.shape}, grid wants {grid.shape}")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"target {name} contains non-finite values")
        return self


def _time_quadrature(traj: StateTrajectory):
    """Space-time quadrature along traj, with trapezoid weights in time.

    Returns quad(f), where f(t) gives an integrand at the levels of the
    slice t.  quad fills one (K+1, ny+1, nx+1) buffer block_steps(grid)
    levels at a time, so no other temporary spans the horizon, and then
    sums the whole buffer: the order, and so the rounding, of one
    whole-trajectory array expression.
    """
    g, K = traj.grid, traj.n_steps
    tw = traj.tau * trapezoid_weights(K)
    B = block_steps(g)
    buf = np.empty((K + 1,) + g.shape)

    def quad(f):
        for n0 in range(0, K + 1, B):
            t = slice(n0, min(n0 + B, K + 1))
            buf[t] = f(t)
        return float(tw @ g.integrate_levels(buf))

    return quad


def eval_cost(traj: StateTrajectory, weights: CostWeights, targets: Targets, spec):
    """Evaluate the objective along a trajectory; returns (total, parts)."""
    g = traj.grid
    targets.validate(g)
    a = weights.as_array()
    run_quad = _time_quadrature(traj)

    def strain_burden(t):
        eps = traj.strain(t.start, t.stop)
        return spec.gamma.value(traj.phi[t]) * tensor_dot(eps, eps)

    sq = lambda f: g.inner(f, f)
    phi_T, sigma_T, z_T = traj.phi[-1], traj.sigma[-1], traj.z[-1]
    chi1, chi2 = traj.control.chi1, traj.control.chi2
    parts = {
        "phi-tracking": 0.5 * a[0] * run_quad(lambda t: (traj.phi[t] - targets.phi_track) ** 2),
        "phi-final-tracking": 0.5 * a[1] * sq(phi_T - targets.phi_final),
        "phi-final-mass": a[2] * g.integrate(phi_T),
        "sigma-tracking": 0.5 * a[3] * run_quad(lambda t: (traj.sigma[t] - targets.sigma_track) ** 2),
        "sigma-final-tracking": 0.5 * a[4] * sq(sigma_T - targets.sigma_final),
        "strain-burden": 0.5 * a[5] * run_quad(strain_burden),
        "z-tracking": 0.5 * a[6] * run_quad(lambda t: (traj.z[t] - targets.z_track) ** 2),
        "z-final-mass": a[7] * g.integrate(z_T),
        "dose-effort": 0.5 * a[8] * run_quad(lambda t: chi1[t] * chi1[t] + chi2[t] * chi2[t]),
    }
    return sum(parts.values()), parts


def running_partials(phi, sigma, z, eps, weights: CostWeights, targets: Targets, spec):
    """Partials of eval_cost's running integrand in (phi, sigma, z, strain) at given levels.

    eps is component-first, and the strain partial pairs with a strain
    through tensor_dot.  The dose effort has no state partial.
    """
    a = weights.as_array()
    return (
        a[0] * (phi - targets.phi_track) + 0.5 * a[5] * spec.gamma.d(phi) * tensor_dot(eps, eps),
        a[3] * (sigma - targets.sigma_track),
        a[6] * (z - targets.z_track),
        a[5] * spec.gamma.value(phi) * eps,
    )


def terminal_partials(traj: StateTrajectory, weights: CostWeights, targets: Targets):
    """Partials of eval_cost's terminal addends in (phi, sigma, z) at level K."""
    a = weights.as_array()
    return (
        a[1] * (traj.phi[-1] - targets.phi_final) + a[2],
        a[4] * (traj.sigma[-1] - targets.sigma_final),
        np.full(traj.grid.shape, a[7]),
    )


def cost_derivative(traj: StateTrajectory, lin, weights: CostWeights, targets: Targets, spec):
    """Derivative of eval_cost along the tangent lin of traj, less the dose effort's.

    The terminal partials pair with lin at level K, the running partials
    with lin and its strain under eval_cost's time quadrature.
    """
    g = traj.grid
    targets.validate(g)

    def running(t):
        eps, lin_eps = traj.strain(t.start, t.stop), lin.strain(t.start, t.stop)
        l_phi, l_sigma, l_z, l_eps = running_partials(
            traj.phi[t], traj.sigma[t], traj.z[t], eps, weights, targets, spec
        )
        return l_phi * lin.xi[t] + l_sigma * lin.rho[t] + l_z * lin.zeta[t] + tensor_dot(l_eps, lin_eps)

    K = traj.n_steps
    ends = zip(terminal_partials(traj, weights, targets), (lin.xi[K], lin.rho[K], lin.zeta[K]))
    return sum(g.inner(p, f) for p, f in ends) + _time_quadrature(traj)(running)


@dataclass
class AdjointTrajectory:
    """The dual tumor and lactate fields on the state time nodes.

    These are what the reduced gradient and the duality pairing read; the
    dual displacement and damage fields are yielded by march_adjoint only.
    """

    q: np.ndarray
    r: np.ndarray


def march_adjoint(traj: StateTrajectory, weights: CostWeights, targets: Targets, spec):
    """March the dual system backward along a stored trajectory, level by level.

    The terminal partials seed the dual fields at T; each backward step
    takes implicit diffusion (and the implicit damage slope) at the earlier
    level while every cross coupling and the running partials, its
    sources, are evaluated at the later one.  Where forward step m - 1 clamped, step m first passes
    q and r of level m through one_sided, the transpose of the tangent's
    one-sided clamp derivative.  Yields (q, r, v, s) at time levels K down
    to 0 and keeps only the current level.  Each level comes in new arrays
    that the next step reads, so a consumer may keep them but writes only
    to copies.
    """
    g = traj.grid
    targets.validate(g)
    K = traj.n_steps
    tau = traj.tau

    q, r, s = terminal_partials(traj, weights, targets)
    v = np.zeros((2,) + g.shape)
    # the strain of v at the later level, the only one a backward step reads
    eps_v = np.zeros((3,) + g.shape)
    yield q, r, v, s

    ops = step_operators(spec, tau)

    for m, co, ee in coefficient_levels(traj, spec, range(K, 0, -1), shift=0):
        ph, sg, zz = traj.phi[m], traj.sigma[m], traj.z[m]
        l_phi, l_sigma, l_z, l_eps = running_partials(ph, sg, zz, ee, weights, targets, spec)
        q, r = one_sided(traj, spec, m, q, r)

        f_q = co.a1 * q + co.b1 * r + co.d1 * s - tensor_dot(co.c1, eps_v) + l_phi
        q_new = ops.neumann(q + tau * f_q)

        f_r = co.a2 * q + co.b2 * r + l_sigma
        r_new = ops.robin(r + tau * f_r)

        load = g.sym_grad_adjoint(co.d2 * s + l_eps)
        M_int = u_operator(spec, *eval_B(ph, traj.z[m - 1], spec), tau)
        v, eps_v_new, _ = ops.displace(v, load, M_int, "v-step")

        f_s = co.a3 * q + co.b3 * r - tensor_dot(co.c2, eps_v) + l_z
        s, _ = ops.damage(1.0 - tau * co.d3, s + tau * f_s, "s-step", x0=s)
        q, r, eps_v = q_new, r_new, eps_v_new
        yield q, r, v, s


def solve_adjoint(traj: StateTrajectory, weights: CostWeights, targets: Targets, spec):
    """March the dual system backward and keep q and r of every level."""
    K = traj.n_steps
    q = np.empty((K + 1,) + traj.grid.shape)
    r = np.empty_like(q)
    for m, (q_m, r_m, _, _) in zip(range(K, -1, -1), march_adjoint(traj, weights, targets, spec)):
        q[m], r[m] = q_m, r_m
    return AdjointTrajectory(q=q, r=r)


def duality_residual(traj, lin, adj, direction, weights: CostWeights, targets: Targets, spec):
    """Gap between the dual dose pairing and cost_derivative along the tangent.

    The two sides agree for the continuous problem; their discrete gap is
    first order in the step and bounds the committed gradient error.
    Returns the two sides, the gap, and the gap relative to their scale.
    """
    for name, field in (("lin", lin.xi), ("adj", adj.q), ("direction", direction.chi1)):
        if field.shape != traj.phi.shape:
            raise ValueError(f"{name} has levels {field.shape}, the trajectory {traj.phi.shape}")
    direction.validate(traj.grid)
    rhs = cost_derivative(traj, lin, weights, targets, spec)

    def pairing(t):
        a4, b4 = dose_coefficients(traj.phi[t], traj.z[t], spec)
        return a4 * direction.chi1[t] * adj.q[t] + b4 * direction.chi2[t] * adj.r[t]

    lhs = _time_quadrature(traj)(pairing)
    gap = abs(lhs - rhs)
    scale = max(abs(lhs), abs(rhs), 1e-30)
    return {"lhs": lhs, "rhs": rhs, "gap": gap, "rel": gap / scale}
