"""Tangent dynamics of the forward solver.

TangentStep.apply is the derivative of one forward step: each substep
differentiates the corresponding state substep at the stored trajectory,
keeping the same implicit operators and the same staggering of old and
new fields, and solve_linearized marches it.  Where the trajectory's
diagnostics record that step_phi or step_sigma clamped, the tangent takes
the clamp's one-sided derivative (one_sided): zero at the nodes the step
left on a bound, one inside.  So it is the derivative of the discrete
scheme, one-sided at a recorded clamp.  Comparing one linearized solve
against finite differences of two nonlinear solves is a consistency check
on both solvers; taylor_test packages that comparison.

assemble_coefficients is the single source of the derivative's thirteen
per-node coefficients, one for each way a perturbation of (tumor,
lactate, damage, displacement, doses) enters the four equations, and of
the moduli they differentiate.  coefficient_levels, the one walk both
sweeps take over them, evaluates a block of block_steps(grid) time levels
per call, rebuilding the block's strain with traj.strain, and yields
views of it; elementwise arithmetic does not depend on the stacking, so
the result is bitwise that of a per-level evaluation.
"""
from dataclasses import dataclass, fields

import numpy as np

from . import model as mdl
from .errors import DomainError
from .grid import stress_from_strain, tensor_dot
from .state import Control, StateTrajectory, StepOperators, solve_state, step_operators, u_operator

BLOCK_BYTES = 32 * 1024


def block_steps(grid):
    """Time levels per coefficient block: one scalar field fills BLOCK_BYTES."""
    return max(1, BLOCK_BYTES // (8 * grid.n_nodes))


@dataclass
class LinearizedCoefficients:
    """Per-node coefficient fields of the linearized system.

    Scalars multiply scalar perturbations; the c and d2 entries are
    symmetric tensors in (t11, t22, t12) storage and act through the
    double-dot product; mu_b and lam_b are the moduli the c entries
    differentiate.  A block of time levels stacks the levels after the
    tensor component: scalars are (B, ny+1, nx+1), tensors (3, B, ny+1, nx+1).
    """

    a1: np.ndarray
    a2: np.ndarray
    a3: np.ndarray
    a4: np.ndarray
    b1: np.ndarray
    b2: np.ndarray
    b3: np.ndarray
    b4: np.ndarray
    c1: np.ndarray
    c2: np.ndarray
    d1: np.ndarray
    d2: np.ndarray
    d3: np.ndarray
    mu_b: np.ndarray
    lam_b: np.ndarray

    def validate(self, step0):
        """Raise DomainError naming the first non-finite node of a field.

        The fields are a block whose first level is time step step0, and the
        message names the absolute step of the node.  A finite sum implies
        finite entries, so only a field whose sum is not finite (a bad
        entry, or an overflow) pays the locating scan.
        """
        for f in fields(self):
            name, arr = f.name, getattr(self, f.name)
            if np.isfinite(arr.sum()):
                continue
            bad = np.argwhere(~np.isfinite(arr))
            if len(bad):
                # rows come in index order, so the first at the earliest step
                # has the lowest tensor component and node there
                *comp, step, y, x = (int(v) for v in bad[bad[:, -3].argmin()])
                raise DomainError(
                    f"coefficient {name} non-finite at step {step0 + step}, node {(*comp, y, x)}"
                )
        return self

    def level(self, j):
        """Views of level j of a block."""
        return LinearizedCoefficients(
            **{f.name: getattr(self, f.name)[..., j, :, :] for f in fields(self)}
        )


def dose_coefficients(phi, z, spec, S=None):
    """Dose sensitivities (a4, b4) of the tumor and lactate equations.

    S is spec.S.value(phi, z) when the caller has it already.
    """
    return -phi * (1.0 - phi / spec.N), spec.S.value(phi, z) if S is None else S


def assemble_coefficients(
    phi, sigma, z, eps, chi1, chi2, spec, phi_mech, z_slope, step0
) -> LinearizedCoefficients:
    """Evaluate the thirteen linearization coefficients on a block of levels.

    The fields stack B levels, eps component-first (3, B, ny+1, nx+1);
    step0 is the time step of the first level, named by validation errors.
    phi_mech is the tumor at which the moduli and the mechanical
    coefficients c1, c2, d1 and d2 are taken, z_slope the damage at which
    d3 is; the tangent march staggers them to match the state substeps.
    """
    p, (p_sigma, p_z) = spec.p.value_grad(sigma, z)
    g_, (g_sigma, g_z) = spec.g.value_grad(sigma, z)
    S, (S_phi, S_z) = spec.S.value_grad(phi, z)
    a4, b4 = dose_coefficients(phi, z, spec, S=S)
    logi = -a4
    a1 = (p - chi1) * (1.0 - 2.0 * phi / spec.N) - g_
    a2 = p_sigma * logi - phi * g_sigma
    a3 = p_z * logi - phi * g_z

    k1, (k1_phi, k1_z) = spec.k1.value_grad(phi, z)
    k2, (k2_phi, k2_z) = spec.k2.value_grad(phi, z)
    den = k2 + sigma
    b1 = -k1_phi * sigma / den + k1 * sigma * k2_phi / den**2
    b1 = b1 + chi2 * S_phi
    b2 = -k1 / den + k1 * sigma / den**2
    b3 = -k1_z * sigma / den + k1 * sigma * k2_z / den**2
    b3 = b3 + chi2 * S_z

    mu_b, (mu_phi, mu_z) = spec.B_mu.value_grad(phi_mech, z)
    lam_b, (lam_phi, lam_z) = spec.B_lam.value_grad(phi_mech, z)
    c1 = -stress_from_strain(mu_phi, lam_phi, eps)
    c2 = -stress_from_strain(mu_z, lam_z, eps)

    psi_phi, psi_eps = spec.psi.grad(phi_mech, eps)
    d1, d2 = -psi_phi, -psi_eps
    d3 = -(mdl.beta_prime(z_slope, spec) + mdl.pi_prime(z_slope, spec))
    co = LinearizedCoefficients(a1, a2, a3, a4, b1, b2, b3, b4, c1, c2, d1, d2, d3, mu_b, lam_b)
    return co.validate(step0)


def coefficient_levels(traj: StateTrajectory, spec, levels, shift):
    """Walk the linearization coefficients along traj; yields (n, coefficients, strain).

    levels is a range of consecutive time levels, upward or downward,
    yielded in that order.  Each run of block_steps(grid) of them takes one
    assemble_coefficients call, with the strain, the mechanical tumor and
    the damage slope at level n + shift and the rest at n.
    """
    B = block_steps(spec.grid)
    for i in range(0, len(levels), B):
        run = levels[i:i + B]
        n0 = min(run)
        t, s = slice(n0, n0 + len(run)), slice(n0 + shift, n0 + shift + len(run))
        eps = traj.strain(s.start, s.stop)
        block = assemble_coefficients(
            traj.phi[t], traj.sigma[t], traj.z[t], eps, traj.control.chi1[t], traj.control.chi2[t],
            spec, phi_mech=traj.phi[s], z_slope=traj.z[s], step0=n0,
        )
        for n in run:
            yield n, block.level(n - n0), eps[:, n - n0]


def one_sided(traj: StateTrajectory, spec, n, dphi, dsigma):
    """Carry tumor and lactate derivatives of level n through the clamps of step n - 1.

    Where traj.diagnostics records that the step clamped a field, its
    derivative is zeroed at the nodes the step left on a bound of the clamp
    window: np.clip writes the bounds exactly, so those are the nodes it may
    have held.  Returns new arrays where a mask applies, the inputs otherwise.
    """
    d = traj.diagnostics
    if d.phi_clamp[n - 1] > 0.0:
        dphi = dphi * ((0.0 < traj.phi[n]) & (traj.phi[n] < spec.N))
    if d.sigma_clamp[n - 1] > 0.0:
        dsigma = dsigma * ((0.0 < traj.sigma[n]) & (traj.sigma[n] < d.sigma_cap))
    return dphi, dsigma


@dataclass(frozen=True)
class TangentStep:
    """Step n -> n+1 of the tangent march: co is level n of coefficient_levels(..., shift=1).

    Substeps mirror the state solver: the tumor and lactate tangents take
    their coefficients from the old time level, the displacement tangent
    sees the moduli at (new tumor, old damage) contracted with the new
    strain (the moduli co carries), and the damage tangent is implicit in
    its own slope.  The tumor and lactate tangents pass one_sided after
    their diffusion solves.
    """

    traj: StateTrajectory
    spec: object
    n: int
    co: LinearizedCoefficients
    ops: StepOperators

    def apply(self, xi, rho, omega, zeta, chi1, chi2):
        """Level n+1 of (xi, rho, omega, zeta) from level n and the direction's doses at n."""
        co, ops, tau = self.co, self.ops, self.ops.tau
        xi_new = ops.neumann(xi + tau * (co.a1 * xi + co.a2 * rho + co.a3 * zeta + co.a4 * chi1))
        rho_new = ops.robin(rho + tau * (co.b1 * xi + co.b2 * rho + co.b3 * zeta + co.b4 * chi2))
        xi_new, rho_new = one_sided(self.traj, self.spec, self.n + 1, xi_new, rho_new)

        load = self.spec.grid.sym_grad_adjoint(co.c1 * xi_new + co.c2 * zeta)
        M_int = u_operator(self.spec, co.mu_b, co.lam_b, tau)
        omega_new, eps_omega, _ = ops.displace(omega, load, M_int, "omega-step")

        rhs = zeta + tau * (co.d1 * xi_new + tensor_dot(co.d2, eps_omega))
        zeta_new, _ = ops.damage(1.0 - tau * co.d3, rhs, "zeta-step", x0=zeta)
        return xi_new, rho_new, omega_new, zeta_new


@dataclass
class LinearizedTrajectory:
    """Tangent fields along a stored state trajectory.

    The strain of omega is not stored: strain rebuilds it for the levels a
    reader asks for, bitwise the strain the march used.
    """

    grid: object
    xi: np.ndarray
    rho: np.ndarray
    omega: np.ndarray
    zeta: np.ndarray

    def strain(self, n0=0, n1=None):
        """sym_grad(omega) at levels n0..n1-1, component-first: (3, n1-n0, ny+1, nx+1)."""
        return self.grid.sym_grad(self.omega[n0:n1])


def solve_linearized(traj: StateTrajectory, direction: Control, spec) -> LinearizedTrajectory:
    """Differentiate the forward march along a dose perturbation, one TangentStep per step."""
    g = spec.grid
    direction.validate(g)
    K = traj.n_steps
    if direction.n_steps != K:
        raise ValueError("direction defined on a different number of steps")

    xi, rho, zeta = (np.zeros((K + 1,) + g.shape) for _ in range(3))
    omega = np.zeros((K + 1, 2) + g.shape)
    ops = step_operators(spec, traj.tau)
    for n, co, _ in coefficient_levels(traj, spec, range(K), shift=1):
        step = TangentStep(traj, spec, n, co, ops)
        level = step.apply(xi[n], rho[n], omega[n], zeta[n], direction.chi1[n], direction.chi2[n])
        xi[n + 1], rho[n + 1], omega[n + 1], zeta[n + 1] = level
    return LinearizedTrajectory(grid=g, xi=xi, rho=rho, omega=omega, zeta=zeta)


def trajectory_distance(a: StateTrajectory, b, lin: LinearizedTrajectory = None, scale=1.0):
    """Sup over time of the combined field distance between two solves.

    With lin given, measures || b - a - scale*lin || instead, which is the
    Taylor remainder when scale is the perturbation size.
    """
    g = a.grid
    dphi, dsig, dz, du = b.phi - a.phi, b.sigma - a.sigma, b.z - a.z, b.u - a.u
    if lin is not None:
        dphi = dphi - scale * lin.xi
        dsig = dsig - scale * lin.rho
        dz = dz - scale * lin.zeta
        du = du - scale * lin.omega
    gx, gy = g.grad(du)
    h1 = np.sqrt(g.integrate_levels(du * du + gx * gx + gy * gy).sum(axis=-1))
    l2 = lambda f: np.sqrt(g.integrate_levels(f * f))
    return float((l2(dphi) + l2(dsig) + l2(dz) + h1).max())


def taylor_test(control: Control, direction: Control, spec):
    """Remainder ladder for the tangent solver.

    For each epsilon = 0.01 * 2^-k, k = 0..4, solves the nonlinear system
    at the perturbed dose and measures the first-order Taylor remainder
    against the linearized prediction.  Returns the epsilons, first-order
    distances, remainders and the fitted remainder slope; slope 2 means the
    tangent is exact.
    """
    if not (np.any(direction.chi1) or np.any(direction.chi2)):
        raise ValueError("perturbation direction must be nonzero")
    epsilons = 0.01 * 0.5 ** np.arange(5)
    base = solve_state(control, spec)
    lin = solve_linearized(base, direction, spec)
    first, remainder = [], []
    for eps in epsilons:
        pert = solve_state(
            Control(control.chi1 + eps * direction.chi1, control.chi2 + eps * direction.chi2),
            spec,
        )
        first.append(trajectory_distance(base, pert))
        remainder.append(trajectory_distance(base, pert, lin=lin, scale=eps))
    first = np.array(first)
    remainder = np.array(remainder)
    floor = 1e-12 * max(1.0, float(first.max()))
    keep = remainder > floor
    if keep.sum() >= 2:
        slope = float(np.polyfit(np.log(epsilons[keep]), np.log(remainder[keep]), 1)[0])
    else:
        slope = 2.0
    return {"epsilons": epsilons, "first_order": first, "remainder": remainder, "slope": slope,
            "base": base}
