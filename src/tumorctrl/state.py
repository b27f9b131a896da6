"""Forward solver for the coupled tumor system.

One time step advances the four fields in the order phi -> sigma -> u -> z
with an implicit-explicit splitting: diffusion, elasticity and the damage
barrier are implicit (each a symmetric positive definite solve), while the
cross couplings enter explicitly with the freshest fields available.  The
damage substep keeps its logarithmic barrier inside the Newton iteration,
which is what preserves 0 < z < 1 without any projection.

Tumor and lactate updates clamp to their physical windows afterwards and
log the pre-clamp excess; the excess is O(tau) and halving the step about
halves it, so the committed error is measurable and refinable.  The
lactate cap is a monitored heuristic, not a proven constant: it combines
the data cap with the worst-case production the control can drive.

march is the time loop as a generator: it yields one time level at a time
and keeps only the current one, so a consumer that writes or skips each
level as it arrives (the simulate and separation commands) never holds
the trajectory.  The march's
Diagnostics record is the one account of a forward run: the per-step clamp
excess and iteration counts, and the range of each field over all levels,
from which the damage containment verdict is read.  solve_state collects
the same levels into a StateTrajectory for the sweeps that read every
level back (tangent, adjoint, cost), all but the strain, which they
rebuild from the displacement as they read it.  The solver does no I/O.
"""
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sps

from . import model as mdl
from .errors import SeparationError, SolverError
from .linalg import cg_solve, elastic_solver, separable_solver


@dataclass(frozen=True)
class Control:
    """Dose pair on the state time grid, shape (K+1, ny+1, nx+1) each."""

    chi1: np.ndarray
    chi2: np.ndarray

    @property
    def n_steps(self):
        return self.chi1.shape[0] - 1

    @classmethod
    def zeros(cls, grid, n_steps):
        shape = (n_steps + 1,) + grid.shape
        return cls(np.zeros(shape), np.zeros(shape))

    @classmethod
    def constant(cls, grid, n_steps, c1, c2):
        shape = (n_steps + 1,) + grid.shape
        return cls(np.full(shape, float(c1)), np.full(shape, float(c2)))

    def validate(self, grid=None):
        """Check shapes and finiteness, and with grid given its node shape."""
        if self.chi1.shape != self.chi2.shape or self.chi1.ndim != 3:
            raise ValueError("control components need matching (K+1, ny+1, nx+1) shapes")
        if self.chi1.shape[0] < 2:
            raise ValueError(f"control needs at least 2 time levels, got {self.chi1.shape[0]}")
        if grid is not None and self.chi1.shape[1:] != grid.shape:
            raise ValueError(
                f"control is defined on nodes {self.chi1.shape[1:]}, the grid has {grid.shape}"
            )
        if not (np.all(np.isfinite(self.chi1)) and np.all(np.isfinite(self.chi2))):
            raise ValueError("control contains non-finite entries")
        return self


@dataclass
class Diagnostics:
    """Record of one forward run, filled in by march.

    Per step: the pre-clamp excess of tumor and lactate, the damage Newton
    steps and the displacement CG iterations.  lo and hi are the minima and
    maxima of (phi, sigma, z) over every level marched so far.
    """

    phi_clamp: np.ndarray
    sigma_clamp: np.ndarray
    newton_iters: np.ndarray
    cg_u: np.ndarray
    sigma_cap: float
    z_window: Optional[tuple]
    lo: np.ndarray
    hi: np.ndarray

    @classmethod
    def empty(cls, control, spec):
        """Zeroed record for a march of control, which is checked against spec's grid.

        Only the lactate cap and the certified damage window are set.
        """
        K = control.validate(spec.grid).n_steps
        try:
            sep = spec.separation
            window = (sep.r_low, sep.r_high)
        except SeparationError:
            window = None
        return cls(
            phi_clamp=np.zeros(K),
            sigma_clamp=np.zeros(K),
            newton_iters=np.zeros(K, dtype=int),
            cg_u=np.zeros(K, dtype=int),
            sigma_cap=sigma_cap_for(spec, control),
            z_window=window,
            lo=np.full(3, np.inf),
            hi=np.full(3, -np.inf),
        )

    def widen(self, phi, sigma, z):
        """Widen the field ranges by one level."""
        np.minimum(self.lo, (phi.min(), sigma.min(), z.min()), out=self.lo)
        np.maximum(self.hi, (phi.max(), sigma.max(), z.max()), out=self.hi)

    @property
    def z_excess(self):
        """How far the damage range leaves the certified window; 0.0 without one."""
        if self.z_window is None:
            return 0.0
        return max(0.0, self.z_window[0] - float(self.lo[2]), float(self.hi[2]) - self.z_window[1])

    @property
    def contained(self):
        """Whether the damage range stayed in its certified window, up to rounding."""
        return self.z_excess <= 1e-12

    def summary(self):
        return {
            "phi_clamp_max": f"{self.phi_clamp.max():.6e}",
            "sigma_clamp_max": f"{self.sigma_clamp.max():.6e}",
            "newton_iters_max": str(self.newton_iters.max()),
            "cg_iters_max": str(self.cg_u.max()),
            "sigma_cap": f"{self.sigma_cap:.6e}",
            # sigma_cap_for is a monitored bound, not a proven one
            "sigma_cap_heuristic": "true",
            "z_excess": f"{self.z_excess:.3e}",
        }


@dataclass
class StateTrajectory:
    """Dense record of one forward solve; treated as immutable once built.

    The strain is not stored: strain rebuilds it from u for the levels a
    sweep reads, bitwise the eps_u that march yields.
    """

    grid: object
    times: np.ndarray
    phi: np.ndarray
    sigma: np.ndarray
    u: np.ndarray
    z: np.ndarray
    control: Control
    diagnostics: Diagnostics

    @property
    def n_steps(self):
        return len(self.times) - 1

    @property
    def tau(self):
        return float(self.times[1] - self.times[0])

    def strain(self, n0=0, n1=None):
        """sym_grad(u) at levels n0..n1-1, component-first: (3, n1-n0, ny+1, nx+1)."""
        return self.grid.sym_grad(self.u[n0:n1])


@dataclass(frozen=True)
class StepOperators:
    """Every implicit solve of one time step, shared by all three sweeps.

    The methods take and return grid fields and weight the right-hand sides
    by quadrature themselves.  neumann and robin solve the diffusion steps
    exactly with the separable_solver callables solve_neumann and
    solve_robin.  damage and displace run CG on state-dependent operators
    applied matrix-free.  The damage Jacobian adds a positive diagonal to
    laplacian = -tau*wl_neumann, so the no-flux solve preconditions it.
    displace takes its operator from the caller: u_operator at the sweep's
    moduli, the elastic part added to the viscous one K_A/tau.  viscous
    applies the interior block of K_A/tau matrix-free; displace needs no
    more of it, because the old displacement vanishes on the boundary, so
    no elastic matrix is assembled.  u_factor, the
    exact elastic_solver of the same interior block at the constant
    reference moduli A/tau + spec.reference_moduli (the weighted domain
    means of B(phi0, z0)), preconditions it.  Both are Lame forms on the
    same mesh, so the CG condition number is bounded by the ratio of their
    moduli, independent of the mesh width, and A/tau dominates the elastic
    part.
    """

    grid: object
    tau: float
    u_factor: Callable
    solve_neumann: Callable
    solve_robin: Callable
    laplacian: sps.csr_matrix
    viscous: Callable

    def neumann(self, f):
        """Solve (I - tau*L_neumann) x = f exactly."""
        g = self.grid
        return self.solve_neumann(g.quad_weights * f.ravel()).reshape(g.shape)

    def robin(self, f):
        """Solve (I - tau*L_robin) x = f exactly."""
        g = self.grid
        return self.solve_robin(g.quad_weights * f.ravel()).reshape(g.shape)

    def damage(self, slope, f, label, x0=None):
        """Solve (diag(slope) - tau*L_neumann) x = f by CG; returns (x, iterations)."""
        g, lap = self.grid, self.laplacian
        ws = g.quad_weights * slope.ravel()
        x0 = None if x0 is None else x0.ravel()
        x, iters = cg_solve(
            lambda v: ws * v + lap @ v, g.quad_weights * f.ravel(), precond=self.solve_neumann,
            label=label, x0=x0,
        )
        return x.reshape(g.shape), iters

    def displace(self, u_old, load, M_int, label):
        """Solve M_int u_new = K_A/tau u_old + load by CG, M_int from u_operator.

        On Dirichlet-zero interior nodes, warm-started at u_old, which
        vanishes on the boundary; load is a weighted flat (2N,) vector.
        Returns (u_new, sym_grad(u_new), iterations).
        """
        g = self.grid
        idx = g.interior_vector_indices
        old = u_old.ravel()[idx]
        rhs = self.viscous(old) + load[idx]
        sol, iters = cg_solve(M_int, rhs, precond=self.u_factor, label=label, x0=old)
        full = np.zeros(2 * g.n_nodes)
        full[idx] = sol
        u_new = full.reshape((2,) + g.shape)
        return u_new, g.sym_grad(u_new), iters


@lru_cache(maxsize=16)
def _step_operators(grid, tau, a_mu, a_lam, mu_ref, lam_ref):
    y, x = grid.axes
    return StepOperators(
        grid=grid,
        tau=tau,
        u_factor=elastic_solver(grid, mu_ref, lam_ref),
        solve_neumann=separable_solver(((y.weights, y.neumann), (x.weights, x.neumann)), tau),
        solve_robin=separable_solver(((y.weights, y.robin), (x.weights, x.robin)), tau),
        laplacian=-tau * grid.wl_neumann,
        viscous=grid.interior_elastic_operator(a_mu / tau, a_lam / tau),
    )


def step_operators(spec, tau):
    """The cached StepOperators of spec at step tau, keyed with its reference moduli."""
    tau = float(tau)
    mu_b, lam_b = spec.reference_moduli
    return _step_operators(
        spec.grid, tau, float(spec.A_mu), float(spec.A_lam),
        spec.A_mu / tau + mu_b, spec.A_lam / tau + lam_b,
    )


def u_operator(spec, mu_b, lam_b, tau):
    """Matvec of the SPD interior block of the displacement substep's operator.

    Viscous part over tau plus the elastic part at the moduli (mu_b, lam_b),
    restricted to interior degrees of freedom and applied matrix-free.  Both
    parts are elastic operators, so their sum is the elastic operator at the
    summed moduli.
    """
    return spec.grid.interior_elastic_operator(mu_b + spec.A_mu / tau, lam_b + spec.A_lam / tau)


def step_phi(phi, sigma, z, chi1, ops, spec):
    """Implicit diffusion, explicit reaction; clamp to [0, N] with a log."""
    U = mdl.eval_U(phi, sigma, z, chi1, spec)
    sol = ops.neumann(phi + ops.tau * U)
    excess = max(0.0, float(-sol.min()), float(sol.max() - spec.N))
    return np.clip(sol, 0.0, spec.N), excess


def step_sigma(sigma, phi, z, chi2, sigma_cap, ops, spec):
    """Implicit diffusion and Robin exchange, explicit kinetics."""
    tau = ops.tau
    react = chi2 * spec.S.value(phi, z) - mdl.eval_K(phi, sigma, z, spec)
    sol = ops.robin(sigma + tau * react + tau * spec.grid.robin_source(spec.sigma_gamma))
    excess = max(0.0, float(-sol.min()), float(sol.max() - sigma_cap))
    return np.clip(sol, 0.0, sigma_cap), excess


def step_u(u, phi_new, z, ops, spec):
    """Quasi-static viscoelastic update on Dirichlet-zero displacements."""
    load = spec.grid.vector_weights * spec.f.reshape(2, -1).ravel()
    M_int = u_operator(spec, *mdl.eval_B(phi_new, z, spec), ops.tau)
    return ops.displace(u, load, M_int, "u-step")


def step_z(z, phi_new, eps_new, ops, spec):
    """Fully implicit damage update; the log barrier stays inside Newton.

    Residual F(v) = v - tau*lap(v) + tau*(beta + pi)(v) - rhs, solved by
    damped Newton with an SPD weighted Jacobian; step lengths halve until
    the iterate stays strictly inside (0, 1).
    """
    g, tau = spec.grid, ops.tau
    rhs = z + tau * (spec.iota - spec.psi.value(phi_new, eps_new))
    v = z.copy()
    for it in range(50):
        res = (
            v
            - tau * g.laplacian_neumann(v)
            + tau * (mdl.beta(v, spec) + mdl.pi(v, spec))
            - rhs
        )
        sup = float(np.abs(res).max())
        if sup <= 1e-10:
            return v, it
        slope = 1.0 + tau * (mdl.beta_prime(v, spec) + mdl.pi_prime(v, spec))
        if slope.min() <= 0.0:
            raise SolverError(
                "z-step Jacobian lost positivity; time step too large for the "
                f"concave slope (min diagonal {slope.min():.3e})"
            )
        delta, _ = ops.damage(slope, -res, "z-newton")
        alpha = 1.0
        for _ in range(60):
            trial = v + alpha * delta
            if trial.min() > 0.0 and trial.max() < 1.0:
                break
            alpha *= 0.5
        else:
            raise SolverError("z-step line search could not stay inside (0, 1)")
        v = v + alpha * delta
    raise SolverError(
        f"z-step Newton did not converge in 50 iterations (sup residual {sup:.3e})"
    )


def sigma_cap_for(spec, control) -> float:
    """Monitored lactate bound: data cap plus worst-case driven production."""
    # reduced before clamping: a broadcast dose view then makes no dense temporary
    drive = max(float(control.chi2.max()), 0.0) if control.chi2.size else 0.0
    return max(spec.M0, float(spec.sigma0.max())) + spec.T * drive * spec.S.hi


def march(control: Control, spec, diagnostics: Diagnostics):
    """March the four-field system from the initial data to time T, level by level.

    Yields (phi, sigma, u, eps_u, z) at time levels 0..K and keeps only the
    current level.  Each level comes in new arrays that the next step reads,
    so a consumer may keep them but writes only to copies.  diagnostics is
    Diagnostics.empty(control, spec); step n fills entry n of its per-step
    arrays, and each level widens its field ranges.
    """
    g = spec.grid
    K = control.n_steps
    d = diagnostics
    ops = step_operators(spec, spec.T / K)

    phi, sigma, z = (np.full(g.shape, f, dtype=float) for f in (spec.phi0, spec.sigma0, spec.z0))
    u = np.full((2,) + g.shape, spec.u0, dtype=float)
    eps_u = g.sym_grad(u)
    d.widen(phi, sigma, z)
    yield phi, sigma, u, eps_u, z

    for n in range(K):
        phi_new, d.phi_clamp[n] = step_phi(phi, sigma, z, control.chi1[n], ops, spec)
        sigma, d.sigma_clamp[n] = step_sigma(sigma, phi, z, control.chi2[n], d.sigma_cap, ops, spec)
        phi = phi_new
        u, eps_u, d.cg_u[n] = step_u(u, phi, z, ops, spec)
        z, d.newton_iters[n] = step_z(z, phi, eps_u, ops, spec)
        d.widen(phi, sigma, z)
        yield phi, sigma, u, eps_u, z


def solve_state(control: Control, spec) -> StateTrajectory:
    """March the four-field system to time T and keep every level."""
    g = spec.grid
    K = control.n_steps
    d = Diagnostics.empty(control, spec)
    phi = np.empty((K + 1,) + g.shape)
    sigma = np.empty_like(phi)
    z = np.empty_like(phi)
    u = np.empty((K + 1, 2) + g.shape)
    for n, level in enumerate(march(control, spec, d)):
        phi[n], sigma[n], u[n], _, z[n] = level

    return StateTrajectory(
        grid=g,
        times=np.linspace(0.0, spec.T, K + 1),
        phi=phi,
        sigma=sigma,
        u=u,
        z=z,
        diagnostics=d,
        control=control,
    )

