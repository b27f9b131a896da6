"""Test-only scenarios, grid norms and readers.

Each scenario builder returns a Scenario holding the model, a control and
the step count.  The families serve different purposes:

* the smooth scenario exercises every term with gentle data, so that
  derivative and duality studies run in their asymptotic regime;
* the bounds-stress scenario drives the tumor update far past its window
  with spatially constant data, making the pre-clamp excess follow an
  exact scalar recursion;
* the reduction scenario balances the lactate production against its
  consumption so the whole system collapses to a pointwise ODE, giving an
  independent integrator something exact to compare with;
* the synthetic inverse pair builds tracking targets from a run under a
  known dose, so an optimizer has something to recover.

The grid helpers below are references the tests measure the solvers
against; no solver path applies them.  level_coefficients evaluates the
linearization coefficients at one level, as a 1-level block at step 0.
"""
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sps

from tumorctrl.adjoint import CostWeights, Targets
from tumorctrl.grid import Grid
from tumorctrl.linearized import assemble_coefficients
from tumorctrl.model import DefaultLogisticFamily, constant_map
from tumorctrl.state import Control, solve_state


@dataclass
class Scenario:
    spec: object
    control: Control
    n_steps: int
    extras: dict = None


def smooth_scenario(nx=48, n_steps=100, T=0.5) -> Scenario:
    """Gentle fully coupled run; all terms active, no clamping expected."""
    grid = Grid.unit(nx, nx)
    spec = DefaultLogisticFamily(T=T).build(grid)
    x, y = grid.meshes
    base1 = 0.08 * (1.0 + 0.5 * np.sin(np.pi * x) * np.sin(np.pi * y))
    base2 = 0.12 * (1.0 + 0.4 * np.cos(np.pi * x) * np.sin(np.pi * y))
    shape = (n_steps + 1,) + grid.shape
    control = Control(
        np.broadcast_to(base1, shape).copy(), np.broadcast_to(base2, shape).copy()
    )
    return Scenario(spec, control, n_steps)


def bounds_stress_scenario(n_steps=10, chi1_level=800.0) -> Scenario:
    """Overdose run with spatially constant data.

    The first tumor update lands far below zero; with constant fields the
    implicit diffusion is inert, so the pre-clamp excess is exactly
    tau*|U(phi0)| - phi0 and halving tau nearly halves it.
    """
    grid = Grid.unit(8, 8)
    fam = DefaultLogisticFamily(T=0.5)
    spec = replace(
        fam.build(grid),
        phi0=np.full(grid.shape, 0.3),
        sigma0=np.full(grid.shape, 0.5),
        sigma_gamma=np.full(grid.shape, 0.5),
        z0=np.full(grid.shape, 0.45),
        u0=np.zeros((2,) + grid.shape),
        f=np.zeros((2,) + grid.shape),
    )
    control = Control.constant(grid, n_steps, chi1_level, 0.2)
    return Scenario(spec, control, n_steps)


def ode_scenario(n_steps=50, nx=6) -> Scenario:
    """Spatially homogeneous run that reduces to a pointwise ODE system.

    Constant kinetics plus the balancing dose chi2 = K(sg)/S keep the
    lactate pinned at its boundary value; with zero force the
    displacement stays zero, so tumor and damage follow scalar equations.
    """
    grid = Grid.unit(nx, nx)
    fam = DefaultLogisticFamily(T=0.5)
    k1c, k2c, Sc = 0.5, 1.0, 0.8
    sg, phic, zc = 0.6, 0.25, 0.45
    chi1c = 0.15
    chi2c = k1c * sg / ((k2c + sg) * Sc)
    spec = replace(
        fam.build(grid),
        k1=constant_map(k1c),
        k2=constant_map(k2c),
        S=constant_map(Sc),
        phi0=np.full(grid.shape, phic),
        sigma0=np.full(grid.shape, sg),
        sigma_gamma=np.full(grid.shape, sg),
        z0=np.full(grid.shape, zc),
        u0=np.zeros((2,) + grid.shape),
        f=np.zeros((2,) + grid.shape),
    )
    control = Control.constant(grid, n_steps, chi1c, chi2c)
    extras = {"sigma_level": sg, "chi1": chi1c, "chi2": chi2c}
    return Scenario(spec, control, n_steps, extras=extras)


def synthetic_inverse_pair(nx=10, n_steps=12, T=0.5):
    """Recovery problem with a known generating dose.

    Runs the smooth model under a reference dose pair, then builds
    tracking targets from that run's terminal and running fields.  An
    optimizer started from zero dose should drive the cost well below
    its starting value; the reference dose is returned for comparison.
    """
    grid = Grid.unit(nx, nx)
    spec = DefaultLogisticFamily(T=T).build(grid)
    x, y = grid.meshes
    ref1 = 0.3 * (1.0 + np.sin(np.pi * x) * np.sin(np.pi * y))
    ref2 = 0.25 * (1.0 + np.cos(np.pi * x))
    reference = Control(
        np.repeat(ref1[None], n_steps + 1, axis=0),
        np.repeat(ref2[None], n_steps + 1, axis=0),
    )
    ref_traj = solve_state(reference, spec)
    weights = CostWeights(1.0, 1.0, 0.0, 1.0, 1.0, 0.0, 0.5, 0.0, 1e-4)
    targets = Targets(
        phi_track=ref_traj.phi[-1].copy(),
        phi_final=ref_traj.phi[-1].copy(),
        sigma_track=ref_traj.sigma[-1].copy(),
        sigma_final=ref_traj.sigma[-1].copy(),
        z_track=ref_traj.z[-1].copy(),
    )
    return Scenario(spec, reference, n_steps, extras={"weights": weights, "targets": targets})


def level_coefficients(phi, sigma, z, eps, chi1, chi2, spec, phi_mech=None, z_slope=None):
    """Coefficients at one level: a 1-level block at step 0, mechanics at (phi, z) by default."""
    phi_mech = phi if phi_mech is None else phi_mech
    z_slope = z if z_slope is None else z_slope
    scalars = (f[None] for f in (phi, sigma, z))
    block = assemble_coefficients(
        *scalars, eps[:, None], chi1[None], chi2[None], spec, phi_mech[None], z_slope[None], 0
    )
    return block.level(0)


def robin_linear_matrix(g):
    """Assembled linear part of g's Robin Laplacian, the Kronecker sum of its axes' factors."""
    y, x = g.axes
    return (sps.kron(sps.eye(g.ny + 1), x.robin) + sps.kron(y.robin, sps.eye(g.nx + 1))).tocsr()


def robin_linear(g, f):
    """Linear part of the Robin Laplacian (datum-independent) applied to f."""
    return (robin_linear_matrix(g) @ np.asarray(f, dtype=float).ravel()).reshape(g.shape)


def norm_l2(g, f):
    return float(np.sqrt(max(g.inner(f, f), 0.0)))


def norm_h1_vec(g, u):
    gx, gy = g.grad(u)
    return float(np.sqrt(g.integrate_levels(u * u + gx * gx + gy * gy).sum()))


def read_manifest(path):
    """The key = value pairs of a run.manifest, skipping blanks and # comments."""
    out = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition("=")
            out[key.strip()] = value.strip()
    return out
