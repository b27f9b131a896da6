"""Ready-made scenario bundles shared by the tests and the command line.

Each builder returns a Scenario holding the model, a control and the step
count.  The three families serve different purposes:

* the smooth scenario exercises every term with gentle data, so that
  derivative and duality studies run in their asymptotic regime;
* the bounds-stress scenario drives the tumor update far past its window
  with spatially constant data, making the pre-clamp excess follow an
  exact scalar recursion;
* the reduction scenario balances the lactate production against its
  consumption so the whole system collapses to a pointwise ODE, giving an
  independent integrator something exact to compare with.
"""
from dataclasses import dataclass, replace

import numpy as np

from .grid import Grid
from .model import DefaultLogisticFamily, constant_map
from .state import Control


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


def ode_rhs(spec, sigma_level, chi1):
    """Pointwise right-hand sides of the reduced system (phi, z)."""
    from . import model as mdl

    iota = float(spec.iota.flat[0])

    def rhs(t, yv):
        ph, zz = yv
        U = mdl.eval_U(ph, sigma_level, zz, chi1, spec)
        psi = spec.psi.value(np.array([ph]), np.zeros((3, 1)))[0]
        dz = iota - psi - float(mdl.beta(zz, spec)) - float(mdl.pi(zz, spec))
        return [float(U), dz]

    return rhs


def synthetic_inverse_pair(nx=10, n_steps=12, T=0.5):
    """Recovery problem with a known generating dose.

    Runs the smooth model under a reference dose pair, then builds
    tracking targets from that run's terminal and running fields.  An
    optimizer started from zero dose should drive the cost well below
    its starting value; the reference dose is returned for comparison.
    """
    from .adjoint import CostWeights, Targets
    from .state import solve_state

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
