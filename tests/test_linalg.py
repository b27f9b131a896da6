"""Kernel tests: the separable diffusion solve and the sparse factor against
reference solves."""
import numpy as np
import pytest
import scipy.sparse as sps
from scipy.sparse.linalg import spsolve

from tumorctrl.grid import Grid
from tumorctrl.linalg import factorize, separable_solver


def test_factorize_solves_diffusion_and_displacement_operators():
    g = Grid(9, 6, 0.11, 0.17)
    x, y = g.meshes
    mu = 1.0 + 0.3 * np.sin(2.0 * x) * np.cos(3.0 * y)
    lam = 0.4 + 0.2 * x * y
    tau = 0.03
    w = sps.diags(g.quad_weights)
    rng = np.random.default_rng(21)
    diffusion = [w - tau * w @ lap for lap in (g.lap_neumann_matrix, g.robin_linear_matrix)]
    idx = g.interior_vector_indices
    for A in diffusion + [g.elastic_matrix(mu, lam)[idx][:, idx]]:
        b = rng.standard_normal(A.shape[0])
        sol = factorize(A)(b)
        ref = spsolve(A.tocsc(), b)
        assert np.linalg.norm(A @ sol - b) <= 1e-12 * np.linalg.norm(b)
        assert np.linalg.norm(sol - ref) <= 1e-12 * np.linalg.norm(ref)


@pytest.mark.parametrize("tau", [0.03, 1.0])
@pytest.mark.parametrize("kind", ["neumann", "robin"])
def test_separable_solver_matches_sparse_solve(tau, kind):
    g = Grid(9, 6, 0.11, 0.17)
    y, x = g.axes
    lap = g.lap_neumann_matrix if kind == "neumann" else g.robin_linear_matrix
    A = (sps.diags(g.quad_weights) @ (sps.eye(g.n_nodes) - tau * lap)).tocsc()
    solve = separable_solver(((y.weights, getattr(y, kind)), (x.weights, getattr(x, kind))), tau)
    rng = np.random.default_rng(8)
    for _ in range(3):
        b = rng.standard_normal(g.n_nodes)
        sol = solve(b)
        ref = spsolve(A, b)
        assert np.linalg.norm(sol - ref) <= 1e-12 * np.linalg.norm(ref)
        assert np.linalg.norm(A @ sol - b) <= 1e-12 * np.linalg.norm(b)


def test_laplacians_are_kronecker_sums_of_the_axis_factors():
    g = Grid(9, 6, 0.11, 0.17)
    y, x = g.axes
    iy, ix = sps.eye(g.ny + 1), sps.eye(g.nx + 1)
    assert np.array_equal(g.quad_weights, np.kron(y.weights, x.weights))
    coeff = np.kron(y.coeff, np.ones(g.nx + 1)) + np.kron(np.ones(g.ny + 1), x.coeff)
    assert np.array_equal(g.robin_coeff, coeff)
    for mat, kind in ((g.lap_neumann_matrix, "neumann"), (g.robin_linear_matrix, "robin")):
        ref = sps.kron(iy, getattr(x, kind)) + sps.kron(getattr(y, kind), ix)
        assert abs(mat - ref).max() == 0.0
