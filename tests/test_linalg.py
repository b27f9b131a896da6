"""Kernel tests: the separable diffusion solve and the exact displacement
solve against reference sparse solves, and CG's cold start and its
rejection of a non-finite right-hand side."""
import numpy as np
import pytest
import scipy.sparse as sps
from scipy.sparse.linalg import spsolve

from tumorctrl.errors import SolverError
from tumorctrl.grid import Grid
from tumorctrl.linalg import cg_solve, elastic_solver, separable_solver

from scenarios import robin_linear_matrix


@pytest.mark.parametrize(
    "grid",
    [
        Grid(9, 6, 0.11, 0.17),
        Grid.unit(8, 8),
        Grid.unit(10, 4),
        Grid.unit(7, 5, lx=1.3, ly=0.7),
        Grid.unit(2, 2),
        Grid.unit(2, 3),
        Grid.unit(3, 3),
    ],
    ids=lambda g: f"{g.nx}x{g.ny}",
)
def test_elastic_solver_matches_sparse_solve_and_is_symmetric(grid):
    # 8x8 and 10x4 have both cell counts even: the centred part is singular there
    mu, lam = 1.3, 0.45
    idx = grid.interior_vector_indices
    A = grid.elastic_matrix(mu, lam)[idx][:, idx].tocsc()
    solve = elastic_solver(grid, mu, lam)
    rng = np.random.default_rng(21)
    for _ in range(3):
        b, v = rng.standard_normal((2, A.shape[0]))
        sol = solve(b)
        ref = spsolve(A, b)
        assert np.linalg.norm(A @ sol - b) <= 1e-12 * np.linalg.norm(b)
        assert np.linalg.norm(sol - ref) <= 1e-12 * np.linalg.norm(ref)
        # CG needs a symmetric preconditioner
        sv = solve(v)
        assert abs(v @ sol - b @ sv) <= 1e-12 * np.linalg.norm(v) * np.linalg.norm(sol)


@pytest.mark.parametrize("tau", [0.03, 1.0])
@pytest.mark.parametrize("kind", ["neumann", "robin"])
def test_separable_solver_matches_sparse_solve(tau, kind):
    g = Grid(9, 6, 0.11, 0.17)
    y, x = g.axes
    lap = g.lap_neumann_matrix if kind == "neumann" else robin_linear_matrix(g)
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
    for mat, kind in ((g.lap_neumann_matrix, "neumann"), (robin_linear_matrix(g), "robin")):
        ref = sps.kron(iy, getattr(x, kind)) + sps.kron(getattr(y, kind), ix)
        assert abs(mat - ref).max() == 0.0


def test_cg_cold_start_skips_the_product_with_zero():
    g = Grid(9, 6, 0.11, 0.17)
    A = (sps.diags(g.quad_weights) - 0.5 * g.wl_neumann).tocsr()
    b = np.random.default_rng(3).standard_normal(g.n_nodes)
    calls = []

    def counted(v):
        calls.append(1)
        return A @ v

    identity = lambda r: r
    x, iters = cg_solve(counted, b, precond=identity, label="cg")
    assert iters > 0 and len(calls) == iters
    warm, _ = cg_solve(counted, b, precond=identity, label="cg", x0=np.zeros_like(b))
    assert np.array_equal(x, warm)


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_cg_rejects_a_non_finite_right_hand_side(bad):
    # inf <= inf would pass the residual test and return zeros as converged
    g = Grid.unit(6, 6)
    A = (sps.diags(g.quad_weights) - 0.5 * g.wl_neumann).tocsr()
    b = np.full(g.n_nodes, bad)
    calls = []

    def counted(v):
        calls.append(1)
        return A @ v

    with pytest.raises(SolverError, match="u-step: right-hand side norm is"):
        cg_solve(counted, b, precond=lambda r: r, label="u-step")
    assert not calls


def test_cg_stops_at_the_first_nan_product():
    # p.Ap = nan fails both the positivity and the residual test, so only
    # an explicit check keeps CG from spending its budget on NaN
    b = np.ones(49)
    calls = []

    def nan_operator(v):
        calls.append(1)
        return np.full_like(v, np.nan)

    with pytest.raises(SolverError, match=r"u-step: operator lost positive definiteness \(p.Ap = nan\)"):
        cg_solve(nan_operator, b, precond=lambda r: r, label="u-step")
    assert len(calls) == 1
