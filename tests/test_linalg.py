"""Sparse kernel tests: the one factorization against a reference solve."""
import numpy as np
import scipy.sparse as sps
from scipy.sparse.linalg import spsolve

from tumorctrl.grid import Grid
from tumorctrl.linalg import factorize


def test_factorize_solves_diffusion_and_displacement_operators():
    g = Grid(9, 6, 0.11, 0.17)
    x, y = g.meshes
    mu = 1.0 + 0.3 * np.sin(2.0 * x) * np.cos(3.0 * y)
    lam = 0.4 + 0.2 * x * y
    tau = 0.03
    w = sps.diags(g.quad_weights)
    rng = np.random.default_rng(21)
    for A in (w - tau * g.wl_neumann, w - tau * g.wl_robin, g.interior_elastic_matrix(mu, lam)):
        b = rng.standard_normal(A.shape[0])
        sol = factorize(A)(b)
        ref = spsolve(A.tocsc(), b)
        assert np.linalg.norm(A @ sol - b) <= 1e-12 * np.linalg.norm(b)
        assert np.linalg.norm(sol - ref) <= 1e-12 * np.linalg.norm(ref)
