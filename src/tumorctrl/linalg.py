"""Dense and sparse kernels for the implicit substeps.

All implicit operators in this package are in quadrature-weighted form,
which makes them symmetric positive definite in the ordinary dot product.
Each kind of solve has one kernel here:

* separable_solver solves the scalar diffusion systems W - tau*W*L of each
  time step exactly by fast diagonalization, because on the tensor grid L
  is a Kronecker sum of 1D operators.  The same solve preconditions the
  damage Jacobians, which only add a positive diagonal.
* factorize is the sparse LU of the displacement preconditioner.
* cg_solve serves the solves whose preconditioner is only approximate: the
  displacement (u) substeps and the damage (z) Newton steps, in all three
  sweeps.  Their operators change every step, so they are applied
  matrix-free as stencil products and never assembled.
"""
import math

import numpy as np
from scipy.linalg import eigh
from scipy.sparse.linalg import splu

from .errors import SolverError

CG_RTOL = 1e-10


def separable_solver(axes, tau):
    """Exact solve of W - tau*W*(Ay (+) Ax); returns its solve callable.

    axes holds one (weights, operator) pair per array axis, slowest first,
    with W = diag(wy) (x) diag(wx), (+) the Kronecker sum and each
    diag(w) A symmetric.  The 1D generalized eigenproblems
    -diag(w) A Q = diag(w) Q diag(lam), normalized to Q^T diag(w) Q = I,
    diagonalize the whole operator:

        (W - tau*W*L)^{-1} = (Qy (x) Qx) diag(1 / (1 + tau*(lam_y (+) lam_x))) (Qy (x) Qx)^T

    so a solve is four dense products of one-axis size (fast
    diagonalization; Lynch, Rice & Thomas, Numer. Math. 6, 1964).  The
    solve takes and returns flattened vectors.
    """
    (ly, qy), (lx, qx) = (eigh(-(w[:, None] * a.toarray()), np.diag(w)) for w, a in axes)
    scale = 1.0 / (1.0 + tau * np.add.outer(ly, lx))

    def solve(b):
        y = qy.T @ b.reshape(scale.shape) @ qx
        return (qy @ (y * scale) @ qx.T).ravel()

    return solve


def factorize(A):
    """Sparse LU of an SPD matrix A; returns its solve callable.

    A symmetric fill-reducing ordering (minimum degree on A^T + A) and
    diagonal pivots keep the factors symmetric in structure, and SPD
    matrices need no pivoting.
    """
    lu = splu(
        A.tocsc(),
        permc_spec="MMD_AT_PLUS_A",
        diag_pivot_thresh=0.0,
        options={"SymmetricMode": True},
    )
    return lu.solve


def cg_solve(A, b, x0=None, label="cg", precond=None):
    """Solve A x = b for a symmetric positive definite operator A.

    Converges when ||r|| / ||b|| <= CG_RTOL and gives up with a SolverError
    after ceil(10 * sqrt(len(b))) iterations.

    Parameters
    ----------
    A : callable returning the product A @ x of a vector x
    b : right-hand side vector
    x0 : optional warm start
    label : name used in the non-convergence error
    precond : optional callable applying an SPD approximate inverse of A

    Returns
    -------
    (x, iterations)
    """
    b = np.asarray(b, dtype=float)
    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        return np.zeros_like(b), 0
    maxiter = int(math.ceil(10.0 * math.sqrt(b.size)))
    x = np.zeros_like(b) if x0 is None else np.array(x0, dtype=float)
    r = b - A(x)
    resid = np.linalg.norm(r)
    if resid <= CG_RTOL * bnorm:
        return x, 0
    z = r if precond is None else precond(r)
    p = z.copy()
    rz = float(r @ z)
    history = [resid / bnorm]
    for k in range(1, maxiter + 1):
        Ap = A(p)
        pAp = float(p @ Ap)
        if pAp <= 0.0:
            raise SolverError(
                f"{label}: operator lost positive definiteness (p.Ap = {pAp:.3e})",
                history,
            )
        alpha = rz / pAp
        x += alpha * p
        r -= alpha * Ap
        resid = np.linalg.norm(r)
        history.append(resid / bnorm)
        if resid <= CG_RTOL * bnorm:
            return x, k
        z = r if precond is None else precond(r)
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    raise SolverError(
        f"{label}: no convergence in {maxiter} iterations "
        f"(relative residual {resid / bnorm:.3e})",
        history,
    )
