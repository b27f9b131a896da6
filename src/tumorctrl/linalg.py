"""Solvers for the implicit substeps.

All implicit operators in this package are in quadrature-weighted form,
which makes them symmetric positive definite in the ordinary dot product.
Each kind of solve has one kernel here:

* separable_solver solves the scalar diffusion systems W - tau*W*L of each
  time step exactly by fast diagonalization, because on the tensor grid L
  is a Kronecker sum of 1D operators.  The same solve preconditions the
  damage Jacobians, which only add a positive diagonal.
* elastic_solver solves the interior displacement block at constant
  moduli exactly, also by fast diagonalization: per parity class of the
  centred differences, plus a small capacitance matrix for the closure
  rows on the first interior layer.  It is the displacement preconditioner.
* cg_solve serves the solves whose preconditioner is only approximate: the
  displacement (u) substeps and the damage (z) Newton steps, in all three
  sweeps.  Their operators change every step, so they are applied
  matrix-free as stencil products and never assembled.

No sparse factorization is left: both direct solves are dense products of
one-axis size.  Their set-up takes numpy.linalg's eigh, svd and inv of
small dense matrices, so the package loads no scipy.linalg.
"""
import math

import numpy as np

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
    solve takes and returns flattened vectors.  Each 1D problem is solved as
    the ordinary symmetric one of w^-1/2 (-diag(w) A) w^-1/2 = V diag(lam) V^T,
    whose orthonormal V gives Q = w^-1/2 V.
    """
    (ly, qy), (lx, qx) = (_generalized_modes(w, a.toarray()) for w, a in axes)
    scale = 1.0 / (1.0 + tau * np.add.outer(ly, lx))

    def solve(b):
        y = qy.T @ b.reshape(scale.shape) @ qx
        return (qy @ (y * scale) @ qx.T).ravel()

    return solve


def _generalized_modes(w, a):
    """(lam, Q) with -diag(w) a Q = diag(w) Q diag(lam) and Q^T diag(w) Q = I, lam ascending."""
    r = 1.0 / np.sqrt(w)
    lam, v = np.linalg.eigh(-(np.sqrt(w)[:, None] * a * r))
    return lam, r[:, None] * v


def _centred_modes(n, h):
    """Paired bases of the centred difference on one axis's interior positions.

    The difference (u[i+1] - u[i-1]) / 2h, with zero boundary values, maps
    the m = n // 2 odd positions 1, 3, ... to the even positions 2, 4, ...
    and back.  Padded to m x m by a zero row, its odd-to-even block has the
    SVD U diag(s) V^T; returns s and the stack (V, U) of odd and even bases,
    column k of both paired by s[k].  The padded position of the even class
    carries U's last column, a unit vector, which no real position sees.
    For even n the odd constant lies in the kernel and s[-1] is exactly 0.
    """
    m = n // 2
    d = np.zeros((m, m))
    k = np.arange((n - 1) // 2)
    d[k, k] = -0.5 / h
    k = k[k + 1 < m]
    d[k, k + 1] = 0.5 / h
    u, s, vt = np.linalg.svd(d)
    if n % 2 == 0:
        s[-1] = 0.0
    return s, np.stack([vt.T, u])


def _gram(ay, ax, w, by, bx):
    """sum_k a[g, k] w[k] b[g', k] over the modes k = (ky, kx).

    Row g of a is the outer product ay[g] (x) ax[g], the mode coefficients of
    a unit vector, and likewise for b; they are formed in chunks of ky of at
    most 2^16 entries, so no stack of all of them is held.
    """
    out = np.zeros((len(ay), len(by)))
    if not out.size:
        return out
    step = max(1, (1 << 16) // (max(len(ay), len(by)) * ax.shape[1]))
    for k0 in range(0, ay.shape[1], step):
        ks = slice(k0, k0 + step)
        fa = ay[:, ks, None] * ax[:, None, :]
        fb = by[:, ks, None] * (bx[:, None, :] * w[ks])
        out += fa.reshape(len(fa), -1) @ fb.reshape(len(fb), -1).T
    return out


def elastic_solver(grid, mu, lam):
    """Exact solve of the interior block of grid.elastic_matrix(mu, lam); returns its callable.

    mu and lam are constants.  The solve takes and returns vectors in
    grid.interior_vector_indices order.  The block is P + diag(d):

    * P is the form of centred differences at the interior nodes alone.  The
      centred difference couples odd with even positions per axis, so u_x on
      parity class (cy, cx) couples only with u_y on (1-cy, 1-cx): four
      independent components.  In the bases of _centred_modes per axis, P is
      2x2-block diagonal per mode (fast diagonalization; Lynch, Rice &
      Thomas, Numer. Math. 6, 1964), and its pseudo-inverse is two batched
      products each way.  P is singular exactly when nx and ny are both
      even: the constant on the odd-odd class, of u_x and of u_y.
    * d holds the first-order closure rows of the boundary nodes.  It is
      diagonal and nonzero only on the first interior layer Gamma.

    Per component, the capacitance matrix (Buzbee, Dorr, George & Golub,
    SIAM J. Numer. Anal. 8, 1971)

        [[diag(1/d_Gamma) + Gamma P^+ Gamma^T, Gamma n], [n^T Gamma^T, 0]],

    bordered by the component's kernel vector n if it has one, is formed and
    inverted once.  A solve is y = P^+ b, then t from the capacitance matrix
    and (y_Gamma, n^T b), then x = y - P^+ Gamma^T t_Gamma - n t_n.  The
    border row makes b - Gamma^T t_Gamma orthogonal to n, so the
    pseudo-inverse, zero on the kernel, needs no shift there.  Gamma
    lies on the first and last position rows and columns of the parity
    classes, so y_Gamma is read from the modes of y and the correction is
    added to them: one transform each way per solve.
    """
    ny, nx, hx, hy = grid.ny, grid.nx, grid.hx, grid.hy
    (sy, by), (sx, bx) = _centred_modes(ny, hy), _centred_modes(nx, hx)
    my, mx = len(sy), len(sx)

    # mode arrays are indexed (field, cy, cx, ky, kx) by parity class: u_x on
    # (cy, cx) pairs with u_y on (1-cy, 1-cx), at [1, ::-1, ::-1]
    by_, bx_ = by[None, :, None], bx[None, None]
    byt, bxt = by_.swapaxes(-1, -2).copy(), bx_.swapaxes(-1, -2).copy()
    # the first and last position rows of each class, and columns
    ey, ex = by_[..., [0, -1], :], bx_[..., [0, -1], :]
    eyt, ext = ey.swapaxes(-1, -2).copy(), ex.swapaxes(-1, -2).copy()

    # pseudo-inverse of P per mode: [[inv_x, inv_c], [inv_c, inv_y]], zero on
    # its kernel; its determinant is (hx hy)^2 mu (2 mu + lam) (sy^2 + sx^2)^2
    p = 2.0 * mu + lam
    sy2, sx2 = (sy**2)[:, None], (sx**2)[None, :]
    s2 = sy2 + sx2
    q = np.divide(1.0, hx * hy * mu * p * s2**2, out=np.zeros_like(s2), where=s2 > 0.0)
    inv_x = (p * sy2 + mu * sx2) * q
    inv_y = (p * sx2 + mu * sy2) * q
    # the coupling changes sign with each even class of u_x
    sign = np.array([[1.0, -1.0], [-1.0, 1.0]])[:, :, None, None]
    inv_c = sign * ((lam + mu) * np.outer(sy, sx) * q)

    def modes(v):
        f = np.zeros((2, 2 * my, 2 * mx))
        f[:, : ny - 1, : nx - 1] = v.reshape(2, ny - 1, nx - 1)
        f = np.ascontiguousarray(f.reshape(2, my, 2, mx, 2).transpose(0, 2, 4, 1, 3))
        return byt @ f @ bx_

    def pinv(c):
        ux, uy = c[0], c[1, ::-1, ::-1]
        out = np.empty_like(c)
        out[0] = inv_x * ux + inv_c * uy
        out[1, ::-1, ::-1] = inv_c * ux + inv_y * uy
        return out

    def field(c):
        f = (by_ @ c @ bxt).transpose(0, 3, 1, 4, 2).reshape(2, 2 * my, 2 * mx)
        return f[:, : ny - 1, : nx - 1].ravel()

    # the first interior layer, its closure diagonal and where its dofs sit
    # among the line values [rows (2, 2, 2, 2, mx), columns (2, 2, 2, my, 2)]
    layer = np.ones((ny - 1, nx - 1), dtype=bool)
    layer[1:-1, 1:-1] = False
    rows, cols = np.nonzero(layer)
    c_x = (cols == 0).astype(float) + (cols == nx - 2)
    c_y = (rows == 0).astype(float) + (rows == ny - 2)
    d = (
        c_x * p * hy / (2.0 * hx) + c_y * mu * hx / (2.0 * hy),
        c_x * mu * hy / (2.0 * hx) + c_y * p * hx / (2.0 * hy),
    )
    n_r, n_c = 16 * mx, 16 * my
    on_row = (rows == 0) | (rows == ny - 2)

    blocks = []
    for cy, cx in ((0, 0), (0, 1), (1, 0), (1, 1)):
        # u_x on class (cy, cx) and u_y on (1-cy, 1-cx): field f on (cy ^ f, cx ^ f)
        sel = [(rows % 2 == cy ^ f) & (cols % 2 == cx ^ f) for f in (0, 1)]
        ay = [by[cy ^ f][rows[s] // 2] for f, s in enumerate(sel)]
        ax = [bx[cx ^ f][cols[s] // 2] for f, s in enumerate(sel)]
        k_xy = _gram(ay[0], ax[0], inv_c[cy, cx], ay[1], ax[1])
        cap = np.block([
            [_gram(ay[0], ax[0], inv_x, ay[0], ax[0]), k_xy],
            [k_xy.T, _gram(ay[1], ax[1], inv_y, ay[1], ax[1])],
        ])
        cap[np.diag_indices_from(cap)] += 1.0 / np.concatenate([d[0][sel[0]], d[1][sel[1]]])
        idx = []
        for f, s in enumerate(sel):
            r, c = rows[s], cols[s]
            f_r = (np.full(len(r), f), r % 2, c % 2)
            at_row = np.ravel_multi_index(f_r + (r // 2 > 0, c // 2), (2, 2, 2, 2, mx))
            at_col = np.ravel_multi_index(f_r + (r // 2, c // 2 > 0), (2, 2, 2, my, 2))
            idx.append(np.where(on_row[s], at_row, n_r + at_col))
        if nx % 2 == 0 and ny % 2 == 0 and cy == cx:
            # the kernel of P in this component: field cy's odd-odd constant
            border = np.concatenate([ay[f][:, -1] * ax[f][:, -1] * (f == cy) for f in (0, 1)])
            cap = np.block([[cap, border[:, None]], [border[None, :], np.zeros((1, 1))]])
            idx.append([n_r + n_c + cy])
        try:
            cap_inv = np.linalg.inv(cap)
        except np.linalg.LinAlgError as e:
            raise SolverError(f"elastic_solver set-up: capacitance matrix of parity class "
                              f"({cy}, {cx}) is singular (mu {mu:.3g}, lam {lam:.3g})") from e
        blocks.append((np.concatenate(idx), cap_inv))

    # one batch over the components, padded by identity rows on a zero entry
    size = max(len(i) for i, _ in blocks)
    gidx = np.full((4, size), n_r + n_c + 2)
    kinv = np.tile(np.eye(size), (4, 1, 1))
    for k, (i, m) in enumerate(blocks):
        gidx[k, : len(i)] = i
        kinv[k, : len(i), : len(i)] = m

    def solve(b):
        bh = modes(b)
        yh = pinv(bh)
        kern = bh[:, 0, 0, -1, -1]
        w = np.concatenate([(ey @ yh @ bxt).ravel(), (by_ @ yh @ ext).ravel(), kern, (0.0,)])
        t = np.zeros_like(w)
        t[gidx] = (kinv @ w[gidx][:, :, None])[:, :, 0]
        on_rows = t[:n_r].reshape(2, 2, 2, 2, mx)
        on_cols = t[n_r : n_r + n_c].reshape(2, 2, 2, my, 2)
        xh = yh - pinv(eyt @ on_rows @ bx_ + byt @ on_cols @ ex)
        xh[:, 0, 0, -1, -1] -= t[n_r + n_c : n_r + n_c + 2]
        return field(xh)

    return solve


def cg_solve(A, b, precond, label, x0=None):
    """Solve A x = b for a symmetric positive definite operator A, preconditioned.

    Converges when ||r|| / ||b|| <= CG_RTOL and gives up with a SolverError
    after ceil(10 * sqrt(len(b))) iterations, or at once when ||b|| is not
    finite, which no residual test could tell from convergence.

    Parameters
    ----------
    A : callable returning the product A @ x of a vector x
    b : right-hand side vector
    precond : callable applying an SPD approximate inverse of A
    label : name used in the non-convergence error
    x0 : optional warm start

    Returns
    -------
    (x, iterations)
    """
    b = np.asarray(b, dtype=float)
    bnorm = np.linalg.norm(b)
    if not np.isfinite(bnorm):
        raise SolverError(f"{label}: right-hand side norm is {bnorm}")
    if bnorm == 0.0:
        return np.zeros_like(b), 0
    maxiter = int(math.ceil(10.0 * math.sqrt(b.size)))
    if x0 is None:
        # the cold start's residual is b itself: no product with zero
        x, r = np.zeros_like(b), b.copy()
    else:
        x = np.array(x0, dtype=float)
        r = b - A(x)
    resid = np.linalg.norm(r)
    if resid <= CG_RTOL * bnorm:
        return x, 0
    z = precond(r)
    p = z.copy()
    rz = float(r @ z)
    for k in range(1, maxiter + 1):
        Ap = A(p)
        pAp = float(p @ Ap)
        if not pAp > 0.0:  # NaN fails this test too
            raise SolverError(
                f"{label}: operator lost positive definiteness (p.Ap = {pAp:.3e})"
            )
        alpha = rz / pAp
        x += alpha * p
        r -= alpha * Ap
        resid = np.linalg.norm(r)
        if resid <= CG_RTOL * bnorm:
            return x, k
        z = precond(r)
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    raise SolverError(
        f"{label}: no convergence in {maxiter} iterations "
        f"(relative residual {resid / bnorm:.3e})"
    )
