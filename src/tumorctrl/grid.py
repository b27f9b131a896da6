"""Structured rectangle grid with the discrete operators used by all solvers.

The domain [0, Lx] x [0, Ly] is covered by nx x ny cells whose nodes carry
every field, scalar displacement component and strain component alike.
Arrays are indexed [j, i] with x varying along the last axis.

Design notes that the rest of the package relies on:

* The grid inner product is trapezoidal quadrature.  With the half weights
  on boundary nodes, the ghost-reflected Neumann Laplacian and the Robin
  Laplacian are exactly self-adjoint, and the strain/divergence pair below
  is an exact transpose pair, which keeps every implicit operator
  symmetric positive (semi)definite.
* ``sym_grad`` uses centered differences inside and one-sided first order
  rows on the boundary.  The low-order closure row is deliberate: together
  with the trapezoid weights it forms a summation-by-parts pair, and the
  assembled elasticity operator then converges at second order, which a
  higher-order closure row destroys.  The interior stencil is second order
  and that is what the refinement tests measure.
* ``sym_grad_adjoint`` is the weighted transpose of ``sym_grad``, the load
  a stress field puts on the elasticity solve, never an independent
  divergence stencil.
"""
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np
import scipy.sparse as sps


def trapezoid_weights(n):
    """Composite trapezoid weights for n+1 equispaced nodes (unit spacing)."""
    w = np.ones(n + 1)
    w[0] = w[-1] = 0.5
    return w


def tensor_dot(a, b):
    """Frobenius product of symmetric tensors stored as (e11, e22, e12)."""
    return a[0] * b[0] + a[1] * b[1] + 2.0 * a[2] * b[2]


def _d1_matrix(n, h):
    # centered rows inside, first-order closure rows at the ends
    d1 = (np.eye(n + 1, k=1) - np.eye(n + 1, k=-1)) * (0.5 / h)
    d1[0, :2] = d1[n, n - 1:] = (-1.0 / h, 1.0 / h)
    return sps.csr_matrix(d1)


def _lap1_neumann(n, h):
    # ghost reflection doubles the inward off-diagonal on boundary rows
    lap = (np.eye(n + 1, k=1) + np.eye(n + 1, k=-1) - 2.0 * np.eye(n + 1)) / h**2
    lap[0, 1] = lap[n, n - 1] = 2.0 / h**2
    return sps.csr_matrix(lap)


class Axis(NamedTuple):
    """1D factors of one grid axis, from which every 2D scalar operator is built.

    weights are the cell size times the trapezoid weights, coeff is 2/h on
    the two end nodes (the Robin ghost elimination's diagonal), neumann is
    the ghost-reflected Laplacian and robin = neumann - diag(coeff).
    diag(weights) times either Laplacian is symmetric.
    """

    weights: np.ndarray
    coeff: np.ndarray
    neumann: sps.csr_matrix
    robin: sps.csr_matrix


def _axis(n, h):
    lap = _lap1_neumann(n, h)
    coeff = np.zeros(n + 1)
    coeff[0] = coeff[-1] = 2.0 / h
    return Axis(h * trapezoid_weights(n), coeff, lap, (lap - sps.diags(coeff)).tocsr())


@dataclass(frozen=True)
class Grid:
    """Node-centered rectangle grid.

    Parameters
    ----------
    nx, ny : cell counts per direction (nodes are nx+1 by ny+1)
    hx, hy : cell sizes
    """

    nx: int
    ny: int
    hx: float
    hy: float

    def __post_init__(self):
        if self.nx < 2 or self.ny < 2:
            raise ValueError("grid needs at least 2 cells per direction")
        if self.hx <= 0 or self.hy <= 0:
            raise ValueError("cell sizes must be positive")

    @classmethod
    def unit(cls, nx, ny, lx=1.0, ly=1.0):
        return cls(nx, ny, lx / nx, ly / ny)

    @property
    def lx(self):
        return self.nx * self.hx

    @property
    def ly(self):
        return self.ny * self.hy

    @property
    def shape(self):
        return (self.ny + 1, self.nx + 1)

    @property
    def n_nodes(self):
        return (self.nx + 1) * (self.ny + 1)

    @cached_property
    def xs(self):
        return np.linspace(0.0, self.lx, self.nx + 1)

    @cached_property
    def ys(self):
        return np.linspace(0.0, self.ly, self.ny + 1)

    @cached_property
    def meshes(self):
        """(X, Y) coordinate arrays of shape (ny+1, nx+1)."""
        return np.meshgrid(self.xs, self.ys)

    @cached_property
    def axes(self):
        """(y, x) Axis factors, slowest axis first like the [j, i] arrays.

        The quadrature weights are their outer product and the Laplacians
        and the Robin coefficient their Kronecker sums, which makes every
        implicit diffusion operator separable.
        """
        return _axis(self.ny, self.hy), _axis(self.nx, self.hx)

    def _kron_sum(self, ay, ax):
        """kron(I, ax) + kron(ay, I) on the [j, i]-flattened nodes."""
        return (sps.kron(sps.eye(self.ny + 1), ax) + sps.kron(ay, sps.eye(self.nx + 1))).tocsr()

    @cached_property
    def quad_weights(self):
        """Flattened trapezoid quadrature weights, including hx*hy."""
        y, x = self.axes
        return np.outer(y.weights, x.weights).ravel()

    @cached_property
    def boundary_mask(self):
        m = np.zeros(self.shape, dtype=bool)
        m[0, :] = m[-1, :] = True
        m[:, 0] = m[:, -1] = True
        return m

    @cached_property
    def interior_vector_indices(self):
        """Indices of interior degrees of freedom in a stacked (2N,) vector."""
        interior = (~self.boundary_mask).ravel().nonzero()[0]
        return np.concatenate([interior, self.n_nodes + interior])

    # -- difference operators ------------------------------------------------

    @cached_property
    def _dx(self):
        return sps.kron(sps.eye(self.ny + 1), _d1_matrix(self.nx, self.hx)).tocsr()

    @cached_property
    def _dy(self):
        return sps.kron(_d1_matrix(self.ny, self.hy), sps.eye(self.nx + 1)).tocsr()

    @cached_property
    def lap_neumann_matrix(self):
        y, x = self.axes
        return self._kron_sum(y.neumann, x.neumann)

    @cached_property
    def robin_coeff(self):
        """Diagonal boundary coefficient of the Robin ghost elimination.

        Flattened array equal to 2/hx on x-boundary nodes plus 2/hy on
        y-boundary nodes (corners pick up both contributions).
        """
        y, x = self.axes
        return np.add.outer(y.coeff, x.coeff).ravel()

    @cached_property
    def wl_neumann(self):
        """Quadrature-weighted Neumann Laplacian; symmetric by construction."""
        return (sps.diags(self.quad_weights) @ self.lap_neumann_matrix).tocsr()

    @cached_property
    def sym_grad_matrix(self):
        """(3N, 2N) map from stacked displacements to (e11, e22, e12)."""
        n = self.n_nodes
        z = sps.csr_matrix((n, n))
        return sps.bmat(
            [[self._dx, z], [z, self._dy], [0.5 * self._dy, 0.5 * self._dx]]
        ).tocsr()

    @cached_property
    def tensor_weights(self):
        """Quadrature weights of the stacked tensor layout; e12 counts twice."""
        w = self.quad_weights
        return np.concatenate([w, w, 2.0 * w])

    @cached_property
    def vector_weights(self):
        w = self.quad_weights
        return np.concatenate([w, w])

    @cached_property
    def sym_grad_weighted_transpose(self):
        """(2N, 3N) matrix G^T W_t, cached for right-hand-side assembly."""
        return (self.sym_grad_matrix.T @ sps.diags(self.tensor_weights)).tocsr()

    # -- operator application ------------------------------------------------

    def _check(self, f, comps=1):
        f = np.asarray(f, dtype=float)
        want = self.shape if comps == 1 else (comps,) + self.shape
        if f.shape != want:
            raise ValueError(f"field shape {f.shape} does not match grid {want}")
        return f

    def _check_levels(self, f):
        f = np.asarray(f, dtype=float)
        if f.shape[-2:] != self.shape:
            raise ValueError(f"field shape {f.shape} does not end in grid {self.shape}")
        return f

    def laplacian_neumann(self, f):
        f = self._check(f)
        return (self.lap_neumann_matrix @ f.ravel()).reshape(self.shape)

    def robin_source(self, datum):
        """Affine contribution of the boundary datum to the Robin Laplacian."""
        datum = np.broadcast_to(np.asarray(datum, dtype=float), self.shape)
        return (self.robin_coeff * datum.ravel()).reshape(self.shape)

    def grad(self, f):
        """(gx, gy) on a new leading axis, of f or of each level of a stack f."""
        f = self._check_levels(f)
        flat = f.reshape(-1, self.n_nodes).T
        return np.stack([(d @ flat).T for d in (self._dx, self._dy)]).reshape((2,) + f.shape)

    def sym_grad(self, u):
        """(e11, e22, e12) on a new leading axis, of u or of each level of a stack u.

        u is (2, ny+1, nx+1) or a stack (..., 2, ny+1, nx+1); the result is
        (3,) + u.shape[:-3] + (ny+1, nx+1).  One sparse product serves
        every level, bitwise equal to one product per level.
        """
        u = self._check_levels(u)
        if u.shape[-3:-2] != (2,):
            raise ValueError(f"field shape {u.shape} does not end in {(2,) + self.shape}")
        lead = u.shape[:-3]
        e = self.sym_grad_matrix @ u.reshape(-1, 2 * self.n_nodes).T
        return e.reshape(3, self.n_nodes, -1).transpose(0, 2, 1).reshape((3,) + lead + self.shape)

    def sym_grad_adjoint(self, s):
        """Flat load G^T W_t s of a tensor field s, shape (2N,).

        Satisfies load . w = integrate(tensor_dot(s, sym_grad(w))) exactly
        for every displacement w, so it is the right-hand side a stress s
        puts on the elasticity solve.
        """
        s = self._check(s, comps=3)
        return self.sym_grad_weighted_transpose @ s.ravel()

    def elastic_matrix(self, mu, lam):
        """Assembled operator for u -> -div(2 mu eps(u) + lam tr(eps(u)) I).

        Returns the quadrature-weighted form G^T W_t C G over all nodes,
        boundary rows and columns included.  The solvers apply its interior
        block matrix-free through interior_elastic_operator.
        """
        mu = np.broadcast_to(np.asarray(mu, dtype=float), self.shape).ravel()
        lam = np.broadcast_to(np.asarray(lam, dtype=float), self.shape).ravel()
        # the three entries (2 mu + lam, lam, 2 mu) of C
        d0, d1, d2 = (sps.diags(d) for d in (2.0 * mu + lam, lam, 2.0 * mu))
        c = sps.bmat([[d0, d1, None], [d1, d0, None], [None, None, d2]])
        return (self.sym_grad_weighted_transpose @ (c @ self.sym_grad_matrix)).tocsr()

    @cached_property
    def _interior_sym_grad(self):
        """sym_grad_matrix on the interior dofs and the matching rows of G^T W_t."""
        idx = self.interior_vector_indices
        return self.sym_grad_matrix[:, idx].tocsr(), self.sym_grad_weighted_transpose[idx].tocsr()

    def interior_elastic_operator(self, mu, lam):
        """Matvec of the interior block of elastic_matrix(mu, lam).

        Applies x -> G_int^T W_t C G_int x on the interior dofs as two
        stencil products around the nodal stress, so the block is never
        assembled.  Equal to elastic_matrix(mu, lam)[idx][:, idx] @ x up to
        rounding, with idx the interior dofs.
        """
        g_int, gtw_int = self._interior_sym_grad
        shape = (3,) + self.shape
        return lambda x: gtw_int @ stress_from_strain(mu, lam, (g_int @ x).reshape(shape)).ravel()

    # -- quadrature ----------------------------------------------------------

    def integrate(self, f):
        f = self._check(f)
        return float(self.quad_weights @ f.ravel())

    def integrate_levels(self, f):
        """Quadrature of each (ny+1, nx+1) level of f; shape f.shape[:-2].

        f is a stack (..., ny+1, nx+1), such as one field per time level.
        """
        f = self._check_levels(f)
        return f.reshape(f.shape[:-2] + (self.n_nodes,)) @ self.quad_weights

    def inner(self, a, b):
        a = self._check(a)
        b = self._check(b)
        return float(self.quad_weights @ (a.ravel() * b.ravel()))


def stress_from_strain(mu, lam, eps):
    """Isotropic stress 2 mu eps + lam tr(eps) I in (e11, e22, e12) storage."""
    s = 2.0 * mu * eps
    tr = lam * (eps[0] + eps[1])
    s[0] += tr
    s[1] += tr
    return s

