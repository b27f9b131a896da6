"""Model data: nonlinearities, their ranges, hypothesis checks, damage barriers.

Everything problem-specific lives here.  A ModelSpec bundles the reaction
maps p, g, the lactate kinetics k1, k2, S, the elasticity moduli, the
damage potential constants, the coupling maps Psi and gamma, and all data
fields (initial states, body force, damage source, boundary lactate).
Evaluations are pure; the spec is frozen after construction.

Each map carries its own range: a PointMap2 its window [lo, hi], Psi and
gamma a bound.  Whoever builds a map states its range there and nowhere
else, so replacing a map (a constant kinetic, say) replaces its range too.

The damage potential is the logarithmic double-well split into a convex
part with derivative beta(r) = C1*log(r/(1-r)) and a concave perturbation
with derivative pi(r) = -2*C2*r.  Because beta blows up at 0 and 1, the
damage stays strictly inside (0,1) provided the source terms are small
enough; `separation_bounds` computes certified barrier radii by bisecting
beta + pi against the worst-case source magnitude.

`check_hypotheses` samples every structural requirement (each map against
its stated range, positivity, data ranges) on randomized argument grids
and reports the worst witness per condition, so a custom model can be
validated numerically instead of by inspection.
"""
from dataclasses import dataclass
from functools import cached_property
from time import perf_counter
from typing import Callable, Optional

import numpy as np

from .errors import DomainError, SeparationError


def expit(x):
    """Logistic function 1 / (1 + exp(-x)) of a scalar or an array.

    Arguments below -709 are raised to it, where exp(-x) would overflow; the
    value there is below 1.3e-308 either way.
    """
    return 1.0 / (1.0 + np.exp(np.minimum(-x, 709.0)))


@dataclass(frozen=True)
class PointMap2:
    """Scalar map of two arguments with its analytic partials and its range.

    value_grad returns (value, (partial_a, partial_b)) from one evaluation,
    its value bitwise equal to the value call.  Every value lies in [lo, hi].
    """

    value: Callable
    value_grad: Callable
    lo: float
    hi: float


def expit_map(lo, hi, c0, c1, c2) -> PointMap2:
    """lo + (hi-lo)*expit(c0 + c1*a + c2*b); image is (lo, hi)."""
    span = hi - lo

    def val(a, b):
        return lo + span * expit(c0 + c1 * a + c2 * b)

    def value_grad(a, b):
        e = expit(c0 + c1 * a + c2 * b)
        slope = span * e * (1.0 - e)
        return lo + span * e, (c1 * slope, c2 * slope)

    return PointMap2(value=val, value_grad=value_grad, lo=lo, hi=hi)


def constant_map(v) -> PointMap2:
    """The constant v, with the one-point range [v, v]."""

    def zero(a, b):
        return 0.0 * (np.asarray(a, dtype=float) + np.asarray(b, dtype=float))

    def value(a, b):
        return v + zero(a, b)

    return PointMap2(
        value=value, value_grad=lambda a, b: (value(a, b), (zero(a, b),) * 2), lo=v, hi=v
    )


@dataclass(frozen=True)
class PsiMap:
    """Mechanically induced damage source with its analytic derivatives.

    grad(phi, eps) returns (d_phi, d_eps) from one evaluation.  d_eps holds
    tensor components paired through tensor_dot, so tensor_dot(d_eps, delta)
    is the directional derivative in delta.  |value| never exceeds bound.
    """

    value: Callable
    grad: Callable
    bound: float


@dataclass(frozen=True)
class GammaMap:
    """Nonnegative stress weight in the cost, with its phi-derivative.

    Space dependence, when wanted, is baked into the callables by closing
    over grid coordinates; the evaluations receive full phi arrays.
    |value| + |d| never exceeds bound.
    """

    value: Callable
    d: Callable
    bound: float


@dataclass(frozen=True)
class ModelSpec:
    grid: object
    N: float
    p: PointMap2
    g: PointMap2
    k1: PointMap2
    k2: PointMap2
    S: PointMap2
    A_mu: float
    A_lam: float
    B_mu: PointMap2
    B_lam: PointMap2
    C1: float
    C2: float
    psi: PsiMap
    gamma: GammaMap
    f: np.ndarray
    iota: np.ndarray
    sigma_gamma: np.ndarray
    phi0: np.ndarray
    sigma0: np.ndarray
    u0: np.ndarray
    z0: np.ndarray
    M0: float
    T: float

    @cached_property
    def reference_moduli(self):
        """Quadrature means of (B_mu, B_lam) at (phi0, z0), computed once per spec object.

        Every sweep preconditions its displacement solves at these moduli
        plus the viscous ones over the step.
        """
        g = self.grid
        return tuple(
            float(np.average(np.broadcast_to(b, g.shape).ravel(), weights=g.quad_weights))
            for b in eval_B(self.phi0, self.z0, self)
        )

    @cached_property
    def separation(self) -> "SeparationBounds":
        """separation_bounds(self), once per spec; without an interval it raises on each access."""
        return separation_bounds(self)


# -- pointwise formulas ------------------------------------------------------


def eval_U(phi, sigma, z, chi1, spec: ModelSpec):
    """Tumor reaction: (p - chi1) * phi * (1 - phi/N) - phi * g."""
    p = spec.p.value(sigma, z)
    g = spec.g.value(sigma, z)
    return (p - chi1) * phi * (1.0 - phi / spec.N) - phi * g


def eval_K(phi, sigma, z, spec: ModelSpec):
    """Michaelis-Menten lactate consumption k1*sigma/(k2+sigma)."""
    k2 = spec.k2.value(phi, z)
    denom = k2 + sigma
    if np.any(np.asarray(denom) <= 0.0):
        raise DomainError("lactate consumption undefined: k2 + sigma <= 0")
    return spec.k1.value(phi, z) * sigma / denom


def beta(r, spec: ModelSpec):
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0.0) or np.any(r >= 1.0):
        raise DomainError("beta argument outside (0, 1)")
    return spec.C1 * np.log(r / (1.0 - r))


def beta_prime(r, spec: ModelSpec):
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0.0) or np.any(r >= 1.0):
        raise DomainError("beta argument outside (0, 1)")
    return spec.C1 / (r * (1.0 - r))


def pi(r, spec: ModelSpec):
    return -2.0 * spec.C2 * np.asarray(r, dtype=float)


def pi_prime(r, spec: ModelSpec):
    return -2.0 * spec.C2 * np.ones_like(np.asarray(r, dtype=float))


def eval_B(phi, z, spec: ModelSpec):
    """Damage- and tumor-dependent elastic moduli (mu, lam)."""
    return spec.B_mu.value(phi, z), spec.B_lam.value(phi, z)


# -- default instantiation ---------------------------------------------------


def _gaussian(x, y, cx, cy, width):
    return np.exp(-((x - cx) ** 2 + (y - cy) ** 2) / width)


@dataclass(frozen=True)
class DefaultLogisticFamily:
    """Concrete model family built from logistic and tanh profiles.

    Every map is a saturating sigmoid, so each hypothesis bound holds by
    construction on all of R^2, not just on the sampled box.  Reaction
    maps respond to lactate and damage; elastic moduli soften as tumor
    and damage grow; Psi saturates in both arguments.
    """

    N: float = 1.0
    eta_p: float = 1.2
    c_p: float = 0.8
    eta_g: float = 0.9
    c_g: float = 1.1
    a_k: float = 0.3
    eta_k: float = 0.7
    c_k: float = -0.4
    eta_S: float = 0.8
    c_S: float = 0.5
    d_k: float = 0.6
    a_B: float = 0.5
    b_B: float = 1.0
    c_B: float = 1.5
    a_psi: float = 0.9
    b_psi: float = 0.7
    eta_gamma: float = 2.0
    p_star: float = 0.8
    g_star: float = 0.4
    k1_star: float = 0.6
    k2_star: float = 1.0
    k2_low: float = 0.25
    S_star: float = 0.9
    psi_max: float = 0.1
    mu_min: float = 0.5
    mu_max: float = 2.0
    lam_min: float = 0.3
    lam_max: float = 1.2
    gamma_max: float = 1.0
    A_mu: float = 1.0
    A_lam: float = 0.5
    C1: float = 0.5
    C2: float = 0.1
    M0: float = 1.0
    T: float = 0.5
    iota_const: float = 0.05
    k2_variable: bool = False

    def psi_map(self) -> PsiMap:
        P, a, b, N = self.psi_max, self.a_psi, self.b_psi, self.N

        def arg(phi, eps):
            fro2 = eps[0] ** 2 + eps[1] ** 2 + 2.0 * eps[2] ** 2
            return a * phi / N + b * fro2

        def value(phi, eps):
            return P * np.tanh(arg(phi, eps))

        def grad(phi, eps):
            t = np.tanh(arg(phi, eps))
            sech2 = 1.0 - t * t
            # paired via tensor_dot: the shear slot carries its factor 2 there
            return P * sech2 * (a / N), P * sech2 * 2.0 * b * eps

        return PsiMap(value, grad, P)

    def gamma_map(self) -> GammaMap:
        G, e, N = self.gamma_max, self.eta_gamma, self.N

        def value(phi):
            return G * expit(e * (phi / N - 0.5))

        def d(phi):
            s = expit(e * (phi / N - 0.5))
            return G * s * (1.0 - s) * e / N

        # |value| + |d| <= G*(1 + e/(4N)), since expit' <= 1/4
        return GammaMap(value, d, G * (1.0 + e / (4.0 * N)) + 1e-9)

    def k2_map(self) -> PointMap2:
        if not self.k2_variable:
            return constant_map(self.k2_star)
        return expit_map(self.k2_low, self.k2_star, 0.2, self.d_k / self.N, -self.d_k)

    def build(self, grid) -> ModelSpec:
        x, y = grid.meshes
        phi0 = 0.3 * self.N * _gaussian(x, y, 0.5 * grid.lx, 0.5 * grid.ly, 0.04)
        sigma0 = 0.5 * self.M0 * (1.0 + 0.3 * np.cos(np.pi * x / grid.lx) * np.cos(np.pi * y / grid.ly))
        z0 = 0.4 + 0.1 * np.sin(np.pi * x / grid.lx) * np.sin(np.pi * y / grid.ly)
        u0 = np.zeros((2,) + grid.shape)
        f = np.stack([0.01 * np.sin(np.pi * x / grid.lx), -0.005 * np.ones_like(x)])
        iota = np.full(grid.shape, self.iota_const)
        sigma_gamma = np.full(grid.shape, 0.6 * self.M0)
        return ModelSpec(
            grid=grid,
            N=self.N,
            p=expit_map(0.0, self.p_star, 0.0, self.eta_p, -self.c_p),
            g=expit_map(0.0, self.g_star, 0.0, -self.eta_g, self.c_g),
            k1=expit_map(0.0, self.k1_star, self.a_k, self.eta_k / self.N, self.c_k),
            k2=self.k2_map(),
            S=expit_map(0.0, self.S_star, self.eta_S, -self.eta_S / self.N, -self.c_S),
            A_mu=self.A_mu,
            A_lam=self.A_lam,
            B_mu=expit_map(self.mu_min, self.mu_max, self.a_B, -self.b_B / self.N, -self.c_B),
            B_lam=expit_map(self.lam_min, self.lam_max, self.a_B, -self.b_B / self.N, -self.c_B),
            C1=self.C1,
            C2=self.C2,
            psi=self.psi_map(),
            gamma=self.gamma_map(),
            f=f,
            iota=iota,
            sigma_gamma=sigma_gamma,
            phi0=phi0,
            sigma0=sigma0,
            u0=u0,
            z0=z0,
            M0=self.M0,
            T=self.T,
        )


# -- hypothesis checking -----------------------------------------------------


@dataclass
class HypothesisRow:
    name: str
    ok: bool
    margin: float
    witness: str


# draws per sampled argument of check_hypotheses
_SAMPLES = 10_000


@dataclass
class HypothesisReport:
    rows: list
    elapsed: float

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.rows)

    @property
    def failures(self):
        return [r for r in self.rows if not r.ok]

    def __str__(self):
        lines = ["condition                        status  worst margin  witness"]
        for r in self.rows:
            status = "pass" if r.ok else "FAIL"
            lines.append(f"{r.name:<32} {status:<6} {r.margin: .3e}  {r.witness}")
        lines.append(
            f"{len(self.rows)} conditions, {len(self.failures)} failing, "
            f"{_SAMPLES} samples, {self.elapsed:.2f}s"
        )
        return "\n".join(lines)


def _row_from_margins(name, margins, args, floor=None):
    """Collect min margin over samples; negative margin means violation.

    A floor is a range bound that must be strictly positive: it joins the
    margins, and the row fails when it is <= 0.
    """
    margins = np.asarray(margins, dtype=float)
    if floor is not None:
        margins = np.minimum(margins, floor)
    if not np.all(np.isfinite(margins)):
        i = int(np.argmax(~np.isfinite(margins)))
        return HypothesisRow(name, False, float("-inf"), _witness(args, i))
    i = int(np.argmin(margins))
    ok = margins[i] >= 0.0 and (floor is None or floor > 0.0)
    return HypothesisRow(name, bool(ok), float(margins[i]), _witness(args, i))


def _witness(args, i):
    return "(" + ", ".join(f"{a[i]:.4g}" for a in args) + ")"


def check_hypotheses(spec: ModelSpec, rng: Optional[np.random.Generator] = None) -> HypothesisReport:
    """Sample every structural condition; report worst witness per row.

    Each map is sampled against the range it carries.  Argument boxes
    extend past the physical ranges so that saturation of the default maps
    is actually exercised.  The k2 window and the B_mu modulus must have a
    strictly positive floor.  Cost weights, targets and the finiteness of
    every data field are checked where a run is loaded, not here.
    """
    t0 = perf_counter()
    rng = rng or np.random.default_rng(0)
    n = _SAMPLES
    sig_hi = 4.0 * max(spec.M0, 1.0) + 10.0
    sig = rng.uniform(-1.0, sig_hi, n)
    zz = rng.uniform(-0.5, 1.5, n)
    ph = rng.uniform(-0.5 * spec.N, 1.5 * spec.N, n)
    rows = []

    p = spec.p.value(sig, zz)
    g = spec.g.value(sig, zz)
    rows.append(
        _row_from_margins(
            "proliferation-bounds",
            np.minimum.reduce([p, spec.p.hi - p, g, spec.g.hi - g]),
            (sig, zz),
        )
    )

    k1 = spec.k1.value(ph, zz)
    k2 = spec.k2.value(ph, zz)
    S = spec.S.value(ph, zz)
    rows.append(
        _row_from_margins(
            "lactate-kinetics-bounds",
            np.minimum.reduce(
                [k1, spec.k1.hi - k1, k2 - spec.k2.lo, spec.k2.hi - k2, S, spec.S.hi - S]
            ),
            (ph, zz),
            floor=spec.k2.lo,
        )
    )

    mu = spec.B_mu.value(ph, zz)
    lam = spec.B_lam.value(ph, zz)
    const_part = min(spec.A_mu, spec.A_mu + spec.A_lam)
    rows.append(
        _row_from_margins(
            "elasticity-positivity",
            np.minimum.reduce([mu - spec.B_mu.lo, lam, np.full(n, const_part)]),
            (ph, zz),
            floor=spec.B_mu.lo,
        )
    )

    # beta = C1*log(r/(1-r)) blows up at both ends exactly when C1 > 0
    rows.append(
        HypothesisRow("damage-barrier", bool(spec.C1 > 0.0), float(spec.C1), f"(C1={spec.C1:.4g})")
    )

    eps = rng.uniform(-0.6, 0.6, (3, n))
    psi = spec.psi.value(ph, eps)
    rows.append(
        _row_from_margins(
            "mechanical-coupling-bounded",
            np.where(np.isfinite(psi), spec.psi.bound - np.abs(psi), -np.inf),
            (ph, eps[0]),
        )
    )

    sgb = np.asarray(spec.sigma_gamma, dtype=float).ravel()
    rows.append(
        _row_from_margins(
            "boundary-lactate-range",
            np.minimum(sgb, spec.M0 - sgb),
            (sgb,),
        )
    )

    # tumor and lactate may start on their closed bounds; the damage must
    # stay strictly inside the unit interval for the log potential.  Each
    # datum's two ends give a margin, and the witness names the smallest.
    ends = []
    for name, top in (("phi0", spec.N), ("sigma0", spec.M0), ("z0", 1.0)):
        lo, hi = float(getattr(spec, name).min()), float(getattr(spec, name).max())
        ends += [(lo, f"(min {name} = {lo:.4g})"), (float(top - hi), f"(max {name} = {hi:.4g})")]
    closed_margin = min(m for m, _ in ends[:4])
    interior_margin = min(m for m, _ in ends[4:])
    init_margin, witness = min(ends, key=lambda e: e[0])
    bnd_u0 = float(np.abs(spec.u0[:, spec.grid.boundary_mask]).max())
    rows.append(
        HypothesisRow(
            "initial-data-range",
            bool(closed_margin >= 0.0 and interior_margin > 0.0 and bnd_u0 == 0.0),
            init_margin,
            witness,
        )
    )

    phr = rng.uniform(0.0, spec.N, n)
    gam = spec.gamma.value(phr)
    dgam = spec.gamma.d(phr)
    rows.append(
        _row_from_margins(
            "stress-weight-bounded",
            np.minimum(gam, spec.gamma.bound - (np.abs(gam) + np.abs(dgam))),
            (phr,),
        )
    )

    return HypothesisReport(rows=rows, elapsed=perf_counter() - t0)


# -- separation bounds -------------------------------------------------------


@dataclass(frozen=True)
class SeparationBounds:
    r_low: float
    r_high: float
    b: float
    root_low: float
    root_high: float

    def excess(self, lo, hi):
        """How far the range [lo, hi] leaves the certified interval; 0.0 inside it."""
        return max(0.0, self.r_low - float(lo), float(hi) - self.r_high)


def _bisect(fn, lo, hi):
    flo = fn(lo)
    for _ in range(200):
        if hi - lo <= 1e-12:
            break
        mid = 0.5 * (lo + hi)
        if fn(mid) * flo > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def separation_bounds(spec: ModelSpec) -> SeparationBounds:
    """Barrier radii keeping the damage strictly inside (0, 1).

    Solves beta + pi = -b below the initial range and beta + pi = +b
    above it, b being the worst-case magnitude of the damage sources,
    then widens each root to cover the initial data.  The returned
    interval is re-verified by dense sampling before use.
    """
    b = float(np.abs(spec.iota).max()) + spec.psi.bound

    def G(r):
        return beta(r, spec) + pi(r, spec)

    floor = 1e-13
    t = np.geomspace(floor, 0.5, 600)
    rs = np.concatenate([t, 1.0 - t[-2::-1]])
    vals = G(rs)

    lower = vals + b
    pos = np.nonzero(lower > 0.0)[0]
    if pos.size == 0 or pos[0] == 0:
        raise SeparationError(
            "no radius with beta + pi + b <= 0 above the barrier floor; "
            "the convex slope C1 is too small for the source magnitude "
            f"b = {b:.4g}",
            condition="lower-sign-condition",
        )
    i = pos[0]
    root_low = _bisect(lambda r: G(r) + b, rs[i - 1], rs[i])

    upper = vals - b
    neg = np.nonzero(upper < 0.0)[0]
    if neg.size == 0 or neg[-1] == len(rs) - 1:
        raise SeparationError(
            "no radius with beta + pi - b >= 0 below the barrier ceiling; "
            "the convex slope C1 is too small for the source magnitude "
            f"b = {b:.4g}",
            condition="upper-sign-condition",
        )
    j = neg[-1]
    root_high = _bisect(lambda r: G(r) - b, rs[j], rs[j + 1])

    z0min, z0max = float(spec.z0.min()), float(spec.z0.max())
    r_low = min(root_low, z0min)
    r_high = max(root_high, z0max)
    if not 0.0 < r_low <= r_high < 1.0:
        raise SeparationError(
            f"degenerate barrier interval [{r_low:.4g}, {r_high:.4g}]",
            condition="ordering",
        )

    check_lo = np.geomspace(floor, r_low, 1000)
    if (G(check_lo) + b).max() > 1e-8:
        raise SeparationError(
            "sign condition fails between the floor and the lower radius",
            condition="lower-sign-condition",
        )
    check_hi = 1.0 - np.geomspace(floor, 1.0 - r_high, 1000)
    if (G(check_hi) - b).min() < -1e-8:
        raise SeparationError(
            "sign condition fails between the upper radius and the ceiling",
            condition="upper-sign-condition",
        )
    return SeparationBounds(r_low, r_high, b, root_low, root_high)
