"""Model tests: formulas, derivative consistency, hypotheses, barriers."""
import warnings
from dataclasses import replace

import numpy as np
import pytest

from tumorctrl.errors import DomainError, SeparationError
from tumorctrl.grid import Grid
from tumorctrl import model as M

# high-precision re-evaluations of the default-family formulas, frozen
U_AT_HALF = 0.04737699605464635
K_AT_HALF = 0.25917632083226009
BETA_001 = -4.5951198501345899
RLOW_CLOSED = 0.11920292202211756
RHIGH_CLOSED = 0.88079707797788244


@pytest.fixture(scope="module")
def spec():
    return M.DefaultLogisticFamily().build(Grid.unit(8, 8))


@pytest.fixture(scope="module")
def spec_k2var():
    return M.DefaultLogisticFamily(k2_variable=True).build(Grid.unit(8, 8))


def central(f, x, h=1e-6):
    return (f(x + h) - f(x - h)) / (2 * h)


# -- pointwise formulas ------------------------------------------------------


def test_tumor_reaction_zeros(spec):
    assert M.eval_U(0.0, 0.7, 0.2, 0.05, spec) == 0.0
    g = spec.g.value(0.7, 0.2)
    assert M.eval_U(spec.N, 0.7, 0.2, 0.05, spec) == pytest.approx(-spec.N * g, rel=1e-14)


def test_tumor_reaction_frozen_value(spec):
    assert M.eval_U(0.5, 1.0, 0.3, 0.1, spec) == pytest.approx(U_AT_HALF, rel=1e-14)


def test_consumption_zero_and_saturation(spec):
    assert M.eval_K(0.4, 0.0, 0.2, spec) == 0.0
    k1 = spec.k1.value(0.4, 0.2)
    assert abs(M.eval_K(0.4, 1e6, 0.2, spec) - k1) < 1e-5 * k1


def test_consumption_frozen_value(spec):
    assert M.eval_K(0.5, 2.0, 0.1, spec) == pytest.approx(K_AT_HALF, rel=1e-14)


def test_consumption_domain_error(spec):
    with pytest.raises(DomainError):
        M.eval_K(0.5, -spec.k2.lo, 0.1, spec)


def test_consumption_bounded_for_admissible_sigma(spec):
    rng = np.random.default_rng(1)
    sig = rng.uniform(0.0, 50.0, 1000)
    K = M.eval_K(0.3, sig, 0.2, spec)
    assert np.all(K >= 0.0)
    assert np.all(K < spec.k1.hi)


def test_barrier_symmetry_and_frozen_log(spec):
    assert M.beta(0.5, spec) == 0.0
    one = replace(spec, C1=1.0)
    assert M.beta(0.01, one) == pytest.approx(BETA_001, rel=1e-14)


def test_barrier_logit_roundtrip(spec):
    # beta(expit(t)) = C1 * t is an exact inverse-pair identity
    from scipy.special import expit

    # |t| kept moderate: 1 - expit(t) loses digits near the float floor
    t = np.linspace(-12, 12, 25)
    assert np.allclose(M.beta(expit(t), spec), spec.C1 * t, rtol=1e-9, atol=1e-9)


def test_expit_matches_scipy():
    from scipy.special import expit

    x = np.linspace(-700.0, 700.0, 10_000)
    # NumPy's vectorized exp and the C library's differ by up to 1 ulp,
    # which the reciprocal can round into 2
    np.testing.assert_array_max_ulp(M.expit(x), expit(x), maxulp=2)


@pytest.mark.parametrize("x", [0.3, -2.5, np.array(4.0)], ids=["float", "negative", "0-d"])
def test_expit_takes_scalars(x):
    from scipy.special import expit

    got = M.expit(x)
    assert np.ndim(got) == 0
    assert float(got) == pytest.approx(float(expit(x)), rel=1e-15)


def test_expit_saturates_without_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = np.array([M.expit(-800.0), M.expit(800.0), *M.expit(np.array([-800.0, 800.0]))])
    assert np.all(np.isfinite(out))
    assert np.all((out >= 0.0) & (out <= 1.0))


def test_barrier_prime_positive(spec):
    rng = np.random.default_rng(2)
    r = rng.uniform(1e-3, 1 - 1e-3, 50)
    assert np.all(M.beta_prime(r, spec) > 0.0)


def test_barrier_domain_error(spec):
    for bad in (0.0, 1.0, -0.2, 1.3):
        with pytest.raises(DomainError):
            M.beta(bad, spec)


def test_moduli_window_and_monotonicity(spec):
    rng = np.random.default_rng(3)
    ph = rng.uniform(-2, 2, 200)
    zz = rng.uniform(-2, 2, 200)
    mu, lam = M.eval_B(ph, zz, spec)
    fam = M.DefaultLogisticFamily()
    assert np.all((mu > fam.mu_min) & (mu < fam.mu_max))
    assert np.all((lam > fam.lam_min) & (lam < fam.lam_max))
    z = np.linspace(0, 1, 50)
    mu_z, _ = M.eval_B(0.0 * z, z, spec)
    assert np.all(np.diff(mu_z) < 0.0)


def test_psi_zero_and_range(spec):
    zero_eps = np.zeros((3, 1))
    assert spec.psi.value(np.zeros(1), zero_eps)[0] == 0.0
    rng = np.random.default_rng(4)
    ph = rng.uniform(-1, 2, 100)
    eps = rng.uniform(-1, 1, (3, 100))
    assert np.all(np.abs(spec.psi.value(ph, eps)) <= spec.psi.bound)


# -- analytic derivatives vs central differences -----------------------------


def point_maps(spec):
    return [spec.p, spec.g, spec.k1, spec.k2, spec.S, spec.B_mu, spec.B_lam]


@pytest.mark.parametrize("which", ["default", "k2var"])
def test_value_grad_equals_value_and_grad(which, spec, spec_k2var):
    sp = spec if which == "default" else spec_k2var
    rng = np.random.default_rng(7)
    a, b = rng.uniform(-1, 2, (2, 5, 4))
    for m in point_maps(sp):
        value, _ = m.value_grad(a, b)
        assert np.array_equal(value, m.value(a, b))


@pytest.mark.parametrize("which", ["default", "k2var"])
def test_map_derivatives_match_fd(which, spec, spec_k2var):
    sp = spec if which == "default" else spec_k2var
    rng = np.random.default_rng(5)
    for m in point_maps(sp):
        for _ in range(15):
            a, b = rng.uniform(-1, 2, 2)
            fd1 = central(lambda t: m.value(t, b), a)
            fd2 = central(lambda t: m.value(a, t), b)
            scale = abs(fd1) + abs(fd2) + 1e-8
            assert abs(m.value_grad(a, b)[1][0] - fd1) < 1e-6 * scale
            assert abs(m.value_grad(a, b)[1][1] - fd2) < 1e-6 * scale


def test_barrier_derivatives_match_fd(spec):
    rng = np.random.default_rng(6)
    r = rng.uniform(0.05, 0.95, 100)
    fd = (M.beta(r + 1e-6, spec) - M.beta(r - 1e-6, spec)) / 2e-6
    assert np.allclose(M.beta_prime(r, spec), fd, rtol=1e-6)
    fdp = (M.pi(r + 1e-6, spec) - M.pi(r - 1e-6, spec)) / 2e-6
    assert np.allclose(M.pi_prime(r, spec), fdp, rtol=1e-8)


def test_gamma_derivative_matches_fd(spec):
    rng = np.random.default_rng(7)
    for ph in rng.uniform(0, spec.N, 100):
        fd = central(lambda t: spec.gamma.value(t), ph)
        assert abs(spec.gamma.d(ph) - fd) < 1e-6 * (abs(fd) + 1e-8)


def test_psi_gradient_matches_fd(spec):
    from tumorctrl.grid import tensor_dot

    rng = np.random.default_rng(8)
    for _ in range(25):
        ph = rng.uniform(-0.5, 1.5)
        eps = rng.uniform(-0.5, 0.5, (3, 1))
        dphi, deps = spec.psi.grad(np.array([ph]), eps)
        fd_phi = central(lambda t: float(spec.psi.value(np.array([t]), eps)[0]), ph)
        assert abs(float(dphi[0]) - fd_phi) < 1e-6 * (abs(fd_phi) + 1e-8)
        delta = rng.standard_normal((3, 1))
        h = 1e-6

        def along(t):
            return float(spec.psi.value(np.array([ph]), eps + t * delta)[0])

        fd_dir = (along(h) - along(-h)) / (2 * h)
        an_dir = float(tensor_dot(deps, delta)[0])
        assert abs(an_dir - fd_dir) < 1e-6 * (abs(fd_dir) + 1e-8)


# -- hypothesis checking -----------------------------------------------------


def test_default_family_passes_all_hypotheses(spec):
    rep = M.check_hypotheses(spec)
    assert rep.ok, str(rep)
    assert len(rep.rows) == 8
    assert rep.elapsed < 5.0


def test_variable_k2_family_passes(spec_k2var):
    assert M.check_hypotheses(spec_k2var).ok


def test_forced_proliferation_violation(spec):
    bad = replace(spec, p=replace(spec.p, hi=0.1))
    rep = M.check_hypotheses(bad)
    row = next(r for r in rep.rows if r.name == "proliferation-bounds")
    assert not row.ok
    assert row.margin < 0.0
    assert row.witness.startswith("(")


@pytest.mark.parametrize("field, row", [
    ("k2", "lactate-kinetics-bounds"),
    ("B_mu", "elasticity-positivity"),
])
def test_zero_floor_fails_its_row(spec, field, row):
    bad = replace(spec, **{field: replace(getattr(spec, field), lo=0.0)})
    rep = M.check_hypotheses(bad)
    assert [r.name for r in rep.failures] == [row]


def test_zero_initial_damage_fails(spec):
    bad = replace(spec, z0=np.zeros_like(spec.z0))
    rep = M.check_hypotheses(bad)
    row = next(r for r in rep.rows if r.name == "initial-data-range")
    assert not row.ok


def test_report_renders(spec):
    rep = M.check_hypotheses(spec)
    text = str(rep)
    assert "proliferation-bounds" in text
    assert "0 failing" in text


# -- separation bounds -------------------------------------------------------


def closed_form_spec(spec, c1=1.0, c2=0.0, iota=1.9, psi_max=0.1, z0=0.5):
    # engineered so that b = |iota| + psi_max hits a clean closed form
    return replace(
        spec,
        C1=c1,
        C2=c2,
        iota=np.full_like(spec.iota, iota),
        z0=np.full_like(spec.z0, z0),
        psi=replace(spec.psi, bound=psi_max),
    )


def test_separation_closed_form(spec):
    sp = closed_form_spec(spec)
    out = M.separation_bounds(sp)
    assert out.b == pytest.approx(2.0, abs=1e-12)
    assert out.root_low == pytest.approx(RLOW_CLOSED, abs=1e-9)
    assert out.root_high == pytest.approx(RHIGH_CLOSED, abs=1e-9)
    assert out.r_low == out.root_low
    assert out.r_high == out.root_high


def test_separation_brackets_initial_data(spec):
    out = M.separation_bounds(spec)
    assert 0.0 < out.r_low <= spec.z0.min()
    assert spec.z0.max() <= out.r_high < 1.0


def test_separation_sign_conditions_resampled(spec):
    out = M.separation_bounds(spec)
    b = out.b
    lo = np.geomspace(1e-12, out.r_low, 1000)
    assert np.max(M.beta(lo, spec) + M.pi(lo, spec) + b) <= 1e-8
    hi = 1.0 - np.geomspace(1e-12, 1.0 - out.r_high, 1000)
    assert np.min(M.beta(hi, spec) + M.pi(hi, spec) - b) >= -1e-8


@pytest.mark.parametrize("c2", [0.0, 0.7])
def test_separation_array_scan_matches_scalar_loop(spec, c2):
    # separation_bounds scans beta + pi as one array call; the scalar loop
    # it replaced is the reference, equal bit for bit
    sp = closed_form_spec(spec, c2=c2)
    out = M.separation_bounds(sp)
    t = np.geomspace(1e-13, 0.5, 600)
    for rs in (
        np.concatenate([t, 1.0 - t[-2::-1]]),
        np.geomspace(1e-13, out.r_low, 1000),
        1.0 - np.geomspace(1e-13, 1.0 - out.r_high, 1000),
    ):
        loop = np.array([float(M.beta(r, sp) + M.pi(r, sp)) for r in rs])
        assert np.array_equal(M.beta(rs, sp) + M.pi(rs, sp), loop)


def test_separation_zero_source_brackets_half(spec):
    sp = closed_form_spec(spec, c1=1.0, c2=0.0, iota=0.0, psi_max=0.0)
    out = M.separation_bounds(sp)
    assert out.root_low == pytest.approx(0.5, abs=1e-9)
    assert out.root_high == pytest.approx(0.5, abs=1e-9)
    assert out.r_low <= 0.5 <= out.r_high


def test_separation_infeasible_small_c1(spec, monkeypatch):
    sp = closed_form_spec(spec, c1=0.01, c2=0.0, iota=1.4, psi_max=0.1)
    with pytest.raises(SeparationError) as exc:
        M.separation_bounds(sp)
    assert "sign-condition" in exc.value.condition
    # the spec caches the failure like a result: one analysis, raised on every access
    calls, original = [], M.separation_bounds
    monkeypatch.setattr(M, "separation_bounds", lambda s: calls.append(1) or original(s))
    for _ in range(2):
        with pytest.raises(SeparationError) as exc:
            sp.separation
        assert "sign-condition" in exc.value.condition
    assert len(calls) == 1


def test_separation_tightens_to_initial_range(spec):
    sp = closed_form_spec(spec, z0=0.05)
    out = M.separation_bounds(sp)
    assert out.r_low == pytest.approx(0.05)
    assert out.r_high == pytest.approx(RHIGH_CLOSED, abs=1e-9)
