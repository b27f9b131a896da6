"""Grid operator tests: quadrature, Laplacians, strain/divergence pair, IO."""
import numpy as np
import pytest
import scipy.sparse as sps
from scipy.sparse.csgraph import connected_components

from tumorctrl.grid import (
    Grid,
    stress_from_strain,
    tensor_dot,
)
from tumorctrl import snapshots

from scenarios import norm_h1_vec, norm_l2, read_manifest, robin_linear

# measured once on the eigenfunction study below and frozen; a change here
# means the stencil itself changed
NEUMANN_EIG_ERR_16 = 5.364062176797e-01
NEUMANN_EIG_ERR_32 = 1.345964959220e-01
ROBIN_TRIG_ERR_16 = 6.333593508668e-02
ROBIN_TRIG_ERR_32 = 1.584925149825e-02


def random_scalar(grid, rng):
    return rng.standard_normal(grid.shape)


def random_interior_vector(grid, rng):
    u = rng.standard_normal((2,) + grid.shape)
    u[:, grid.boundary_mask] = 0.0
    return u


# -- quadrature --------------------------------------------------------------


def test_integrate_constant_exact():
    g = Grid.unit(13, 9, lx=2.0, ly=1.5)
    assert g.integrate(np.ones(g.shape)) == pytest.approx(3.0, rel=1e-13)


def test_sine_squared_norm_closed_form():
    # endpoint values agree, so the trapezoid sum telescopes to the exact value
    g = Grid.unit(24, 20)
    x, _ = g.meshes
    f = np.sin(np.pi * x)
    assert g.inner(f, f) == pytest.approx(0.5, rel=1e-12)
    assert norm_l2(g, f) == pytest.approx(np.sqrt(0.5), rel=1e-12)


def test_quadrature_second_order_on_generic_integrand():
    exact = (np.e - 1.0) ** 2
    errs = []
    for n in (8, 16, 32):
        g = Grid.unit(n, n)
        x, y = g.meshes
        errs.append(abs(g.integrate(np.exp(x + y)) - exact))
    assert 1.8 < np.log2(errs[0] / errs[1]) < 2.2
    assert 1.8 < np.log2(errs[1] / errs[2]) < 2.2


def test_inner_is_symmetric_bilinear():
    g = Grid.unit(11, 7)
    rng = np.random.default_rng(3)
    a, b, c = (random_scalar(g, rng) for _ in range(3))
    assert g.inner(a, b) == pytest.approx(g.inner(b, a), rel=1e-13)
    assert g.inner(a, 2.0 * b + c) == pytest.approx(
        2.0 * g.inner(a, b) + g.inner(a, c), rel=1e-12
    )


# -- Neumann Laplacian -------------------------------------------------------


def test_neumann_kills_constants():
    # row sums cancel up to roundoff in the 1/h^2 coefficients
    g = Grid.unit(9, 14)
    out = g.laplacian_neumann(np.full(g.shape, 0.73))
    assert np.abs(out).max() < 1e-11


def test_neumann_eigenfunction_error_frozen_and_second_order():
    errs = {}
    for n in (16, 32):
        g = Grid.unit(n, n)
        x, y = g.meshes
        f = np.cos(np.pi * x) * np.cos(2 * np.pi * y)
        lam = -5.0 * np.pi**2
        errs[n] = np.abs(g.laplacian_neumann(f) - lam * f).max()
    assert errs[16] == pytest.approx(NEUMANN_EIG_ERR_16, rel=1e-6)
    assert errs[32] == pytest.approx(NEUMANN_EIG_ERR_32, rel=1e-6)
    assert 3.6 < errs[16] / errs[32] < 4.4


def test_neumann_self_adjoint_and_semidefinite():
    g = Grid.unit(12, 10, lx=1.3, ly=0.8)
    rng = np.random.default_rng(11)
    for _ in range(20):
        a = random_scalar(g, rng)
        b = random_scalar(g, rng)
        la, lb = g.laplacian_neumann(a), g.laplacian_neumann(b)
        scale = norm_l2(g, la) * norm_l2(g, b) + norm_l2(g, a) * norm_l2(g, lb) + 1.0
        assert abs(g.inner(la, b) - g.inner(a, lb)) < 1e-12 * scale
        assert g.inner(la, a) < 1e-10 * scale


# -- Robin Laplacian ---------------------------------------------------------


def test_robin_source_hand_computed_4x4():
    # field 0, datum 1 on a 4x4-cell unit grid, h = 1/4: eliminating the
    # ghost layer leaves 2/h per boundary direction, so 8 on edges and 16
    # where two directions meet
    g = Grid.unit(4, 4)
    out = robin_linear(g, np.zeros(g.shape)) + g.robin_source(1.0)
    expected = np.zeros(g.shape)
    expected[0, :] = expected[-1, :] = 8.0
    expected[:, 0] = expected[:, -1] = 8.0
    for j in (0, -1):
        for i in (0, -1):
            expected[j, i] = 16.0
    assert np.allclose(out, expected, rtol=0, atol=1e-12)


def test_robin_equilibrium_is_zero():
    g = Grid.unit(7, 9)
    m = 0.42
    out = robin_linear(g, np.full(g.shape, m)) + g.robin_source(m)
    assert np.abs(out).max() < 1e-11


def test_robin_exact_on_biquadratic_with_flux():
    # corners are excluded: the two one-sided ghost eliminations meeting
    # there assume a common datum, which a generic product field violates
    g = Grid.unit(12, 10, lx=1.0, ly=1.25)
    x, y = g.meshes
    f = (1 + 0.5 * x + 0.25 * x**2) * (2 - 0.3 * y + 0.5 * y**2)
    fx = (0.5 + 0.5 * x) * (2 - 0.3 * y + 0.5 * y**2)
    fy = (1 + 0.5 * x + 0.25 * x**2) * (-0.3 + 1.0 * y)
    lap = 0.5 * (2 - 0.3 * y + 0.5 * y**2) + (1 + 0.5 * x + 0.25 * x**2) * 1.0
    datum = f.copy()
    datum[:, 0] += -fx[:, 0]
    datum[:, -1] += fx[:, -1]
    datum[0, :] += -fy[0, :]
    datum[-1, :] += fy[-1, :]
    err = np.abs(robin_linear(g, f) + g.robin_source(datum) - lap)
    err[0, 0] = err[0, -1] = err[-1, 0] = err[-1, -1] = 0.0
    assert err.max() < 1e-10


def test_robin_trig_error_frozen_and_second_order():
    errs = {}
    for n in (16, 32):
        g = Grid.unit(n, n)
        x, y = g.meshes
        f = 1.5 + np.cos(np.pi * x) * np.cos(np.pi * y)
        exact = -2 * np.pi**2 * (f - 1.5)
        errs[n] = np.abs(robin_linear(g, f) + g.robin_source(f) - exact).max()
    assert errs[16] == pytest.approx(ROBIN_TRIG_ERR_16, rel=1e-6)
    assert errs[32] == pytest.approx(ROBIN_TRIG_ERR_32, rel=1e-6)
    assert 3.6 < errs[16] / errs[32] < 4.4


def test_robin_linear_part_strictly_negative():
    g = Grid.unit(10, 10)
    rng = np.random.default_rng(5)
    for _ in range(20):
        a = random_scalar(g, rng) + 0.5
        assert g.inner(robin_linear(g, a), a) < 0.0


def test_robin_self_adjoint():
    g = Grid.unit(9, 12, lx=0.9, ly=1.7)
    rng = np.random.default_rng(6)
    a, b = random_scalar(g, rng), random_scalar(g, rng)
    la, lb = robin_linear(g, a), robin_linear(g, b)
    scale = norm_l2(g, la) * norm_l2(g, b) + norm_l2(g, a) * norm_l2(g, lb) + 1.0
    assert abs(g.inner(la, b) - g.inner(a, lb)) < 1e-12 * scale


# -- strain and divergence ---------------------------------------------------


def test_sym_grad_linear_shear_everywhere():
    g = Grid.unit(8, 6)
    x, y = g.meshes
    a = 0.37
    u = np.stack([a * x, np.zeros(g.shape)])
    e = g.sym_grad(u)
    assert np.allclose(e[0], a, rtol=0, atol=1e-13)
    assert np.allclose(e[1], 0.0, atol=1e-13)
    assert np.allclose(e[2], 0.0, atol=1e-13)
    u2 = np.stack([a * y, a * x])
    e2 = g.sym_grad(u2)
    assert np.allclose(e2[0], 0.0, atol=1e-13)
    assert np.allclose(e2[1], 0.0, atol=1e-13)
    assert np.allclose(e2[2], a, rtol=0, atol=1e-13)


def test_sym_grad_interior_second_order():
    errs = []
    for n in (16, 32, 64):
        g = Grid.unit(n, n)
        x, y = g.meshes
        u = np.stack(
            [np.sin(np.pi * x) * np.sin(np.pi * y), np.sin(2 * np.pi * x) * np.sin(np.pi * y)]
        )
        exact = np.stack(
            [
                np.pi * np.cos(np.pi * x) * np.sin(np.pi * y),
                np.pi * np.sin(2 * np.pi * x) * np.cos(np.pi * y),
                0.5
                * (
                    np.pi * np.sin(np.pi * x) * np.cos(np.pi * y)
                    + 2 * np.pi * np.cos(2 * np.pi * x) * np.sin(np.pi * y)
                ),
            ]
        )
        err = np.abs(g.sym_grad(u) - exact)[:, 1:-1, 1:-1]
        errs.append(err.max())
    assert 1.8 < np.log2(errs[0] / errs[1]) < 2.2
    assert 1.8 < np.log2(errs[1] / errs[2]) < 2.2


def test_sym_grad_adjoint_is_exact_weighted_transpose():
    g = Grid.unit(9, 11, lx=1.4, ly=0.7)
    rng = np.random.default_rng(21)
    for _ in range(20):
        s = rng.standard_normal((3,) + g.shape)
        w = random_interior_vector(g, rng)
        lhs = float(g.sym_grad_adjoint(s) @ w.ravel())
        rhs = g.integrate(tensor_dot(s, g.sym_grad(w)))
        scale = np.sqrt(g.integrate(tensor_dot(s, s))) * norm_h1_vec(g, w) + 1.0
        assert abs(lhs - rhs) < 1e-12 * scale


def test_sym_grad_adjoint_interior_consistency():
    # -load / vector_weights is the divergence of s; rows touching the
    # closure layer carry the summation-by-parts defect, so consistency is
    # measured two layers in
    errs = []
    for n in (16, 32, 64):
        g = Grid.unit(n, n)
        x, y = g.meshes
        s = np.stack(
            [
                np.sin(np.pi * x) * np.cos(np.pi * y),
                np.cos(np.pi * x) * np.sin(np.pi * y),
                np.sin(np.pi * x) * np.sin(np.pi * y),
            ]
        )
        div1 = np.pi * np.cos(np.pi * x) * np.cos(np.pi * y) + np.pi * np.sin(
            np.pi * x
        ) * np.cos(np.pi * y)
        div2 = np.pi * np.cos(np.pi * x) * np.sin(np.pi * y) + np.pi * np.cos(
            np.pi * x
        ) * np.cos(np.pi * y)
        approx = -(g.sym_grad_adjoint(s) / g.vector_weights).reshape((2,) + g.shape)
        err = np.abs(approx - np.stack([div1, div2]))[:, 2:-2, 2:-2]
        errs.append(err.max())
    assert 1.8 < np.log2(errs[0] / errs[1]) < 2.2
    assert 1.8 < np.log2(errs[1] / errs[2]) < 2.2


def test_elastic_matrix_spd_on_interior():
    g = Grid.unit(10, 8)
    x, y = g.meshes
    mu = 1.0 + 0.3 * np.sin(np.pi * x) * np.cos(np.pi * y)
    lam = 0.4 + 0.2 * x * y
    K = g.elastic_matrix(mu, lam)
    asym = abs(K - K.T).max()
    assert asym < 1e-12 * abs(K).max()
    rng = np.random.default_rng(8)
    idx = g.interior_vector_indices
    for _ in range(20):
        w = random_interior_vector(g, rng).reshape(2, -1).ravel()
        val = float(w @ (K @ w))
        assert val > 0.0
    Kint = K[idx][:, idx]
    assert abs(Kint - Kint.T).max() < 1e-12 * abs(K).max()


def test_interior_elastic_matrix_is_restricted_elastic_matrix():
    g = Grid(9, 6, 0.11, 0.17)
    x, y = g.meshes
    mu = 1.0 + 0.3 * np.sin(2.0 * x) * np.cos(3.0 * y)
    lam = 0.4 + 0.2 * x * y
    idx = g.interior_vector_indices
    ref = g.elastic_matrix(mu, lam)[idx][:, idx]
    K = g.interior_elastic_operator(mu, lam)
    rng = np.random.default_rng(5)
    for _ in range(5):
        x = rng.standard_normal(len(idx))
        assert np.abs(K(x) - ref @ x).max() <= 1e-13 * (abs(ref) @ np.abs(x)).max()


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
def test_interior_displacement_block_is_centred_part_plus_layer_diagonal(grid):
    # the structure linalg.elastic_solver relies on, at constant moduli
    g, mu, lam = grid, 1.3, 0.45
    idx = g.interior_vector_indices
    block = g.elastic_matrix(mu, lam)[idx][:, idx]
    # centred part: the same form with the boundary nodes' quadrature weights zeroed
    c = np.array([[2.0 * mu + lam, lam, 0.0], [lam, 2.0 * mu + lam, 0.0], [0.0, 0.0, 2.0 * mu]])
    interior = np.tile(~g.boundary_mask.ravel(), 3)
    gi = g.sym_grad_matrix[:, idx]
    centred = gi.T @ sps.diags(g.tensor_weights * interior) @ sps.kron(c, sps.eye(g.n_nodes)) @ gi
    scale = abs(block).max()

    # the closure rows add a diagonal on the first interior layer only
    closure = (block - centred).toarray()
    assert np.abs(closure - np.diag(np.diag(closure))).max() <= 1e-14 * scale
    j, i = np.divmod((~g.boundary_mask).ravel().nonzero()[0], g.nx + 1)
    c_x = (i == 1).astype(float) + (i == g.nx - 1)
    c_y = (j == 1).astype(float) + (j == g.ny - 1)
    p, rx, ry = 2.0 * mu + lam, g.hy / (2.0 * g.hx), g.hx / (2.0 * g.hy)
    d = np.concatenate([c_x * p * rx + c_y * mu * ry, c_x * mu * rx + c_y * p * ry])
    assert np.abs(np.diag(closure) - d).max() <= 1e-14 * scale

    # u_x on parity class (j, i) couples only with u_y on the flipped class
    field = np.repeat([0, 1], len(j))
    key = 2 * ((np.tile(j, 2) + field) % 2) + (np.tile(i, 2) + field) % 2
    rows, cols = centred.nonzero()
    assert np.array_equal(key[rows], key[cols])
    if min(g.nx, g.ny) >= 4:
        assert connected_components(centred != 0, directed=False)[0] == 4

    # two kernel vectors, the odd-odd constants of u_x and u_y, iff nx and ny are even
    eig = np.linalg.eigvalsh(centred.toarray())
    both_even = g.nx % 2 == 0 and g.ny % 2 == 0
    assert np.sum(eig <= 1e-12 * eig.max()) == (2 if both_even else 0)
    if both_even:
        odd_odd = ((j % 2 == 1) & (i % 2 == 1)).astype(float)
        for constant in (np.concatenate([odd_odd, 0 * odd_odd]), np.concatenate([0 * odd_odd, odd_odd])):
            assert np.abs(centred @ constant).max() <= 1e-14 * scale


def test_stress_from_strain_matches_tensor_dot_energy():
    rng = np.random.default_rng(30)
    eps = rng.standard_normal((3, 4, 5))
    mu, lam = 1.3, 0.6
    before = eps.copy()
    s = stress_from_strain(mu, lam, eps)
    assert np.array_equal(eps, before)
    energy = tensor_dot(s, eps)
    tr = eps[0] + eps[1]
    expected = 2 * mu * (eps[0] ** 2 + eps[1] ** 2 + 2 * eps[2] ** 2) + lam * tr**2
    assert np.allclose(energy, expected, rtol=1e-12)


# -- field carriers and errors ----------------------------------------------


def test_sym_grad_of_a_stack_equals_each_level():
    g = Grid.unit(9, 6, 1.0, 0.8)
    u = np.random.default_rng(4).standard_normal((2, 3, 2) + g.shape)
    e = g.sym_grad(u)
    assert e.shape == (3, 2, 3) + g.shape
    for i in range(2):
        for j in range(3):
            assert np.array_equal(e[:, i, j], g.sym_grad(u[i, j]))
    # one level is one sparse matrix-vector product
    one = (g.sym_grad_matrix @ u[0, 0].ravel()).reshape((3,) + g.shape)
    assert np.array_equal(g.sym_grad(u[0, 0]), one)
    with pytest.raises(ValueError):
        g.sym_grad(np.zeros((3,) + g.shape))


def test_shape_mismatch_raises():
    g = Grid.unit(6, 6)
    with pytest.raises(ValueError):
        g.laplacian_neumann(np.zeros((3, 3)))
    with pytest.raises(ValueError):
        g.sym_grad(np.zeros((2, 4, 4)))
    with pytest.raises(ValueError):
        Grid.unit(1, 6)


# -- snapshots ---------------------------------------------------------------


def test_binary_snapshot_round_trip_lossless(tmp_path):
    g = Grid.unit(7, 5, lx=1.1, ly=0.9)
    rng = np.random.default_rng(14)
    f = rng.standard_normal(g.shape)
    p = tmp_path / "f.tcf"
    snapshots.write_snapshot_bin(p, g, f, t=0.625)
    g2, f2, t = snapshots.read_snapshot_bin(p)
    assert t == 0.625
    assert g2 == g
    assert np.array_equal(f2, f)


def test_csv_snapshot_round_trip_lossless(tmp_path):
    g = Grid.unit(6, 8)
    rng = np.random.default_rng(15)
    f = rng.standard_normal(g.shape) * 1e3
    p = tmp_path / "f.csv"
    snapshots.write_snapshot_csv(p, g, f, t=1.0 / 3.0)
    g2, f2, t = snapshots.read_snapshot_csv(p)
    assert t == pytest.approx(1.0 / 3.0, abs=0)
    assert g2 == g
    assert np.array_equal(f2, f)


def test_csv_snapshot_bytes(tmp_path):
    # one "%.17g" per value, comma separated, one line per grid row
    g = Grid(3, 2, 0.1, 0.7)
    f = np.random.default_rng(16).standard_normal(g.shape)
    p = tmp_path / "f.csv"
    snapshots.write_snapshot_csv(p, g, f, t=0.3)
    want = "# 3,2,%.17g,%.17g,%.17g\n" % (0.1, 0.7, 0.3)
    want += "".join(",".join("%.17g" % v for v in row) + "\n" for row in f)
    assert p.read_bytes() == want.encode()


def test_snapshot_writers_reject_wrong_shape(tmp_path):
    g = Grid.unit(4, 3)
    for write in (snapshots.write_snapshot_csv, snapshots.write_snapshot_bin):
        with pytest.raises(ValueError):
            write(tmp_path / "f", g, np.zeros((g.shape[0], g.shape[1] + 1)))


def test_write_snapshots_names_and_formats(tmp_path):
    g = Grid.unit(4, 4)
    a, b = np.zeros(g.shape), np.ones(g.shape)
    (tmp_path / "c").mkdir()
    (tmp_path / "t").mkdir()
    snapshots.write_snapshots(tmp_path / "c", g, 7, 0.25, (("a", a), ("b", b)), "csv")
    snapshots.write_snapshots(tmp_path / "t", g, 12345, 0.5, (("a", a),), "bin")
    assert sorted(f.name for f in (tmp_path / "c").iterdir()) == ["a_00007.csv", "b_00007.csv"]
    assert [f.name for f in (tmp_path / "t").iterdir()] == ["a_12345.tcf"]
    assert (tmp_path / "t" / "a_12345.tcf").read_bytes()[:4] == b"TCF1"
    g2, back, t = snapshots.read_snapshot(tmp_path / "c" / "b_00007.csv")
    assert (g2, t) == (g, 0.25) and np.array_equal(back, b)
    g2, back, t = snapshots.read_snapshot(tmp_path / "t" / "a_12345.tcf")
    assert (g2, t) == (g, 0.5) and np.array_equal(back, a)


def test_csv_and_binary_agree(tmp_path):
    g = Grid.unit(4, 4)
    x, y = g.meshes
    f = np.sin(x) * np.cos(y)
    snapshots.write_snapshot_csv(tmp_path / "a.csv", g, f, t=0.5)
    snapshots.write_snapshot_bin(tmp_path / "a.tcf", g, f, t=0.5)
    _, fa, _ = snapshots.read_snapshot_csv(tmp_path / "a.csv")
    _, fb, _ = snapshots.read_snapshot_bin(tmp_path / "a.tcf")
    assert np.abs(fa - fb).max() <= 1e-12


def test_snapshot_bad_header(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("1,2,3\n")
    with pytest.raises(ValueError):
        snapshots.read_snapshot_csv(p)
    p2 = tmp_path / "bad.tcf"
    p2.write_bytes(b"NOPE" + b"\x00" * 40)
    with pytest.raises(ValueError):
        snapshots.read_snapshot_bin(p2)


def test_manifest_round_trip(tmp_path):
    p = tmp_path / "run.manifest"
    snapshots.write_manifest(p, {"nx": 48, "seed": 7, "scenario": "smooth"})
    back = read_manifest(p)
    assert back == {"nx": "48", "seed": "7", "scenario": "smooth"}


def test_history_format(tmp_path):
    p = tmp_path / "history.csv"
    snapshots.write_history(p, [(0, 1.5, 0.1, 1.0, 0), (1, 1.2, 0.05, 0.5, 1)])
    lines = p.read_text().strip().split("\n")
    assert lines[0] == snapshots.HISTORY_HEADER
    assert lines[1].startswith("0,1.5,")
    assert lines[2].endswith(",1")
