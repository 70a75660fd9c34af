"""Equal-measure cell tessellations and their region overlap fractions."""

import json
import tracemalloc

import numpy as np
import pytest
from scipy.stats import beta

from trm import CellularDensity, DegenerateDensityError, cell_fraction_in_regions, density_to_json
from trm.cells import (
    MAX_CELLS,
    _triangle_table,
    sample_in_cells,
    slab_bounds,
    triangle_vertices,
)
from trm.simplex import regions_of_batch
from conftest import eager_exponentials, random_interior_state


def test_cellular_density_validation():
    d = CellularDensity(3, 4, frozenset({1, 3}))
    assert d.breakable_sorted.tolist() == [1, 3]
    with pytest.raises(DegenerateDensityError):
        CellularDensity(2, 3, frozenset())
    with pytest.raises(ValueError):
        CellularDensity(3, 5, frozenset({1}))  # three outcomes need k^2 cells
    with pytest.raises(ValueError):
        CellularDensity(2, 3, frozenset({4}))  # cell index out of range
    with pytest.raises(ValueError):
        CellularDensity(2, 3, frozenset({0}))
    with pytest.raises(ValueError, match="twice"):
        CellularDensity(4, 4, [1, 1, 2])  # a repeated cell is not merged
    with pytest.raises(ValueError):
        CellularDensity(4, MAX_CELLS + 1, frozenset({1}))


def test_cellular_density_stores_python_int_counts():
    # numpy integer counts are stored as the ints they stand for, so the
    # density serialises as the one built from plain ints
    d = CellularDensity(np.int64(4), np.int64(8), {2})
    assert type(d.n_outcomes) is int and type(d.n_cells) is int
    assert d == CellularDensity(4, 8, {2})
    assert json.dumps(density_to_json(d)) == json.dumps(density_to_json(CellularDensity(4, 8, {2})))


def test_cellular_density_range_check_allocates_nothing_per_cell():
    tracemalloc.start()
    try:
        CellularDensity(4, MAX_CELLS, frozenset({1}))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak


def test_two_outcome_slabs_are_equal_intervals():
    b = slab_bounds(2, 4)
    np.testing.assert_allclose(b[:, 0], [0, 0.25, 0.5, 0.75], atol=1e-15)
    np.testing.assert_allclose(b[:, 1], [0.25, 0.5, 0.75, 1.0], atol=1e-15)


def test_triangle_cells_tile_and_have_equal_area():
    for k in (1, 2, 3, 5):
        tris = triangle_vertices(k)
        assert tris.shape == (k * k, 3, 2)
        areas = [
            abs(
                (t[1, 0] - t[0, 0]) * (t[2, 1] - t[0, 1])
                - (t[1, 1] - t[0, 1]) * (t[2, 0] - t[0, 0])
            )
            / 2.0
            for t in tris
        ]
        np.testing.assert_allclose(areas, areas[0], atol=1e-15)
        # tiles cover the chart triangle of area 1/2
        assert abs(sum(areas) - 0.5) < 1e-12


def test_triangle_cells_follow_the_documented_order():
    # row j from the edge opposite vertex 3, upward triangle at column i
    # before the downward one to its right; a subset of cells is the same
    # rows of the full table
    for k in (1, 2, 3, 7):
        ref = []
        for j in range(k):
            for i in range(k - j):
                ref.append([(i / k, j / k), ((i + 1) / k, j / k), (i / k, (j + 1) / k)])
                if i + j <= k - 2:
                    ref.append(
                        [((i + 1) / k, j / k), ((i + 1) / k, (j + 1) / k), (i / k, (j + 1) / k)]
                    )
        np.testing.assert_array_equal(triangle_vertices(k), np.array(ref))
        some = np.array([k * k - 1, 0, k * k // 2])
        np.testing.assert_array_equal(triangle_vertices(k, some), np.array(ref)[some])


def _closed_form_triangle_cells(k):
    """(i, j, down) of every triangle cell decoded from its index in closed
    form, in the smallest unsigned type that holds k."""
    c = np.arange(k * k)
    j = k - np.ceil(np.sqrt(k * k - c)).astype(np.intp)
    o = c - j * (2 * k - j)
    small = np.min_scalar_type(k)
    return (o >> 1).astype(small), j.astype(small), (o & 1).astype(small)


@pytest.mark.parametrize("k", [*range(1, 21), 255, 256])
def test_triangle_table_is_the_closed_form(k):
    for got, ref in zip(_triangle_table(k), _closed_form_triangle_cells(k), strict=True):
        assert got.dtype == ref.dtype
        np.testing.assert_array_equal(got, ref)


def test_triangle_table_is_read_only_and_keeps_one_subdivision():
    for k in (3, 5, 3, 16):
        for a in _triangle_table(k):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 1
    assert _triangle_table.cache_info().currsize <= 1


def test_triangle_vertices_refuse_cells_off_the_subdivision():
    # 9 once gave a vertex off the simplex, and -1 would wrap to the last cell
    k = 3
    for cells in ([k * k], [-1], [9, -1], [0, k * k]):
        with pytest.raises(ValueError, match=r"cell indices must lie in 0\.\.8"):
            triangle_vertices(k, np.array(cells))
        with pytest.raises(ValueError, match=r"cell indices must lie in 0\.\.8"):
            sample_in_cells(3, k * k, np.array(cells), np.random.default_rng(0))
    assert triangle_vertices(k, np.array([], dtype=int)).shape == (0, 3, 2)


def test_cell_indices_refuse_floats_and_bools():
    # a float index was once truncated: 1.7 and 7.9 sampled cells 1 and 7
    rng = np.random.default_rng(0)
    for cells in (np.array([1.7, 7.9]), np.array([1.0]), np.array([True, False])):
        with pytest.raises(TypeError, match="integers"):
            sample_in_cells(4, 8, cells, rng)
        with pytest.raises(TypeError, match="integers"):
            triangle_vertices(3, cells)
    with pytest.raises(TypeError, match="integers"):
        triangle_vertices(3, [1.7])


def test_triangle_points_on_the_top_edge_keep_lam1_at_zero():
    # this r lies on the diagonal of cell 4 of k = 3, on the top edge of
    # the simplex; (u + v) rounds past 1 and once gave lam_1 = -2^-52,
    # which regions_of_batch refuses
    class Fixed:
        def random(self, shape):
            return np.array([[0.23964135616864612, 0.760358643831354]])

    pts = sample_in_cells(3, 9, np.array([4]), Fixed())
    assert pts[0, 0] == 0.0
    np.testing.assert_allclose(pts.sum(axis=1), 1.0, rtol=0, atol=1e-15)
    regions_of_batch(np.full(3, 1.0 / 3), pts)


def test_cell_indices_take_narrow_unsigned_arrays_and_an_empty_list():
    # mc_batch picks cells in the smallest unsigned type that holds them
    for dtype in (np.uint8, np.uint16):
        cells = np.array([0, 5, 8], dtype=dtype)
        np.testing.assert_array_equal(triangle_vertices(3, cells), triangle_vertices(3, [0, 5, 8]))
        a = sample_in_cells(4, 9, cells, np.random.default_rng(1))
        np.testing.assert_array_equal(a, sample_in_cells(4, 9, [0, 5, 8], np.random.default_rng(1)))
    assert triangle_vertices(3, []).shape == (0, 3, 2)
    assert sample_in_cells(4, 8, [], np.random.default_rng(0)).shape == (0, 4)
    assert sample_in_cells(3, 9, [], np.random.default_rng(0)).shape == (0, 3)


def test_slab_bounds_carry_equal_beta_mass():
    # first coordinate of a flat simplex point is Beta(1, n-1); slabs are
    # its quantile bands
    for n, n_c in [(4, 5), (5, 3), (6, 8)]:
        bounds = slab_bounds(n, n_c)
        cdf = beta(1, n - 1).cdf
        masses = cdf(bounds[:, 1]) - cdf(bounds[:, 0])
        np.testing.assert_allclose(masses, 1.0 / n_c, atol=1e-12)


def test_fractions_columns_sum_to_one(rng):
    for n, n_c in [(2, 7), (3, 9), (3, 25), (4, 6), (7, 40)]:
        x = random_interior_state(rng, n)
        frac = cell_fraction_in_regions(x, n, n_c)
        assert frac.shape == (n, n_c)
        np.testing.assert_allclose(frac.sum(axis=0), 1.0, atol=1e-9)
        assert (frac >= -1e-15).all()


def test_slab_fractions_hold_one_table(rng):
    # the (n, n_cells) table is 32 MiB at 64 outcomes and MAX_CELLS cells;
    # building it by stacking row 0 on an (n - 1, n_cells) product held
    # both at once, 66.5 MiB
    n = 64
    x = random_interior_state(rng, n)
    tracemalloc.start()
    try:
        frac = cell_fraction_in_regions(x, n, MAX_CELLS)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert frac.shape == (n, MAX_CELLS)
    assert peak < 45 * 2**20


def test_fractions_refuse_subdivisions_without_cells():
    for n, n_c in [(4, 0), (4, MAX_CELLS + 1), (2, MAX_CELLS + 1), (3, 5), (1, 4)]:
        with pytest.raises(ValueError):
            cell_fraction_in_regions(np.full(n, 1.0 / n), n, n_c)


def test_fractions_refuse_a_state_of_another_dimension(rng):
    with pytest.raises(ValueError):
        cell_fraction_in_regions(random_interior_state(rng, 4), 5, 6)


_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(40)


def _slab_oracle(x, n_cells):
    """(n, n_cells) slab fractions by Gauss-Legendre quadrature, independent
    of the closed form.  Slab c holds the points whose lam_1 has CDF value
    p = 1 - (1 - lam_1)^(n-1) in [c/N, (c+1)/N).  Given lam_1 = t, the rest
    is (1-t) u with u uniform on the (n-2)-simplex, so region 1 (lam_1/x_1
    smallest) has conditional probability (1 - t(1-x_1)/((1-t) x_1))_+^(n-2),
    zero from t = x_1 on, and each i >= 2 takes x_i/(1-x_1) of the rest.
    The fraction is the mean over p in the slab, integrated up to the kink.
    """
    n, x1 = len(x), x[0]
    p_kink = 1.0 - (1.0 - x1) ** (n - 1)
    out = np.zeros((n, n_cells))
    for c in range(n_cells):
        lo, hi = c / n_cells, (c + 1) / n_cells
        top = min(hi, p_kink)
        if top > lo:
            p = lo + (top - lo) * (_NODES + 1.0) / 2.0
            t = 1.0 - (1.0 - p) ** (1.0 / (n - 1))
            g = np.clip(1.0 - t * (1.0 - x1) / ((1.0 - t) * x1), 0.0, None) ** (n - 2)
            out[0, c] = (_WEIGHTS @ g) / 2.0 * (top - lo) / (hi - lo)
        out[1:, c] = (1.0 - out[0, c]) * np.asarray(x[1:]) / (1.0 - x1)
    return out


@pytest.mark.parametrize("n", [4, 5, 6])
def test_slab_fractions_match_quadrature(rng, n):
    for n_c in (1, 2, 7, 31, 63):
        x = random_interior_state(rng, n)
        np.testing.assert_allclose(
            cell_fraction_in_regions(x, n, n_c), _slab_oracle(x, n_c), rtol=0, atol=1e-12
        )


def _edge_states(n):
    rest = np.full(n - 1, 1.0 / (n - 1))
    yield np.concatenate([[0.0], rest])
    yield np.concatenate([[1e-300], rest * (1.0 - 1e-300)])
    # the slab law divides by x_1, which overflows for a subnormal x_1
    yield np.concatenate([[5e-324], rest])
    yield np.eye(n)[0]
    yield np.eye(n)[-1]
    yield np.concatenate([[0.5], np.zeros(n - 2), [0.5]])


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_fractions_of_boundary_states_are_finite_and_sum_to_one(n):
    for x in _edge_states(n):
        for n_c in (1, 4, 9, 64):
            frac = cell_fraction_in_regions(x, n, n_c)
            assert np.isfinite(frac).all(), (x, n_c)
            assert (frac >= 0.0).all(), (x, n_c)
            np.testing.assert_allclose(frac.sum(axis=0), 1.0, rtol=0, atol=1e-12)
            np.testing.assert_allclose(frac.mean(axis=1), x, rtol=0, atol=1e-12)


def test_fractions_full_breakability_recovers_state_exactly_low_dim(rng):
    # with every cell breakable the weighted fractions integrate the regions
    for n, n_c in [(2, 5), (2, 12), (3, 4), (3, 16), (4, 6), (6, 33)]:
        x = random_interior_state(rng, n)
        frac = cell_fraction_in_regions(x, n, n_c)
        np.testing.assert_allclose(frac.mean(axis=1), x, atol=1e-12)


def test_fractions_match_sampling(rng):
    """MC cross-check of the geometric overlap numbers."""
    x = random_interior_state(rng, 3)
    n_c = 9
    frac = cell_fraction_in_regions(x, 3, n_c)
    m = 20_000
    for cell in (0, 4, 8):
        pts = sample_in_cells(3, n_c, np.full(m, cell), rng)
        idx, tie = regions_of_batch(x, pts)
        counts = np.bincount(idx[~tie] - 1, minlength=3)
        est = counts / (~tie).sum()
        sigma = np.sqrt(frac[:, cell] * (1 - frac[:, cell]) / m) + 1e-9
        assert (np.abs(est - frac[:, cell]) <= 4 * sigma + 1e-3).all()


def test_sample_in_cells_stays_inside_interval_cells(rng):
    pts = sample_in_cells(2, 4, np.array([0, 1, 2, 3] * 500), rng)
    np.testing.assert_allclose(pts.sum(axis=1), 1.0, atol=1e-12)
    first = pts[:, 0].reshape(-1, 4)
    bounds = slab_bounds(2, 4)
    for c in range(4):
        assert (first[:, c] >= bounds[c, 0] - 1e-12).all()
        assert (first[:, c] <= bounds[c, 1] + 1e-12).all()


def test_sample_in_cells_triangle_membership(rng):
    # every sampled chart point must land inside its own triangle
    n_c = 4
    tris = triangle_vertices(2)
    for cell in range(n_c):
        pts = sample_in_cells(3, n_c, np.full(400, cell), rng)
        chart = pts[:, 1:]  # (u, v) = (x2, x3)
        t = tris[cell]
        # barycentric coordinates of chart points w.r.t. the triangle
        m = np.column_stack([t[1] - t[0], t[2] - t[0]])
        ab = np.linalg.solve(m, (chart - t[0]).T).T
        assert (ab >= -1e-9).all()
        assert (ab.sum(axis=1) <= 1 + 1e-9).all()


def _vertex_tensor_triangles(k, idx, rng):
    """The triangle sampler over the (m, 3, 2) vertex tensor: each cell's
    lower-left square corner read off its vertices, and a unit-square
    uniform folded into the cell's half of that square."""
    tris = triangle_vertices(k, idx)
    corner = np.rint(tris.min(axis=1) * k)
    # in units of 1/k the vertex coordinates of an upward cell add up to
    # 3 (i + j) + 2, those of a downward cell to 3 (i + j) + 4
    down = np.rint(tris.sum(axis=(1, 2)) * k) - 3 * corner.sum(axis=1) == 4
    r = rng.random((idx.size, 2))
    flip = (r.sum(axis=1) > 1.0) != down
    q = np.where(flip[:, None], 1.0 - r, r)
    uv = (corner + q) / k
    return np.column_stack([1.0 - uv.sum(axis=1), uv])


def _column_stack_slabs(n, n_cells, idx, rng):
    """The slab sampler with numpy's row sum and a column_stack."""
    p = (idx + rng.random(idx.size)) / n_cells
    lam1 = 1.0 - (1.0 - p) ** (1.0 / (n - 1))
    rest = eager_exponentials(rng, (idx.size, n - 1))
    rest /= rest.sum(axis=1, keepdims=True)
    return np.column_stack([lam1, (1.0 - lam1)[:, None] * rest])


@pytest.mark.stream
@pytest.mark.parametrize("k", [1, 2, 3, 5, 16, 256])
def test_triangle_sampler_keeps_the_bits_of_the_vertex_tensor(k):
    idx = np.random.default_rng(k).integers(0, k * k, 5000)
    pts = sample_in_cells(3, k * k, idx, np.random.default_rng(1))
    assert np.array_equal(pts, _vertex_tensor_triangles(k, idx, np.random.default_rng(1)))


@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_triangle_sampler_is_uniform_on_each_cell(k):
    # every cell splits at its edge midpoints into four triangles of equal
    # area; k >= 2 has downward cells as well as upward ones
    n = 10000
    idx = np.repeat(np.arange(k * k), n)
    pts = sample_in_cells(3, k * k, idx, np.random.default_rng(k))
    t = triangle_vertices(k)[idx]
    edges = np.stack([t[:, 1] - t[:, 0], t[:, 2] - t[:, 0]], axis=2)
    a, b = np.linalg.solve(edges, (pts[:, 1:] - t[:, 0])[..., None])[..., 0].T
    # the corner triangles at t0, t1 and t2, then the middle one
    sub = np.select([a + b < 0.5, a > 0.5, b > 0.5], [0, 1, 2], 3)
    counts = np.bincount(idx * 4 + sub, minlength=4 * k * k)
    assert (np.abs(counts - n / 4) <= 4 * np.sqrt(n * 3 / 16)).all(), counts


@pytest.mark.parametrize("n", [3, 4, 5])
def test_sample_in_cells_columns_are_contiguous(n):
    n_c = 9
    pts = sample_in_cells(n, n_c, np.arange(n_c).repeat(10), np.random.default_rng(n))
    assert pts.shape == (10 * n_c, n)
    assert all(pts[:, j].flags.c_contiguous for j in range(n))


@pytest.mark.stream
@pytest.mark.parametrize("n", [2, 4, 5, 6])
def test_slab_sampler_keeps_the_bits_of_the_column_stack(n):
    n_c = 7
    idx = np.random.default_rng(n).integers(0, n_c, 5000)
    pts = sample_in_cells(n, n_c, idx, np.random.default_rng(2))
    assert np.array_equal(pts, _column_stack_slabs(n, n_c, idx, np.random.default_rng(2)))


def test_sample_in_cells_refuses_cells_off_the_subdivision(rng):
    # each of these once returned points off the simplex, or NaN
    for n, n_c, cells in [(3, 10, [9]), (3, 9, [9]), (4, 8, [8]), (4, 8, [0, -1]),
                          (2, 4, [4, 0]), (1, 4, [0]), (4, MAX_CELLS + 1, [0])]:
        with pytest.raises(ValueError):
            sample_in_cells(n, n_c, np.array(cells), rng)
    assert sample_in_cells(4, 8, np.array([], dtype=int), rng).shape == (0, 4)


def test_sample_in_cells_slab_membership(rng):
    n, n_c = 5, 6
    bounds = slab_bounds(n, n_c)
    for cell in (0, 3, 5):
        pts = sample_in_cells(n, n_c, np.full(300, cell), rng)
        np.testing.assert_allclose(pts.sum(axis=1), 1.0, atol=1e-12)
        assert (pts[:, 0] >= bounds[cell, 0] - 1e-12).all()
        assert (pts[:, 0] <= bounds[cell, 1] + 1e-12).all()
