"""Geometry layer: measures, regions, partitions, uniform sampling."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog
from scipy.stats import beta, kstest

import trm.simplex
from trm import (
    BarycentricVector,
    OutcomePartition,
    UnstableEquilibriumError,
    facet_measure,
    height,
    region_measure,
    region_of,
    regions_of_batch,
    sample_uniform_batch,
    simplex_measure,
)
from trm.simplex import (
    MAX_BOUNDARY_RETRIES,
    TIE_RTOL,
    _exponential_column,
    _exponential_regions,
    _subset_masks,
    resolve_ties,
)

from conftest import (
    eager_exponentials,
    iter_partitions,
    random_interior_state,
    regions_at_break_point,
    support_exponentials,
)


def test_measure_closed_forms():
    assert abs(simplex_measure(2) - math.sqrt(2)) < 1e-12
    assert abs(simplex_measure(3) - math.sqrt(3) / 2) < 1e-12
    assert abs(simplex_measure(4) - 1 / 3) < 1e-12
    assert abs(facet_measure(3) - math.sqrt(2)) < 1e-12
    assert abs(facet_measure(4) - math.sqrt(3) / 2) < 1e-12


def test_measure_rejects_degenerate_dimension():
    with pytest.raises(ValueError):
        simplex_measure(1)
    with pytest.raises(ValueError):
        facet_measure(2 - 1)


def test_region_and_height_identities(rng):
    # cone volume: region = facet * height / (n - 1); regions tile the simplex
    for _ in range(50):
        n = int(rng.integers(2, 7))
        x = BarycentricVector(tuple(random_interior_state(rng, n)))
        total = 0.0
        for i in range(1, n + 1):
            mu = region_measure(x, i)
            assert abs(mu - simplex_measure(n) * x.components[i - 1]) < 1e-12
            assert abs(mu - facet_measure(n) * height(x, i) / (n - 1)) < 1e-12
            assert abs(height(x, i) - math.sqrt(n / (n - 1)) * x.components[i - 1]) < 1e-12
            total += mu
        assert abs(total - simplex_measure(n)) < 1e-12


def _in_hull(point, columns):
    """LP feasibility: point is a convex combination of the columns."""
    k = columns.shape[1]
    a_eq = np.vstack([columns, np.ones(k)])
    b_eq = np.append(point, 1.0)
    res = linprog(np.zeros(k), A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    return res.status == 0


def test_region_of_against_hull_oracle(rng):
    """The ratio rule must agree with direct convex-hull membership."""
    for _ in range(60):
        n = int(rng.integers(2, 6))
        x = random_interior_state(rng, n)
        lam = random_interior_state(rng, n)
        ratios = lam / x
        order = np.argsort(ratios)
        if ratios[order[1]] - ratios[order[0]] < 1e-6 * ratios[order[1]]:
            continue  # too close to a region boundary for the LP tolerance
        chosen = region_of(BarycentricVector(tuple(x)), tuple(lam))
        assert chosen == order[0] + 1
        eye = np.eye(n)
        cols = np.column_stack([x] + [eye[j] for j in range(n) if j != chosen - 1])
        assert _in_hull(lam, cols)
        # a region with a clearly larger ratio must not contain the point
        far = order[-1] + 1
        cols_far = np.column_stack([x] + [eye[j] for j in range(n) if j != far - 1])
        assert not _in_hull(lam, cols_far)


def test_region_of_vertex_state_short_circuits():
    x = BarycentricVector((0.0, 1.0, 0.0))
    assert region_of(x, (0.9, 0.05, 0.05)) == 2


def test_region_of_zero_component_never_wins(rng):
    x = BarycentricVector((0.6, 0.4, 0.0))
    for _ in range(200):
        lam = random_interior_state(rng, 3)
        assert region_of(x, tuple(lam)) in (1, 2)
    assert region_measure(x, 3) == 0.0


def test_region_of_tie_raises():
    x = BarycentricVector((0.5, 0.3, 0.2))
    with pytest.raises(UnstableEquilibriumError):
        region_of(x, x.components)  # all ratios equal 1


def test_regions_of_batch_matches_scalar(rng):
    x = BarycentricVector((0.25, 0.25, 0.5))
    pts = np.array([random_interior_state(rng, 3) for _ in range(100)])
    idx, ties = regions_of_batch(x, pts)
    assert not ties.any()
    for k in range(100):
        assert idx[k] == region_of(x, tuple(pts[k]))


@pytest.mark.parametrize("n", [2, 4])
@pytest.mark.parametrize("width", [-1, 1])
def test_regions_of_batch_refuses_a_width_mismatch(n, width):
    pts = np.full((3, n + width), 1.0 / (n + width))
    for x in (BarycentricVector(tuple(np.full(n, 1.0 / n))), np.full(n, 1.0 / n)):
        with pytest.raises(ValueError, match="width"):
            regions_of_batch(x, pts)


@pytest.mark.parametrize(
    "point",
    [
        (0.2, np.nan, 0.3),
        (-1.0, 0.5, 0.5),
        (0.2, 0.3, -1e-300),
        (np.inf, 0.0, 0.0),
        (0.5, -np.inf, 1.0),
    ],
)
def test_regions_of_batch_refuses_a_point_off_the_simplex(point):
    # (0.2, NaN, 0.3) and (-1, 0.5, 0.5) once came back as region 1, untied
    x = np.array([0.2, 0.3, 0.5])
    pts = np.full((4, 3), 1.0 / 3)
    pts[2] = point
    for state in (x, BarycentricVector(tuple(x))):
        with pytest.raises(ValueError, match="finite coordinates >= 0"):
            regions_of_batch(state, pts)


def test_regions_of_batch_takes_zero_coordinates_and_no_points():
    x = np.array([0.2, 0.3, 0.5])
    idx, ties = regions_of_batch(x, np.array([[0.0, 0.5, 0.5], [-0.0, 0.5, 0.5]]))
    assert idx.tolist() == [1, 1] and not ties.any()
    idx, ties = regions_of_batch(x, np.empty((0, 3)))
    assert idx.shape == ties.shape == (0,)


@pytest.mark.parametrize(
    "x", [(0.0, 0.0, 0.0), (np.nan, 0.5, 0.5), (-0.1, 0.6, 0.5), (np.inf, 0.5, 0.5)]
)
def test_regions_of_batch_refuses_a_broken_raw_state(x):
    # an all-zero state has no support column for the pass to start from,
    # and a NaN or negative component would silently drop out of the support
    with pytest.raises(ValueError, match="finite components >= 0, not all 0"):
        regions_of_batch(np.array(x), np.full((4, 3), 1.0 / 3))


def _reference_regions(num, den):
    """Sort-based reference of the region kernel.

    Builds the full (m, n) matrix of num/den with den <= 0 entries set to
    inf, takes the first index of each row's minimum, and calls a row tied
    when its two smallest sorted ratios agree within TIE_RTOL relatively,
    never when the runner-up is inf.
    """
    num, den = np.broadcast_arrays(np.atleast_2d(num), np.atleast_2d(den))
    ratios = np.full(num.shape, np.inf)
    np.divide(num, den, out=ratios, where=den > 0.0)
    two = np.sort(ratios, axis=1)[:, :2]
    lo, hi = two[:, 0], two[:, 1]
    idx = np.argmax(ratios == lo[:, None], axis=1) + 1
    with np.errstate(invalid="ignore"):
        tie = np.isfinite(hi) & (hi - lo <= TIE_RTOL * hi)
    return idx, tie


def _gap_ratios(gen, n, support, gap):
    """(2, n) ratio rows: 1 at one support column, 1 / (1 - gap) at another
    (a relative gap of `gap`), larger ratios elsewhere."""
    r = gen.uniform(1.5, 3.0, (2, n))
    for row in r:
        i, k = gen.choice(support, 2, replace=False)
        row[i], row[k] = 1.0, 1.0 / (1.0 - gap)
    return r


def _kernel_case(gen, n, zeros):
    """A weight vector with `zeros` zero components (n - 1 gives a vertex),
    random rows and, where the support allows, rows that tie exactly and
    rows whose relative gap is 0.5 and 2 times TIE_RTOL.  Returns the
    weights, the (ratio rows, expected tie) pairs, and the random rows."""
    w = gen.dirichlet(np.ones(n))
    w[gen.choice(n, zeros, replace=False)] = 0.0
    w /= w.sum()
    support = np.flatnonzero(w > 0.0)
    probes = []
    if support.size > 1:
        probes.append((np.ones((3, n)) * gen.uniform(0.5, 2.0, (3, 1)), True))
        probes.append((_gap_ratios(gen, n, support, 0.5 * TIE_RTOL), True))
        probes.append((_gap_ratios(gen, n, support, 2.0 * TIE_RTOL), False))
    return w, probes, gen.dirichlet(np.ones(n), 64)


@given(st.integers(2, 6), st.integers(0, 5), st.integers(0, 2**32 - 1))
@settings(max_examples=120, deadline=None)
def test_region_kernel_matches_sort_reference(n, zeros, seed):
    gen = np.random.default_rng(seed)
    w, probes, rows = _kernel_case(gen, n, min(zeros, n - 1))
    x = BarycentricVector(tuple(w))
    xv = x.as_array()
    for ratio_rows, expect in probes:
        pts = np.where(xv > 0.0, ratio_rows * xv, gen.random(ratio_rows.shape))
        assert (_reference_regions(pts, xv)[1] == expect).all()
        rows = np.vstack([rows, pts])
    idx, tie = regions_of_batch(x, rows)
    ref_idx, ref_tie = _reference_regions(rows, xv)
    np.testing.assert_array_equal(tie, ref_tie)
    np.testing.assert_array_equal(idx[~tie], ref_idx[~tie])
    assert idx.dtype == np.min_scalar_type(n)


@given(st.integers(2, 6), st.integers(0, 5), st.integers(0, 2**32 - 1))
@settings(max_examples=120, deadline=None)
def test_fixed_break_point_kernel_matches_sort_reference(n, zeros, seed):
    # complementary_mc's per-row denominators: each state row has its own
    # zero components, and a row with one positive component never ties
    gen = np.random.default_rng(seed)
    lam, probes, states = _kernel_case(gen, n, min(zeros, n - 1))
    states[gen.random(states.shape) < 0.3] = 0.0
    states[:8] = 0.0
    states[np.arange(8), gen.integers(0, n, 8)] = gen.random(8) + 0.1
    states[np.all(states == 0.0, axis=1), 0] = 1.0
    for ratio_rows, expect in probes:
        den = np.where(lam > 0.0, lam / ratio_rows, 0.0)
        assert (_reference_regions(lam, den)[1] == expect).all()
        states = np.vstack([states, den])
    idx, tie = regions_at_break_point(lam, states)
    ref_idx, ref_tie = _reference_regions(lam, states)
    assert not ref_tie[:8].any()
    np.testing.assert_array_equal(tie, ref_tie)
    np.testing.assert_array_equal(idx[~tie], ref_idx[~tie])


@given(st.integers(2, 6), st.integers(0, 5), st.integers(0, 2**32 - 1))
@settings(max_examples=120, deadline=None)
def test_scaling_rows_changes_no_region(n, zeros, seed):
    # utr and complementary trials compare raw exponentials, never divided
    # by their row sums: a positive row scale must move no index and no tie
    gen = np.random.default_rng(seed)
    w, probes, rows = _kernel_case(gen, n, min(zeros, n - 1))
    # zero components in the rows too, with none left all zero
    rows[gen.random(rows.shape) < 0.3] = 0.0
    rows[np.all(rows == 0.0, axis=1), 0] = 1.0
    pts = np.vstack([rows] + [np.where(w > 0.0, r * w, gen.random(r.shape)) for r, _ in probes])
    states = np.vstack([rows] + [np.where(w > 0.0, w / r, 0.0) for r, _ in probes])
    expect = np.repeat([e for _, e in probes], [r.shape[0] for r, _ in probes]).astype(bool)
    for kernel, base in (
        (lambda p: regions_of_batch(w, p), pts),
        (lambda s: regions_at_break_point(w, s), states),
    ):
        idx, tie = kernel(base)
        np.testing.assert_array_equal(tie[rows.shape[0] :], expect)
        # each row's own 1 / sum, which normalises it, and log-uniform
        # factors in [1e-3, 1e3]
        for scale in (1.0 / base.sum(axis=1), 10.0 ** gen.uniform(-3.0, 3.0, base.shape[0])):
            s_idx, s_tie = kernel(base * scale[:, None])
            np.testing.assert_array_equal(s_tie, tie)
            np.testing.assert_array_equal(s_idx[~tie], idx[~tie])


@pytest.mark.parametrize("size", [0, 1, 7, 65536])
@pytest.mark.parametrize(
    "x",
    [
        (0.0, 0.3, 0.7),
        (0.2, 0.0, 0.3, 0.5),
        (0.1, 0.2, 0.3, 0.4, 0.0),
        (1e-320, 0.4, 0.6),
        (0.0, 0.0, 1.0, 0.0),
        (0.1, 0.2, 0.3, 0.4),
        (0.4, 5e-324, 0.6),
        (0.3, 1e-320, 0.0, 0.7),
        (0.2, 1e-308, 0.3, 0.5),
    ],
)
def test_exponential_regions_draw_the_eager_stream(x, size, monkeypatch):
    # each support column is drawn when the pass reads it, and no other
    # column is drawn: the regions and the generator state after them are
    # those of the eager draw of the support columns.  The pass multiplies
    # log(1 - U) by
    # -min(1 / x_j, float max) where the oracle divides -log(1 - U) by x_j;
    # the indices and ties agree at subnormal and tiny components too, and
    # at a TIE_RTOL wide enough that many rows tie and are redrawn
    xv = BarycentricVector(x).as_array()
    for tie_rtol in (TIE_RTOL, 0.02):
        monkeypatch.setattr(trm.simplex, "TIE_RTOL", tie_rtol)
        eager, streamed = np.random.default_rng(11), np.random.default_rng(11)
        idx, tie = regions_of_batch(xv, support_exponentials(eager, xv, size))
        s_idx, s_tie = _exponential_regions(xv, size, streamed)
        np.testing.assert_array_equal(s_idx, idx)
        np.testing.assert_array_equal(s_tie, tie)
        assert s_idx.dtype == idx.dtype
        assert streamed.random(5).tolist() == eager.random(5).tolist()
        # the redraws of the tied rows go on matching, draw for draw
        ref = resolve_ties(
            size,
            lambda rows, count: regions_of_batch(xv, support_exponentials(eager, xv, count)),
            "in the oracle",
        )
        got = resolve_ties(
            size, lambda rows, count: _exponential_regions(xv, count, streamed), "streamed"
        )
        np.testing.assert_array_equal(got, ref)
        assert got.dtype == ref.dtype
        assert streamed.random(5).tolist() == eager.random(5).tolist()


class ServedUniforms:
    """A generator stand-in whose random() serves preset uniforms in order."""

    def __init__(self, u):
        self.flat, self.at = np.ravel(u), 0

    def random(self, size=None, out=None):
        k = out.size if out is not None else size
        vals = self.flat[self.at : self.at + k]
        self.at += k
        if out is None:
            return vals.copy()
        out[...] = vals.reshape(out.shape)
        return out


@pytest.mark.parametrize(
    "x", [(0.0, 0.3, 0.7), (0.2, 0.0, 0.3, 0.5), (0.1, 0.2, 0.3, 0.4, 0.0), (0.0, 0.0, 1.0, 0.0)]
)
def test_exponential_regions_read_one_column_per_support_outcome(x):
    # a zero component is never read, so no uniform is drawn for it: the
    # pass reads (positive components) * size uniforms, and its regions are
    # those of the served columns placed in the support columns
    xv = BarycentricVector(x).as_array()
    support = np.flatnonzero(xv > 0.0)
    size = 64
    u = np.random.default_rng(4).random((xv.size, size))
    served = ServedUniforms(u)
    idx, tie = _exponential_regions(xv, size, served)
    assert served.at == support.size * size
    e = np.zeros((size, xv.size))
    e[:, support] = -np.log(1.0 - u[: support.size]).T
    ref_idx, ref_tie = regions_of_batch(xv, e)
    np.testing.assert_array_equal(idx, ref_idx)
    np.testing.assert_array_equal(tie, ref_tie)


@pytest.mark.parametrize("x", [(0.4, 5e-324, 0.6), (0.3, 1e-320, 0.7)])
def test_a_zero_uniform_in_a_subnormal_column_has_ratio_zero(x):
    # 1 / 5e-324 is inf, and 0 * inf would be NaN, which warns (an error
    # here) and loses the row; with 1 / x_j capped at float max a U of 0
    # gives the ratio 0, as 0 / x_j does, so the subnormal outcome wins the
    # row, or ties where another column's U is 0 too
    xv = BarycentricVector(x).as_array()
    size = 64
    u = np.random.default_rng(2).uniform(0.1, 0.9, (3, size))
    u[1, ::2] = 0.0
    u[0, ::4] = 0.0
    served = ServedUniforms(u)
    idx, tie = _exponential_regions(xv, size, served)
    ref_idx, ref_tie = regions_of_batch(xv, -np.log(1.0 - u).T)
    np.testing.assert_array_equal(idx, ref_idx)
    np.testing.assert_array_equal(tie, ref_tie)
    assert served.at == u.size
    assert tie[::4].all() and not tie[1::2].any() and not tie[2::4].any()
    assert (idx[2::4] == 2).all()
    capped = _exponential_column(ServedUniforms(np.zeros(3)), np.empty(3), np.finfo(float).max)
    assert (capped == 0.0).all()


def test_exponential_regions_do_not_depend_on_the_last_bit_of_log():
    # numpy's vectorised log and libm's may round a value differently in the
    # last bit; a tie needs two ratios within TIE_RTOL, which is far wider,
    # so the regions and ties are those of a per-element math.log column
    size = 200_000
    e = _exponential_column(np.random.default_rng(3), np.empty((size, 4)))
    u = np.random.default_rng(3).random((size, 4))
    ref = np.array([-math.log(1.0 - v) for v in u.ravel().tolist()]).reshape(size, 4)
    for x in [(0.0, 0.3, 0.3, 0.4), (1e-320, 0.2, 0.3, 0.5), (0.25,) * 4, (0.1, 0.2, 0.3, 0.4)]:
        idx, tie = regions_of_batch(BarycentricVector(x), e)
        ref_idx, ref_tie = regions_of_batch(BarycentricVector(x), ref)
        np.testing.assert_array_equal(idx, ref_idx)
        np.testing.assert_array_equal(tie, ref_tie)


def test_exponential_column_is_standard_exponential():
    n = 10**6
    e = _exponential_column(np.random.default_rng(5), np.empty(n))
    assert np.isfinite(e).all() and (e >= 0.0).all()
    # an Exp(1) sample has mean 1 and variance 1; the sample variance of n
    # draws has variance (mu_4 - 1) / n = 8 / n
    assert abs(e.mean() - 1.0) <= 4 / math.sqrt(n)
    assert abs(e.var() - 1.0) <= 4 * math.sqrt(8 / n)


@pytest.mark.parametrize("n", [2, 4, 6])
def test_regions_of_batch_builds_no_ratio_matrix(n, rng):
    # an (m, n) float matrix of ratios alone is n * m * 8 bytes; the
    # one-pass kernel holds a few (m,) arrays whatever n is
    m = 65536
    pts = sample_uniform_batch(n, m, rng)
    x = BarycentricVector(tuple(random_interior_state(rng, n)))
    tracemalloc.start()
    try:
        regions_of_batch(x, pts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * m * 8


@given(
    st.integers(2, 6),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_region_of_is_argmin_of_ratios(n, seed):
    gen = np.random.default_rng(seed)
    x = random_interior_state(gen, n)
    lam = random_interior_state(gen, n)
    try:
        i = region_of(BarycentricVector(tuple(x)), tuple(lam))
    except UnstableEquilibriumError:
        return
    ratios = lam / x
    assert ratios[i - 1] == ratios.min()


def test_resolve_ties_redraws_only_tied_rows():
    calls = []

    def draw(rows, count):
        calls.append(rows if isinstance(rows, slice) else rows.tolist())
        rows = np.arange(5)[rows]
        assert rows.size == count
        # rows 1 and 3 tie on their first draw only
        tie = np.array([r in (1, 3) and len(calls) == 1 for r in rows])
        return rows + 10 * len(calls), tie

    out = resolve_ties(5, draw, "in a stub")
    # the first draw selects every row with a slice, so a caller indexing
    # per-row data with it gets a view instead of a copy
    assert calls == [slice(None), [1, 3]]
    assert out.tolist() == [10, 21, 12, 23, 14]


def test_resolve_ties_gives_up_after_max_retries():
    calls = []

    def draw(rows, count):
        rows = np.arange(3)[rows]
        assert rows.size == count
        calls.append(rows.tolist())
        return rows + 1, np.ones(count, dtype=bool)

    with pytest.raises(UnstableEquilibriumError, match="in a stub"):
        resolve_ties(3, draw, "in a stub")
    assert len(calls) == MAX_BOUNDARY_RETRIES
    assert all(rows == [0, 1, 2] for rows in calls)


def test_barycentric_validation():
    with pytest.raises(ValueError):
        BarycentricVector((0.5,))
    with pytest.raises(ValueError):
        BarycentricVector((0.5, -0.1, 0.6))
    with pytest.raises(ValueError):
        BarycentricVector((0.5, 0.6))  # sum 1.1 over tolerance
    with pytest.raises(ValueError):
        BarycentricVector((math.nan, 0.5))
    v = BarycentricVector((0.2999999999, 0.7000000001))
    assert abs(sum(v.components) - 1.0) < 1e-12


def test_partition_validation():
    with pytest.raises(ValueError):
        OutcomePartition.of([[1, 2], [2, 3]])  # overlap
    with pytest.raises(ValueError):
        OutcomePartition.of([[1], [3]])  # gap
    with pytest.raises(ValueError):
        OutcomePartition.of([[0, 1], [2]])  # indices are 1-based
    with pytest.raises(ValueError, match="twice"):
        OutcomePartition.of([[1, 1], [2]])  # a repeated outcome is not merged
    with pytest.raises(ValueError, match="twice"):
        OutcomePartition(((1, 1), (2,)))
    with pytest.raises(ValueError):
        OutcomePartition.of([[1], []])  # empty block
    p = OutcomePartition.of([[2, 4], [1, 3]])
    assert p.n_blocks == 2
    assert p.block_of(4) == p.block_of(2)
    assert p.block_of(1) == p.block_of(3)
    s = OutcomePartition.singletons(3)
    assert s.n_blocks == 3 and s.block_of(2) == 2
    assert p.aggregate(np.array([0.1, 0.2, 0.3, 0.4])).tolist() == [0.2 + 0.4, 0.1 + 0.3]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_block_of_reads_the_block_map(n):
    for blocks in iter_partitions(n):
        p = OutcomePartition(blocks)
        for i in range(1, n + 1):
            assert i in p.blocks[p.block_of(i) - 1]
        assert p.block_of(float(n)) == p.block_of(n)
        for outside in (0, n + 1, 1.5):
            with pytest.raises(ValueError):
                p.block_of(outside)


def test_aggregate_batches_rows_exactly(rng):
    p = OutcomePartition.of([[2, 4, 5], [1, 3]])
    rows = rng.exponential(size=(2, 3, 5))
    sums = p.aggregate(rows)
    assert sums.shape == (2, 3, 2)
    for i in range(2):
        for j in range(3):
            assert sums[i, j].tolist() == p.aggregate(rows[i, j]).tolist()
    assert p.block_masks().tolist() == [
        [False, True, False, True, True],
        [True, False, True, False, False],
    ]
    with pytest.raises(ValueError):
        p.aggregate(rows[..., :4])


def test_count_matches_a_per_row_tally(rng):
    for n in (2, 3, 5):
        for blocks in list(iter_partitions(n))[:: max(1, n - 1)]:
            p = OutcomePartition(blocks)
            groups, per = int(rng.integers(2, 6)), int(rng.integers(1, 40))
            regions = rng.integers(1, n + 1, groups * per)
            counts = p.count(regions, groups)
            assert counts.shape == (groups, p.n_blocks)
            for g in range(groups):
                for r in regions[g * per : (g + 1) * per]:
                    counts[g, p.block_of(int(r)) - 1] -= 1
            assert not counts.any()
    assert OutcomePartition.singletons(3).count(np.array([3, 1, 3])).tolist() == [[1, 0, 2]]
    # blocks that are not runs of consecutive outcomes, over three groups
    counts = OutcomePartition.of([[2, 4, 5], [1, 3]]).count(
        np.array([1, 4, 5, 5, 2, 2, 3, 1, 3, 4, 4, 4]), 3
    )
    assert counts.tolist() == [[3, 1], [2, 2], [3, 1]]
    assert counts.dtype.kind == "i"


@pytest.mark.parametrize("n, groups", [(5, 51), (4, 64), (5, 13107), (4, 16384)])
def test_count_at_the_offset_dtype_edges(n, groups, rng):
    # groups * n of 255, 256, 65 535 and 65 536: the largest bin, region n
    # of the last group, fills the offsets' type or needs the next one
    regions = rng.integers(1, n + 1, 3 * groups)
    regions[-1] = n
    bins = regions.reshape(groups, -1) + n * np.arange(groups, dtype=np.int64)[:, None]
    plain = np.bincount(bins.ravel(), minlength=groups * n + 1)[1:].reshape(groups, n)
    coarse = OutcomePartition.of([[1, n], range(2, n)])
    for dtype in (np.uint8, np.int64):
        r = regions.astype(dtype)
        assert OutcomePartition.singletons(n).count(r, groups).tolist() == plain.tolist()
        assert coarse.count(r, groups).tolist() == (plain @ coarse.block_masks().T).tolist()


@pytest.mark.parametrize("regions", [[1, 4, 2, 2], [1, 0, 2, 2]])
def test_count_refuses_regions_outside_the_outcomes(regions):
    # unchecked, a region 4 was tallied as outcome 1 of the next group and a
    # region 0 as outcome 3 of the previous one
    with pytest.raises(ValueError, match=r"1\.\.3"):
        OutcomePartition.singletons(3).count(np.array(regions), 2)


def test_partition_equality_ignores_the_stored_map():
    # the map built on construction stays out of equality, hashing and repr
    p = OutcomePartition.of([[2, 4], [1, 3]])
    q = OutcomePartition.of([[1, 3], [2, 4]])
    assert p != q and p == OutcomePartition.of([[4, 2], [3, 1]])
    assert hash(p) == hash(OutcomePartition.of([[4, 2], [3, 1]]))
    assert "map" not in repr(p)


def test_check_state_refuses_an_uncovered_state():
    OutcomePartition.singletons(3).check_state(3)
    with pytest.raises(ValueError, match="covers 1..3 but state has 4"):
        OutcomePartition.singletons(3).check_state(4)


def test_partition_enumeration_counts():
    # Bell numbers
    for n, bell in [(2, 2), (3, 5), (4, 15), (5, 52)]:
        assert sum(1 for _ in iter_partitions(n)) == bell


@pytest.mark.parametrize("n", range(1, 7))
def test_subset_masks_list_each_nonempty_subset_once_in_bit_order(n):
    masks = _subset_masks(n)
    assert masks.shape == (2**n - 1, n) and masks.dtype == bool
    # row m - 1 holds the bits of m, outcome 1 the lowest
    assert np.array_equal(masks @ (1 << np.arange(n)), np.arange(1, 2**n))
    assert not masks.flags.writeable
    assert _subset_masks(n) is masks


def _row_sum_divide(n, size, rng):
    """The sampler as numpy's row sum writes it: e / e.sum(axis=1)."""
    e = eager_exponentials(rng, (size, n))
    return e / e.sum(axis=1, keepdims=True)


@pytest.mark.parametrize("n", range(2, 8))
def test_uniform_sampler_keeps_the_bits_of_the_row_sum_divide(n):
    # numpy adds a row of fewer than 8 terms left to right, as the
    # column-wise sums do, so the points are the same bits
    pts = sample_uniform_batch(n, 20000, np.random.default_rng(n))
    assert np.array_equal(pts, _row_sum_divide(n, 20000, np.random.default_rng(n)))


@pytest.mark.parametrize("n", [8, 12])
def test_wide_uniform_sampler_rows_sum_to_one(n, rng):
    pts = sample_uniform_batch(n, 20000, rng)
    assert np.abs(pts.sum(axis=1) - 1.0).max() <= 4 * np.finfo(float).eps
    assert (pts >= 0).all()


@pytest.mark.parametrize("n", [2, 4, 6])
def test_uniform_sampler_holds_one_point_array(n, rng):
    # the points and one (m,) array of row sums: a second (m, n) array for
    # the quotient, as e / e.sum(...) allocates, would pass the bound
    m = 65536
    tracemalloc.start()
    try:
        sample_uniform_batch(n, m, rng)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * (n + 2) * m


def test_uniform_sampler_marginals(rng):
    # each coordinate of a flat simplex sample is Beta(1, n-1)
    for n in (2, 3, 5):
        pts = sample_uniform_batch(n, 4000, rng)
        assert pts.shape == (4000, n)
        np.testing.assert_allclose(pts.sum(axis=1), 1.0, atol=1e-12)
        assert (pts >= 0).all()
        for col in range(n):
            stat = kstest(pts[:, col], beta(1, n - 1).cdf)
            assert stat.pvalue > 1e-3, (n, col, stat)
