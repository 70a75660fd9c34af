"""Geometry layer: measures, regions, partitions, uniform sampling."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog
from scipy.stats import beta, kstest

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
from trm.simplex import MAX_BOUNDARY_RETRIES, TIE_RTOL, iter_partitions, resolve_ties
from trm.utr import _regions_at_break_point

from conftest import random_interior_state


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
    assert idx.dtype == np.intp


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
    idx, tie = _regions_at_break_point(lam, states)
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
        (lambda s: _regions_at_break_point(w, s), states),
    ):
        idx, tie = kernel(base)
        np.testing.assert_array_equal(tie[rows.shape[0] :], expect)
        # each row's own 1 / sum, which normalises it, and log-uniform
        # factors in [1e-3, 1e3]
        for scale in (1.0 / base.sum(axis=1), 10.0 ** gen.uniform(-3.0, 3.0, base.shape[0])):
            s_idx, s_tie = kernel(base * scale[:, None])
            np.testing.assert_array_equal(s_tie, tie)
            np.testing.assert_array_equal(s_idx[~tie], idx[~tie])


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

    def draw(rows):
        calls.append(rows.tolist())
        # rows 1 and 3 tie on their first draw only
        tie = np.array([r in (1, 3) and len(calls) == 1 for r in rows])
        return rows + 10 * len(calls), tie

    out = resolve_ties(5, draw, "in a stub")
    assert calls == [[0, 1, 2, 3, 4], [1, 3]]
    assert out.tolist() == [10, 21, 12, 23, 14]


def test_resolve_ties_gives_up_after_max_retries():
    calls = []

    def draw(rows):
        calls.append(rows.tolist())
        return rows + 1, np.ones(rows.size, dtype=bool)

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
            assert p.block_of(i) == p.block_map()[i - 1] + 1
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


@pytest.mark.parametrize("regions", [[1, 4, 2, 2], [1, 0, 2, 2]])
def test_count_refuses_regions_outside_the_outcomes(regions):
    # unchecked, a region 4 was tallied as outcome 1 of the next group and a
    # region 0 as outcome 3 of the previous one
    with pytest.raises(ValueError, match=r"1\.\.3"):
        OutcomePartition.singletons(3).count(np.array(regions), 2)


def test_block_map_is_built_once_and_read_only():
    p = OutcomePartition.of([[2, 4], [1, 3]])
    assert p.block_map() is p.block_map()
    assert p.block_map().tolist() == [1, 0, 1, 0]
    with pytest.raises(ValueError):
        p.block_map()[0] = 0
    # the stored map stays out of equality, hashing and repr
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


def _row_sum_divide(n, size, rng):
    """The sampler as numpy's row sum writes it: e / e.sum(axis=1)."""
    e = rng.standard_exponential((size, n))
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
