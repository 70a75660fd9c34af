"""Geometry layer: measures, regions, partitions, uniform sampling."""

import math

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
from trm.simplex import MAX_BOUNDARY_RETRIES, iter_partitions, resolve_ties

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
