"""Subset averages over cellular densities and their collapse to the
uniform law.

The two small cases worked out by hand pin the enumeration semantics:

two outcomes, x = (1/2, 1/2), two cells on lam_1:
    {1} -> P(1) = 1      (break always below the state)
    {2} -> P(1) = 0
    {1,2} -> P(1) = 1/2
    average = (1 + 0 + 1/2)/3 = 1/2 = x_1

two outcomes, x = (3/10, 7/10), three cells:
    region 1 is lam_1 < 0.3, so the per-cell fractions are (0.9, 0, 0) and
    {1} -> 0.9   {2} -> 0    {3} -> 0
    {1,2} -> 0.45   {1,3} -> 0.45   {2,3} -> 0
    {1,2,3} -> 0.3
    average = 2.1/7 = 0.3 = x_1
"""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.stats import chi2, norm

from trm import (
    BarycentricVector,
    OutcomePartition,
    convergence_scan,
    transition_probabilities_nd,
    universal_probability_exact,
)
from trm.cells import MAX_CELLS, cell_fraction_in_regions
import trm.universal as universal_module
from trm.universal import MC_CHUNK_ROWS, mc_batch
from conftest import enumerate_cellular, random_interior_state


HALF = BarycentricVector((0.5, 0.5))
SKEW = BarycentricVector((0.3, 0.7))

ORACLE_HALF_2 = {
    frozenset({1}): 1.0,
    frozenset({2}): 0.0,
    frozenset({1, 2}): 0.5,
}

ORACLE_SKEW_3 = {
    frozenset({1}): 0.9,
    frozenset({2}): 0.0,
    frozenset({3}): 0.0,
    frozenset({1, 2}): 0.45,
    frozenset({1, 3}): 0.45,
    frozenset({2, 3}): 0.0,
    frozenset({1, 2, 3}): 0.3,
}


@pytest.mark.parametrize(
    "x,n_c,oracle",
    [(HALF, 2, ORACLE_HALF_2), (SKEW, 3, ORACLE_SKEW_3)],
    ids=["half-2cells", "skew-3cells"],
)
def test_hand_enumerated_subset_laws(x, n_c, oracle):
    part = OutcomePartition.singletons(2)
    seen = {}
    for density in enumerate_cellular(2, n_c):
        probs = transition_probabilities_nd(x, part, density)
        seen[density.breakable] = probs[0]
    assert set(seen) == set(oracle)
    for cells, expected in oracle.items():
        assert abs(seen[cells] - expected) < 1e-12, cells
    mean = sum(seen.values()) / len(seen)
    assert abs(mean - x.components[0]) < 1e-12
    np.testing.assert_allclose(
        universal_probability_exact(x, n_c), x.components, atol=1e-12
    )


def test_enumeration_counts_and_guard():
    assert sum(1 for _ in enumerate_cellular(2, 4)) == 15
    assert sum(1 for _ in enumerate_cellular(3, 4)) == 15


def test_exact_average_equals_state_two_outcomes(rng):
    for n_c in range(1, 13):
        for _ in range(4):
            x = BarycentricVector(tuple(random_interior_state(rng, 2)))
            dev = np.abs(universal_probability_exact(x, n_c) - x.as_array())
            assert dev.max() < 1e-12, (n_c, x)


def test_exact_average_equals_state_three_outcomes(rng):
    for n_c in (1, 4, 9, 16):
        x = BarycentricVector(tuple(random_interior_state(rng, 3)))
        dev = np.abs(universal_probability_exact(x, n_c) - x.as_array())
        assert dev.max() < 1e-12, (n_c, x)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_exact_average_equals_state_every_dimension(rng, n):
    for n_c in (1, 4, 16, 100, 4096, MAX_CELLS):
        x = BarycentricVector(tuple(random_interior_state(rng, n)))
        dev = np.abs(universal_probability_exact(x, n_c) - x.as_array())
        assert dev.max() < 1e-12, (n_c, x)


def test_exact_average_dimension_guard():
    # every outcome count has a cell law; only subdivisions without cells
    # are refused
    x4 = BarycentricVector((0.25, 0.25, 0.25, 0.25))
    assert universal_probability_exact(x4, 7).shape == (4,)
    with pytest.raises(ValueError):
        universal_probability_exact(x4, MAX_CELLS + 1)
    with pytest.raises(ValueError):
        universal_probability_exact(BarycentricVector((0.2, 0.3, 0.5)), 8)


def test_mc_average_matches_state_within_bands(rng):
    for n in (3, 4, 5, 6):
        x = BarycentricVector(tuple(random_interior_state(rng, n)))
        n_c = 9 if n == 3 else 8
        probs, errs = mc_batch(x, n_c, 400, 400, rng)
        assert abs(probs.sum() - 1.0) < 1e-9
        assert (np.abs(probs - x.as_array()) <= 4 * errs + 1e-12).all(), (n, probs)


def test_mc_batch_is_mean_and_stderr():
    # x = (1/2, 1/2) on two cells with one point per density: each estimate
    # is one-hot, (1, 0) or (0, 1), so with a fraction m of them on an
    # outcome the mean is m and the sample standard deviation over sqrt(d)
    # is sqrt(m (1 - m) / (d - 1)) exactly
    d = 50
    mean, err = mc_batch(HALF, 2, d, 1, np.random.default_rng(16))
    np.testing.assert_allclose(mean * d, np.round(mean * d), atol=1e-15)
    np.testing.assert_allclose(mean.sum(), 1.0, atol=1e-15)
    assert 0.0 < mean[0] < 1.0
    np.testing.assert_allclose(err, np.sqrt(mean * (1 - mean) / (d - 1)), atol=1e-15)


def _half_binomial_moments(p_pts):
    """E[(j/P)^2] and E[(j/P)^4] for j ~ Bin(P, 1/2), in closed form.

    From the mean P/2 and the central moments P/4 (second), 0 (third) and
    P/4 (1 + 3(P-2)/4) (fourth): E[j^2] = P^2/4 + P/4 and
    E[j^4] = P^4/16 + 3P^3/8 + 3P^2/16 - P/8.
    """
    return (
        0.25 + 0.25 / p_pts,
        1 / 16 + 3 / (8 * p_pts) + 3 / (16 * p_pts**2) - 1 / (8 * p_pts**3),
    )


@pytest.mark.parametrize("p_pts", [1, 2, 3, 8, 64])
def test_half_binomial_moments_match_the_binomial_sum(p_pts):
    binom = [math.comb(p_pts, j) / 2**p_pts for j in range(p_pts + 1)]
    summed = [sum(w * (j / p_pts) ** k for j, w in enumerate(binom)) for k in (2, 4)]
    np.testing.assert_allclose(_half_binomial_moments(p_pts), summed, rtol=1e-14)


@pytest.mark.parametrize(
    "p_pts,m,chunk",
    [(8, 4000, MC_CHUNK_ROWS), (2 * 1024, 500, 1024)],
    ids=["small", "split-density"],
)
def test_mc_batch_draws_within_each_subset(monkeypatch, p_pts, m, chunk):
    # x = (1/2, 1/2) on two cells: the subsets {1}, {2} and {1, 2} give the
    # per-density laws (1, 0), (0, 1) and Bin(P, 1/2)/P, so E[p_1^2] is
    # (1 + 1/4 + 1/(4P))/3; cells picked outside the subset would give
    # about 1/4.  With more points than a chunk, each density's points are
    # drawn in parts that must share the density's subset; a small chunk
    # splits a density without drawing millions of points.
    monkeypatch.setattr(universal_module, "MC_CHUNK_ROWS", chunk)
    moment = [(1 + mu) / 3 for mu in _half_binomial_moments(p_pts)]
    sigma = math.sqrt((moment[1] - moment[0] ** 2) / m)
    assert abs(moment[0] - 0.25) > 8 * sigma
    mean, err = mc_batch(HALF, 2, m, p_pts, np.random.default_rng(11))
    # E[p_1^2] over the densities, from the mean and the standard error
    square = err[0] ** 2 * (m - 1) + mean[0] ** 2
    assert abs(mean[0] - 0.5) <= 4 * math.sqrt((moment[0] - 0.25) / m)
    assert abs(square - moment[0]) <= 4 * sigma


def _nonzero_subsets(m, n_cells, rng):
    """The subset draw of _draw_subsets with each row's set bits listed by
    np.nonzero, as (cells, k)."""
    bits = rng.random((m, n_cells)) < 0.5
    empty = np.flatnonzero(~bits.any(axis=1))
    while empty.size:
        bits[empty] = rng.random((empty.size, n_cells)) < 0.5
        empty = empty[~bits[empty].any(axis=1)]
    return np.nonzero(bits)[1].astype(np.min_scalar_type(n_cells - 1)), bits.sum(axis=1)


@pytest.mark.parametrize("n_cells", [1, 2, 255, 256, 257, MAX_CELLS])
def test_subset_cells_are_the_nonzero_columns(n_cells):
    m = 7
    cells, start, k = universal_module._draw_subsets(m, n_cells, np.random.default_rng(n_cells))
    ref_cells, ref_k = _nonzero_subsets(m, n_cells, np.random.default_rng(n_cells))
    assert cells.dtype == ref_cells.dtype
    np.testing.assert_array_equal(cells, ref_cells)
    np.testing.assert_array_equal(k, ref_k)
    np.testing.assert_array_equal(start, np.cumsum(ref_k) - ref_k)


def test_cell_pick_cannot_leave_its_row():
    # row r lists the cells r..2r (k = r + 1, every k up to MAX_CELLS) of a
    # list whose entries are their own positions, so a pick that left its
    # row would read the next row's first entry, start + k
    k = np.arange(1, MAX_CELLS + 1)
    start = k - 1
    cells = np.arange(2 * MAX_CELLS)
    u = np.tile([0.0, np.nextafter(1.0, 0.0)], (k.size, 1))
    np.testing.assert_array_equal(
        universal_module._pick_cells(cells, start, k, u),
        np.stack([start, start + k - 1], axis=1),
    )


def test_cell_pick_is_uniform_over_each_subset():
    n_cells, points = 25, 50_000
    gen = np.random.default_rng(31)
    subsets = [np.sort(gen.choice(n_cells, size, replace=False)) for size in (1, 2, 3, 7, 25)]
    k = np.array([s.size for s in subsets])
    cells = np.concatenate(subsets).astype(np.uint8)
    picks = universal_module._pick_cells(
        cells, np.cumsum(k) - k, k, np.random.default_rng(32).random((k.size, points))
    )
    # the chi-square quantile with the false-alarm rate of a two-sided 4 sigma gate
    alpha = 2 * norm.sf(4)
    for subset, row in zip(subsets, picks):
        counts = np.bincount(row, minlength=n_cells)
        assert counts[np.setdiff1d(np.arange(n_cells), subset)].sum() == 0, subset
        expected = points / subset.size
        stat = ((counts[subset] - expected) ** 2 / expected).sum()
        if subset.size > 1:
            assert stat <= chi2.isf(alpha, subset.size - 1), (subset, stat)


def test_a_full_row_picks_only_its_own_cells():
    # the row holding all MAX_CELLS cells is followed by a row whose one
    # entry is MAX_CELLS, which only a pick that ran off the full row reads
    cells = np.arange(MAX_CELLS + 1)
    k = np.array([MAX_CELLS, 1])
    u = np.random.default_rng(33).random((2, 100_000))
    u[0, -1] = np.nextafter(1.0, 0.0)
    picks = universal_module._pick_cells(cells, np.array([0, MAX_CELLS]), k, u)
    assert picks[0].max() == MAX_CELLS - 1
    assert (picks[1] == MAX_CELLS).all()


def test_mc_batch_redraws_empty_subsets():
    # one cell: half of the first subset draws are empty and must be redrawn
    x = BarycentricVector((0.3, 0.7))
    m = 2000
    probs, errs = mc_batch(x, 1, m, 16, np.random.default_rng(12))
    assert (errs > 0).all()
    assert (np.abs(probs - x.as_array()) <= 4 * errs).all()


def test_mc_batch_is_deterministic_across_chunks():
    x = BarycentricVector((0.2, 0.3, 0.5))
    m, p_pts = 1200, 64
    assert m * p_pts > 4 * MC_CHUNK_ROWS
    first = mc_batch(x, 9, m, p_pts, np.random.default_rng(13))
    again = mc_batch(x, 9, m, p_pts, np.random.default_rng(13))
    np.testing.assert_array_equal(first, again)


@pytest.mark.parametrize(
    "m,p_pts,n_c",
    [
        pytest.param(400, 1000, 9, id="400-1000"),
        pytest.param(3, 50_000, 9, id="3-50000"),
        pytest.param(400, 1, 10_000, id="400-1-10000cells"),
    ],
)
def test_mc_batch_memory_is_bounded_by_the_chunk(m, p_pts, n_c):
    x = BarycentricVector((0.2, 0.3, 0.5))
    rng = np.random.default_rng(14)
    tracemalloc.start()
    try:
        mc_batch(x, n_c, m, p_pts, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20, peak


def test_mc_batch_at_the_bench_shape_makes_one_kernel_call_in_bounded_scratch(monkeypatch):
    # 256 densities of 64 points on 25 triangle cells, one chunk of the
    # universal_mc benchmark: MC_CHUNK_ROWS break points, one call of the
    # cell-sampling kernel, in at most 80 bytes of scratch per break point
    x = BarycentricVector((0.2, 0.3, 0.5))
    m, p_pts, n_c = 256, 64, 25
    mc_batch(x, n_c, m, p_pts, np.random.default_rng(15))
    tracemalloc.start()
    try:
        mc_batch(x, n_c, m, p_pts, np.random.default_rng(15))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 80 * MC_CHUNK_ROWS, peak
    sizes = []
    kernel = universal_module.sample_in_cells

    def recording(n_outcomes, n_cells, idx, rng):
        sizes.append(idx.size)
        return kernel(n_outcomes, n_cells, idx, rng)

    monkeypatch.setattr(universal_module, "sample_in_cells", recording)
    mc_batch(x, n_c, m, p_pts, np.random.default_rng(15))
    assert sizes == [MC_CHUNK_ROWS]


def _enumerated_subset_average(fractions, n_cells):
    # independent oracle: mean of mean_{c in B} fractions[:, c] over all
    # 2^n_c - 1 nonempty subsets B, enumerated as bitmasks
    masks = np.arange(1, 1 << n_cells)
    bits = (masks[:, None] >> np.arange(n_cells)) & 1
    per_subset = bits @ fractions.T / bits.sum(axis=1)[:, None]
    return per_subset.mean(axis=0)


@pytest.mark.parametrize(
    "n,cell_counts", [(2, range(1, 13)), (3, (1, 4, 9))], ids=["two", "three"]
)
def test_exact_average_matches_subset_enumeration(rng, n, cell_counts):
    for n_c in cell_counts:
        x = BarycentricVector(tuple(random_interior_state(rng, n)))
        fractions = cell_fraction_in_regions(x.as_array(), n, n_c)
        np.testing.assert_allclose(
            universal_probability_exact(x, n_c),
            _enumerated_subset_average(fractions, n_c),
            rtol=0,
            atol=1e-12,
        )


def test_symmetric_state_average_is_uniform():
    x = BarycentricVector((1 / 3, 1 / 3, 1 / 3))
    for n_c in (1, 4, 9, 16):
        np.testing.assert_allclose(
            universal_probability_exact(x, n_c), np.full(3, 1 / 3), atol=1e-12
        )


def test_exact_average_with_partition(rng):
    # the average is linear, so block probabilities are block sums of x
    part = OutcomePartition.of([[1, 3], [2]])
    for n_c in (1, 4, 9):
        x = BarycentricVector(tuple(random_interior_state(rng, 3)))
        probs = universal_probability_exact(x, n_c, part)
        expected = np.array(
            [x.components[0] + x.components[2], x.components[1]]
        )
        assert probs.shape == (2,)
        np.testing.assert_allclose(probs, expected, atol=1e-12)
    with pytest.raises(ValueError):
        universal_probability_exact(BarycentricVector((0.5, 0.5)), 2, part)


def test_mc_average_with_partition(rng):
    x = BarycentricVector(tuple(random_interior_state(rng, 4)))
    part = OutcomePartition.of([[1, 2], [3, 4]])
    probs, errs = mc_batch(x, 8, 400, 400, rng, part)
    target = np.array(
        [x.components[0] + x.components[1], x.components[2] + x.components[3]]
    )
    assert probs.shape == errs.shape == (2,)
    assert (errs > 0).all()
    assert abs(probs.sum() - 1.0) < 1e-9
    assert (np.abs(probs - target) <= 4 * errs + 1e-12).all()
    with pytest.raises(ValueError):
        mc_batch(x, 8, 4, 4, rng, OutcomePartition.singletons(3))
    with pytest.raises(ValueError):
        mc_batch(x, MAX_CELLS + 1, 4, 4, rng)
    with pytest.raises(ValueError, match="at least one point sample"):
        mc_batch(x, 8, 4, 0, rng)


def test_mc_agrees_with_exact_two_outcomes(rng):
    x = BarycentricVector((0.3, 0.7))
    exact = universal_probability_exact(x, 5)
    probs, errs = mc_batch(x, 5, 600, 400, rng)
    assert (np.abs(probs - exact) <= 4 * errs + 1e-12).all()


def test_convergence_scan_with_partition(rng):
    x = BarycentricVector(tuple(random_interior_state(rng, 3)))
    part = OutcomePartition.of([[2, 3], [1]])
    rows = convergence_scan(x, [4, 9], partition=part)
    assert len(rows) == 4
    target = {1: x.components[1] + x.components[2], 2: x.components[0]}
    for r in rows:
        assert abs(r["probability"] - target[r["outcome_index"]]) < 1e-12
        assert abs(r["deviation"]) < 1e-12


def test_convergence_scan_exact_and_mc():
    x = BarycentricVector((0.25, 0.75))
    rows = convergence_scan(x, [1, 2, 3], method="exact")
    assert len(rows) == 6
    for r in rows:
        assert r["stderr"] == 0.0
        assert abs(r["deviation"]) < 1e-12
    rows = convergence_scan(
        x, [4], seed=20260815, method="mc", density_samples=300, point_samples=300
    )
    for r in rows:
        assert abs(r["deviation"]) <= 4 * r["stderr"] + 1e-12
    with pytest.raises(ValueError):
        convergence_scan(x, [2], method="bogus")
    with pytest.raises(ValueError):
        convergence_scan(x, [2], method="mc")  # seed required
    for sizes in ({"density_samples": 1}, {"point_samples": 0}):
        with pytest.raises(ValueError, match="at least two density samples"):
            convergence_scan(x, [2], seed=1, method="mc", **sizes)


def test_convergence_scan_mc_starts_every_cell_count_from_the_seed():
    # each cell count draws from its own generator seeded with `seed`, so
    # its rows do not depend on the other counts listed
    x = BarycentricVector((0.2, 0.3, 0.5))
    sizes = {"seed": 5, "method": "mc", "density_samples": 300, "point_samples": 50}
    both = convergence_scan(x, [4, 9], **sizes)
    alone = convergence_scan(x, [9], **sizes)
    assert [r for r in both if r["n_c"] == 9] == alone
    assert convergence_scan(x, [9], **sizes) == alone
