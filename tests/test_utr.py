"""Measurement law on the simplex: outcome statistics, degenerate blocks,
sequential chains, fixed-break-point laws, and the product-state relations."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trm import (
    BarycentricVector,
    ImpossibleOutcomeError,
    OutcomePartition,
    collapse,
    complementary_mc,
    complementary_probabilities,
    outcome_probabilities,
    product_probability_check,
    product_relation_residuals,
    regions_of_batch,
    run_batch,
    sequential_probability,
)
from trm.simplex import iter_partitions
from trm.utr import _regions_at_break_point

from conftest import random_interior_state

X4 = BarycentricVector((0.1, 0.2, 0.3, 0.4))
COARSE = OutcomePartition.of([[1, 2], [3, 4]])


def test_singleton_probabilities_are_the_state():
    p = outcome_probabilities(X4, OutcomePartition.singletons(4))
    np.testing.assert_allclose(p, [0.1, 0.2, 0.3, 0.4], atol=1e-15)


def test_block_probabilities_are_sums():
    np.testing.assert_allclose(outcome_probabilities(X4, COARSE), [0.3, 0.7], atol=1e-15)


def test_collapse_renormalizes_within_block():
    post = collapse(X4, COARSE, 2)
    np.testing.assert_allclose(post.components, [0.0, 0.0, 0.3 / 0.7, 0.4 / 0.7], atol=1e-15)


def test_collapse_zero_weight_block_is_impossible():
    x = BarycentricVector((0.5, 0.5, 0.0, 0.0))
    with pytest.raises(ImpossibleOutcomeError):
        collapse(x, COARSE, 2)


def test_run_batch_frequencies_within_bands(rng):
    trials = 200_000
    counts = run_batch(X4, OutcomePartition.singletons(4), trials, rng)
    assert counts.sum() == trials
    freqs = counts / trials
    sigma = np.sqrt(X4.as_array() * (1 - X4.as_array()) / trials)
    assert (np.abs(freqs - X4.as_array()) <= 4 * sigma).all()


def _normalised_outcome_major_draw(seed, n, size):
    """The draw run_batch and complementary_mc make from a fresh generator,
    written the long way: (n, size) exponentials, transposed so each row
    is one trial, and each row divided by its sum."""
    e = np.random.default_rng(seed).standard_exponential((n, size)).T
    return e / e.sum(axis=1, keepdims=True)


@pytest.mark.parametrize(
    "x, blocks",
    [
        ((0.1, 0.2, 0.3, 0.4), [[1, 4], [2], [3]]),
        ((0.05, 0.1, 0.0, 0.2, 0.3, 0.35), [[1, 6], [2, 3], [4], [5]]),
    ],
)
def test_raw_draws_decide_as_normalised_points_do(x, blocks):
    # run_batch and complementary_mc never divide their exponentials by the
    # row sums; a tally of the normalised copy of the same draw must agree
    x, p, trials = BarycentricVector(x), OutcomePartition.of(blocks), 50_000
    pts = _normalised_outcome_major_draw(7, x.n, trials)
    idx, tie = regions_of_batch(x, pts)
    assert not tie.any()
    expect = [np.isin(idx, sorted(b)).sum() for b in p.blocks]
    assert run_batch(x, p, trials, np.random.default_rng(7)).tolist() == expect
    idx, tie = _regions_at_break_point(x.as_array(), pts)
    assert not tie.any()
    freqs = complementary_mc(x, trials, np.random.default_rng(7))
    np.testing.assert_array_equal(freqs, np.bincount(idx, minlength=x.n + 1)[1:] / trials)


@pytest.mark.parametrize("n", [2, 4, 6])
def test_trial_kernels_hold_the_draw_and_a_few_columns(n, rng):
    # the (m, n) draw and about six (m,) arrays; an (m, n) ratio matrix
    # next to the draw exceeds the bound, and so does, at n = 6, a
    # normalised (m, n) copy made while the draw is alive
    m = 65536
    x = BarycentricVector(tuple(random_interior_state(rng, n)))
    p = OutcomePartition.singletons(n)
    for run in (lambda: run_batch(x, p, m, rng), lambda: complementary_mc(x, m, rng)):
        tracemalloc.start()
        try:
            run()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < (n + 7) * 8 * m


def test_run_batch_vertex_state_is_deterministic(rng):
    x = BarycentricVector((0.0, 0.0, 1.0, 0.0))
    counts = run_batch(x, COARSE, 1000, rng)
    assert counts.tolist() == [0, 1000]
    # a vertex has one support column, so its one ratio never ties and every
    # trial lands in the vertex's block, for every vertex and grouping
    for n in (2, 3, 4, 5):
        for j in range(1, n + 1):
            x = BarycentricVector(tuple(float(i == j) for i in range(1, n + 1)))
            for blocks in iter_partitions(n):
                partition = OutcomePartition(blocks)
                counts = run_batch(x, partition, 300, rng)
                expected = [0] * partition.n_blocks
                expected[partition.block_of(j) - 1] = 300
                assert counts.tolist() == expected, (j, blocks)


def test_run_batch_subnormal_component_raises_no_warning(rng):
    # lam_1 / 1e-320 overflows to inf, which only says that outcome 1 never
    # wins; the suite turns a RuntimeWarning into an error
    counts = run_batch(BarycentricVector((1e-320, 1.0)), OutcomePartition.singletons(2), 1000, rng)
    assert counts.tolist() == [0, 1000]


def test_sequential_two_step_identity(rng):
    """Chaining the two interleaved pairings isolates a single outcome:
    the product of block weights telescopes to the bare component."""
    a = OutcomePartition.of([[1, 3], [2, 4]])
    b = OutcomePartition.of([[1, 2], [3, 4]])
    for _ in range(100):
        x = BarycentricVector(tuple(random_interior_state(rng, 4)))
        for i in range(1, 5):
            pa = a.block_of(i)
            pb = b.block_of(i)
            forward = sequential_probability(x, [(a, pa), (b, pb)])
            backward = sequential_probability(x, [(b, pb), (a, pa)])
            assert abs(forward - x.components[i - 1]) < 1e-12
            assert abs(backward - x.components[i - 1]) < 1e-12


def test_sequential_zero_weight_path_is_zero():
    x = BarycentricVector((0.5, 0.5, 0.0, 0.0))
    assert sequential_probability(x, [(COARSE, 2), (COARSE, 1)]) == 0.0


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_sequential_chain_matches_manual_product(seed):
    gen = np.random.default_rng(seed)
    x = BarycentricVector(tuple(random_interior_state(gen, 4)))
    a = OutcomePartition.of([[1, 3], [2, 4]])
    b = OutcomePartition.of([[1, 2], [3, 4]])
    manual = outcome_probabilities(x, a)[0] * outcome_probabilities(collapse(x, a, 1), b)[1]
    assert abs(sequential_probability(x, [(a, 1), (b, 2)]) - manual) < 1e-15


def test_complementary_two_outcomes_swaps():
    lam = BarycentricVector((0.3, 0.7))
    np.testing.assert_allclose(complementary_probabilities(lam), [0.7, 0.3], atol=1e-15)


def test_complementary_three_outcome_reference_point():
    lam = BarycentricVector((0.5, 0.25, 0.25))
    np.testing.assert_allclose(
        complementary_probabilities(lam), [1 / 6, 5 / 12, 5 / 12], atol=1e-12
    )


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_complementary_three_outcomes_sums_to_one(seed):
    gen = np.random.default_rng(seed)
    lam = BarycentricVector(tuple(random_interior_state(gen, 3)))
    assert abs(complementary_probabilities(lam).sum() - 1.0) < 1e-12


def test_complementary_needs_interior_point():
    with pytest.raises(ValueError):
        complementary_probabilities(BarycentricVector((0.0, 0.5, 0.5)))
    with pytest.raises(ValueError):
        complementary_probabilities(BarycentricVector((0.25, 0.25, 0.25, 0.25)))


def test_complementary_mc_agrees_with_closed_form(rng):
    trials = 100_000
    for lam in [(0.5, 0.25, 0.25), (0.2, 0.5, 0.3), (0.4, 0.6)]:
        v = BarycentricVector(lam)
        exact = complementary_probabilities(v)
        est = complementary_mc(v, trials, rng)
        sigma = np.sqrt(exact * (1 - exact) / trials)
        assert (np.abs(est - exact) <= 4 * sigma).all(), (lam, est, exact)


def test_product_state_relations_vanish():
    # x = a (x) b has all four cross relations exactly satisfied
    a, b = 0.3, 0.8
    x = (a * b, a * (1 - b), (1 - a) * b, (1 - a) * (1 - b))
    assert max(abs(r) for r in product_relation_residuals(x)) < 1e-15
    ok, _ = product_probability_check(x)
    assert ok


def test_entangled_state_relations_fail():
    x = (0.0, 0.5, 0.5, 0.0)
    residuals = product_relation_residuals(x)
    assert abs(residuals[0] - (-0.25)) < 1e-12
    ok, got = product_probability_check(x)
    assert not ok and got == residuals
