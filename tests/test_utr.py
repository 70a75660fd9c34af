"""Measurement law on the simplex: outcome statistics, degenerate blocks,
sequential chains, fixed-break-point laws, and the product-state relations."""

import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import qmc

from trm import (
    BarycentricVector,
    ImpossibleOutcomeError,
    OutcomePartition,
    UnstableEquilibriumError,
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
from trm.utr import COMPLEMENTARY_MAX_N

from conftest import (
    ServedUniforms,
    iter_partitions,
    random_interior_state,
    regions_at_break_point,
    support_exponentials,
)

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


@pytest.mark.parametrize("scramble", [0, 1])
def test_run_batch_law_on_sobol_uniforms(scramble):
    """P(i) = x_i to 1.5e-4 on 2^20 scrambled Sobol trials.

    The kernel is served a 4-dimensional scrambled Sobol sequence, one
    dimension per support column in the order the kernel draws them (every
    column of a trial block, then spare uniforms for redraws).  A
    low-discrepancy draw puts max |f - x| near 3e-5 (5.9e-5 worst over 24
    scrambles at x = (0.1, 0.2, 0.3, 0.4)), against about 5e-4 for
    independent draws, so a bias of 2.1e-4 in any outcome's frequency
    fails: outcome 1's exponential rate scaled by 1.005 moves f_1 by
    -4.5e-4, which a 4 sigma band at 10^6 independent trials (1.2e-3 at
    p = 0.1) does not see.  This pins which uniform feeds which column,
    not the bits.
    """
    trials = 1 << 20
    u = qmc.Sobol(X4.n, seed=scramble).random_base2(20)
    spare = np.random.default_rng(scramble).random(4096)
    served = ServedUniforms(np.concatenate([u.T.ravel(), spare]))
    counts = run_batch(X4, OutcomePartition.singletons(4), trials, served)
    assert counts.sum() == trials
    assert np.abs(counts / trials - X4.as_array()).max() < 1.5e-4


def _normalised_draw(seed, x, size):
    """The draw run_batch makes from a fresh generator for the state x,
    written the long way: the support columns of x as exponentials, one
    row per trial, and each row divided by its sum.  complementary_mc reads
    every column, which is the draw for a state with no zero component."""
    e = support_exponentials(np.random.default_rng(seed), x, size)
    return e / e.sum(axis=1, keepdims=True)


@pytest.mark.stream
@pytest.mark.parametrize(
    "x, blocks",
    [
        ((0.1, 0.2, 0.3, 0.4), [[1, 4], [2], [3]]),
        ((0.05, 0.1, 0.0, 0.2, 0.3, 0.35), [[1, 6], [2, 3], [4], [5]]),
        ((0.3, 0.25, 0.45, 0.0), [[1], [2, 4], [3]]),
    ],
)
def test_raw_draws_decide_as_normalised_points_do(x, blocks):
    # run_batch and complementary_mc never divide their exponentials by the
    # row sums; a tally of the normalised copy of the same draw must agree
    x, p, trials = BarycentricVector(x), OutcomePartition.of(blocks), 50_000
    idx, tie = regions_of_batch(x, _normalised_draw(7, x.as_array(), trials))
    assert not tie.any()
    expect = [np.isin(idx, sorted(b)).sum() for b in p.blocks]
    assert run_batch(x, p, trials, np.random.default_rng(7)).tolist() == expect
    idx, tie = regions_at_break_point(x.as_array(), _normalised_draw(7, np.ones(x.n), trials))
    assert not tie.any()
    freqs = complementary_mc(x, trials, np.random.default_rng(7))
    np.testing.assert_array_equal(freqs, np.bincount(idx, minlength=x.n + 1)[1:] / trials)


@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_trial_kernels_hold_a_few_columns_at_any_n(n, rng):
    # each outcome column is drawn when the region pass reads it, so a
    # block holds about 3.6 (m,) float columns whatever n is: three float
    # columns and the one-byte index, step and masks.  The (m, n) draw
    # held beside the pass, an (m, n) ratio matrix or a fourth float
    # column in the pass exceeds it
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
        assert peak < 4.2 * 8 * m


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


def mpmath_complementary(lam, dps=20):
    """The fixed-break-point law by mpmath quadrature: outcome i is the last
    arrival among exponential clocks of rates lam_j, so

        P_i = integral over t > 0 of lam_i e^(-lam_i t) prod_(j != i) (1 - e^(-lam_j t)),

    split at 1 / max(lam) and 1 / min(lam), the two ends of the clock
    scales."""
    with mpmath.workdps(dps):
        rates = [mpmath.mpf(float(v)) for v in lam]
        knots = [0, 1 / max(rates), 1 / min(rates), mpmath.inf]

        def last(i):
            others = rates[:i] + rates[i + 1 :]
            return mpmath.quad(
                lambda t: rates[i]
                * mpmath.exp(-rates[i] * t)
                * mpmath.fprod(-mpmath.expm1(-r * t) for r in others),
                knots,
            )

        return np.array([float(last(i)) for i in range(len(rates))])


def mpmath_subset_sum(lam, dps=40):
    """The inclusion-exclusion sum of complementary_probabilities carried out
    in dps digits, whose roundings are far below those of the float sum."""
    n = len(lam)
    with mpmath.workdps(dps):
        rates = [mpmath.mpf(float(v)) for v in lam]
        weight = [mpmath.mpf(0)] * (1 << n)
        signed = [mpmath.mpf(0)] * (1 << n)
        for t in range(1, 1 << n):
            low = t & -t
            weight[t] = weight[t ^ low] + rates[low.bit_length() - 1]
            signed[t] = (1 if bin(t).count("1") % 2 else -1) / weight[t]
        return np.array(
            [
                float(rates[i] * mpmath.fsum(signed[t] for t in range(1 << n) if t >> i & 1))
                for i in range(n)
            ]
        )


def three_outcome_closed_form(lam):
    """The closed form complementary_probabilities used for three interior
    outcomes before the general sum: P(1) = lam_2 lam_3 (1 + lam_1) /
    ((1 - lam_2)(1 - lam_3)) and cyclic permutations."""
    l1, l2, l3 = lam
    return np.array(
        [
            l2 * l3 * (1.0 + l1) / ((1.0 - l2) * (1.0 - l3)),
            l3 * l1 * (1.0 + l2) / ((1.0 - l3) * (1.0 - l1)),
            l1 * l2 * (1.0 + l3) / ((1.0 - l1) * (1.0 - l2)),
        ]
    )


def break_points(n, seed):
    """A uniform and a skewed break point: Dirichlet(1) and Dirichlet(0.2)
    draws, components floored at 1e-6 so the clock rates span six decades."""
    gen = np.random.default_rng(seed)
    for alpha in (1.0, 0.2):
        lam = np.maximum(gen.dirichlet([alpha] * n), 1e-6)
        yield BarycentricVector(tuple(lam / lam.sum()))


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_complementary_two_outcomes_swaps(seed):
    lam = BarycentricVector(tuple(random_interior_state(np.random.default_rng(seed), 2)))
    np.testing.assert_allclose(
        complementary_probabilities(lam), lam.components[::-1], rtol=0, atol=1e-15
    )


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


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_complementary_matches_the_three_outcome_closed_form(seed):
    # interior points only: as a component nears 1 the closed form's
    # 1 - lam_j cancels, and it is the less accurate of the two there
    lam = BarycentricVector(tuple(random_interior_state(np.random.default_rng(seed), 3)))
    np.testing.assert_allclose(
        complementary_probabilities(lam),
        three_outcome_closed_form(lam.components),
        rtol=0,
        atol=1e-14,
    )


@pytest.mark.parametrize("n", [4, 5, 6])
def test_complementary_matches_mpmath_quadrature(n):
    # the integral checks the formula itself; the subset sum below checks
    # the float rounding of it up to the cap
    for lam in break_points(n, 100 + n):
        exact = mpmath_complementary(lam.components)
        np.testing.assert_allclose(
            complementary_probabilities(lam), exact, rtol=0, atol=1e-13
        )


@pytest.mark.parametrize("n", range(2, COMPLEMENTARY_MAX_N + 1))
def test_complementary_rounding_matches_mpmath_up_to_the_cap(n):
    for lam in break_points(n, n):
        law = complementary_probabilities(lam)
        np.testing.assert_allclose(law, mpmath_subset_sum(lam.components), rtol=0, atol=1e-13)
        assert abs(law.sum() - 1.0) < 1e-13


@pytest.mark.parametrize("n", [2, 3, 6])
def test_complementary_one_zero_component_gives_its_vertex(n, rng):
    # the sampler agrees: every state's region j holds a lam with lam_j = 0
    for j in range(n):
        lam = np.zeros(n)
        lam[np.arange(n) != j] = random_interior_state(rng, n - 1)
        lam = BarycentricVector(tuple(lam))
        vertex = np.eye(n)[j]
        assert np.array_equal(complementary_probabilities(lam), vertex)
        assert np.array_equal(complementary_mc(lam, 1000, rng), vertex)


@pytest.mark.parametrize("lam", [(0.0, 0.0, 1.0), (0.5, 0.0, 0.2, 0.0, 0.3, 0.0)])
def test_complementary_two_zero_components_are_a_boundary(lam, rng):
    lam = BarycentricVector(lam)
    with pytest.raises(UnstableEquilibriumError, match="boundary"):
        complementary_probabilities(lam)
    with pytest.raises(UnstableEquilibriumError):
        complementary_mc(lam, 1000, rng)


def test_complementary_refuses_more_outcomes_than_the_cap():
    n = COMPLEMENTARY_MAX_N + 1
    with pytest.raises(ValueError, match="complementary_mc"):
        complementary_probabilities(BarycentricVector((1 / n,) * n))


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
