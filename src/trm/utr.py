"""Uniform tension-reduction measurements on the outcome simplex.

The break point is drawn uniformly from the whole simplex, so the outcome
law is the barycentric coordinate itself: P(outcome i | state x) = x_i, and
for a block of outcomes the probabilities add.  Collapse keeps the block's
components and renormalizes, which makes sequential measurements compose by
plain multiplication of conditional weights.

The same geometry read with the roles of state and break point swapped
gives the complementary law: the break point is held fixed and the state is
uniform.  Closed forms exist for two and three outcomes; complementary_mc
estimates the law for any dimension.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import ImpossibleOutcomeError
from .simplex import (
    BarycentricVector,
    OutcomePartition,
    _exponential_break_points,
    _ratio_regions,
    regions_of_batch,
    resolve_ties,
)

__all__ = [
    "collapse",
    "complementary_mc",
    "complementary_probabilities",
    "outcome_probabilities",
    "product_probability_check",
    "product_relation_residuals",
    "restrict",
    "run_batch",
    "sequential_probability",
]


def outcome_probabilities(x: BarycentricVector, partition: OutcomePartition) -> np.ndarray:
    """Block probabilities under the uniform break law: sums of x over blocks."""
    partition.check_state(x.n)
    return partition.aggregate(x.as_array())


def collapse(
    x: BarycentricVector, partition: OutcomePartition, block_index: int
) -> BarycentricVector:
    """State after a block fires: restriction to the block, renormalized.

    Raises ImpossibleOutcomeError when the block carries zero weight.
    """
    if not 1 <= block_index <= partition.n_blocks:
        raise ValueError(f"block index {block_index} outside 1..{partition.n_blocks}")
    partition.check_state(x.n)
    weight, post = restrict(x.as_array(), partition.block_masks()[block_index - 1])
    if weight == 0.0:
        block = sorted(partition.blocks[block_index - 1])
        raise ImpossibleOutcomeError(f"block {block} has zero weight in {x.components}")
    return BarycentricVector(tuple(post))


def restrict(x: np.ndarray, mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Block weights and renormalized restrictions, the core of collapse.

    x is a (..., n) array of barycentric rows and mask a (..., n) boolean
    block indicator; the two broadcast against each other.  Returns the
    weight of each row's block, shape (...), and the row restricted to its
    block and divided by that weight, shape (..., n).  A zero-weight block
    restricts to all zeros; whether that outcome is impossible is the
    caller's call.
    """
    kept = np.where(mask, x, 0.0)
    weight = kept.sum(axis=-1)
    return weight, kept / np.where(weight == 0.0, 1.0, weight)[..., None]


def run_batch(
    x: BarycentricVector,
    partition: OutcomePartition,
    trials: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Vectorized trial counts per block for `trials` independent events."""
    if trials < 0:
        raise ValueError(f"negative trial count {trials}")
    partition.check_state(x.n)
    support = x.support()
    if len(support) == 1:
        counts = np.zeros(partition.n_blocks, dtype=np.int64)
        counts[partition.block_map()[support[0] - 1]] = trials
        return counts
    xv = x.as_array()
    regions = resolve_ties(
        trials,
        lambda rows: regions_of_batch(xv, _exponential_break_points(x.n, rows.size, rng)),
        f"for state {x.components}",
    )
    return partition.count(regions)[0]


def sequential_probability(
    x: BarycentricVector,
    steps: Sequence[tuple[OutcomePartition, int]],
) -> float:
    """Probability of a chain of block outcomes, collapsing after each step.

    Multiplies the conditional block weights along the chain.  A zero-weight
    block makes the whole path impossible and returns 0.0 outright.
    """
    prob = 1.0
    state = x
    for partition, block_index in steps:
        weights = outcome_probabilities(state, partition)
        if not 1 <= block_index <= partition.n_blocks:
            raise ValueError(f"block index {block_index} outside 1..{partition.n_blocks}")
        w = float(weights[block_index - 1])
        if w == 0.0:
            return 0.0
        prob *= w
        state = collapse(state, partition, block_index)
    return prob


def complementary_probabilities(lam: BarycentricVector) -> np.ndarray:
    """Outcome law when the break point lam is fixed and the state is uniform.

    Two outcomes: (lam_2, lam_1).  Three outcomes, interior lam only:

        P(1) = lam_2 lam_3 (1 + lam_1) / ((1 - lam_2)(1 - lam_3))

    and cyclic permutations.  Other dimensions have no implemented closed
    form; use complementary_mc.
    """
    if lam.n == 2:
        l1, l2 = lam.components
        return np.array([l2, l1])
    if lam.n == 3:
        if any(c <= 0.0 for c in lam.components):
            raise ValueError(
                f"closed form needs an interior break point, got {lam.components}"
            )
        l1, l2, l3 = lam.components
        return np.array(
            [
                l2 * l3 * (1.0 + l1) / ((1.0 - l2) * (1.0 - l3)),
                l3 * l1 * (1.0 + l2) / ((1.0 - l3) * (1.0 - l1)),
                l1 * l2 * (1.0 + l3) / ((1.0 - l1) * (1.0 - l2)),
            ]
        )
    raise ValueError(f"closed form implemented for 2 or 3 outcomes, not {lam.n}")


def _regions_at_break_point(
    lam: np.ndarray, states: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """regions_of_batch with the roles swapped: (indices, ties) of the
    region of each (m, n) state row that contains the one break point lam.
    The denominators change from row to row, so each row excludes its own
    zero components."""
    m = states.shape[0]
    return _ratio_regions(
        np.arange(lam.size),
        lambda j: np.divide(
            lam[j], states[:, j], out=np.full(m, np.inf), where=states[:, j] > 0.0
        ),
    )


def complementary_mc(
    lam: BarycentricVector, trials: int, rng: np.random.Generator
) -> np.ndarray:
    """Monte Carlo estimate of the fixed-break-point law, any dimension.

    Samples states uniformly and tallies which region of each sampled state
    contains lam; boundary hits are resampled.
    """
    if trials <= 0:
        raise ValueError(f"need a positive trial count, got {trials}")
    lv = lam.as_array()
    regions = resolve_ties(
        trials,
        lambda rows: _regions_at_break_point(
            lv, _exponential_break_points(lam.n, rows.size, rng)
        ),
        f"at break point {lam.components}",
    )
    return OutcomePartition.singletons(lam.n).count(regions)[0] / trials


def product_relation_residuals(x: Sequence[float]) -> tuple[float, float, float, float]:
    """Residuals of the four product identities a four-outcome law satisfies
    exactly when it factors over two independent two-outcome laws:

        x1 = (x1+x2)(x1+x3)   x2 = (x1+x2)(x2+x4)
        x3 = (x3+x4)(x1+x3)   x4 = (x3+x4)(x2+x4)
    """
    x1, x2, x3, x4 = (float(c) for c in x)
    return (
        x1 - (x1 + x2) * (x1 + x3),
        x2 - (x1 + x2) * (x2 + x4),
        x3 - (x3 + x4) * (x1 + x3),
        x4 - (x3 + x4) * (x2 + x4),
    )


def product_probability_check(
    x: BarycentricVector | Sequence[float], tol: float = 1e-9
) -> tuple[bool, tuple[float, float, float, float]]:
    """Whether a four-outcome law factors into two independent binary laws.

    Returns the verdict and all four residuals.
    """
    if not isinstance(x, BarycentricVector):
        x = BarycentricVector(tuple(float(v) for v in x))
    if x.n != 4:
        raise ValueError(f"product structure is defined for four outcomes, not {x.n}")
    residuals = product_relation_residuals(x.components)
    return max(abs(r) for r in residuals) <= tol, residuals
