"""Uniform tension-reduction measurements on the outcome simplex.

The break point is drawn uniformly from the whole simplex, so the outcome
law is the barycentric coordinate itself: P(outcome i | state x) = x_i, and
for a block of outcomes the probabilities add.  Collapse keeps the block's
components and renormalizes, which makes sequential measurements compose by
plain multiplication of conditional weights.

The same geometry read with the roles of state and break point swapped
gives the complementary law: the break point is held fixed and the state is
uniform.  complementary_probabilities computes it exactly, by one
inclusion-exclusion sum over the nonempty outcome subsets, for up to
COMPLEMENTARY_MAX_N outcomes; complementary_mc estimates it for any
dimension.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .errors import ImpossibleOutcomeError, UnstableEquilibriumError, brief
from .simplex import (
    BarycentricVector,
    OutcomePartition,
    _exponential_column,
    _exponential_regions,
    _ratio_regions,
    _subset_masks,
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

# Largest product-relation residual, or amplitude determinant, of a law or
# state that still counts as a product.
PRODUCT_TOL = 1e-9

# Most outcomes complementary_probabilities takes.  Its sum has n 2^(n-1)
# terms, so time and the rounding error it piles up grow with n: at 16
# outcomes a call takes about 40 ms and lands about 1e-14 from a 40-digit
# reference.
COMPLEMENTARY_MAX_N = 16


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
        raise ImpossibleOutcomeError(
            f"block {brief(block)} has zero weight in {brief(x.components)}"
        )
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
    """Vectorized trial counts per block for `trials` independent events.

    A vertex state needs no case of its own: its one support column never
    ties, so every trial lands in the vertex's block."""
    if trials < 0:
        raise ValueError(f"negative trial count {trials}")
    partition.check_state(x.n)
    xv = x.as_array()
    regions = resolve_ties(
        trials,
        lambda rows, count: _exponential_regions(xv, count, rng),
        f"for state {brief(x.components)}",
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

    A uniform state is n standard exponentials E_j up to scale, and lam lies
    in region i of it when i maximizes E_i / lam_i: outcome i is the last
    arrival among exponential clocks of rates lam_j.  Inclusion-exclusion
    over the nonempty outcome subsets T gives

        P_i = sum over T containing i of (-1)^(|T| - 1) lam_i / lam(T),

    where lam(T) sums lam over T; the term of T = {i} is 1, and two
    outcomes give (lam_2, lam_1).  Each outcome's terms are added by
    math.fsum.  The boundary follows complementary_mc: a lam with one zero
    component j lies in region j of every state, so the law is the vertex
    e_j, and a lam with two or more zeros lies on a region boundary of every
    state and raises UnstableEquilibriumError.  More than
    COMPLEMENTARY_MAX_N outcomes raise ValueError; use complementary_mc.
    """
    if lam.n > COMPLEMENTARY_MAX_N:
        raise ValueError(f"{lam.n} outcomes exceed {COMPLEMENTARY_MAX_N}; use complementary_mc")
    zero = lam.as_array() == 0.0
    if zero.sum() > 1:
        raise UnstableEquilibriumError(
            f"break point {brief(lam.components)} lies on a region boundary of every state"
        )
    if zero.any():
        return zero.astype(float)
    masks = _subset_masks(lam.n)
    # row T, column i: (-1)^(|T| - 1) lam_i / lam(T), read where T holds i
    terms = np.where(masks, lam.as_array(), 0.0)
    signs = np.where(masks.sum(axis=1) % 2 == 1, 1.0, -1.0)
    terms /= (signs * terms.sum(axis=1))[:, None]
    return np.array([math.fsum(terms[m, i].tolist()) for i, m in enumerate(masks.T)])


def _regions_at_break_point(
    lam: np.ndarray, m: int, column: Callable[[int, np.ndarray], object]
) -> tuple[np.ndarray, np.ndarray]:
    """regions_of_batch with the roles swapped: (indices, ties) of the
    region of each of m states that contains the one break point lam.

    column(j, out) writes component j of every state into the (m,) array
    out; it is called once for each j, in ascending order, and the pass
    turns out into the ratios in place.  The denominators change from row
    to row, so each row excludes its own zero components.
    """

    def ratio(j: int, out: np.ndarray) -> None:
        column(j, out)
        positive = out > 0.0
        np.divide(lam[j], out, out=out, where=positive)
        out[~positive] = np.inf

    return _ratio_regions(np.arange(lam.size), m, ratio)


def complementary_mc(
    lam: BarycentricVector, trials: int, rng: np.random.Generator
) -> np.ndarray:
    """Monte Carlo estimate of the fixed-break-point law, any dimension.

    Samples states uniformly and tallies which region of each sampled state
    contains lam; boundary hits are resampled.  The states are raw standard
    exponentials (simplex._exponential_column), one outcome column drawn
    each time the region pass reads one; the pass reads every column, so a
    draw of m states takes n * m uniforms, column by column.
    """
    if trials <= 0:
        raise ValueError(f"need a positive trial count, got {trials}")
    lv = lam.as_array()
    regions = resolve_ties(
        trials,
        lambda rows, count: _regions_at_break_point(
            lv, count, lambda j, out: _exponential_column(rng, out)
        ),
        f"at break point {brief(lam.components)}",
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
    x: BarycentricVector | Sequence[float],
) -> tuple[bool, tuple[float, float, float, float]]:
    """Whether a four-outcome law factors into two independent binary laws,
    within PRODUCT_TOL.

    Returns the verdict and all four residuals.
    """
    if not isinstance(x, BarycentricVector):
        x = BarycentricVector(tuple(float(v) for v in x))
    if x.n != 4:
        raise ValueError(f"product structure is defined for four outcomes, not {x.n}")
    residuals = product_relation_residuals(x.components)
    return max(abs(r) for r in residuals) <= PRODUCT_TOL, residuals
