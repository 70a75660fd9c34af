"""Averaging over all cellular break densities.

Fix a subdivision of the simplex into n_c equal-measure cells.  Every
nonempty subset of cells defines a cellular density; averaging the outcome
probabilities over all 2^n_c - 1 of them (and, in the limit, over
subdivisions) models a measurement whose density is itself picked blindly.
For equal-measure cells the average collapses to the uniform law exactly at
every finite n_c: the block mass of region A_i is linear in the cell
indicators and every cell has the same expected weight 1/|B| conditional on
being breakable, so the subset average is just m(A_i)/m(simplex) = x_i.

universal_probability_exact takes each cell's outcome fractions from the
exact cell law of cells.cell_fraction_in_regions, for any number of
outcomes and cells, and averages them over the subsets without enumerating
any: each cell lies in C(n_c-1, k-1) of the C(n_c, k) subsets of size k, so
the subset average of mean_{c in B} f[:, c] is the plain cell mean of f.
No route builds the 2^n_c - 1 densities one by one; the test suite keeps
that enumeration as its oracle.  universal_probability_mc samples subsets
and break points instead.  Its kernel, mc_batch, draws a chunk of densities
at once: an (m, n_c) subset bitmask with the empty rows redrawn, each row's
point cells picked among its set bits, one tie-resolved break-point draw
for all of the chunk's rows, and one OutcomePartition.count for the
per-density estimates.
convergence_scan tabulates either route against the uniform law over a
range of cell counts.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .cells import cell_fraction_in_regions, check_subdivision, sample_in_cells
from .shards import run_sharded
from .simplex import BarycentricVector, OutcomePartition, regions_of_batch, resolve_ties

__all__ = [
    "convergence_scan",
    "universal_probability_exact",
    "universal_probability_mc",
]

# Densities per shard block of convergence_scan's sampling route; a density
# sample is much heavier than a utr trial.
UNIVERSAL_BLOCK = 256

# Break points (densities x point_samples) and subset bits (densities x
# n_cells) that mc_batch draws per chunk; it bounds the chunk's scratch
# arrays to a few hundred kB.  A chunk holds at least one density, whose
# subset has at most cells.MAX_CELLS bits; a density with more points than
# this draws them in chunks of this size.
MC_CHUNK_ROWS = 2048


def universal_probability_exact(
    x: BarycentricVector,
    n_cells: int,
    partition: OutcomePartition | None = None,
) -> np.ndarray:
    """Exact subset-average outcome (or block) probabilities, for any number
    of outcomes and any subdivision that check_subdivision accepts.  The
    average is linear in the outcome indicators, so block probabilities are
    block sums of the singleton average.
    """
    fractions = cell_fraction_in_regions(x.as_array(), x.n, n_cells)
    # the subset average of mean_{c in B} fractions[:, c] is the cell mean
    return _grouping(x, partition).aggregate(fractions.mean(axis=1))


def universal_probability_mc(
    x: BarycentricVector,
    n_cells: int,
    density_samples: int,
    point_samples: int,
    rng: np.random.Generator,
    partition: OutcomePartition | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Monte Carlo subset average.

    Draws breakable subsets uniformly among the nonempty ones (rejection on
    the empty draw), estimates each density's outcome law from point_samples
    breaks, and averages.  Returns (probabilities, standard errors); the
    standard error is the spread of per-density estimates over
    sqrt(density_samples).
    """
    if density_samples < 2 or point_samples < 1:
        raise ValueError("need at least two density samples and one point sample")
    stats = mc_batch(x, n_cells, density_samples, point_samples, rng, partition)
    return mc_combine(stats, density_samples)


def mc_batch(
    x: BarycentricVector,
    n_cells: int,
    density_samples: int,
    point_samples: int,
    rng: np.random.Generator,
    partition: OutcomePartition | None = None,
) -> np.ndarray:
    """Accumulated (2, n_blocks) array of per-density estimate sums and sums
    of squares, the reducible building block of universal_probability_mc.

    Block aggregation happens per density, before squaring, so the combined
    standard errors account for within-block correlations.
    """
    xv = x.as_array()
    check_subdivision(x.n, n_cells)
    partition = _grouping(x, partition)
    sums = np.zeros((2, partition.n_blocks))
    per_chunk = max(1, MC_CHUNK_ROWS // max(point_samples, n_cells))
    for start in range(0, density_samples, per_chunk):
        m = min(per_chunk, density_samples - start)
        order, k = _draw_subsets(m, n_cells, rng)
        counts = np.zeros((m, partition.n_blocks))
        # a density with more points than a chunk holds draws them in parts
        for done in range(0, point_samples, MC_CHUNK_ROWS):
            p = min(MC_CHUNK_ROWS, point_samples - done)
            counts += _block_counts(xv, n_cells, order, k, p, partition, rng)
        p_hat = counts / point_samples
        sums[0] += p_hat.sum(axis=0)
        sums[1] += (p_hat**2).sum(axis=0)
    return sums


def _draw_subsets(
    m: int, n_cells: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """m breakable subsets, uniform among the nonempty ones, as (order, k):
    row r's k[r] breakable cells (0-based) are order[r, :k[r]], in cell order.

    Only the empty rows of the bitmask are drawn again.
    """
    bits = rng.random((m, n_cells)) < 0.5
    empty = np.flatnonzero(~bits.any(axis=1))
    while empty.size:
        bits[empty] = rng.random((empty.size, n_cells)) < 0.5
        empty = empty[~bits[empty].any(axis=1)]
    return np.argsort(~bits, axis=1, kind="stable"), bits.sum(axis=1)


def _block_counts(
    xv: np.ndarray,
    n_cells: int,
    order: np.ndarray,
    k: np.ndarray,
    points: int,
    partition: OutcomePartition,
    rng: np.random.Generator,
) -> np.ndarray:
    """(m, n_blocks) outcome-block counts of `points` break points drawn from
    each of the m subsets (order, k), each point in a uniformly picked
    breakable cell of its row."""
    m = k.size
    pick = rng.integers(0, k[:, None], (m, points))
    idx = np.take_along_axis(order, pick, axis=1).ravel()
    hits = resolve_ties(
        idx.size,
        lambda rows: regions_of_batch(xv, sample_in_cells(xv.size, n_cells, idx[rows], rng)),
        "while averaging",
    )
    return partition.count(hits, m)


def _grouping(x: BarycentricVector, partition: OutcomePartition | None) -> OutcomePartition:
    """The partition (singletons when None), checked against the state."""
    partition = partition or OutcomePartition.singletons(x.n)
    partition.check_state(x.n)
    return partition


def mc_combine(stats: np.ndarray, density_samples: int) -> tuple[np.ndarray, np.ndarray]:
    """Turn accumulated sums/sums-of-squares into (mean, standard error)."""
    d = density_samples
    mean = stats[0] / d
    var = np.clip((stats[1] - stats[0] ** 2 / d) / (d - 1), 0.0, None)
    return mean, np.sqrt(var / d)


def convergence_scan(
    x: BarycentricVector,
    cell_counts: Sequence[int],
    seed: int | None = None,
    method: str = "exact",
    density_samples: int = 1000,
    point_samples: int = 1000,
    partition: OutcomePartition | None = None,
    workers: int = 1,
) -> list[dict[str, float | int]]:
    """Average-vs-uniform-law deviation per cell count and outcome.

    Returns one row per (n_c, outcome_index) with the estimated probability,
    its standard error (zero for the exact route), and the signed deviation
    from the uniform law.  With a partition, rows are per block and the
    reference is the block sum of x.

    The mc route shards mc_batch over blocks of UNIVERSAL_BLOCK densities,
    running every cell count from `seed`, so the rows do not depend on
    `workers`.
    """
    if method not in ("exact", "mc"):
        raise ValueError(f"method must be 'exact' or 'mc', got {method!r}")
    if method == "mc":
        if seed is None:
            raise ValueError("the mc route needs a seed")
        if density_samples < 2 or point_samples < 1:
            raise ValueError("need at least two density samples and one point sample")
    partition = _grouping(x, partition)
    rows: list[dict[str, float | int]] = []
    xv = partition.aggregate(x.as_array())
    for n_c in cell_counts:
        if method == "exact":
            probs = universal_probability_exact(x, n_c, partition)
            errs = np.zeros(len(xv))
        else:
            stats = run_sharded(
                density_samples,
                seed,
                lambda rng, m, n_c=n_c: mc_batch(x, n_c, m, point_samples, rng, partition),
                workers,
                block_size=UNIVERSAL_BLOCK,
            )
            probs, errs = mc_combine(stats, density_samples)
        for i in range(len(xv)):
            rows.append(
                {
                    "n_c": int(n_c),
                    "outcome_index": i + 1,
                    "probability": float(probs[i]),
                    "stderr": float(errs[i]),
                    "deviation": float(probs[i] - xv[i]),
                }
            )
    return rows
