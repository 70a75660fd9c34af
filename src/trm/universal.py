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
that enumeration as its oracle.  The sampling route of convergence_scan
draws subsets and break points instead.  Its kernel, mc_batch, draws a
chunk of densities at once: an (m, n_c) subset bitmask with the empty rows
redrawn and listed in one pass, row by row, as its set-bit columns (the
flat indices of its set bits modulo n_c);
each point's cell picked from its row's stretch of that list with one
uniform u, as entry floor(u k) of the row's k cells; then one
cells.sample_in_cells draw of a break point in every picked cell, whose
outcome regions regions_of_batch finds (resolve_ties redraws only the
points that tie) and OutcomePartition.count tallies per density; it
returns the mean of the per-density estimates and their standard error.
A chunk holds up to MC_CHUNK_ROWS = 16384 break points, so 256 densities
of 64 points are one chunk; the chunk keeps only its cell indices, in the
smallest unsigned type that holds n_c - 1, beside the kernels' scratch,
which peaks near 63 bytes per break point for three outcomes, about 1 MB
per chunk.
convergence_scan tabulates either route against the uniform law over a
range of cell counts.  Its sampling route draws each cell count from one
generator seeded with the scan's seed, on the calling thread, so its bytes
never depend on the worker count.  Two threads over the two cell counts
of the universal_mc bench took 0.88-0.90 of one thread's time in median
(quartiles 0.72-1.03), a gain too small and too noisy to shard for.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .cells import cell_fraction_in_regions, check_subdivision, sample_in_cells
from .simplex import BarycentricVector, OutcomePartition, regions_of_batch, resolve_ties

__all__ = [
    "convergence_scan",
    "universal_probability_exact",
]

# Break points (densities x point_samples) and subset bits (densities x
# n_cells) that mc_batch draws per chunk.  A chunk's scratch peaks at about
# 63 bytes per break point for three outcomes (tracemalloc, 256 densities of
# 64 points on 25 cells), so about 1 MB per chunk; the test suite bounds
# it at 80 bytes.  A chunk holds at least one density, whose subset has at
# most cells.MAX_CELLS bits; a density with more points than this draws them
# in chunks of this size.
MC_CHUNK_ROWS = 16384


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


def mc_batch(
    x: BarycentricVector,
    n_cells: int,
    density_samples: int,
    point_samples: int,
    rng: np.random.Generator,
    partition: OutcomePartition | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """(mean, stderr) per block of the outcome laws of density_samples
    sampled densities, each estimated from point_samples break points,
    drawn from rng in chunks of up to MC_CHUNK_ROWS break points;
    convergence_scan's sampling route makes one call per cell count.

    stderr is the sample standard deviation (denominator density_samples
    - 1) of the per-density estimates over sqrt(density_samples), so it
    refuses fewer than two densities, which leave no spread, and a density
    without a point.  Block aggregation happens per density, before
    squaring, so the standard errors account for within-block correlations.
    """
    if density_samples < 2 or point_samples < 1:
        raise ValueError(
            "need at least two density samples and at least one point sample, "
            f"got {density_samples} and {point_samples}"
        )
    xv = x.as_array()
    check_subdivision(x.n, n_cells)
    partition = _grouping(x, partition)
    sums = np.zeros((2, partition.n_blocks))
    per_chunk = max(1, MC_CHUNK_ROWS // max(point_samples, n_cells))
    for drawn in range(0, density_samples, per_chunk):
        m = min(per_chunk, density_samples - drawn)
        cells, start, k = _draw_subsets(m, n_cells, rng)
        counts = np.zeros((m, partition.n_blocks))
        # a density with more points than a chunk holds draws them in parts
        for done in range(0, point_samples, MC_CHUNK_ROWS):
            p = min(MC_CHUNK_ROWS, point_samples - done)
            # the uniforms and positions die with the pick, so only the cell
            # indices stay alive beside the kernels' scratch
            idx = _pick_cells(cells, start, k, rng.random((m, p))).ravel()
            counts += partition.count(
                resolve_ties(
                    idx.size,
                    lambda rows, count: regions_of_batch(
                        xv, sample_in_cells(x.n, n_cells, idx[rows], rng)
                    ),
                    "in cellular sampling",
                ),
                m,
            )
        p_hat = counts / point_samples
        sums[0] += p_hat.sum(axis=0)
        sums[1] += (p_hat**2).sum(axis=0)
        # nothing of a chunk outlives it: an array kept into the next chunk
        # splits the freed heap, and that chunk's scratch then grows it
        del cells, start, k, idx, counts, p_hat
    d = density_samples
    var = np.clip((sums[1] - sums[0] ** 2 / d) / (d - 1), 0.0, None)
    return sums[0] / d, np.sqrt(var / d)


def _draw_subsets(
    m: int, n_cells: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """m breakable subsets, uniform among the nonempty ones, as (cells,
    start, k): row r's k[r] breakable cells (0-based) are
    cells[start[r]:start[r] + k[r]], in cell order.  cells comes in the
    smallest unsigned type that holds n_cells - 1, and so do the cell
    indices picked from it.

    Only the empty rows of the bitmask are drawn again.  The set bits are
    listed in one pass, as their flat indices modulo n_cells, which gives
    the values and dtype of np.nonzero(bits)[1] without its row indices.
    """
    bits = rng.random((m, n_cells)) < 0.5
    empty = np.flatnonzero(~bits.any(axis=1))
    while empty.size:
        bits[empty] = rng.random((empty.size, n_cells)) < 0.5
        empty = empty[~bits[empty].any(axis=1)]
    # row-major order lists each row's set bits in cell order
    cells = (np.flatnonzero(bits) % n_cells).astype(np.min_scalar_type(n_cells - 1))
    k = bits.sum(axis=1)
    return cells, np.cumsum(k) - k, k


def _pick_cells(
    cells: np.ndarray, start: np.ndarray, k: np.ndarray, u: np.ndarray
) -> np.ndarray:
    """(m, points) cells picked from the m subsets (cells, start, k) by the
    uniforms u in [0, 1): u[r, j] picks cells[start[r] + floor(u[r, j] k[r])].

    floor(u k) stays below k for every u < 1 and k < 2^53: the largest u,
    1 - 2^-53, gives k - k 2^-53, which is a float when k is a power of two
    and otherwise lies more than half an ulp below k, so round-to-nearest
    never lifts it to k.  The floor comes before the row start is added,
    since start + u k could round up to start + k, the next row's first
    cell.  u takes the 2^53 values i 2^-53; the grid and the rounding of
    the product each move a bin edge by at most one of them, so every cell
    of a row is picked with probability 1/k within a relative error of
    2k 2^-53.
    """
    pos = (u * k[:, None]).astype(np.intp)
    pos += start[:, None]
    return cells.take(pos)


def _grouping(x: BarycentricVector, partition: OutcomePartition | None) -> OutcomePartition:
    """The partition (singletons when None), checked against the state."""
    partition = partition or OutcomePartition.singletons(x.n)
    partition.check_state(x.n)
    return partition


def convergence_scan(
    x: BarycentricVector,
    cell_counts: Sequence[int],
    seed: int | None = None,
    method: str = "exact",
    density_samples: int = 1000,
    point_samples: int = 1000,
    partition: OutcomePartition | None = None,
) -> list[dict[str, float | int]]:
    """Average-vs-uniform-law deviation per cell count and outcome.

    Returns one row per (n_c, outcome_index) with the estimated probability,
    its standard error (zero for the exact route), and the signed deviation
    from the uniform law.  With a partition, rows are per block and the
    reference is the block sum of x.

    The mc route draws breakable subsets uniformly among the nonempty ones
    (rejection on the empty draw), estimates each density's outcome law
    from point_samples breaks, and averages; the standard error is the
    spread of the per-density estimates over sqrt(density_samples).  Each
    cell count is one mc_batch call on a fresh generator seeded with
    `seed`, so its rows do not depend on the other counts listed; it runs
    on the calling thread (see the module docstring); mc_batch refuses
    fewer than two densities, which leave no spread to report, and a
    density without a point.
    """
    if method not in ("exact", "mc"):
        raise ValueError(f"method must be 'exact' or 'mc', got {method!r}")
    if method == "mc" and seed is None:
        raise ValueError("the mc route needs a seed")
    partition = _grouping(x, partition)
    rows: list[dict[str, float | int]] = []
    xv = partition.aggregate(x.as_array())
    for n_c in cell_counts:
        if method == "exact":
            probs = universal_probability_exact(x, n_c, partition)
            errs = np.zeros(len(xv))
        else:
            probs, errs = mc_batch(
                x, n_c, density_samples, point_samples, np.random.default_rng(seed), partition
            )
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
