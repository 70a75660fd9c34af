"""Geometry of the regular outcome simplex.

An N-outcome measurement is modelled on the (N-1)-simplex spanned by the
orthonormal basis vectors of R^N.  A state is a barycentric vector x on the
simplex.  Joining x to the N sub-simplexes opposite each vertex splits the
simplex into N convex regions A_1..A_N; a uniformly sampled break point
selects the region that contains it, and that region's index is the outcome.

Closed forms used throughout (orthonormal-vertex embedding):

    measure of the full simplex      sqrt(N) / (N-1)!
    measure of one facet             sqrt(N-1) / (N-2)!
    height of x over facet i         sqrt(N/(N-1)) * x_i
    measure of region A_i            sqrt(N) / (N-1)! * x_i

so the uniform break law reproduces P(outcome i) = x_i exactly.

The break point lam lies in A_i when i minimizes lam_j / x_j over the
support of x.  regions_of_batch decides this for many break points in one
pass over the n columns: it keeps the smallest ratio so far, its index and
the runner-up, and calls a row tied (on a region boundary) when the two
smallest ratios agree within TIE_RTOL relatively.  Both the argmin and the
relative tie test are invariant under scaling a row.

Uniform break points are normalised exponential spacings: n iid standard
exponentials divided by their sum are uniform on the simplex.  The utr and
complementary trials never divide: since a region depends only on the
direction of a row, they compare the raw exponentials, drawn outcome-major
by _exponential_break_points so that every column the region pass reads is
contiguous, and P(i) = x_i still holds exactly.  This revision changed the
utr and complementary random streams accordingly.

sample_uniform_batch remains the public normalised sampler, with no caller
in the library.  It draws one (m, n) array and divides it in place by row
sums added up column by column, so it holds one (m, n) and one (m,) array.
For n <= 7 those sums, and so the points, have the same bits as numpy's own
row sum; wider rows may differ in the last bit.

OutcomePartition owns the grouping of outcomes into blocks.  It builds its
outcome-to-block map once, checks that a state has the outcomes it covers
(check_state), sums per-outcome values by block (aggregate) and tallies
sampled regions by block (count); every sampled estimate in the package
tallies its regions through count.

Outcome indices are 1-based everywhere in the public API.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import UnstableEquilibriumError

__all__ = [
    "BarycentricVector",
    "MAX_BOUNDARY_RETRIES",
    "OutcomePartition",
    "SUM_TOL",
    "TIE_RTOL",
    "facet_measure",
    "height",
    "iter_partitions",
    "region_measure",
    "region_of",
    "regions_of_batch",
    "resolve_ties",
    "sample_uniform_batch",
    "simplex_measure",
]

# How far a component sum may drift from 1 before construction is refused.
SUM_TOL = 1e-9

# Two break-point/state component ratios closer than this (relatively) are
# treated as a tie, i.e. a break on a region boundary.
TIE_RTOL = 1e-12

# Consecutive boundary (tie) draws tolerated before giving up on a row.
MAX_BOUNDARY_RETRIES = 64


@dataclass(frozen=True)
class BarycentricVector:
    """A point of the outcome simplex: nonnegative components summing to 1.

    Construction rejects non-finite or negative components and sums further
    than SUM_TOL from 1, then renormalizes exactly so downstream arithmetic
    can rely on sum(components) == 1 up to float rounding.
    """

    components: tuple[float, ...]

    def __post_init__(self) -> None:
        comps = tuple(float(c) for c in self.components)
        if len(comps) < 2:
            raise ValueError("a state needs at least two outcome components")
        if not all(math.isfinite(c) for c in comps):
            raise ValueError(f"non-finite component in {comps}")
        if any(c < 0.0 for c in comps):
            raise ValueError(f"negative component in {comps}")
        total = math.fsum(comps)
        if abs(total - 1.0) > SUM_TOL:
            raise ValueError(f"components sum to {total}, not 1 within {SUM_TOL}")
        object.__setattr__(self, "components", tuple(c / total for c in comps))

    @property
    def n(self) -> int:
        return len(self.components)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.components, dtype=float)


@dataclass(frozen=True)
class OutcomePartition:
    """Disjoint blocks of outcome indices covering {1..n}.

    Grouping outcomes into blocks turns the n-outcome measurement into a
    coarser one: a block fires when any of its members does.  The partition
    owns the grouping: the map from outcome to block is built once, on
    construction, and every block sum (aggregate) and every tally of
    sampled regions (count) reads it.
    """

    blocks: tuple[frozenset[int], ...]
    _map: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        blocks = tuple(frozenset(int(i) for i in b) for b in self.blocks)
        if not blocks:
            raise ValueError("a partition needs at least one block")
        if any(not b for b in blocks):
            raise ValueError("empty block in partition")
        n = sum(len(b) for b in blocks)
        if set().union(*blocks) != set(range(1, n + 1)):
            raise ValueError(f"blocks {blocks} do not partition 1..{n}")
        bmap = np.empty(n, dtype=np.intp)
        for k, b in enumerate(blocks):
            bmap[[i - 1 for i in b]] = k
        bmap.setflags(write=False)
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "_map", bmap)

    @classmethod
    def singletons(cls, n: int) -> "OutcomePartition":
        return cls(tuple(frozenset((i,)) for i in range(1, n + 1)))

    @classmethod
    def of(cls, blocks: Iterable[Iterable[int]]) -> "OutcomePartition":
        return cls(tuple(frozenset(b) for b in blocks))

    @property
    def n(self) -> int:
        return self._map.size

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)

    def check_state(self, n: int) -> None:
        """Refuse a state of n outcomes that this partition does not cover."""
        if n != self.n:
            raise ValueError(f"partition covers 1..{self.n} but state has {n} outcomes")

    def block_of(self, outcome: int) -> int:
        """1-based index of the block containing a 1-based outcome index."""
        if outcome not in range(1, self.n + 1):
            raise ValueError(f"outcome {outcome} outside 1..{self.n}")
        return int(self._map[int(outcome) - 1]) + 1

    def block_masks(self) -> np.ndarray:
        """(n_blocks, n) boolean array: row k marks the outcomes of block k+1."""
        return self._map == np.arange(self.n_blocks)[:, None]

    def count(self, regions: np.ndarray, groups: int = 1) -> np.ndarray:
        """(groups, n_blocks) block tallies of 1-based outcome regions.

        regions holds `groups` equal runs of consecutive entries, one run per
        group (for example one sampled density or one cell each).  One
        bincount tallies (group, outcome) pairs; the outcome columns are then
        added into their blocks, so no per-region block lookup is made.
        Raises ValueError when a region lies outside 1..n, which would
        otherwise be tallied in a neighbouring group.
        """
        n = self.n
        regions = np.asarray(regions)
        if regions.size and (regions.min() < 1 or regions.max() > n):
            raise ValueError(f"regions must lie in 1..{n}")
        bins = np.reshape(regions, (groups, -1)) + n * np.arange(groups)[:, None]
        outcomes = np.bincount(bins.ravel(), minlength=groups * n + 1)[1:].reshape(groups, n)
        counts = np.zeros((groups, self.n_blocks), dtype=outcomes.dtype)
        np.add.at(counts, (slice(None), self._map), outcomes)
        return counts

    def aggregate(self, v: np.ndarray) -> np.ndarray:
        """Block sums over the last axis of a (..., n) array in outcome order.

        Each row is summed in outcome order, so a row's sums do not depend
        on how many rows come with it.  On singletons each sum has one term,
        so the values come back unchanged.
        """
        n, k = self.n, self.n_blocks
        v = np.asarray(v, dtype=float)
        if v.ndim == 0 or v.shape[-1] != n:
            raise ValueError(f"need (..., {n}) per-outcome values, got shape {v.shape}")
        rows = v.reshape(-1, n)
        bins = (np.arange(rows.shape[0])[:, None] * k + self._map).ravel()
        sums = np.bincount(bins, weights=rows.ravel(), minlength=rows.shape[0] * k)
        return sums.reshape(v.shape[:-1] + (k,))


def simplex_measure(n: int) -> float:
    """Lebesgue measure of the full (n-1)-simplex, sqrt(n)/(n-1)!."""
    if n < 2:
        raise ValueError(f"need at least two outcomes, got n={n}")
    return math.sqrt(n) / math.factorial(n - 1)


def facet_measure(n: int) -> float:
    """Measure of one facet (the sub-simplex opposite a vertex)."""
    if n < 2:
        raise ValueError(f"need at least two outcomes, got n={n}")
    return math.sqrt(n - 1) / math.factorial(n - 2)


def height(x: BarycentricVector, i: int) -> float:
    """Distance from x to the facet opposite vertex i: sqrt(n/(n-1)) * x_i."""
    _check_index(x.n, i)
    return math.sqrt(x.n / (x.n - 1)) * x.components[i - 1]


def region_measure(x: BarycentricVector, i: int) -> float:
    """Measure of outcome region A_i, which is simplex_measure(n) * x_i.

    A_i is the cone over the opposite facet with apex x, so its measure is
    facet_measure(n) * height(x, i) / (n-1); the closed form collapses to a
    plain rescaling of the full simplex measure by x_i.
    """
    _check_index(x.n, i)
    return simplex_measure(x.n) * x.components[i - 1]


def _check_index(n: int, i: int) -> None:
    if not 1 <= i <= n:
        raise ValueError(f"outcome index {i} outside 1..{n}")


def _ratio_regions(
    cols: np.ndarray, ratio: Callable[[int], np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise first argmin of ratio columns and tie mask, in one pass.

    cols holds the 0-based column indices in ascending order; ratio(j)
    returns a new (m,) array, which the pass may overwrite, of the ratios of
    column j, np.inf where a row excludes it.
    The pass keeps three (m,) arrays: the smallest ratio so far, its index
    and the runner-up, so no (m, n) ratio matrix is ever built.  Of equal
    minima the first column wins.  Returns 1-based indices and a boolean
    tie mask.  A row ties when its two smallest ratios agree within
    TIE_RTOL relatively, which is the break-on-boundary condition; a row
    with one finite ratio has an infinite runner-up and never ties.
    """
    lo = ratio(cols[0])
    hi = np.full_like(lo, np.inf)
    # the smallest integer type that holds every index keeps its updates cheap
    idx = np.full(lo.shape, cols[0] + 1, dtype=np.min_scalar_type(cols[-1] + 1))
    step, first, spare = np.empty_like(idx), np.empty(lo.shape, dtype=bool), np.empty_like(lo)
    for j in cols[1:]:
        r = ratio(j)
        np.less(r, lo, out=first)
        # first * (j + 1) is 0 or the new index, and the new index exceeds
        # every index kept so far because the columns ascend
        np.maximum(idx, np.multiply(first, idx.dtype.type(j + 1), out=step), out=idx)
        # the runner-up is the old minimum where r beats it, else min(hi, r)
        np.minimum(hi, np.maximum(lo, r, out=spare), out=hi)
        np.minimum(lo, r, out=lo)
    with np.errstate(invalid="ignore"):
        tie = np.subtract(hi, lo, out=spare) <= np.multiply(hi, TIE_RTOL, out=lo)
    tie &= np.isfinite(hi)
    return idx.astype(np.intp), tie


def region_of(
    x: BarycentricVector, lam: BarycentricVector | Sequence[float]
) -> int:
    """Index of the outcome region of x that contains the break point lam.

    The break point lies in A_i exactly when i minimizes lam_j / x_j over
    the support of x.  A state concentrated on a single vertex is an
    eigenstate: its index is returned regardless of lam.  A tie between the
    two smallest ratios means lam sits on a region boundary and raises
    UnstableEquilibriumError so the caller can resample.
    """
    if not isinstance(lam, BarycentricVector):
        lam = BarycentricVector(tuple(float(v) for v in lam))
    if x.n != lam.n:
        raise ValueError(f"dimension mismatch: {x.n} vs {lam.n}")
    idx, tie = regions_of_batch(x, lam.as_array()[None, :])
    if bool(tie[0]):
        raise UnstableEquilibriumError(
            f"break point {lam.components} sits on a region boundary of {x.components}"
        )
    return int(idx[0])


def regions_of_batch(
    x: np.ndarray | BarycentricVector, points: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized region_of for one state against many break points.

    Returns (indices, ties); indices are 1-based and only meaningful where
    ties is False.  One pass over the support columns of x divides each
    column of points by its positive x_j, so no column needs a zero mask,
    and keeps the running minimum, its index and the runner-up.  Both the
    argmin and the relative tie test are invariant under scaling a row, so
    the rows of points need not be normalised.  A vertex state has one
    support column and never ties.  Raises ValueError when the width of
    points is not the number of outcomes of x.
    """
    xv = x.as_array() if isinstance(x, BarycentricVector) else np.asarray(x, dtype=float)
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[-1] != xv.size:
        raise ValueError(f"break points of width {pts.shape[-1]} for a {xv.size}-outcome state")
    # a subnormal x_j overflows the ratio to inf, which is right: that
    # outcome never wins
    with np.errstate(over="ignore"):
        return _ratio_regions(np.flatnonzero(xv > 0.0), lambda j: pts[:, j] / xv[j])


def resolve_ties(
    size: int,
    draw: Callable[[slice | np.ndarray, int], tuple[np.ndarray, np.ndarray]],
    what: str,
) -> np.ndarray:
    """Outcome regions of `size` rows, redrawing the rows whose break ties.

    draw(rows, count) draws `count` fresh break points for the rows that
    `rows` selects and returns (indices, ties) for them, as regions_of_batch
    does.  The first draw covers every row and passes slice(None), so a
    caller that indexes per-row data with it gets a view, not a copy; each
    redraw passes the index array of the rows that tied, in row order.
    Raises UnstableEquilibriumError when rows still tie after
    MAX_BOUNDARY_RETRIES draws; `what` names the sampling in that message.
    """
    out, tie = draw(slice(None), size)
    pending = np.flatnonzero(tie)
    for _ in range(MAX_BOUNDARY_RETRIES - 1):
        if pending.size == 0:
            break
        idx, tie = draw(pending, pending.size)
        out[pending] = idx
        pending = pending[tie]
    if pending.size:
        raise UnstableEquilibriumError(
            f"{MAX_BOUNDARY_RETRIES} consecutive boundary draws {what}"
        )
    return out


def sample_uniform_batch(n: int, size: int, rng: np.random.Generator) -> np.ndarray:
    """(size, n) array of uniform simplex points: each row holds n standard
    exponentials divided, in place, by their sum."""
    if n < 2:
        raise ValueError(f"need at least two outcomes, got n={n}")
    return _normalise_rows(rng.standard_exponential((size, n)))


def _exponential_break_points(n: int, size: int, rng: np.random.Generator) -> np.ndarray:
    """(size, n) break points as raw standard exponentials, outcome-major.

    Each row is a uniform simplex point times a positive scale (its row
    sum), and the rows are never divided by it: outcome regions do not
    depend on that scale.  A break point lam lies in A_i when i minimizes
    lam_j / x_j; scaling the row scales every ratio alike, so neither the
    argmin nor the relative TIE_RTOL test moves.  With the roles swapped
    (_regions_at_break_point, where the row is a state s and the break
    point is fixed) every ratio lam_j / s_j scales by the same row sum too.

    The values are drawn as an (n, size) array and returned transposed, so
    each column pts[:, j] that _ratio_regions reads is contiguous.
    """
    return rng.standard_exponential((n, size)).T


def _normalise_rows(e: np.ndarray) -> np.ndarray:
    """Divide each row of a 2-D array by its sum, in place, and return it.

    The sums add the columns left to right into one (m,) array, which is
    faster than a reduce over short rows and allocates no second (m, n)
    array.  numpy sums a row of fewer than 8 terms left to right too, so
    for up to 7 columns the result is bit-identical to
    e / e.sum(axis=1, keepdims=True); wider rows may differ in the last bit.
    """
    s = e[:, 0].copy()
    for j in range(1, e.shape[1]):
        s += e[:, j]
    e /= s[:, None]
    return e


def iter_partitions(n: int) -> Iterator[tuple[frozenset[int], ...]]:
    """All set partitions of {1..n}, each as a tuple of frozensets.

    Generated in restricted-growth order: element i either joins an existing
    block or opens a new one.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")

    def rec(i: int, blocks: list[list[int]]) -> Iterator[tuple[frozenset[int], ...]]:
        if i > n:
            yield tuple(frozenset(b) for b in blocks)
            return
        for b in blocks:
            b.append(i)
            yield from rec(i + 1, blocks)
            b.pop()
        blocks.append([i])
        yield from rec(i + 1, blocks)
        blocks.pop()

    return rec(1, [])
