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
exponentials divided by their sum are uniform on the simplex.  Every
standard exponential in the package is -log(1 - U) of a uniform U, filled
in place by _exponential_column.  The utr and complementary trials never
divide: since a region depends only on the direction of a row, they compare
the raw exponentials, and P(i) = x_i still holds exactly.  They draw one
outcome column at a time, when the region pass reads it, into a column the
pass owns, so a trial block holds a few (m,) arrays at any n and no (n, m)
draw is ever built.  _exponential_regions draws a column for each support
outcome of x, in ascending order, and nothing for an outcome it never
reads; utr's _regions_at_break_point reads, and so draws, every column.  A
ratio column takes three passes over the draw, 1 - U, its log, and one
product with -min(1 / x_j, float max) where regions_of_batch negates and
divides by x_j; each product is within about 1.5 ulp of the quotient, so
only ratios that TIE_RTOL already calls tied can change order, and the
regions and ties are those regions_of_batch finds on the same draw.

sample_uniform_batch is the package's one normalised uniform draw; the
slab cells of cells.sample_in_cells take their remainders from it.  It
draws one (m, n) array and divides it in place by row sums added up column
by column, so it holds one (m, n) and one (m,) array.  For n <= 7 those
sums, and so the points, have the same bits as numpy's own row sum; wider
rows may differ in the last bit.  A row of n zero uniforms, which has no
direction, is drawn again.

OutcomePartition owns the grouping of outcomes into blocks.  It builds its
outcome-to-block map once, checks that a state has the outcomes it covers
(check_state), sums per-outcome values by block (aggregate) and tallies
sampled regions by block (count); every sampled estimate in the package
tallies its regions through count.

_subset_masks builds the masks of every nonempty subset of the outcomes,
the package's one enumeration of subsets: the Born oracle checks each
subset as a block, and utr's complementary law sums over them.

Outcome indices are 1-based everywhere in the public API.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import UnstableEquilibriumError, brief

__all__ = [
    "BarycentricVector",
    "MAX_BOUNDARY_RETRIES",
    "OutcomePartition",
    "SUM_TOL",
    "TIE_RTOL",
    "facet_measure",
    "height",
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

# Scratch bytes one chunk of a chunked kernel may hold.  Each kernel sizes
# its chunks from its own bytes per item: universal.mc_batch per break
# point, cells' triangle clipping per cell and hilbert.oracle_deviation per
# state.  The chunk size bounds memory only; it moves no result bit.
CHUNK_BYTES = 1 << 20


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
            raise ValueError(f"non-finite component in {brief(comps)}")
        if any(c < 0.0 for c in comps):
            raise ValueError(f"negative component in {brief(comps)}")
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
    """Disjoint blocks of outcome indices covering {1..n}; a block that is
    empty or lists an outcome twice is refused, and an index that is not an
    integer raises TypeError.

    Grouping outcomes into blocks turns the n-outcome measurement into a
    coarser one: a block fires when any of its members does.  The partition
    owns the grouping: the map from outcome to block is built once, on
    construction, and every block sum (aggregate) and every tally of
    sampled regions (count) reads it.
    """

    blocks: tuple[frozenset[int], ...]
    _map: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        listed = tuple(tuple(operator.index(i) for i in b) for b in self.blocks)
        blocks = tuple(frozenset(b) for b in listed)
        if not blocks:
            raise ValueError("a partition needs at least one block")
        if any(not b for b in blocks):
            raise ValueError("empty block in partition")
        if any(len(b) != len(set(b)) for b in listed):
            raise ValueError(f"a block of {brief(list(map(list, listed)))} lists an outcome twice")
        n = sum(len(b) for b in blocks)
        if set().union(*blocks) != set(range(1, n + 1)):
            raise ValueError(f"blocks {brief(blocks)} do not partition 1..{n}")
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
        return cls(tuple(tuple(b) for b in blocks))

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
        bincount tallies (group, outcome) pairs, and aggregate adds the
        outcome tallies into their blocks, so no per-region block lookup is
        made; the counts keep the bincount's integer type.  The group
        offsets are in the smallest type that holds the largest bin,
        groups * n, so the one-byte regions of a utr block stay one byte.
        Raises ValueError when a region lies outside 1..n, which
        would otherwise be tallied in a neighbouring group.
        """
        n = self.n
        regions = np.asarray(regions)
        if regions.size and (regions.min() < 1 or regions.max() > n):
            raise ValueError(f"regions must lie in 1..{n}")
        offsets = np.arange(0, groups * n, n, dtype=np.min_scalar_type(groups * n))
        bins = np.reshape(regions, (groups, -1)) + offsets[:, None]
        outcomes = np.bincount(bins.ravel(), minlength=groups * n + 1)[1:].reshape(groups, n)
        return self.aggregate(outcomes).astype(outcomes.dtype)

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


@functools.lru_cache(maxsize=None)
def _subset_masks(n: int) -> np.ndarray:
    """The (2^n - 1, n) masks of every nonempty subset of 1..n: row m - 1
    holds the bits of m, outcome 1 the lowest.

    Built on first use per dimension and kept; the array is read-only
    because every caller shares it.
    """
    masks = (np.arange(1, 1 << n)[:, None] >> np.arange(n)) & 1 == 1
    masks.setflags(write=False)
    return masks


def _ratio_regions(
    cols: np.ndarray, m: int, ratio: Callable[[int, np.ndarray], object]
) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise first argmin of ratio columns and tie mask, in one pass.

    cols holds the 0-based column indices in ascending order; ratio(j, out)
    writes into the (m,) float array out the ratios of column j, np.inf
    where a row excludes it.  The pass owns every array: the smallest ratio
    so far, its index, the runner-up, and one column that each ratio after
    the first is written into, so no (m, n) ratio matrix is ever built.
    The first comparison writes the runner-up, max(lo, r), straight into
    its preallocated array, which has the bits min(inf, max(lo, r)) has;
    only a single support column fills it with inf.  Of equal minima the
    first column wins.  Returns 1-based indices, in the smallest integer
    type that holds the last one, and a boolean tie mask.  A row ties when
    its two smallest ratios agree within TIE_RTOL relatively, which is the
    break-on-boundary condition; a row with one finite ratio has an
    infinite runner-up and never ties.
    """
    lo = np.empty(m)
    ratio(cols[0], lo)
    hi = np.full_like(lo, np.inf) if len(cols) == 1 else np.empty_like(lo)
    # the smallest integer type that holds every index keeps its updates cheap
    idx = np.full(m, cols[0] + 1, dtype=np.min_scalar_type(cols[-1] + 1))
    step, first = np.empty_like(idx), np.empty(m, dtype=bool)
    r, spare = np.empty_like(lo), np.empty_like(lo)
    for k, j in enumerate(cols[1:]):
        ratio(j, r)
        np.less(r, lo, out=first)
        # first * (j + 1) is 0 or the new index, and the new index exceeds
        # every index kept so far because the columns ascend
        np.maximum(idx, np.multiply(first, idx.dtype.type(j + 1), out=step), out=idx)
        # the runner-up is the old minimum where r beats it, else min(hi, r);
        # before the first comparison hi would be inf, so it is max(lo, r)
        if k:
            np.minimum(hi, np.maximum(lo, r, out=spare), out=hi)
        else:
            np.maximum(lo, r, out=hi)
        np.minimum(lo, r, out=lo)
    with np.errstate(invalid="ignore"):
        tie = np.subtract(hi, lo, out=spare) <= np.multiply(hi, TIE_RTOL, out=lo)
    tie &= np.isfinite(hi)
    return idx, tie


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
            f"break point {brief(lam.components)} sits on a region boundary of "
            f"{brief(x.components)}"
        )
    return int(idx[0])


def regions_of_batch(
    x: np.ndarray | BarycentricVector, points: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized region_of for one state against many break points.

    Returns (indices, ties); indices are 1-based, in a small unsigned
    integer type (one byte up to 255 outcomes), and only meaningful where
    ties is False.  One pass over the support columns of x divides each
    column of points by its positive x_j, so no column needs a zero mask,
    and keeps the running minimum, its index and the runner-up.  It keeps
    the divide where _exponential_regions multiplies: points may have
    subnormal coordinates, whose product with 1 / x_j is not within an ulp
    of the quotient.  Both the argmin and the relative tie test are
    invariant under scaling a row, so the rows of points need not be
    normalised.  A vertex state has one support column and never ties.
    Raises ValueError when a raw state x has a negative or non-finite
    component or no positive one, which a BarycentricVector never has, when
    the width of points is not the number of outcomes of x, or when a break
    point has a NaN, infinite or negative coordinate, which no break point
    in the simplex has.
    """
    xv = x.as_array() if isinstance(x, BarycentricVector) else np.asarray(x, dtype=float)
    if not (np.isfinite(xv).all() and (xv >= 0.0).all() and xv.any()):
        raise ValueError(f"state {brief(xv.tolist())} needs finite components >= 0, not all 0")
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[-1] != xv.size:
        raise ValueError(f"break points of width {pts.shape[-1]} for a {xv.size}-outcome state")
    # min and max carry a NaN through, and neither makes a temporary array
    if pts.size and not (pts.min() >= 0.0 and pts.max() < np.inf):
        raise ValueError("break points need finite coordinates >= 0")
    # a subnormal x_j overflows the ratio to inf, which is right: that
    # outcome never wins
    with np.errstate(over="ignore"):
        return _ratio_regions(
            np.flatnonzero(xv > 0.0),
            pts.shape[0],
            lambda j, out: np.divide(pts[:, j], xv[j], out=out),
        )


def _exponential_regions(
    xv: np.ndarray, size: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Regions of `size` break points drawn as raw standard exponentials
    (_exponential_column), one column for each support outcome of x, in
    ascending order, each drawn into the pass's own column when the region
    pass reads it.

    An outcome with x_j = 0 is never read, so its column is never drawn:
    rng serves exactly (support size) * size uniforms.  The exponentials of
    the other outcomes would be independent of those read, so leaving them
    out leaves the law of the regions as it is.  Returns the (indices,
    ties) that regions_of_batch, which never reads the other columns,
    returns on a (size, n) array whose support columns are these draws.
    No (n, size) array is ever held.

    A ratio column takes three passes, 1 - U, its log, and a product with
    -inv_j, inv_j = min(1 / x_j, float max), where regions_of_batch
    negates the log and divides by x_j.  The regions do not move: each
    numerator is 0 or lies in [2^-53, 53 ln 2], so a product is 0, or
    within about 1.5 ulp of the quotient, or both overflow.  Two ratios
    can only change order when they are within 2 ulp, which TIE_RTOL
    already calls a tie, and a tie can only change when the gap is within
    a few ulp of TIE_RTOL.  The cap keeps 0 * inv_j at 0, as 0 / x_j is,
    where a subnormal x_j makes 1 / x_j inf; the capped ratios that are
    left are huge and can neither win nor tie, since some x_i >= 1/n.

    The rows are never divided by their sums.  A break point lam lies in
    A_i when i minimizes lam_j / x_j; scaling the row scales every ratio
    alike, so neither the argmin nor the relative TIE_RTOL test moves, and
    raw exponentials decide regions as their normalised rows, uniform
    simplex points, would.  With the roles swapped (utr's
    _regions_at_break_point, where the row is a state s and the break
    point is fixed) every ratio lam_j / s_j scales by the same row sum too.
    """
    # 1 / 0 is never read: the pass reads support columns only
    with np.errstate(divide="ignore", over="ignore"):
        inv = np.minimum(1.0 / xv, np.finfo(float).max)
    # a capped inv_j can overflow the ratio to inf, which is right: that
    # outcome never wins
    with np.errstate(over="ignore"):
        return _ratio_regions(
            np.flatnonzero(xv > 0.0),
            size,
            lambda j, out: _exponential_column(rng, out, inv[j]),
        )


def _exponential_column(
    rng: np.random.Generator, out: np.ndarray, scale: float = 1.0
) -> np.ndarray:
    """Fill the C-contiguous float64 array out, in place, with standard
    exponentials -log(1 - U) times scale, U = rng.random(out=out), and
    return it.

    This is the package's one source of standard exponentials.  A uniform
    and numpy's vectorised log take less time than the generator's ziggurat
    exponential, which is a scalar loop.  1 - U is exact on the 2^-53 grid
    of U, so every exponential is finite and >= 0: U = 0 gives -0.0, which
    acts as 0, and the tail is cut at 53 ln 2, a mass of 2^-53.  The last
    pass multiplies the log by -scale; at the default scale that is an
    exact negation.  Filling an array of any shape draws the stream of
    rng.random(out.shape).
    """
    rng.random(out=out)
    np.subtract(1.0, out, out=out)
    np.log(out, out=out)
    return np.multiply(out, -scale, out=out)


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
    exponentials (_exponential_column), size * n uniforms, divided in place
    by their sum.

    The sums add the columns left to right into one (size,) array, which is
    faster than a reduce over short rows and allocates no second (size, n)
    array.  numpy sums a row of fewer than 8 terms left to right too, so
    for up to 7 columns the result is bit-identical to
    e / e.sum(axis=1, keepdims=True); wider rows may differ in the last bit.
    A row whose n uniforms are all exactly 0 (chance 2^-53n) sums to -0.0
    and has no direction: it is replaced by a fresh draw of its own, made
    after the batch, until it is nonzero, so the stream moves only after
    such a row.
    """
    if n < 2:
        raise ValueError(f"need at least two outcomes, got n={n}")
    e = _exponential_column(rng, np.empty((size, n)))
    s = e[:, 0].copy()
    for j in range(1, n):
        s += e[:, j]
    # a row of n zero exponentials (n uniforms of exactly 0) has no
    # direction; it is drawn again, after the whole batch
    zero = np.flatnonzero(s == 0.0)
    s[zero] = 1.0
    e /= s[:, None]
    if zero.size:
        e[zero] = sample_uniform_batch(n, zero.size, rng)
    return e
