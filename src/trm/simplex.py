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
    "sample_uniform",
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

    def support(self) -> tuple[int, ...]:
        """1-based indices of the strictly positive components."""
        return tuple(i + 1 for i, c in enumerate(self.components) if c > 0.0)


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
        for k, b in enumerate(self.blocks, start=1):
            if outcome in b:
                return k
        raise ValueError(f"outcome {outcome} outside 1..{self.n}")

    def block_map(self) -> np.ndarray:
        """Read-only array mapping 0-based outcome index to 0-based block
        index; the same array on every call."""
        return self._map

    def block_masks(self) -> np.ndarray:
        """(n_blocks, n) boolean array: row k marks the outcomes of block k+1."""
        return self._map == np.arange(self.n_blocks)[:, None]

    def count(self, regions: np.ndarray, groups: int = 1) -> np.ndarray:
        """(groups, n_blocks) block tallies of 1-based outcome regions.

        regions holds `groups` equal runs of consecutive entries, one run per
        group (for example one sampled density or one cell each).
        """
        k = self.n_blocks
        blocks = self._map[np.reshape(regions, (groups, -1)) - 1]
        blocks += k * np.arange(groups)[:, None]
        return np.bincount(blocks.ravel(), minlength=groups * k).reshape(groups, k)

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


def _ratio_regions(num: np.ndarray, den: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise argmin of num/den with den==0 columns excluded.

    Returns 1-based argmin indices and a boolean tie mask.  A row ties when
    its two smallest ratios agree within TIE_RTOL relatively, which is the
    break-on-boundary condition.
    """
    num2 = np.atleast_2d(np.asarray(num, dtype=float))
    den2 = np.atleast_2d(np.asarray(den, dtype=float))
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(den2 > 0.0, num2 / np.where(den2 > 0.0, den2, 1.0), np.inf)
    idx = np.argmin(ratios, axis=1)
    two = np.partition(ratios, 1, axis=1)[:, :2]
    lo, hi = two[:, 0], two[:, 1]
    with np.errstate(invalid="ignore"):
        tie = (hi - lo) <= TIE_RTOL * hi
    # rows with a single positive denominator have hi == inf; never a tie
    single = np.count_nonzero(np.broadcast_to(den2, ratios.shape) > 0.0, axis=1) == 1
    tie = np.where(single | ~np.isfinite(hi), False, tie)
    return idx.astype(np.intp) + 1, tie


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
    ties is False.
    """
    xv = x.as_array() if isinstance(x, BarycentricVector) else np.asarray(x, dtype=float)
    pos = np.flatnonzero(xv > 0.0)
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pos.size == 1:
        return (
            np.full(pts.shape[0], pos[0] + 1, dtype=np.intp),
            np.zeros(pts.shape[0], dtype=bool),
        )
    return _ratio_regions(pts, xv[None, :])


def resolve_ties(
    size: int,
    draw: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
    what: str,
) -> np.ndarray:
    """Outcome regions of `size` rows, redrawing the rows whose break ties.

    draw(rows) draws fresh break points for the given row indices and
    returns (indices, ties) for them, as regions_of_batch does.  Only tied
    rows are drawn again, in row order.  Raises UnstableEquilibriumError
    when rows still tie after MAX_BOUNDARY_RETRIES draws; `what` names the
    sampling in that message.
    """
    out, tie = draw(np.arange(size))
    pending = np.flatnonzero(tie)
    for _ in range(MAX_BOUNDARY_RETRIES - 1):
        if pending.size == 0:
            break
        idx, tie = draw(pending)
        out[pending] = idx
        pending = pending[tie]
    if pending.size:
        raise UnstableEquilibriumError(
            f"{MAX_BOUNDARY_RETRIES} consecutive boundary draws {what}"
        )
    return out


def sample_uniform(n: int, rng: np.random.Generator) -> BarycentricVector:
    """One point drawn uniformly from the (n-1)-simplex.

    Normalized exponential spacings: n iid standard exponentials divided by
    their sum are uniform on the simplex.
    """
    return BarycentricVector(tuple(sample_uniform_batch(n, 1, rng)[0]))


def sample_uniform_batch(n: int, size: int, rng: np.random.Generator) -> np.ndarray:
    """(size, n) array of uniform simplex points."""
    if n < 2:
        raise ValueError(f"need at least two outcomes, got n={n}")
    e = rng.standard_exponential((size, n))
    return e / e.sum(axis=1, keepdims=True)


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
