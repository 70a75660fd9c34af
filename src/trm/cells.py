"""Equal-measure cell subdivisions of the outcome simplex.

Cellular densities break only inside a chosen subset of cells, uniformly.
The averaging results downstream need nothing from the cells beyond equal
measure, so each geometry uses the simplest exact scheme:

  three outcomes   edgewise subdivision of the triangle into k^2 congruent
                   up/down triangles (cell count must be a perfect square)
  any other count  slabs between consecutive quantiles of the first
                   barycentric coordinate (lam_1 is Beta(1, n-1) under the
                   uniform law, so quantile cuts give equal measure and
                   within-slab sampling stays exact); for two outcomes
                   these are equal intervals of lam_1

Every geometry has one exact law for the share of each cell inside each
outcome region (cell_fraction_in_regions).  A break point lies in region
A_i when i minimizes lam_j / x_j, that is when lam_i x_j <= lam_j x_i for
every j.  A triangle cell is clipped by the two half-planes of each region.
For a slab, the exponential race gives lam_1 = x_1 * Beta(1, n-1) given
outcome 1, so the slab [a, b) holds the region-1 share

    f_1 = N x_1 [(1 - a/x_1)_+^(n-1) - (1 - b/x_1)_+^(n-1)]

of its measure 1/N = (1 - a)^(n-1) - (1 - b)^(n-1); the rest splits over
the outcomes i >= 2 as x_i / (1 - x_1), because the argmin of the
remaining ratios does not depend on lam_1.

Cells are indexed 1..n_cells in a fixed documented order: slab cells by
increasing coordinate; triangle cells row by row from the edge opposite
vertex 3, upward triangle before the downward one to its right.

sample_in_cells draws uniform points inside given cells and writes them
into one column-major (m, n) array, so each column regions_of_batch reads
is contiguous.  A triangle cell's column, row and orientation are read
from a read-only per-k table, decoded once in closed form into the
smallest unsigned type that holds k and cached for the subdivision in use
(triangle_vertices reads the same table), by one take per array.  The
cell is one half of a 1/k square of the chart, so a unit-square uniform
folded into that half and added to the square's corner gives the point:
each chart coordinate is computed in place in its output column, no
(m, 3, 2) corner tensor is made and the only float array beside the
output is the (m, 2) uniform.  A slab inverts
the lam_1 CDF inside the cell with one uniform and spreads the remainder
1 - lam_1 over a uniform point of the (n-2)-simplex from
simplex.sample_uniform_batch; with two outcomes the remainder is all of
lam_2, so a 2-outcome slab point draws one uniform and no remainder.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDensityError, brief
from .simplex import CHUNK_BYTES, sample_uniform_batch

__all__ = [
    "CellularDensity",
    "MAX_CELLS",
    "cell_fraction_in_regions",
    "check_subdivision",
    "pick_cells",
    "sample_in_cells",
    "slab_bounds",
    "triangle_vertices",
]

# Largest cell count of any subdivision: it bounds the subset bitmasks of
# the sampled average.  The exact cell laws build an (n, n_cells) table of
# floats, which grows with the outcome count n too (a 69.7 MB peak at
# n = 64 and 65 536 cells, tracemalloc).
MAX_CELLS = 1 << 16


def check_subdivision(n_outcomes: int, n_cells: int) -> None:
    """Refuse a subdivision that has no cells: fewer than two outcomes, a
    cell count outside 1..MAX_CELLS, or a non-square count for three
    outcomes.  A count that is not an integer raises TypeError."""
    n_outcomes, n_cells = operator.index(n_outcomes), operator.index(n_cells)
    if n_outcomes < 2:
        raise ValueError(f"need at least two outcomes, got {n_outcomes}")
    if not 1 <= n_cells <= MAX_CELLS:
        raise ValueError(f"cell count must lie in 1..{MAX_CELLS}, got {n_cells}")
    if n_outcomes == 3 and math.isqrt(n_cells) ** 2 != n_cells:
        raise ValueError(f"triangle subdivision needs a square cell count, got {n_cells}")


@dataclass(frozen=True)
class CellularDensity:
    """Uniform break density restricted to a subset of equal-measure cells.

    breakable holds 1-based cell indices, each listed once; it must be a
    nonempty subset of {1..n_cells}.  For three outcomes n_cells must be a
    perfect square.  A count or cell index that is not an integer raises
    TypeError.
    """

    n_outcomes: int
    n_cells: int
    breakable: frozenset[int]

    def __post_init__(self) -> None:
        for name in ("n_outcomes", "n_cells"):
            object.__setattr__(self, name, operator.index(getattr(self, name)))
        check_subdivision(self.n_outcomes, self.n_cells)
        listed = [operator.index(c) for c in self.breakable]
        cells = frozenset(listed)
        if len(cells) != len(listed):
            raise ValueError(f"breakable cells {brief(listed)} list a cell twice")
        if not cells:
            raise DegenerateDensityError("no breakable cells: density has no support")
        if min(cells) < 1 or max(cells) > self.n_cells:
            raise ValueError(f"breakable cells {brief(sorted(cells))} outside 1..{self.n_cells}")
        object.__setattr__(self, "breakable", cells)

    @property
    def breakable_sorted(self) -> np.ndarray:
        return np.array(sorted(self.breakable), dtype=np.intp)


def slab_bounds(n_outcomes: int, n_cells: int) -> np.ndarray:
    """(n_cells, 2) lam_1 bounds of equal-measure quantile slabs.

    Under the uniform law lam_1 has CDF 1 - (1 - t)**(n-1); cutting at its
    c/n_cells quantiles yields cells of measure exactly 1/n_cells each.
    """
    c = np.linspace(0.0, 1.0, n_cells + 1)
    q = 1.0 - (1.0 - c) ** (1.0 / (n_outcomes - 1))
    q[-1] = 1.0
    return np.column_stack([q[:-1], q[1:]])


def triangle_vertices(k: int, cells: np.ndarray | None = None) -> np.ndarray:
    """(m, 3, 2) chart vertices of the given 0-based cells (all k*k cells by
    default) of the edgewise subdivision.

    Chart coordinates are (u, v) = (lam_2, lam_3); the full triangle has
    corners (0,0), (1,0), (0,1).  Every cell has chart area 1/(2 k^2).
    Row j holds the 2(k-j) - 1 cells from c = j(2k-j) on, alternately the
    upward triangle at column i and the downward one to its right.  Raises
    ValueError for a cell index outside 0..k*k-1, and TypeError for one
    that is not an integer.
    """
    idx = np.arange(k * k) if cells is None else _cell_indices(cells, k * k)
    i, j, down = (a.take(idx) for a in _triangle_table(k))
    corners = [i + down, j, i + 1, j + down, i, j + 1]
    return np.stack(corners, axis=-1).reshape(-1, 3, 2) / k


# one entry: every caller reads all its points of one subdivision before
# the next
@functools.lru_cache(maxsize=1)
def _triangle_table(k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only (i, j, down) of the k*k triangle cells, by 0-based cell
    index: column, row and 1 for a downward triangle.  The corners in units
    of 1/k are (i + down, j), (i + 1, j + down) and (i, j + 1); no
    coordinate exceeds k, so all three come in the smallest unsigned type
    that holds k (one byte up to k = 255)."""
    c = np.arange(k * k)
    # k^2 - c lies in ((k-j-1)^2, (k-j)^2] for a cell c of row j
    j = k - np.ceil(np.sqrt(k * k - c)).astype(np.intp)
    o = c - j * (2 * k - j)
    table = np.stack([o >> 1, j, o & 1]).astype(np.min_scalar_type(k))
    table.flags.writeable = False
    return tuple(table)


def _cell_indices(cells: np.ndarray, n_cells: int) -> np.ndarray:
    """The 0-based cell indices as intp.  Float or bool indices raise
    TypeError, as CellularDensity's do, and indices outside 0..n_cells-1
    raise ValueError; an empty list passes."""
    idx = np.asarray(cells)
    if idx.size and idx.dtype.kind not in "iu":
        raise TypeError(f"cell indices must be integers, not {idx.dtype}")
    idx = idx.astype(np.intp, copy=False)
    if idx.size and (idx.min() < 0 or idx.max() >= n_cells):
        raise ValueError(f"cell indices must lie in 0..{n_cells - 1}")
    return idx


def cell_fraction_in_regions(x: np.ndarray, n_outcomes: int, n_cells: int) -> np.ndarray:
    """(n_outcomes, n_cells) fraction of each cell's measure inside each
    outcome region of the state x.  Exact for every subdivision."""
    check_subdivision(n_outcomes, n_cells)
    xv = np.asarray(x, dtype=float)
    if xv.shape != (n_outcomes,):
        raise ValueError(f"need a state of {n_outcomes} outcomes, got shape {xv.shape}")
    if n_outcomes == 3:
        return _triangle_fractions(xv, math.isqrt(n_cells))
    x1, m = xv[0], n_outcomes - 1
    a, b = slab_bounds(n_outcomes, n_cells).T
    f1 = np.zeros(n_cells)
    if x1 > 0.0:
        # both differences of m-th powers, x_1 (t_a^m - t_b^m) with
        # t = (1 - lam_1/x_1)_+ and the slab measure (1-a)^m - (1-b)^m, are
        # factored as (u - w) * sum_k u^k w^(m-1-k), so no subtraction of
        # nearby powers loses digits; a subnormal x_1 overflows s / x_1 to
        # inf, whose clipped t is the right 0
        with np.errstate(over="ignore"):
            t_a, t_b = (np.clip(1.0 - s / x1, 0.0, None) for s in (a, b))
        inside = np.clip(np.minimum(b, x1) - a, 0.0, None)
        f1 = inside * _power_sum(t_a, t_b, m) / ((b - a) * _power_sum(1.0 - a, 1.0 - b, m))
    rest = xv[1:] / (1.0 - x1) if x1 < 1.0 else np.zeros(m)
    return np.vstack([f1, (1.0 - f1) * rest[:, None]])


def _power_sum(u: np.ndarray, w: np.ndarray, m: int) -> np.ndarray:
    """sum_{k<m} u^k w^(m-1-k), which is (u^m - w^m) / (u - w) for u != w."""
    return sum(u**k * w ** (m - 1 - k) for k in range(m))


def _triangle_fractions(xv: np.ndarray, k: int) -> np.ndarray:
    """(3, k*k) region shares of the triangle cells: each cell clipped by
    the two half-planes lam_j x_i - lam_i x_j >= 0 of each region i, in
    chunks of CHUNK_BYTES // 1024 cells: a cell's clipping scratch is
    about a kilobyte."""
    e = np.eye(3)
    areas = np.empty((3, k * k))
    per_chunk = CHUNK_BYTES // 1024
    for lo in range(0, k * k, per_chunk):
        chunk = np.arange(lo, min(lo + per_chunk, k * k))
        chart = triangle_vertices(k, chunk)
        cells = np.concatenate([1.0 - chart.sum(axis=2, keepdims=True), chart], axis=2)
        for i in range(3):
            poly = cells
            for j in range(3):
                if j != i:
                    poly = _clip(poly, xv[i] * e[j] - xv[j] * e[i], xv)
            u, v = poly[..., 1], poly[..., 2]
            twice = u * np.roll(v, -1, axis=1) - v * np.roll(u, -1, axis=1)
            areas[i, chunk] = 0.5 * twice.sum(axis=1)
    # a region of zero measure can come out a rounding error below zero
    np.maximum(areas, 0.0, out=areas)
    return areas / areas.sum(axis=0)


def _clip(poly: np.ndarray, normal: np.ndarray, on_line: np.ndarray) -> np.ndarray:
    """(C, 2V, 3) outlines of C polygons (C, V, 3) cut to poly @ normal >= 0.

    Edge e emits the ends of its part inside the half-plane, or the point
    on_line of the boundary line twice when no part is inside.  Consecutive
    emitted points are then joined along the boundary line wherever the
    outline leaves the half-plane, so the shoelace sum of the outline is
    the clipped area: collinear detours add none.
    """
    d = poly @ normal
    nxt, d_nxt = np.roll(poly, -1, axis=1), np.roll(d, -1, axis=1)
    p_in, q_in = (d >= 0.0)[..., None], (d_nxt >= 0.0)[..., None]
    gap = d - d_nxt
    t = np.divide(d, gap, out=np.zeros_like(d), where=gap != 0.0)[..., None]
    cross = poly + t * (nxt - poly)
    start = np.where(p_in, poly, np.where(q_in, cross, on_line))
    end = np.where(q_in, nxt, np.where(p_in, cross, on_line))
    return np.stack([start, end], axis=2).reshape(poly.shape[0], -1, 3)


def pick_cells(
    cells: np.ndarray, start: np.ndarray, k: np.ndarray, u: np.ndarray
) -> np.ndarray:
    """(m, points) cells picked from m lists of cells by the uniforms u in
    [0, 1): row r's list is cells[start[r]:start[r] + k[r]], and u[r, j]
    picks cells[start[r] + floor(u[r, j] k[r])].  The package's one pick of
    a cell among equally likely ones, one uniform per pick.

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


def sample_in_cells(
    n_outcomes: int, n_cells: int, cell_idx: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Uniform points inside the given cells (0-based indices), one each.

    Returns a column-major (m, n_outcomes) array of barycentric points.
    Raises ValueError for a subdivision check_subdivision refuses or a cell
    index outside 0..n_cells-1, and TypeError for a cell index that is not
    an integer.
    """
    check_subdivision(n_outcomes, n_cells)
    idx = _cell_indices(cell_idx, n_cells)
    m = idx.shape[0]
    if n_outcomes == 3:
        return _sample_in_triangles(math.isqrt(n_cells), idx, rng)
    out = np.empty((n_outcomes, m)).T
    p = rng.random(m)
    p += idx
    p /= n_cells
    lam1 = out[:, 0] = 1.0 - (1.0 - p) ** (1.0 / (n_outcomes - 1))
    rest = 1.0 if n_outcomes == 2 else sample_uniform_batch(n_outcomes - 1, m, rng)
    np.multiply((1.0 - lam1)[:, None], rest, out=out[:, 1:])
    return out


def _sample_in_triangles(k: int, idx: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """(m, 3) uniform points in the triangle cells idx of the k*k subdivision.

    Cell (i, j, down) is one half of the square [i, i+1] x [j, j+1] in units
    of 1/k: an upward cell the half below its diagonal, a downward cell the
    half above it.  A uniform r of the unit square is folded into that half
    as q = |s - r|, where s = (r0 + r1 > 1) XOR down, so q is exactly r or
    1 - r, and the chart point is (u, v) = ((i + q0)/k, (j + q1)/k) with
    lam_1 = 1 - (u + v), clamped at 0.  (i, j, down) come from
    _triangle_table(k), built once per subdivision, by one take each.  Each
    coordinate is computed in place in its output column, the first of
    which holds r0 + r1 on the way, so r is the only float array beside the
    output and r itself is never written.
    """
    i, j, down = (a.take(idx) for a in _triangle_table(k))
    out = np.empty((3, idx.shape[0])).T
    r = rng.random((idx.shape[0], 2))
    s = np.not_equal(np.add(r[:, 0], r[:, 1], out=out[:, 0]) > 1.0, down)
    for col, corner in ((1, i), (2, j)):
        q = np.abs(np.subtract(s, r[:, col - 1], out=out[:, col]), out=out[:, col])
        np.divide(np.add(corner, q, out=q), k, out=q)
    np.add(out[:, 1], out[:, 2], out=out[:, 0])
    np.subtract(1.0, out[:, 0], out=out[:, 0])
    # u + v can round past 1 within an ulp of the top edge (about once in
    # 2^53 points); lam_1 stays >= 0, as regions_of_batch requires
    np.maximum(out[:, 0], 0.0, out=out[:, 0])
    return out

