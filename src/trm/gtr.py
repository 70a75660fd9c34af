"""General break densities and their transition laws.

The uniform law is one member of a family: any probability density over the
break region defines a measurement, with outcome probabilities given by the
density's mass inside each outcome region.

One-dimensional densities live on the on-axis coordinate z in
[-1/sqrt(2), +1/sqrt(2)] of a two-outcome measurement.  A state at angle
theta from the measured direction sits at z_a = cos(theta)/sqrt(2); the
"plus" outcome collects all break mass at or below z_a, so

    p_plus = P(Z < z_a) + P(Z == z_a) / 2

where an atom exactly at the particle splits evenly (a break at the
particle's own position leaves no preferred side).  For a continuous
density this is just the CDF at z_a.  sample_outcomes_1d draws breaks and
applies the same rule, with a fair coin for a break exactly at the
particle; it is the only sampler of it, used by sphere.measure for one
break and by frequency_plus_1d, the sharded Monte Carlo frequency, for many.

Variants: Uniform (the full-interval uniform law), Epsilon(e) (uniform on
the central fraction e of the interval), PointBreak (a single atom),
DoublePoint (atoms at both ends, giving state-independent outcomes),
PiecewiseConstant1D, and CellularDensity for any outcome count.  Each
one-dimensional variant is a short list of (lo, hi, mass) pieces, mass
spread uniformly over [lo, hi] or an atom where lo == hi; cdf, atom and the
one-dimensional sampler read those pieces and nothing else of the variant.

transition_probabilities_nd gives the exact law of a density on the full
outcome simplex, for every outcome count: a cellular density gives each
outcome the mean over the breakable cells of the cell's share of the
outcome region, from cells.cell_fraction_in_regions.

Every density has a canonical JSON form {"type": tag, ...parameters}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Mapping

import numpy as np

from .cells import CellularDensity, cell_fraction_in_regions, sample_in_cells
from .errors import (
    REQUIRED,
    Check,
    SchemaError,
    array_field,
    brief,
    integer_field,
    number_field,
    object_field,
)
from .shards import run_sharded
from .simplex import BarycentricVector, OutcomePartition

__all__ = [
    "DensitySpec",
    "DoublePoint",
    "Epsilon",
    "PiecewiseConstant1D",
    "PointBreak",
    "Uniform",
    "Z_MAX",
    "cdf",
    "atom",
    "density_from_json",
    "density_to_json",
    "epsilon_probability",
    "frequency_plus_1d",
    "sample_break_point",
    "sample_outcomes_1d",
    "transition_probabilities_1d",
    "transition_probabilities_nd",
]

Z_MAX = 1.0 / math.sqrt(2.0)

MASS_TOL = 1e-9


def _on_axis(z: float, what: str) -> float:
    """A position on the axis: z, clamped onto [-Z_MAX, Z_MAX] when it lies
    at most 1e-12 outside (sqrt(0.5) itself is one ulp above Z_MAX).
    Anything farther out, or NaN, is refused."""
    if not -Z_MAX - 1e-12 <= z <= Z_MAX + 1e-12:
        raise ValueError(f"{what} must lie in [-{Z_MAX}, {Z_MAX}], got {z}")
    return min(max(z, -Z_MAX), Z_MAX)


@dataclass(frozen=True)
class Uniform:
    """Break anywhere with equal density (the plain measurement law)."""


@dataclass(frozen=True)
class Epsilon:
    """Uniform on the central fraction epsilon of the interval; the two
    outer segments of length (1-epsilon)/sqrt(2) never break.

    epsilon must lie in (0, 1]; epsilon == 1 coincides with Uniform.
    """

    epsilon: float

    def __post_init__(self) -> None:
        e = float(self.epsilon)
        if not 0.0 < e <= 1.0:
            raise ValueError(f"epsilon must lie in (0, 1], got {e}")
        object.__setattr__(self, "epsilon", e)


@dataclass(frozen=True)
class PointBreak:
    """All break mass at a single coordinate z0: a deterministic membrane.
    A z0 up to 1e-12 outside the interval is clamped onto it."""

    z0: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "z0", _on_axis(float(self.z0), "z0"))


@dataclass(frozen=True)
class DoublePoint:
    """Atoms at the two endpoints: mass a at +z_max, mass b at -z_max.

    Away from the endpoints every state gets outcome probabilities (b, a),
    independent of the state: a break at an endpoint detaches that anchor
    and the band contracts to the opposite one.
    """

    a: float
    b: float

    def __post_init__(self) -> None:
        a, b = float(self.a), float(self.b)
        if not (a > 0.0 and b > 0.0):
            raise ValueError(f"both masses must be positive, got a={a}, b={b}")
        total = a + b
        if not abs(total - 1.0) <= MASS_TOL:
            raise ValueError(f"masses sum to {total}, not 1 within {MASS_TOL}")
        object.__setattr__(self, "a", a / total)
        object.__setattr__(self, "b", b / total)


@dataclass(frozen=True)
class PiecewiseConstant1D:
    """Piecewise-constant density: breakpoints z_0 < ... < z_k inside the
    interval and one probability mass per sub-interval (normalized on
    construction; zero density outside [z_0, z_k]).  Breakpoints up to
    1e-12 outside the interval are clamped onto it; they must still increase
    strictly after that."""

    breakpoints: tuple[float, ...]
    masses: tuple[float, ...]

    def __post_init__(self) -> None:
        bp = tuple(_on_axis(float(z), "breakpoint") for z in self.breakpoints)
        ms = tuple(float(m) for m in self.masses)
        if len(bp) < 2:
            raise ValueError("need at least two breakpoints")
        if len(ms) != len(bp) - 1:
            raise ValueError(f"{len(ms)} masses for {len(bp) - 1} sub-intervals")
        if not all(q > p for p, q in zip(bp, bp[1:])):
            raise ValueError(f"breakpoints must increase strictly once clamped: {bp}")
        if not all(m >= 0.0 for m in ms):
            raise ValueError(f"negative or NaN mass in {ms}")
        total = math.fsum(ms)
        if not abs(total - 1.0) <= MASS_TOL:
            raise ValueError(f"masses sum to {total}, not 1 within {MASS_TOL}")
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "masses", tuple(m / total for m in ms))


DensitySpec = Uniform | Epsilon | PointBreak | DoublePoint | PiecewiseConstant1D | CellularDensity


def _pieces(density: DensitySpec) -> tuple[tuple[float, float, float], ...]:
    """The break law of a one-dimensional density as (lo, hi, mass) pieces:
    mass spread uniformly over [lo, hi], or an atom at lo when lo == hi."""
    if isinstance(density, Uniform):
        return ((-Z_MAX, Z_MAX, 1.0),)
    if isinstance(density, Epsilon):
        half = density.epsilon * Z_MAX
        return ((-half, half, 1.0),)
    if isinstance(density, PointBreak):
        return ((density.z0, density.z0, 1.0),)
    if isinstance(density, DoublePoint):
        return ((Z_MAX, Z_MAX, density.a), (-Z_MAX, -Z_MAX, density.b))
    if isinstance(density, PiecewiseConstant1D):
        bp = density.breakpoints
        return tuple(zip(bp, bp[1:], density.masses))
    raise ValueError(f"{type(density).__name__} is not a one-dimensional density")


def cdf(density: DensitySpec, z: float) -> float:
    """P(Z <= z) of a one-dimensional break density."""
    acc = 0.0
    for lo, hi, m in _pieces(density):
        if z >= hi:
            acc += m
        elif z > lo:
            acc += m * (z - lo) / (hi - lo)
    return min(acc, 1.0)


def atom(density: DensitySpec, z: float) -> float:
    """Point mass P(Z == z); zero for the continuous variants."""
    return sum((m for lo, hi, m in _pieces(density) if lo == hi == z), 0.0)


def _landing(cos_theta: float, density: DensitySpec) -> float:
    """The particle's on-axis coordinate z_a, once cos(theta) and the
    density are known to fit a one-dimensional measurement."""
    c = float(cos_theta)
    if not -1.0 <= c <= 1.0:
        raise ValueError(f"cos(theta) must lie in [-1, 1], got {c}")
    _pieces(density)
    return c * Z_MAX


def transition_probabilities_1d(
    cos_theta: float, density: DensitySpec
) -> tuple[float, float]:
    """(p_plus, p_minus) for a state at angle theta from the measured
    direction, under a one-dimensional break density."""
    z_a = _landing(cos_theta, density)
    p_plus = cdf(density, z_a) - atom(density, z_a) / 2.0
    return p_plus, 1.0 - p_plus


def sample_outcomes_1d(
    density: DensitySpec, cos_theta: float, rng: np.random.Generator, size: int
) -> tuple[np.ndarray, np.ndarray]:
    """`size` break coordinates z of a one-dimensional density against a
    particle at z_a = cos(theta)/sqrt(2), and whether each gives the plus
    outcome.

    A break below the particle gives plus; one exactly at it is settled by
    a fair coin, drawn (`size` of them) only when some break ties.  A
    density that is not one-dimensional is refused before anything is drawn.
    """
    z_a = _landing(cos_theta, density)
    z = sample_break_point(density, rng, size=size)
    plus = z < z_a
    ties = z == z_a
    if ties.any():
        plus |= ties & (rng.random(size) < 0.5)
    return z, plus


def frequency_plus_1d(
    cos_theta: float, density: DensitySpec, trials: int, seed: int, workers: int = 1
) -> float:
    """Monte Carlo frequency of the plus outcome over `trials` breaks,
    sharded with run_sharded, so it does not depend on `workers`."""

    def block(rng: np.random.Generator, m: int) -> np.ndarray:
        return sample_outcomes_1d(density, cos_theta, rng, m)[1].sum(keepdims=True)

    return int(run_sharded(trials, seed, block, workers)[0]) / trials


def epsilon_probability(cos_theta: float, epsilon: float) -> tuple[float, float]:
    """Closed form of the Epsilon(e) transition law:

        p_plus = 1                      for cos(theta) >  e
                 (1 + cos(theta)/e)/2   for |cos(theta)| <= e
                 0                      for cos(theta) < -e

    At epsilon == 1 this is the squared half-angle law
    (cos^2(theta/2), sin^2(theta/2)).
    """
    c = float(cos_theta)
    e = float(epsilon)
    if not 0.0 < e <= 1.0:
        raise ValueError(f"epsilon must lie in (0, 1], got {e}")
    if not -1.0 <= c <= 1.0:
        raise ValueError(f"cos(theta) must lie in [-1, 1], got {c}")
    if c > e:
        return 1.0, 0.0
    if c < -e:
        return 0.0, 1.0
    p = 0.5 * (1.0 + c / e)
    return p, 1.0 - p


def transition_probabilities_nd(
    x: BarycentricVector, partition: OutcomePartition, density: DensitySpec
) -> np.ndarray:
    """Exact block probabilities under a density on the full outcome simplex.

    Uniform gives the block sums of x.  A cellular density gives each
    outcome the mean over its breakable cells of the cell's share of the
    outcome region (cells.cell_fraction_in_regions), for every outcome count
    and every subdivision.
    """
    partition.check_state(x.n)
    if isinstance(density, Uniform):
        return partition.aggregate(x.as_array())
    if not isinstance(density, CellularDensity):
        raise ValueError(
            f"{type(density).__name__} does not define a break density on a "
            f"{x.n}-outcome simplex"
        )
    if density.n_outcomes != x.n:
        raise ValueError(
            f"density subdivides a {density.n_outcomes}-outcome simplex, state has {x.n}"
        )
    fractions = cell_fraction_in_regions(x.as_array(), x.n, density.n_cells)
    return partition.aggregate(fractions[:, density.breakable_sorted - 1].mean(axis=1))


def sample_break_point(
    density: DensitySpec, rng: np.random.Generator, size: int
) -> np.ndarray:
    """Draw `size` break points from a density.

    One-dimensional variants return a (size,) array of coordinates via
    inverse-CDF sampling over their pieces, one uniform per break, atoms
    included; cellular densities return a (size, n_outcomes) array of
    barycentric points, choosing a breakable cell uniformly (all cells have
    equal measure) and a uniform point inside it.
    """
    if isinstance(density, CellularDensity):
        cells = density.breakable_sorted - 1
        idx = cells[rng.integers(0, cells.size, size)]
        return sample_in_cells(density.n_outcomes, density.n_cells, idx, rng)
    lo, hi, mass = (np.array(col) for col in zip(*_pieces(density)))
    cum = np.concatenate([[0.0], np.cumsum(mass)])
    cum[-1] = 1.0
    u = rng.random(size)
    seg = np.clip(np.searchsorted(cum, u, side="right") - 1, 0, mass.size - 1)
    frac = (u - cum[seg]) / (cum[seg + 1] - cum[seg])
    return lo[seg] + frac * (hi[seg] - lo[seg])


# Canonical JSON form of each variant: {tag: (variant, {field: check})}.
_FORMS: dict[str, tuple[type, dict[str, Check]]] = {
    "uniform": (Uniform, {}),
    "epsilon": (Epsilon, {"epsilon": number_field}),
    "point": (PointBreak, {"z0": number_field}),
    "double_point": (DoublePoint, {"a": number_field, "b": number_field}),
    "piecewise": (
        PiecewiseConstant1D,
        {"breakpoints": array_field(number_field), "masses": array_field(number_field)},
    ),
    "cellular": (
        CellularDensity,
        {"n_outcomes": integer_field, "n_cells": integer_field,
         "breakable": array_field(integer_field)},
    ),
}


def density_to_json(density: DensitySpec) -> dict[str, Any]:
    for tag, (variant, fields) in _FORMS.items():
        if type(density) is variant:
            doc: dict[str, Any] = {"type": tag}
            for name in fields:
                v = getattr(density, name)
                doc[name] = sorted(v) if isinstance(v, frozenset) else (
                    list(v) if isinstance(v, tuple) else v
                )
            return doc
    raise ValueError(f"unknown density {type(density).__name__}")


def density_from_json(doc: Any, where: str = "density") -> DensitySpec:
    """Parse the canonical JSON form; structural problems (unknown fields
    included) raise SchemaError naming `where`, out-of-range parameter values
    raise the variant's own ValueError."""
    tag = doc.get("type") if isinstance(doc, Mapping) else None
    if not isinstance(tag, str) or tag not in _FORMS:
        raise SchemaError(
            f"{where} must be an object with a type in {list(_FORMS)}, got type {brief(tag)}"
        )
    variant, fields = _FORMS[tag]
    values = object_field(
        {k: v for k, v in doc.items() if k != "type"},
        f"{where} {tag!r}",
        {name: (check, REQUIRED) for name, check in fields.items()},
    )
    return variant(**values)
