"""Two-outcome measurements on the sphere of radius 1/sqrt(2).

A state is a point on the sphere; measuring along a direction u makes the
state fall orthogonally onto the diameter from -u to +u, landing at on-axis
coordinate z_a = cos(theta)/sqrt(2) where theta is the angle between state
and direction.  A one-dimensional break density on the diameter then decides
the outcome: mass at or below the landing point contracts the state to +u,
the rest to -u, with an atom exactly at the landing point splitting evenly.
measure samples this rule through gtr.sample_outcomes_1d and returns the
plain tuple (sign, post_state, break_coordinate), and sequential_joint
returns the probability of a chain of signed outcomes as a float, as
utr.sequential_probability does on the simplex.

With the Epsilon(e) density this gives the closed-form transition law of
gtr.epsilon_probability; at e == 1 it is the squared-half-angle law.

The module also builds the standard three-direction experiment (two steps
of sequential measurement along w, v, u at angles pi/4 and pi/2) as a
bundle for checker.classify, which decides whether its joint probabilities
fit the single-probability-space inequality
P(V and W) - P(U and W) <= P(not-U and V).  They violate it for every e in
(0, 1]: up to e = sqrt(2)/2 the joints are exactly (1, 0, 1/2) with margin
1/2, and at e = 1 they are the squared-half-angle values
((1 + c)/2, (1 - c)/2, (1 + c)/4) with c = cos(pi/4), still violating with
margin (3*sqrt(2) - 2)/8.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

# the sphere's diameter is the break interval [-Z_MAX, Z_MAX]
from .gtr import (
    Z_MAX as RADIUS,
    DensitySpec,
    Epsilon,
    sample_outcomes_1d,
    transition_probabilities_1d,
)

__all__ = [
    "BlochVector",
    "RADIUS",
    "counterexample_bundle",
    "counterexample_directions",
    "fall",
    "measure",
    "sequential_joint",
    "transition_probability",
]

NORM_TOL = 1e-9


@dataclass(frozen=True)
class BlochVector:
    """A point of the state sphere: three coordinates of norm 1/sqrt(2),
    renormalized exactly on construction."""

    coords: tuple[float, float, float]

    def __post_init__(self) -> None:
        c = tuple(float(v) for v in self.coords)
        if len(c) != 3:
            raise ValueError(f"need three coordinates, got {len(c)}")
        norm = math.sqrt(math.fsum(v * v for v in c))
        if not abs(norm - RADIUS) <= NORM_TOL:
            raise ValueError(f"norm {norm} is not {RADIUS} within {NORM_TOL}")
        object.__setattr__(self, "coords", tuple(v * (RADIUS / norm) for v in c))

    @classmethod
    def from_angles(cls, theta: float, phi: float = 0.0) -> "BlochVector":
        """Polar angle theta from +z, azimuth phi, on the radius-1/sqrt(2) sphere."""
        s = math.sin(theta)
        return cls(
            (RADIUS * s * math.cos(phi), RADIUS * s * math.sin(phi), RADIUS * math.cos(theta))
        )

    def as_array(self) -> np.ndarray:
        return np.asarray(self.coords, dtype=float)

    def __neg__(self) -> "BlochVector":
        return BlochVector(tuple(-v for v in self.coords))


def fall(w: BlochVector, u: BlochVector) -> float:
    """cos(theta) between state and direction: twice their dot product."""
    c = 2.0 * float(np.dot(w.as_array(), u.as_array()))
    return max(-1.0, min(1.0, c))


def transition_probability(
    w: BlochVector, u: BlochVector, density: DensitySpec
) -> tuple[float, float]:
    """(p_plus, p_minus) of measuring direction u on state w."""
    return transition_probabilities_1d(fall(w, u), density)


def measure(
    w: BlochVector, u: BlochVector, density: DensitySpec, rng: np.random.Generator
) -> tuple[int, BlochVector, float]:
    """Sample one measurement: draw a break coordinate and compare it with
    the landing point.  Returns (sign, post_state, break_coordinate), where
    the post state is sign * u."""
    z, plus = sample_outcomes_1d(density, fall(w, u), rng, 1)
    sign = 1 if plus[0] else -1
    return sign, u if sign == 1 else -u, float(z[0])


def sequential_joint(
    start: BlochVector,
    steps: Sequence[tuple[BlochVector, int]],
    density: DensitySpec,
) -> float:
    """Joint probability of a chain of signed outcomes, collapsing to +-u
    after each step and multiplying the conditional probabilities."""
    state = start
    prob = 1.0
    for direction, sign in steps:
        if sign not in (1, -1):
            raise ValueError(f"outcome sign must be +1 or -1, got {sign}")
        p_plus, p_minus = transition_probability(state, direction, density)
        prob *= p_plus if sign == 1 else p_minus
        state = direction if sign == 1 else -direction
    return prob


def counterexample_directions() -> tuple[BlochVector, BlochVector, BlochVector]:
    """The three coplanar directions w, v, u with angle(w,v) = pi/4 and
    angle(v,u) = pi/2, so angle(w,u) = 3*pi/4."""
    w = BlochVector((RADIUS, 0.0, 0.0))
    v = BlochVector((0.5, 0.5, 0.0))
    u = BlochVector((-0.5, 0.5, 0.0))
    return w, v, u


def counterexample_bundle(epsilon: float) -> dict:
    """The three-direction experiment under Epsilon, as a bundle document
    for checker.classify.

    The three joints, all starting from state w, are

        J1 = P(+w then +v)   J2 = P(+w then +u)   J3 = P(+v then -u)

    and a single probability space would force J1 - J2 <= J3.  The bundle
    also carries the pairwise transition probabilities (w->v, v->u, w->u).
    """
    density = Epsilon(epsilon)
    w, v, u = counterexample_directions()
    return {
        "joints": [
            {
                "p_vw": sequential_joint(w, [(w, 1), (v, 1)], density),
                "p_uw": sequential_joint(w, [(w, 1), (u, 1)], density),
                "p_ucv": sequential_joint(w, [(v, 1), (u, -1)], density),
            }
        ],
        "transitions": [
            {
                "p_ab": transition_probability(w, v, density)[0],
                "p_bc": transition_probability(v, u, density)[0],
                "p_ac": transition_probability(w, u, density)[0],
            }
        ],
    }
