"""Consistency checks against two classes of probability models.

kolmogorov_check tests whether three joint probabilities P(V and W),
P(U and W), P(not-U and V) could come from events U, V, W in one
probability space.  Any such space forces

    P(V and W) - P(U and W) <= P(not-U and V)

because V∩W splits over U into (U∩V∩W) u (U^c∩V∩W), the first part is at
most P(U∩W) and the second at most P(U^c∩V).

qubit_embeddable tests whether three pairwise transition probabilities can
be realized as squared overlaps |<a|b>|^2 of three two-dimensional pure
states.  Each probability p fixes the angle 2*arccos(sqrt(p)) between the
corresponding unit vectors on the state sphere, and three unit vectors with
prescribed pairwise angles exist exactly when the angles satisfy the
spherical triangle inequalities: each angle at most the sum of the other
two, and the perimeter at most 2*pi.

Both checks return their verdict first, then its witnesses, as
utr.product_probability_check does: kolmogorov_check gives
(satisfied, margin) and qubit_embeddable gives (embeddable, deficit,
angles).  classify runs both checks over a bundle document of observed
statistics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Mapping

from .errors import REQUIRED, Check, array_field, number_field, object_field

__all__ = [
    "JointTriple",
    "PairwiseTransitions",
    "classify",
    "kolmogorov_check",
    "qubit_embeddable",
]

PROB_TOL = 1e-12

# Largest Kolmogorov margin that still counts as satisfied, and largest
# spherical-triangle gap (radians) that still counts as embeddable.
KOLMOGOROV_TOL = 1e-12
QUBIT_TOL = 1e-9


def _check_probability(name: str, value: float) -> float:
    v = float(value)
    if not -PROB_TOL <= v <= 1.0 + PROB_TOL:
        raise ValueError(f"{name} = {v} is not a probability")
    return min(max(v, 0.0), 1.0)


@dataclass(frozen=True)
class JointTriple:
    """P(V and W), P(U and W), P(not-U and V) from a two-step experiment."""

    p_vw: float
    p_uw: float
    p_ucv: float

    def __post_init__(self) -> None:
        for name in ("p_vw", "p_uw", "p_ucv"):
            object.__setattr__(self, name, _check_probability(name, getattr(self, name)))


@dataclass(frozen=True)
class PairwiseTransitions:
    """One-step transition probabilities between three directions a, b, c."""

    p_ab: float
    p_bc: float
    p_ac: float

    def __post_init__(self) -> None:
        for name in ("p_ab", "p_bc", "p_ac"):
            object.__setattr__(self, name, _check_probability(name, getattr(self, name)))


def kolmogorov_check(triple: JointTriple) -> tuple[bool, float]:
    """(satisfied, margin): whether the three joints fit in a single
    probability space.

    margin = p_vw - p_uw - p_ucv; a margin above KOLMOGOROV_TOL is a
    violation.
    """
    margin = triple.p_vw - triple.p_uw - triple.p_ucv
    return margin <= KOLMOGOROV_TOL, margin


def qubit_embeddable(
    transitions: PairwiseTransitions,
) -> tuple[bool, float, tuple[float, float, float]]:
    """(embeddable, deficit, angles): whether the transition probabilities
    are squared overlaps of three pure two-dimensional states.

    deficit is the largest violation among the spherical triangle
    inequalities (0.0 when embeddable within QUBIT_TOL); angles are the
    sphere angles (t_ab, t_bc, t_ac) the probabilities fix.
    """
    t_ab = 2.0 * math.acos(math.sqrt(transitions.p_ab))
    t_bc = 2.0 * math.acos(math.sqrt(transitions.p_bc))
    t_ac = 2.0 * math.acos(math.sqrt(transitions.p_ac))
    gaps = (
        t_ac - t_ab - t_bc,
        t_ab - t_bc - t_ac,
        t_bc - t_ab - t_ac,
        t_ab + t_bc + t_ac - 2.0 * math.pi,
    )
    worst = max(gaps)
    return worst <= QUBIT_TOL, max(worst, 0.0), (t_ab, t_bc, t_ac)


def _triple(*fields: str) -> Check:
    spec = {f: (number_field, REQUIRED) for f in fields}
    return array_field(lambda doc, where: object_field(doc, where, spec))


# A bundle document {"joints": [...], "transitions": [...]}; both default to [].
_BUNDLE = {
    "joints": (_triple("p_vw", "p_uw", "p_ucv"), []),
    "transitions": (_triple("p_ab", "p_bc", "p_ac"), []),
}


def classify(bundle: Mapping[str, Any]) -> dict[str, Any]:
    """Check every joint triple and every pairwise-transition triple in a
    bundle document {"joints": [...], "transitions": [...]}.

    classical_ok / qubit_ok report whether all entries of the respective
    kind pass; an empty bundle is vacuously consistent and flagged with a
    warning.
    """
    doc = object_field(bundle, "bundle", _BUNDLE)
    joints = []
    for entry in doc["joints"]:
        satisfied, margin = kolmogorov_check(JointTriple(**entry))
        joints.append({**entry, "satisfied": satisfied, "margin": margin})
    transitions = []
    for entry in doc["transitions"]:
        embeddable, deficit, angles = qubit_embeddable(PairwiseTransitions(**entry))
        transitions.append(
            {**entry, "embeddable": embeddable, "deficit": deficit, "angles": list(angles)}
        )

    warnings = []
    if not joints and not transitions:
        warnings.append("empty bundle: both verdicts hold vacuously")
    return {
        "classical_ok": all(j["satisfied"] for j in joints),
        "qubit_ok": all(t["embeddable"] for t in transitions),
        "joints": joints,
        "transitions": transitions,
        "warnings": warnings,
    }
