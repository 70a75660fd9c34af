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

Both checks take their three probabilities as plain numbers, each
refused outside [0, 1] beyond PROB_TOL and clamped into it, and return
their verdict first, then its witnesses, as utr.product_probability_check
does: kolmogorov_check(p_vw, p_uw, p_ucv) gives (satisfied, margin) and
qubit_embeddable(p_ab, p_bc, p_ac) gives (embeddable, deficit, angles).
classify runs both checks over a bundle document of observed statistics,
passing each entry's fields by name.
"""

from __future__ import annotations

import math
from typing import Any, Mapping

from .errors import REQUIRED, Check, array_field, number_field, object_field

__all__ = [
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


def kolmogorov_check(p_vw: float, p_uw: float, p_ucv: float) -> tuple[bool, float]:
    """(satisfied, margin): whether the joints P(V and W), P(U and W),
    P(not-U and V) fit in a single probability space.

    Each argument must lie in [0, 1] within PROB_TOL and is clamped to it.
    margin = p_vw - p_uw - p_ucv; a margin above KOLMOGOROV_TOL is a
    violation.
    """
    margin = (
        _check_probability("p_vw", p_vw)
        - _check_probability("p_uw", p_uw)
        - _check_probability("p_ucv", p_ucv)
    )
    return margin <= KOLMOGOROV_TOL, margin


def qubit_embeddable(
    p_ab: float, p_bc: float, p_ac: float
) -> tuple[bool, float, tuple[float, float, float]]:
    """(embeddable, deficit, angles): whether the one-step transition
    probabilities between directions a, b, c are squared overlaps of three
    pure two-dimensional states.

    Each argument must lie in [0, 1] within PROB_TOL and is clamped to it.
    deficit is the largest violation among the spherical triangle
    inequalities (0.0 when embeddable within QUBIT_TOL); angles are the
    sphere angles (t_ab, t_bc, t_ac) the probabilities fix.
    """
    t_ab, t_bc, t_ac = (
        2.0 * math.acos(math.sqrt(_check_probability(name, p)))
        for name, p in (("p_ab", p_ab), ("p_bc", p_bc), ("p_ac", p_ac))
    )
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
        satisfied, margin = kolmogorov_check(**entry)
        joints.append({**entry, "satisfied": satisfied, "margin": margin})
    transitions = []
    for entry in doc["transitions"]:
        embeddable, deficit, angles = qubit_embeddable(**entry)
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
