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

classify runs both checks over a bundle document of observed statistics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Mapping

from .errors import SchemaError, number_field

__all__ = [
    "JointTriple",
    "KolmogorovVerdict",
    "PairwiseTransitions",
    "QubitVerdict",
    "classify",
    "kolmogorov_check",
    "qubit_embeddable",
]

PROB_TOL = 1e-12


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


@dataclass(frozen=True)
class KolmogorovVerdict:
    satisfied: bool
    margin: float


@dataclass(frozen=True)
class QubitVerdict:
    embeddable: bool
    deficit: float
    angles: tuple[float, float, float]


def kolmogorov_check(triple: JointTriple, tol: float = 1e-12) -> KolmogorovVerdict:
    """Whether the three joints fit in a single probability space.

    margin = p_vw - p_uw - p_ucv; a margin above tol is a violation.
    """
    margin = triple.p_vw - triple.p_uw - triple.p_ucv
    return KolmogorovVerdict(margin <= tol, margin)


def qubit_embeddable(
    transitions: PairwiseTransitions, tol: float = 1e-9
) -> QubitVerdict:
    """Whether the transition probabilities are squared overlaps of three
    pure two-dimensional states.

    deficit is the largest violation among the spherical triangle
    inequalities (0.0 when embeddable within tol).
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
    return QubitVerdict(worst <= tol, max(worst, 0.0), (t_ab, t_bc, t_ac))


def _entry(doc: Any, fields: tuple[str, ...], where: str) -> tuple[float, ...]:
    if not isinstance(doc, Mapping):
        raise SchemaError(f"{where} must be an object, got {type(doc).__name__}")
    missing = [f for f in fields if f not in doc]
    if missing:
        raise SchemaError(f"{where} is missing {missing}")
    return tuple(number_field(doc[f], f"{where}.{f}") for f in fields)


def classify(
    bundle: Mapping[str, Any], kol_tol: float = 1e-12, qubit_tol: float = 1e-9
) -> dict[str, Any]:
    """Check every joint triple and every pairwise-transition triple in a
    bundle document {"joints": [...], "transitions": [...]}.

    classical_ok / qubit_ok report whether all entries of the respective
    kind pass; an empty bundle is vacuously consistent and flagged with a
    warning.
    """
    if not isinstance(bundle, Mapping):
        raise SchemaError(f"bundle must be an object, got {type(bundle).__name__}")
    joints_doc = bundle.get("joints", [])
    transitions_doc = bundle.get("transitions", [])
    if not isinstance(joints_doc, (list, tuple)) or not isinstance(
        transitions_doc, (list, tuple)
    ):
        raise SchemaError("bundle joints/transitions must be arrays")

    joints = []
    for i, doc in enumerate(joints_doc):
        vals = _entry(doc, ("p_vw", "p_uw", "p_ucv"), f"joints[{i}]")
        verdict = kolmogorov_check(JointTriple(*vals), kol_tol)
        joints.append(
            {
                "p_vw": vals[0],
                "p_uw": vals[1],
                "p_ucv": vals[2],
                "satisfied": verdict.satisfied,
                "margin": verdict.margin,
            }
        )
    transitions = []
    for i, doc in enumerate(transitions_doc):
        vals = _entry(doc, ("p_ab", "p_bc", "p_ac"), f"transitions[{i}]")
        verdict = qubit_embeddable(PairwiseTransitions(*vals), qubit_tol)
        transitions.append(
            {
                "p_ab": vals[0],
                "p_bc": vals[1],
                "p_ac": vals[2],
                "embeddable": verdict.embeddable,
                "deficit": verdict.deficit,
                "angles": list(verdict.angles),
            }
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
