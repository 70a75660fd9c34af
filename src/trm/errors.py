"""Exception types shared across the package.

Everything derives from ValueError so callers can treat any of these as a
domain failure, while still being able to catch the specific condition.

The rest of the module is the walker every JSON config document goes
through.  A check is a function check(value, where) that returns the typed
value or raises SchemaError naming `where`.  number_field and integer_field
take JSON numbers only (booleans and NaN are refused), integer_in adds a
range, array_field checks each entry of an array, and object_field checks
an object against a table {field: (check, default)}: a field the table
does not name, or a missing REQUIRED one, is a SchemaError.  A message
quotes the offending value through brief, so a long or deeply nested value
cannot swell the one-line error.
"""

from __future__ import annotations

import math
from numbers import Integral, Real
from typing import Any, Callable, Mapping

__all__ = [
    "DegenerateDensityError",
    "ImpossibleOutcomeError",
    "SchemaError",
    "UnstableEquilibriumError",
]


class UnstableEquilibriumError(ValueError):
    """The break point landed on a boundary between outcome regions.

    A break exactly on a region boundary belongs to no single outcome, so
    callers are expected to resample rather than pick a side.
    """


class ImpossibleOutcomeError(ValueError):
    """Conditioning on an outcome whose probability is exactly zero."""


class DegenerateDensityError(ValueError):
    """A density with no breakable region cannot produce any outcome."""


class SchemaError(ValueError):
    """A configuration document failed structural validation."""


Check = Callable[[Any, str], Any]

# Default of a field that must be given.
REQUIRED = object()

# Longest quote of a config value in an error message, in characters.
BRIEF_CHARS = 80


def brief(value: Any) -> str:
    """repr(value), cut to BRIEF_CHARS characters ending in … when longer."""
    text = repr(value)
    return text if len(text) <= BRIEF_CHARS else text[: BRIEF_CHARS - 1] + "…"


def number_field(value: Any, where: str) -> float:
    """A real number (not a boolean or NaN) as a float."""
    if isinstance(value, bool) or not isinstance(value, Real) or math.isnan(value):
        raise SchemaError(f"{where} must be a number, got {brief(value)}")
    return float(value)


def integer_field(value: Any, where: str) -> int:
    """An integer (not a boolean or a float) as an int."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise SchemaError(f"{where} must be an integer, got {brief(value)}")
    return int(value)


def integer_in(lo: int, hi: float = math.inf) -> Check:
    """Check for an integer in lo..hi."""

    def check(value: Any, where: str) -> int:
        v = integer_field(value, where)
        if not lo <= v <= hi:
            bound = f"at least {lo}" if hi == math.inf else f"in {lo}..{hi}"
            raise SchemaError(f"{where} must be {bound}, got {brief(v)}")
        return v

    return check


def array_field(check: Check, min_len: int = 0, max_len: float = math.inf) -> Check:
    """Check for an array of min_len..max_len entries, each passing `check`."""

    def checked(value: Any, where: str) -> list:
        if not isinstance(value, (list, tuple)):
            raise SchemaError(f"{where} must be an array, got {brief(value)}")
        if not min_len <= len(value) <= max_len:
            size = min_len if min_len == max_len else f"{min_len}..{max_len}"
            raise SchemaError(f"{where} must have {size} entries, got {len(value)}")
        return [check(v, f"{where}[{i}]") for i, v in enumerate(value)]

    return checked


def object_field(doc: Any, where: str, spec: Mapping[str, tuple[Check, Any]]) -> dict:
    """The fields of an object checked against spec {field: (check, default)}.

    Absent fields take their default; REQUIRED ones and fields spec does not
    name are SchemaErrors.
    """
    if not isinstance(doc, Mapping):
        raise SchemaError(f"{where} must be an object, got {type(doc).__name__}")
    unknown = [k for k in doc if k not in spec]
    if unknown:
        raise SchemaError(
            f"{where} has unknown field(s) {brief(unknown)}; expected {list(spec)}"
        )
    out = {}
    for name, (check, default) in spec.items():
        if name in doc:
            out[name] = check(doc[name], f"{where}.{name}")
        elif default is REQUIRED:
            raise SchemaError(f"{where} is missing {name}")
        else:
            out[name] = default
    return out
