"""Exception types shared across the package.

Everything derives from ValueError so callers can treat any of these as a
domain failure, while still being able to catch the specific condition.
number_field and integer_field check one field of a JSON config document
and raise SchemaError for anything else, booleans included.
"""

from __future__ import annotations

from numbers import Integral, Real
from typing import Any

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


def number_field(value: Any, where: str) -> float:
    """A real number (not a boolean) as a float."""
    if isinstance(value, bool) or not isinstance(value, Real):
        raise SchemaError(f"{where} must be a number, got {value!r}")
    return float(value)


def integer_field(value: Any, where: str) -> int:
    """An integer (not a boolean or a float) as an int."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise SchemaError(f"{where} must be an integer, got {value!r}")
    return int(value)
