"""Exact arithmetic shared by the solvers: rational parameters read from
floats."""

from __future__ import annotations

from fractions import Fraction


def exact_fraction(value: Fraction | int | float | str) -> Fraction:
    """value as an exact Fraction; a float is read by its shortest decimal
    repr, so 3.55 becomes 71/20 rather than the binary fraction nearest to
    it, and agrees with the string "3.55"."""
    return Fraction(repr(value)) if isinstance(value, float) else Fraction(value)
