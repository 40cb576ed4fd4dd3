"""Exact arithmetic shared by the solvers: rational parameters read from
floats, and the conversion of ordered family counts into unordered ones."""

from __future__ import annotations

from collections.abc import Iterable
from fractions import Fraction
from math import factorial


def exact_fraction(value: Fraction | int | float | str) -> Fraction:
    """value as an exact Fraction; a float is read by its shortest decimal
    repr, so 3.55 becomes 71/20 rather than the binary fraction nearest to
    it, and agrees with the string "3.55"."""
    return Fraction(repr(value)) if isinstance(value, float) else Fraction(value)


def unordered_total(ordered: Iterable[tuple[int, int]]) -> int:
    """Sum of count // r! over (r, count) pairs, where count tallies ordered
    r-tuples of distinct members, so that it must be a nonnegative multiple
    of r!; anything else means the count is wrong and raises."""
    total = 0
    for r, count in ordered:
        f = factorial(r)
        if count < 0 or count % f != 0:
            raise AssertionError(
                f"ordered count for r={r} is {count}, not a nonnegative multiple of {r}!"
            )
        total += count // f
    return total
