"""Exact continuous piecewise-linear functions on [0, 1], each coordinate a
`Fraction`: the speed of a map that fixes t, and a tower's collar profiles.
Standard library only, so a command that reads a speed loads no verifier."""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction

ZERO, HALF, ONE = Fraction(0), Fraction(1, 2), Fraction(1)

# a continuous piecewise-linear function: its (x, y) breakpoints, x increasing
PL = tuple[tuple[Fraction, Fraction], ...]


def pl_at(f: PL, x: Fraction) -> Fraction:
    """f(x), for x between f's first and last breakpoints."""
    k = min(max(bisect_right([bx for bx, _ in f], x), 1), len(f) - 1)
    (x0, y0), (x1, y1) = f[k - 1], f[k]
    return y0 + (x - x0) * (y1 - y0) / (x1 - x0)


def pl_sum(fs: list[PL]) -> PL:
    """The sum of PL functions on [0, 1], on the union of their breakpoints."""
    xs = sorted({x for f in fs for x, _ in f})
    return tuple((x, sum(pl_at(f, x) for f in fs)) for x in xs)
