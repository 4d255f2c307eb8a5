"""Continuous piecewise-linear functions on [0, 1]: the speed of a map that
fixes t, a tower's collar profiles, the float profiles of twists and
reparams, and the interval maps of horseshoe certificates.  A function is
its (x, y) breakpoints, x increasing strictly from 0 to 1, every
coordinate a `Fraction` or every one a float: the same arithmetic is exact
on the first and float on the second.  Standard library only, so a command
that reads a speed loads no verifier."""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction

ZERO, HALF, ONE = Fraction(0), Fraction(1, 2), Fraction(1)

# a continuous piecewise-linear function: its (x, y) breakpoints, x increasing
PL = tuple[tuple[Fraction, Fraction], ...]


def pl_check(points) -> PL:
    """The breakpoints as a PL; ValueError unless their x increase strictly
    from 0 to 1."""
    f = tuple(points)
    xs = [x for x, _ in f]
    if len(xs) < 2 or xs[0] != 0 or xs[-1] != 1 or any(b <= a for a, b in zip(xs, xs[1:])):
        raise ValueError("breakpoints must increase from 0 to 1")
    return f


def pl_at(f: PL, x: Fraction) -> Fraction:
    """f(x), extended past the first and last breakpoints by the end pieces."""
    k = min(max(bisect_right([bx for bx, _ in f], x), 1), len(f) - 1)
    (x0, y0), (x1, y1) = f[k - 1], f[k]
    return y0 + (x - x0) * (y1 - y0) / (x1 - x0)


def pl_image(f: PL, lo: Fraction, hi: Fraction) -> tuple[Fraction, Fraction]:
    """The least and the greatest value of f on [lo, hi]: f is linear
    between breakpoints, so each is its value at lo, at hi or at a
    breakpoint between."""
    ys = [pl_at(f, lo), pl_at(f, hi)] + [y for x, y in f if lo < x < hi]
    return min(ys), max(ys)


def pl_sum(fs: list[PL]) -> PL:
    """The sum of PL functions on [0, 1], on the union of their breakpoints."""
    xs = sorted({x for f in fs for x, _ in f})
    return tuple((x, sum(pl_at(f, x) for f in fs)) for x in xs)
