"""Symbolic Cantor-set dynamics: the points, the base classes every system
derives from, subshifts of finite type (the full shift is the one whose
adjacency is all ones) and odometers.  Substitutions, the third kind, live
in `substitution` on the shift base class here.

A point of a shift (an SFT or a substitution) is an explicit symbol word
over [-R, R] plus an offset: h^w only moves the offset, and a read outside
[-R, R] widens the word through the system's own `splice`.  An odometer
point is its integer value.  Each system class knows all of its own
behaviour (see "systems" below): every question about cylinders goes
through its `joins` and its `cylinder`.
"""

from __future__ import annotations

import itertools
import math
import random
import warnings
from typing import TYPE_CHECKING, NamedTuple, Union

if TYPE_CHECKING:
    from .substitution import Substitution


class InvalidPointError(ValueError):
    """Point is inconsistent with the system (e.g. inadmissible SFT symbols)."""


class ReducibleSFTWarning(RuntimeWarning):
    """Adjacency matrix is not irreducible; spectral radius still returned."""


# ---------------------------------------------------------------------------
# points
# ---------------------------------------------------------------------------

class ShiftPoint(NamedTuple):
    """A point of a shift: the symbols at [-R, R] of a word of length
    2R + 1, read at i + offset.  Every power of the point shares the word.

    A read outside [-R, R] widens the word in place by the system's
    `splice(point, R, stream, 2R)`: R doubles, and the new outer symbols
    come from a stream seeded by the word itself.  So each symbol is a
    function of the word the point was built from, whatever the order of
    reads, and no caller's rng is consumed."""

    system: _Shift
    word: list[int]
    offset: int = 0

    def symbol_at(self, i: int) -> int:
        return self.symbols(i, i + 1)[0]

    def symbols(self, lo: int, hi: int) -> list[int]:
        """The symbols at lo..hi - 1, after widening the word until it holds
        them."""
        lo, hi = lo + self.offset, hi + self.offset
        while max(-lo, hi - 1) > len(self.word) // 2:
            R = len(self.word) // 2
            wide = self.system.splice(ShiftPoint(self.system, self.word), R,
                                      random.Random(str(self.word)), max(2 * R, 1))
            self.word[:] = wide.word
        R = len(self.word) // 2
        return self.word[lo + R:hi + R]


class OdometerPoint(NamedTuple):
    """A point of an odometer: its value in [0, prod(bases)).  Symbol i is
    digit i of the value in mixed radix; indices off the digits read 0."""

    system: Odometer
    value: int

    def symbol_at(self, i: int) -> int:
        bases = self.system.bases
        if not 0 <= i < len(bases):
            return 0
        return self.value // math.prod(bases[:i]) % bases[i]


CantorPoint = Union[ShiftPoint, OdometerPoint]


def depth_for(eps: float) -> int:
    """Least D with 2^-(D+1) < eps: window agreement on |i| <= D certifies
    cylinder distance < eps."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    d = 0
    while 2.0 ** (-(d + 1)) >= eps:
        d += 1
    return d


def _depth(rho: float, W: int) -> int:
    """The largest D <= W with 2^-D >= rho, or -1 when rho > 1.

    The cylinder metric at window W puts two points of a system at 2^-|i|,
    i the position nearest 0 among its `positions(W)` where they differ,
    and at 0 if there is none.  It is an ultrametric, so the open ball of
    radius rho about c is a cylinder: the points that agree with c at
    `positions(D)`."""
    return -1 if rho > 1 else min(depth_for(rho), W)


# ---------------------------------------------------------------------------
# systems
# ---------------------------------------------------------------------------
#
# Each class below is the one place that knows how its system behaves (README
# "Cantor systems"); `config.build_cantor` maps a kind name to its class.


class _System:
    """What every system derives from two methods of its own, with words as
    tuples of symbols.  `joins(u, i, v, j)` decides whether some point c has
    h^i(c) in [u] and h^j(c) in [v], where [u] holds the points whose
    symbols from position 0 on (a shift's 0, 1, ..., an odometer's leading
    digits) are u.  `cylinder(c, D)` is c's word at `positions(D)` and the
    position where that word starts."""

    __slots__ = ()

    def mixing_witness(self, u, v, horizon: int):
        """The least n in 1..horizon with [u] meeting h^-n[v], or None.  u and
        v must be nonempty words of the system, so that neither cylinder is
        empty; ValueError naming the argument otherwise."""
        u, v = _cylinder_words(self, u, v)
        return next((n for n in range(1, horizon + 1) if self.joins(u, 0, v, n)), None)

    def ball(self, c, rho: float, W: int):
        """The open ball of radius rho about c in the cylinder metric at
        window W, as the `cylinder` at `_depth(rho, W)`; None when rho > 1,
        where the ball is the whole space."""
        D = _depth(rho, W)
        return None if D < 0 else self.cylinder(c, D)


class _Shift(_System):
    """What an SFT and a substitution share: a point is a `ShiftPoint`
    that h^w re-anchors, and a word is a block of consecutive symbols."""

    __slots__ = ()

    def point(self, word) -> ShiftPoint:
        """The point whose symbols over [-R, R] are `word`, of length 2R + 1;
        InvalidPointError unless every symbol lies in the alphabet.  Every
        point is built here."""
        if min(word) < 0 or max(word) >= self.k:
            raise InvalidPointError("window symbol outside alphabet")
        return ShiftPoint(self, list(word))

    def power(self, c: ShiftPoint, w: int) -> ShiftPoint:
        """h^w in one move: move the offset."""
        if w == 0:
            return c
        return ShiftPoint(self, c.word, c.offset + w)

    def contains(self, word) -> bool:
        return all(0 <= s < self.k for s in word)

    def words(self, L: int) -> list[tuple[int, ...]]:
        """Every legal length-L word in lexicographic order."""
        return [w for w in itertools.product(range(self.k), repeat=L) if self.contains(w)]

    def positions(self, D: int) -> range:
        return range(-D, D + 1)

    def cylinder(self, c: ShiftPoint, D: int) -> tuple[tuple[int, ...], int]:
        return tuple(c.symbols(-D, D + 1)), -D


class SFT(_Shift):
    __slots__ = ("k", "adjacency", "label")

    def __init__(self, k: int, adjacency: tuple[tuple[int, ...], ...],
                 label: str = "subshift of finite type"):
        adj = adjacency
        if k < 2:
            raise ValueError(f"{label} needs alphabet size >= 2")
        if len(adj) != k or any(len(r) != k for r in adj):
            raise ValueError("adjacency must be k x k")
        if any(x not in (0, 1) for row in adj for x in row):
            raise ValueError("adjacency entries must be 0 or 1")
        if any(not any(row) for row in adj):
            raise ValueError("adjacency has an all-zero row")
        if any(not any(adj[p][q] for p in range(k)) for q in range(k)):
            raise ValueError("adjacency has an all-zero column")
        self.k, self.adjacency, self.label = k, adjacency, label

    def __repr__(self) -> str:
        return (f"{type(self).__name__}(k={self.k!r}, adjacency={self.adjacency!r}, "
                f"label={self.label!r})")

    def point(self, word) -> ShiftPoint:
        """As for every shift, and InvalidPointError unless every pair of
        neighbours is admissible."""
        c = super().point(word)
        bad = next(((a, b) for a, b in zip(c.word, c.word[1:]) if not self.adjacency[a][b]),
                   None)
        if bad is not None:
            raise _inadmissible(*bad)
        return c

    def contains(self, word) -> bool:
        return super().contains(word) and all(self.adjacency[a][b]
                                              for a, b in zip(word, word[1:]))

    def random_point(self, seed: int, W: int) -> ShiftPoint:
        rng = random.Random(seed)
        s = rng.randrange(self.k)
        walk = [s]
        for _ in range(2 * W):
            succ = [q for q, bit in enumerate(self.adjacency[s]) if bit]
            s = rng.choice(succ)
            walk.append(s)
        return self.point(walk)

    def splice(self, base: ShiftPoint, D: int, rng: random.Random, W: int) -> ShiftPoint:
        """A point over [-W, W] agreeing with `base` on |i| <= D, continued
        by admissible steps drawn outward: first to the right, then to the
        left."""
        d = min(D, W)
        right = base.symbols(-d, d + 1)
        left = right[:1]
        for _ in range(W - d):
            succ = [q for q, bit in enumerate(self.adjacency[right[-1]]) if bit]
            right.append(succ[rng.randrange(len(succ))])
        for _ in range(W - d):
            pred = [q for q in range(self.k) if self.adjacency[q][left[-1]]]
            left.append(pred[rng.randrange(len(pred))])
        return self.point(left[:0:-1] + right)

    def entropy_exact(self) -> float:
        if not _irreducible(self.adjacency):
            warnings.warn("SFT adjacency is reducible; entropy of the full language returned",
                          ReducibleSFTWarning, stacklevel=2)
        return math.log(spectral_radius(self.adjacency))

    def joins(self, u, i: int, v, j: int) -> bool:
        """Whether a point holds the legal word u from position i on and v
        from j on.  Overlapping words must agree where they overlap, and then
        every neighbour pair lies in one of them; apart, they join across a
        gap of g steps iff (A^g > 0) from u's last symbol to v's first.  A
        legal word extends both ways, since no row or column of A is zero."""
        if j < i:
            u, i, v, j = v, j, u, i
        off = j - i
        if off < len(u):
            return u[off:off + len(v)] == v[:len(u) - off]
        return bool(_reach(self.adjacency, off - len(u) + 1)[u[-1]][v[0]])

    def class_counts(self, D: int, seen: list[int]) -> dict:
        """Keyed by the core's end symbols: the row sum of A^(f_R) at the
        right one times the column sum of A^(f_L) at the left one; a gap in
        the seen positions of g enters as (A^g > 0)."""
        right, left = _outward(seen, D)
        rows = _fillings(self.adjacency, [b - a for a, b in zip(right, right[1:])])
        transposed = tuple(zip(*self.adjacency))
        cols = _fillings(transposed, [a - b for a, b in zip(left, left[1:])])
        joined = _reach(self.adjacency, 2 * D)
        return {(b, a): cols[b] * rows[a]
                for b in range(self.k) for a in range(self.k) if joined[b][a]}


class FullShift(SFT):
    """The full k-shift: the SFT whose adjacency is all ones."""

    __slots__ = ()

    def __init__(self, k: int):
        super().__init__(k, ((1,) * k,) * k, "full shift")


class Odometer(_System):
    """Adding one in mixed radix: digit i has base bases[i], and the carry
    past the last digit is dropped.  A word is a prefix of the digits."""

    __slots__ = ("bases", "label")

    def __init__(self, bases: tuple[int, ...], label: str = "odometer"):
        if len(bases) < 1 or any(b < 2 for b in bases):
            raise ValueError("odometer needs depth >= 1 and bases >= 2")
        self.bases, self.label = bases, label

    def __repr__(self) -> str:
        return f"Odometer(bases={self.bases!r}, label={self.label!r})"

    def power(self, c: OdometerPoint, w: int) -> OdometerPoint:
        """h^w in one move: add w; the carry past the last digit is dropped."""
        if w == 0:
            return c
        return OdometerPoint(self, (c.value + w) % math.prod(self.bases))

    def contains(self, word) -> bool:
        return len(word) <= len(self.bases) and all(0 <= d < b
                                                    for d, b in zip(word, self.bases))

    def words(self, L: int) -> list[tuple[int, ...]]:
        """Every prefix of the first L digits, in lexicographic order."""
        return list(itertools.product(*(range(b) for b in self.bases[:L])))

    def positions(self, D: int) -> range:
        return range(min(D + 1, len(self.bases)))

    def cylinder(self, c: OdometerPoint, D: int) -> tuple[tuple[int, ...], int]:
        return tuple(c.symbol_at(i) for i in self.positions(D)), 0

    def random_point(self, seed: int, W: int) -> OdometerPoint:
        rng = random.Random(seed)
        digits = [rng.randrange(b) for b in self.bases]
        return OdometerPoint(self, _digit_value(digits, self.bases))

    def entropy_exact(self) -> float:
        return 0.0

    def joins(self, u, i: int, v, j: int) -> bool:
        """Whether a value c has c + i in [u] and c + j in [v]: c + i must be
        val(u) modulo the product of u's bases and c + j val(v) modulo that
        of v's.  One product divides the other, so that is
        val(u) + j - i = val(v) modulo the product of the shorter word's
        bases."""
        p = math.prod(self.bases[:min(len(u), len(v))])
        return (_digit_value(u, self.bases) + j - i - _digit_value(v, self.bases)) % p == 0

    def class_counts(self, D: int, seen: list[int]) -> dict:
        """1, an identity rather than a sample: the windows compare the first
        D + 1 digits of value + w_i, i.e. value + w_i modulo the product of
        the first D + 1 bases, and every point of the cylinder has the same
        value modulo that product."""
        return {(): 1}


CantorSystem = Union[SFT, "Substitution", Odometer]


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _cylinder_words(sys: CantorSystem, u, v) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """u and v as tuples; ValueError naming the argument unless each is a
    nonempty word of the system, so that its cylinder is not empty."""
    u, v = tuple(u), tuple(v)
    for name, word in (("u", u), ("v", v)):
        if not word or not sys.contains(word):
            raise ValueError(f"{name} must be a nonempty word of the {sys.label}, got {word}")
    return u, v


def _inadmissible(a, b) -> InvalidPointError:
    return InvalidPointError(f"inadmissible pair ({a},{b}) for SFT adjacency")


def _bool_mul(a, b) -> list[list[int]]:
    """The 0/1 product of two square matrices read as 0/1 (an entry is 1 iff
    it is nonzero): entry (i, j) is 1 iff a[i][t] and b[t][j] for some t."""
    cols = list(zip(*b))
    return [[int(any(x and y for x, y in zip(row, col))) for col in cols] for row in a]


def spectral_radius(matrix, tol: float = 1e-12, max_iter: int = 10_000) -> float:
    """The Perron root of a nonnegative square matrix given as rows: the
    largest root over its strongly connected classes, each an irreducible
    block (Frobenius normal form).  A one-state class without a loop has
    root 0."""
    reach = _closure(matrix)
    roots = [0.0]
    for i in range(len(matrix)):
        cls = [j for j in range(len(matrix)) if reach[i][j] and reach[j][i]]
        if cls[0] == i:  # each class once, at its least state
            block = [[matrix[p][q] for q in cls] for p in cls]
            roots.append(_perron_root(block, tol, max_iter))
    return max(roots)


def _perron_root(matrix, tol: float, max_iter: int) -> float:
    """The Perron root of an irreducible nonnegative matrix.  Every positive
    v brackets it between the least and the largest ratio (Av)_i / v_i
    (Collatz-Wielandt).  v starts at all ones (deterministic) and steps by
    A + I, which keeps it positive and makes the bracket close even when A
    is periodic; the iteration stops once the bracket is tol-narrow."""
    a = [[float(x) for x in row] for row in matrix]
    v = [1.0] * len(a)
    for _ in range(max_iter):
        av = [sum(x * y for x, y in zip(row, v)) for row in a]
        ratios = [x / y for x, y in zip(av, v)]
        lo, hi = min(ratios), max(ratios)
        if hi - lo <= tol * hi:
            break
        norm = sum(av) + sum(v)
        v = [(x + y) / norm for x, y in zip(av, v)]
    return (lo + hi) / 2


def _closure(adjacency) -> list[list[int]]:
    """0/1 matrix: whether state j can be reached from state i in zero or
    more steps, that is in fewer than k: (I + A)^k > 0."""
    k = len(adjacency)
    return _reach([[int(i == j or bool(adjacency[i][j])) for j in range(k)] for i in range(k)], k)


def _irreducible(adjacency) -> bool:
    return all(all(row) for row in _closure(adjacency))


def _digit_value(digits, bases) -> int:
    value, place = 0, 1
    for d, b in zip(digits, bases):
        value += d * place
        place *= b
    return value


def _outward(seen: list[int], D: int) -> tuple[list[int], list[int]]:
    """The seen positions from each edge of the core [-D, D] outward."""
    return [p for p in seen if p >= D], [p for p in reversed(seen) if p <= -D]


def _reach(adjacency, steps: int) -> list[list[int]]:
    """0/1 matrix: (A^steps > 0), without the growth of A^steps, by
    repeated squaring."""
    k = len(adjacency)
    out = [[int(i == j) for j in range(k)] for i in range(k)]
    square = adjacency
    while steps:
        if steps & 1:
            out = _bool_mul(out, square)
        steps >>= 1
        if steps:
            square = _bool_mul(square, square)
    return out


def _fillings(adjacency, steps: list[int]) -> list[int]:
    """Entry a: the admissible fillings of the seen positions past a core
    edge holding symbol a, where `steps` are the distances between
    consecutive seen positions going outward; a step g > 1 crosses unseen
    positions and enters as (A^g > 0).  Exact integers."""
    count = [1] * len(adjacency)
    for g in reversed(steps):
        count = [sum(c for c, bit in zip(count, row) if bit) for row in _reach(adjacency, g)]
    return count
