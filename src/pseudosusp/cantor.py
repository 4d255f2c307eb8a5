"""Symbolic Cantor-set dynamics: shifts, subshifts, substitutions, odometers.

Points are bi-infinite symbol sequences represented by a total extension rule
plus a cached window; shifting is an O(1) re-anchoring of the rule.  All values
are immutable; every operation returns a new object.
"""

from __future__ import annotations

import math
import random
import warnings
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Union

import numpy as np


class InvalidPointError(ValueError):
    """Point is inconsistent with the system (e.g. inadmissible SFT symbols)."""


class ReducibleSFTWarning(RuntimeWarning):
    """Adjacency matrix is not irreducible; spectral radius still returned."""


# ---------------------------------------------------------------------------
# extension rules
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Periodic:
    """Tile `left` over indices < anchor and `right` over indices >= anchor."""

    left: tuple[int, ...]
    right: tuple[int, ...]
    anchor: int = 0

    def symbol(self, i: int) -> int:
        j = i - self.anchor
        if j >= 0:
            return self.right[j % len(self.right)]
        return self.left[j % len(self.left)]

    def shifted(self, steps: int) -> "Periodic":
        return Periodic(self.left, self.right, self.anchor - steps)


@dataclass(frozen=True)
class GraphPath:
    """Admissible path of an SFT: explicit core, lazy lex-smallest refill.

    Beyond the stored core the sequence continues with the lexicographically
    smallest admissible successor (right) / predecessor (left), which keeps
    backward refills deterministic.
    """

    adjacency: tuple[tuple[int, ...], ...]
    core: tuple[int, ...]
    core_lo: int
    shift: int = 0

    def symbol(self, i: int) -> int:
        j = i + self.shift
        hi = self.core_lo + len(self.core) - 1
        if self.core_lo <= j <= hi:
            return self.core[j - self.core_lo]
        if j > hi:
            return _lex_walk(self.core[-1], j - hi, _successor_map(self.adjacency))
        return _lex_walk(self.core[0], self.core_lo - j, _predecessor_map(self.adjacency))

    def shifted(self, steps: int) -> "GraphPath":
        return GraphPath(self.adjacency, self.core, self.core_lo, self.shift + steps)


@dataclass(frozen=True)
class DigitStream:
    """Mixed-radix digit list of an odometer point; indices off range read 0."""

    digits: tuple[int, ...]
    bases: tuple[int, ...]

    def symbol(self, i: int) -> int:
        if 0 <= i < len(self.digits):
            return self.digits[i]
        return 0

    def shifted(self, steps: int) -> "DigitStream":
        raise InvalidPointError("odometer points advance by adding, not by shifting")


Extension = Union[Periodic, GraphPath, DigitStream]


@lru_cache(maxsize=None)
def _successor_map(adjacency):
    out = []
    for row in adjacency:
        succ = [q for q, bit in enumerate(row) if bit]
        if not succ:
            raise InvalidPointError("adjacency row without successor")
        out.append(succ[0])
    return tuple(out)


@lru_cache(maxsize=None)
def _predecessor_map(adjacency):
    k = len(adjacency)
    out = []
    for q in range(k):
        pred = [p for p in range(k) if adjacency[p][q]]
        if not pred:
            raise InvalidPointError("adjacency column without predecessor")
        out.append(pred[0])
    return tuple(out)


def _lex_walk(start: int, steps: int, nxt: tuple[int, ...]) -> int:
    # The deterministic walk enters a cycle within len(nxt) steps.
    seen = {start: 0}
    path = [start]
    s = start
    for d in range(1, steps + 1):
        s = nxt[s]
        if s in seen:
            lead = seen[s]
            cycle = d - lead
            return path[lead + (steps - lead) % cycle]
        seen[s] = d
        path.append(s)
    return s


# ---------------------------------------------------------------------------
# points
# ---------------------------------------------------------------------------

DEFAULT_RADIUS = 32


@dataclass(frozen=True)
class SymbolSequence:
    """Concrete Cantor point: window indexed -W..W derived from `extension`."""

    extension: Extension
    alphabet_size: int
    radius: int = DEFAULT_RADIUS

    def symbol_at(self, i: int) -> int:
        return self.extension.symbol(i)

    @cached_property
    def window(self) -> tuple[int, ...]:
        w = self.radius
        return tuple(self.extension.symbol(i) for i in range(-w, w + 1))

    def validate(self) -> None:
        if any(not 0 <= s < self.alphabet_size for s in self.window):
            raise InvalidPointError("window symbol outside alphabet")
        if isinstance(self.extension, GraphPath):
            adj = self.extension.adjacency
            w = self.window
            for a, b in zip(w, w[1:]):
                if not adj[a][b]:
                    raise InvalidPointError(f"inadmissible pair ({a},{b}) for SFT adjacency")
        if isinstance(self.extension, DigitStream):
            for d, b in zip(self.extension.digits, self.extension.bases):
                if not 0 <= d < b:
                    raise InvalidPointError(f"digit {d} outside base {b}")


# ---------------------------------------------------------------------------
# systems
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FullShift:
    k: int
    label: str = "full shift"


@dataclass(frozen=True)
class SFT:
    k: int
    adjacency: tuple[tuple[int, ...], ...]
    label: str = "subshift of finite type"


@dataclass(frozen=True)
class Substitution:
    rules: tuple[tuple[int, ...], ...]
    label: str = "substitution subshift"


@dataclass(frozen=True)
class Odometer:
    bases: tuple[int, ...]
    label: str = "odometer"


CantorSystem = Union[FullShift, SFT, Substitution, Odometer]


def alphabet_size(sys: CantorSystem) -> int:
    if isinstance(sys, FullShift):
        return sys.k
    if isinstance(sys, SFT):
        return sys.k
    if isinstance(sys, Substitution):
        return len(sys.rules)
    return max(sys.bases)


def validate_system(sys: CantorSystem) -> None:
    if isinstance(sys, FullShift):
        if sys.k < 2:
            raise ValueError("full shift needs alphabet size >= 2")
    elif isinstance(sys, SFT):
        if sys.k < 2:
            raise ValueError("SFT needs alphabet size >= 2")
        if len(sys.adjacency) != sys.k or any(len(r) != sys.k for r in sys.adjacency):
            raise ValueError("adjacency must be k x k")
        if any(not any(row) for row in sys.adjacency):
            raise ValueError("adjacency has an all-zero row")
        if any(not any(sys.adjacency[p][q] for p in range(sys.k)) for q in range(sys.k)):
            raise ValueError("adjacency has an all-zero column")
    elif isinstance(sys, Substitution):
        k = len(sys.rules)
        if k < 2 or any(len(r) == 0 for r in sys.rules):
            raise ValueError("substitution needs >= 2 letters and nonempty rules")
        if any(s >= k or s < 0 for r in sys.rules for s in r):
            raise ValueError("substitution rule symbol outside alphabet")
        if not _primitive(sys.rules, 2 * k):
            raise ValueError("substitution is not primitive at desk scale")
    elif isinstance(sys, Odometer):
        if len(sys.bases) < 1 or any(b < 2 for b in sys.bases):
            raise ValueError("odometer needs depth >= 1 and bases >= 2")
    else:
        raise TypeError(f"unknown system {sys!r}")


def _primitive(rules, max_power: int) -> bool:
    k = len(rules)
    m = [[0] * k for _ in range(k)]
    for a, word in enumerate(rules):
        for b in word:
            m[a][b] = 1
    p = m
    for _ in range(max_power):
        if all(all(x > 0 for x in row) for row in p):
            return True
        p = [[min(1, sum(p[i][t] * m[t][j] for t in range(k))) for j in range(k)] for i in range(k)]
    return False


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def shift_forward(c: SymbolSequence, sys: CantorSystem) -> SymbolSequence:
    """Apply the homeomorphism once (shift left; odometer: add one)."""
    return shift_power(c, sys, 1)


def shift_backward(c: SymbolSequence, sys: CantorSystem) -> SymbolSequence:
    return shift_power(c, sys, -1)


def shift_power(c: SymbolSequence, sys: CantorSystem, w: int) -> SymbolSequence:
    """h^w in one move: re-anchor the rule (shifts) or add w (odometer)."""
    if w == 0:
        return c
    if isinstance(sys, Odometer):
        ext = c.extension
        if not isinstance(ext, DigitStream):
            raise InvalidPointError("odometer point must carry a digit stream")
        digits = _odometer_add(ext.digits, ext.bases, w)
        out = SymbolSequence(DigitStream(digits, ext.bases), c.alphabet_size, c.radius)
    else:
        out = SymbolSequence(c.extension.shifted(w), c.alphabet_size, c.radius)
        if isinstance(sys, SFT):
            out.validate()
    return out


def _odometer_add(digits: tuple[int, ...], bases: tuple[int, ...], w: int) -> tuple[int, ...]:
    total = 1
    for b in bases:
        total *= b
    value = 0
    place = 1
    for d, b in zip(digits, bases):
        value += d * place
        place *= b
    value = (value + w) % total  # carry past depth is dropped
    out = []
    for b in bases:
        out.append(value % b)
        value //= b
    return tuple(out)


def cantor_metric(c1: SymbolSequence, c2: SymbolSequence, W: int) -> float:
    """Cylinder metric 2^(-m), m = least |i| <= W with a mismatch; 0 if none."""
    if c1.alphabet_size != c2.alphabet_size:
        raise ValueError("points live over different alphabets")
    e1, e2 = c1.extension, c2.extension
    for m in range(W + 1):
        if e1.symbol(m) != e2.symbol(m) or (m and e1.symbol(-m) != e2.symbol(-m)):
            return 2.0 ** (-m)
    return 0.0


def spectral_radius(matrix: np.ndarray, tol: float = 1e-9, max_iter: int = 10_000) -> float:
    """Power iteration with an all-ones start vector (deterministic)."""
    a = np.asarray(matrix, dtype=float)
    v = np.ones(a.shape[0])
    lam = 0.0
    for _ in range(max_iter):
        w = a @ v
        norm = w.sum()
        if norm == 0.0:
            return 0.0
        new = norm / v.sum()
        w = w / norm * v.sum()
        if lam and abs(new - lam) <= tol * abs(new):
            return new
        lam, v = new, w
    return lam


def entropy_exact(sys: CantorSystem) -> float:
    """Exact topological entropy for the supported system kinds."""
    if isinstance(sys, FullShift):
        return math.log(sys.k)
    if isinstance(sys, SFT):
        if not _irreducible(sys.adjacency):
            warnings.warn("SFT adjacency is reducible; entropy of the full language returned",
                          ReducibleSFTWarning, stacklevel=2)
        return math.log(spectral_radius(np.array(sys.adjacency)))
    if isinstance(sys, (Substitution, Odometer)):
        return 0.0
    raise TypeError(f"unknown system {sys!r}")


def _irreducible(adjacency) -> bool:
    k = len(adjacency)
    reach = [[1 if i == j or adjacency[i][j] else 0 for j in range(k)] for i in range(k)]
    for _ in range(k):
        reach = [[min(1, sum(reach[i][t] * reach[t][j] for t in range(k)))
                  for j in range(k)] for i in range(k)]
    return all(all(row) for row in reach)


def random_point(sys: CantorSystem, seed: int, W: int = DEFAULT_RADIUS) -> SymbolSequence:
    """Deterministic seeded point of the system, window radius W."""
    rng = random.Random(seed)
    if isinstance(sys, FullShift):
        word = tuple(rng.randrange(sys.k) for _ in range(2 * W + 1))
        return SymbolSequence(Periodic(word, word, -W), sys.k, W)
    if isinstance(sys, SFT):
        s = rng.randrange(sys.k)
        walk = [s]
        for _ in range(2 * W):
            succ = [q for q, bit in enumerate(sys.adjacency[s]) if bit]
            s = rng.choice(succ)
            walk.append(s)
        return SymbolSequence(GraphPath(sys.adjacency, tuple(walk), -W), sys.k, W)
    if isinstance(sys, Substitution):
        k = len(sys.rules)
        word = (rng.randrange(k),)
        while len(word) < 4 * W + 3:
            word = tuple(s for a in word for s in sys.rules[a])
        off = rng.randrange(len(word) - (2 * W + 1))
        sl = word[off:off + 2 * W + 1]
        return SymbolSequence(Periodic(sl, sl, -W), k, W)
    if isinstance(sys, Odometer):
        digits = tuple(rng.randrange(b) for b in sys.bases)
        return SymbolSequence(DigitStream(digits, sys.bases), alphabet_size(sys), W)
    raise TypeError(f"unknown system {sys!r}")


def recurrence_profile(sys: CantorSystem, c: SymbolSequence, L: int,
                       horizon: int) -> dict[tuple[int, ...], float]:
    """Max gap between consecutive sightings of each length-L word along the
    first `horizon` backward iterates.  Unseen words map to inf; a single
    sighting reports the conservative gap `horizon`."""
    last: dict[tuple[int, ...], int] = {}
    gaps: dict[tuple[int, ...], float] = {}
    counts: dict[tuple[int, ...], int] = {}
    cur = c
    for t in range(horizon):
        word = tuple(cur.symbol_at(j) for j in range(L))
        if word in last:
            gaps[word] = max(gaps.get(word, 0.0), float(t - last[word]))
        last[word] = t
        counts[word] = counts.get(word, 0) + 1
        cur = shift_backward(cur, sys)
    out: dict[tuple[int, ...], float] = {}
    for word in _all_words(sys, L):
        if word not in counts:
            out[word] = math.inf
        elif counts[word] == 1:
            out[word] = float(horizon)
        else:
            out[word] = gaps[word]
    return out


def _all_words(sys: CantorSystem, L: int):
    """Every legal length-L word in lexicographic order (odometer: every
    prefix of the first L digits)."""
    if isinstance(sys, Odometer):
        prefixes = [()]
        for b in sys.bases[:L]:
            prefixes = [p + (d,) for p in prefixes for d in range(b)]
        return prefixes
    if isinstance(sys, Substitution):
        return sorted(_language_words(sys.rules, L))
    k = alphabet_size(sys)
    words = [()]
    for _ in range(L):
        words = [w + (s,) for w in words for s in range(k)]
    if isinstance(sys, SFT):
        words = [w for w in words if all(sys.adjacency[a][b] for a, b in zip(w, w[1:]))]
    return words


def mixing_witness_symbolic(sys: CantorSystem, u: tuple[int, ...], v: tuple[int, ...],
                            horizon: int):
    """Least n in 1..horizon with [u] meeting the n-step preimage of [v],
    else None (n = 0 is the trivial self-intersection and is excluded)."""
    u, v = tuple(u), tuple(v)
    if isinstance(sys, FullShift):
        for n in range(1, horizon + 1):
            if _overlap_consistent(u, v, n):
                return n
        return None
    if isinstance(sys, SFT):
        adj = [[bool(x) for x in row] for row in sys.adjacency]
        power = adj  # adj^(n - len(u) + 1) maintained incrementally
        for n in range(1, horizon + 1):
            if n < len(u):
                merged = _merge(u, v, n)
                if merged is not None and all(sys.adjacency[a][b] for a, b in zip(merged, merged[1:])):
                    return n
            else:
                if n > len(u):
                    power = _bool_mul(power, adj)
                if power[u[-1]][v[0]]:
                    return n
        return None
    if isinstance(sys, Substitution):
        best = None
        for big in _substitution_language(sys.rules, 6):
            pos_u = [i for i in range(len(big) - len(u) + 1) if big[i:i + len(u)] == u]
            pos_v = [i for i in range(len(big) - len(v) + 1) if big[i:i + len(v)] == v]
            for a in pos_u:
                for b in pos_v:
                    n = b - a
                    if 1 <= n <= horizon and (best is None or n < best):
                        best = n
        return best
    if isinstance(sys, Odometer):
        pu = 1
        for b in sys.bases[:len(u)]:
            pu *= b
        pv = 1
        for b in sys.bases[:len(v)]:
            pv *= b
        val_u = _digit_value(u, sys.bases)
        val_v = _digit_value(v, sys.bases)
        for n in range(1, horizon + 1):
            if len(v) <= len(u):
                ok = (val_u + n) % pv == val_v
            else:
                ok = (val_v - n) % pu == val_u
            if ok:
                return n
        return None
    raise TypeError(f"unknown system {sys!r}")


def _digit_value(digits, bases) -> int:
    value, place = 0, 1
    for d, b in zip(digits, bases):
        value += d * place
        place *= b
    return value


def _overlap_consistent(u, v, n) -> bool:
    for j in range(len(v)):
        i = n + j
        if i < len(u) and u[i] != v[j]:
            return False
    return True


def _merge(u, v, n):
    if not _overlap_consistent(u, v, n):
        return None
    length = max(len(u), n + len(v))
    out = list(u) + [None] * (length - len(u))
    for j, s in enumerate(v):
        out[n + j] = s
    if any(s is None for s in out):
        return None  # gap inside merged word cannot happen for n < len(u)
    return tuple(out)


def _bool_mul(a, b):
    k = len(a)
    return [[any(a[i][t] and b[t][j] for t in range(k)) for j in range(k)] for i in range(k)]


def _substitution_language(rules, depth: int):
    words = []
    for a in range(len(rules)):
        w = (a,)
        for _ in range(depth):
            w = tuple(s for x in w for s in rules[x])
        words.append(w)
    return words


def _legal_pairs(rules) -> set[tuple[int, int]]:
    """The legal two-letter words: those inside an image sigma(a), closed
    under ab -> the pair straddling sigma(a)sigma(b)."""
    pairs = {tuple(r[i:i + 2]) for r in rules for i in range(len(r) - 1)}
    while True:
        more = pairs | {(rules[a][-1], rules[b][0]) for a, b in pairs}
        if more == pairs:
            return pairs
        pairs = more


def _language_words(rules, L: int) -> set[tuple[int, ...]]:
    """Every legal word of length L of a primitive substitution: the
    length-L factors of sigma^m(ab) over the legal two-letter words ab, m
    the least depth with |sigma^m(c)| >= L for every letter c.

    Complete: a legal word u of length L is a factor of some sigma^M(c),
    M >= m, which is the concatenation of the blocks sigma^m(x) over the
    letters x of sigma^(M-m)(c).  Each block has length >= L, so u lies
    inside two consecutive blocks sigma^m(x)sigma^m(y), and xy is legal."""
    images = [(a,) for a in range(len(rules))]
    while min(len(w) for w in images) < L:
        images = [tuple(s for x in w for s in rules[x]) for w in images]
    words = set()
    for a, b in _legal_pairs(rules):
        big = images[a] + images[b]
        words.update(big[i:i + L] for i in range(len(big) - L + 1))
    return words


# canned systems used across fixtures and tests

def golden_mean_sft() -> SFT:
    return SFT(2, ((1, 1), (1, 0)), label="golden-mean SFT")


def thue_morse() -> Substitution:
    return Substitution(((0, 1), (1, 0)), label="Thue-Morse substitution")
