"""Substitution subshifts: the shift whose language is the set of factors
of a primitive substitution's iterates, on the points of `cantor._Shift`.
`cantor.build_cantor` imports this module only for a substitution."""

from __future__ import annotations

import random

from .cantor import ShiftPoint, _reach, _Shift


class Substitution(_Shift):
    __slots__ = ("rules", "label")

    def __init__(self, rules: tuple[tuple[int, ...], ...],
                 label: str = "substitution subshift"):
        k = len(rules)
        if k < 2 or any(len(r) == 0 for r in rules):
            raise ValueError("substitution needs >= 2 letters and nonempty rules")
        if any(s >= k or s < 0 for r in rules for s in r):
            raise ValueError("substitution rule symbol outside alphabet")
        if not _primitive(rules):
            raise ValueError("substitution is not primitive")
        self.rules, self.label = rules, label

    def __repr__(self) -> str:
        return f"Substitution(rules={self.rules!r}, label={self.label!r})"

    @property
    def k(self) -> int:
        return len(self.rules)

    def contains(self, word) -> bool:
        return tuple(word) in _language_words(self.rules, len(word))

    def words(self, L: int) -> list[tuple[int, ...]]:
        return sorted(_language_words(self.rules, L))

    def random_point(self, seed: int, W: int) -> ShiftPoint:
        rng = random.Random(seed)
        word = (rng.randrange(self.k),)
        while len(word) < 4 * W + 3:
            word = tuple(s for a in word for s in self.rules[a])
        off = rng.randrange(len(word) - (2 * W + 1))
        return self.point(word[off:off + 2 * W + 1])

    def splice(self, base: ShiftPoint, D: int, rng: random.Random, W: int) -> ShiftPoint:
        """A language word over [-W, W] agreeing with `base` on |i| <= D (on
        the whole window when D > W), drawn from every such word in
        lexicographic order.  Each is a factor of one of the `_blocks`, the
        core of `base` is legal, and a primitive substitution's legal words
        extend on both sides, so there is one."""
        d = min(D, W)
        core = tuple(base.symbols(-d, d + 1))
        hits = sorted({block[p + d - W:p + d + W + 1] for block in _blocks(self.rules, 2 * W + 1)
                       for p in _occurrences(block, core) if W <= p + d < len(block) - W})
        return self.point(hits[rng.randrange(len(hits))])

    def entropy_exact(self) -> float:
        return 0.0

    def joins(self, u, i: int, v, j: int) -> bool:
        """Whether a point holds the legal word u from position i on and v
        from j on: whether some block of the `_blocks` for the span holds u
        at some p and v at p + (j - i), overlapping or not, since every legal
        word of that length is a factor of a block and every factor is legal."""
        if j < i:
            u, i, v, j = v, j, u, i
        off = j - i
        for block in _blocks(self.rules, max(len(u), off + len(v))):
            at_v = set(_occurrences(block, v))
            if any(p + off in at_v for p in _occurrences(block, u)):
                return True
        return False

    def class_counts(self, D: int, seen: list[int]) -> dict:
        """Keyed by the core: the distinct restrictions to the seen positions
        of the language words on their span whose core is the cylinder's."""
        lo = seen[0]
        picks = [p - lo for p in seen]
        restrictions: dict[tuple[int, ...], set] = {}
        for word in _language_words(self.rules, seen[-1] - lo + 1):
            core = word[-D - lo:D - lo + 1]
            restrictions.setdefault(core, set()).add(tuple(word[i] for i in picks))
        return {core: len(r) for core, r in restrictions.items()}


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _primitive(rules) -> bool:
    """Whether some power of the k x k substitution matrix M is positive.
    Wielandt's bound: a primitive M has M^((k-1)^2 + 1) > 0.  And no
    earlier power can be positive without that one: every rule is
    nonempty, so every row of M holds a 1, and M times a positive matrix
    is positive."""
    k = len(rules)
    m = [[int(b in word) for b in range(k)] for word in rules]
    return all(all(row) for row in _reach(m, (k - 1) ** 2 + 1))


def _legal_pairs(rules) -> set[tuple[int, int]]:
    """The legal two-letter words: those inside an image sigma(a), closed
    under ab -> the pair straddling sigma(a)sigma(b)."""
    pairs = {tuple(r[i:i + 2]) for r in rules for i in range(len(r) - 1)}
    while True:
        more = pairs | {(rules[a][-1], rules[b][0]) for a, b in pairs}
        if more == pairs:
            return pairs
        pairs = more


def _blocks(rules, L: int) -> list[tuple[int, ...]]:
    """sigma^m(ab) over the legal two-letter words ab, m the least depth
    with |sigma^m(c)| >= L for every letter c: every legal word of length
    at most L is a factor of one of them, and each of their factors is legal.

    Complete: a legal word u of length <= L is a factor of some
    sigma^M(c), M >= m, which is the concatenation of the images
    sigma^m(x) over the letters x of sigma^(M-m)(c).  Each image has length
    >= L, so u lies inside two consecutive images sigma^m(x)sigma^m(y), and
    xy is legal."""
    images = [(a,) for a in range(len(rules))]
    while min(len(w) for w in images) < L:
        images = [tuple(s for x in w for s in rules[x]) for w in images]
    return [images[a] + images[b] for a, b in sorted(_legal_pairs(rules))]


def _language_words(rules, L: int) -> set[tuple[int, ...]]:
    """Every legal word of length L of a primitive substitution: the
    length-L factors of the `_blocks`."""
    return {block[i:i + L] for block in _blocks(rules, L)
            for i in range(len(block) - L + 1)}


def _occurrences(block: tuple[int, ...], word: tuple[int, ...]) -> list[int]:
    """The start positions of `word` in `block`, in increasing order,
    overlapping ones included.  `str.find` on the symbols as characters
    takes time linear in the block, where comparing a slice at every start
    takes the product of the lengths, which widening a point makes large."""
    text, pattern = "".join(map(chr, block)), "".join(map(chr, word))
    out, i = [], text.find(pattern)
    while i >= 0:
        out.append(i)
        i = text.find(pattern, i + 1)
    return out
