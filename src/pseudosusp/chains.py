"""Chain patterns, interval chains, the stretching test and horseshoe
certificates on a desk model.  The interval map g is an exact `pl.PL`
whose y lie in [0, 1], evaluated and imaged by `pl`.  The two-dimensional
chain covers that the patterns refine, and their SVG, are in `covers`.

All geometry here is exact rational arithmetic: fractions.Fraction, except
in the horseshoe pullback, which works on integer numerators over one common
denominator per level and reports its hulls as numerators over the last
level's denominator.  The only floats are reported entropies.  Closed
intervals stand in for the subcontinua of the folding construction: the
itinerary structure is identical, only the ambient space is simplified.

The builders of [plmap] and [chain] and the `horseshoe` and `pattern`
subcommands live here too; they import `config` and `cli` only when
called, so importing this module loads neither.
"""

from __future__ import annotations

import itertools
import math
import sys
from bisect import bisect_right
from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple, Optional, Sequence

from .pl import PL, pl_check, pl_image

if TYPE_CHECKING:
    from .config import RunConfig

FR = Fraction


class ChainError(ValueError):
    """Chain violates tautness/adjacency, or a refinement is infeasible."""


class StretchPreconditionError(ValueError):
    """Horseshoe extraction requires a passing stretch test."""


# ---------------------------------------------------------------------------
# patterns
# ---------------------------------------------------------------------------

class Pattern(NamedTuple):
    """Unit-step index map f: {1..m} -> {1..n} between chains."""

    values: tuple[int, ...]
    n: int

    @property
    def m(self) -> int:
        return len(self.values)

    def __call__(self, i: int) -> int:
        return self.values[i - 1]


def kfold(k: int) -> Pattern:
    """The 7-link folding pattern on 2k+5 indices; defined for odd k >= 3."""
    if k % 2 == 0 or k < 3:
        raise ValueError(f"k-fold requires an odd k >= 3, got {k}")
    # links 1-3, (k - 1)/2 swings 4,5,4,3 between links 5 and 3, then links 4-7
    return Pattern((1, 2, 3) + (4, 5, 4, 3) * ((k - 1) // 2) + (4, 5, 6, 7), 7)


def _merge_intervals(pieces: list[tuple[int, int]]) -> list[tuple[int, int]]:
    if len(pieces) < 2:
        return list(pieces)
    pieces = sorted(pieces)
    out = [pieces[0]]
    for lo, hi in pieces[1:]:
        plo, phi = out[-1]
        if lo <= phi:
            out[-1] = (plo, max(phi, hi))
        else:
            out.append((lo, hi))
    return out


# ---------------------------------------------------------------------------
# one-dimensional chains, stretching, horseshoes
# ---------------------------------------------------------------------------

class IntervalChain:
    """Ordered closed subintervals of [0,1]; taut = only consecutive closures
    meet."""

    __slots__ = ("links",)

    def __init__(self, links: tuple[tuple[FR, FR], ...]):
        for i, (lo, hi) in enumerate(links):
            if lo < 0 or hi > 1:
                raise ChainError(f"link {i + 1} leaves [0,1]")
        self.links = links

    def validate_taut(self) -> None:
        ln = self.links
        for i, (lo, hi) in enumerate(ln):
            if lo >= hi:
                raise ChainError(f"link {i + 1} is degenerate")
        for i in range(len(ln) - 1):
            if ln[i][1] < ln[i + 1][0]:
                raise ChainError(f"links {i + 1},{i + 2} do not meet")
        for i in range(len(ln)):
            for j in range(i + 2, len(ln)):
                if ln[i][1] >= ln[j][0]:
                    raise ChainError(f"links {i + 1},{j + 1} are not taut")


def _contains(outer: tuple[FR, FR], inner: tuple[FR, FR]) -> bool:
    return outer[0] <= inner[0] and inner[1] <= outer[1]


def stretch_check(g: PL, chain: IntervalChain,
                  m_bound: int = 8) -> Optional[tuple[int, str]]:
    """The least m <= m_bound for which g^m sends link 3 into an end link and
    link 5 into the opposite end link, with the orientation: "standard" if
    link 3 lands in link 1, "swapped" if in link 7.  None if no m does.
    Exact interval images."""
    if len(chain.links) != 7:
        raise ChainError(f"stretch test is defined on 7-link chains, got {len(chain.links)}")
    chain.validate_taut()
    u1, u3, u5, u7 = (chain.links[i] for i in (0, 2, 4, 6))
    i3, i5 = u3, u5
    for m in range(1, m_bound + 1):
        # g^m(I) = g(g^(m-1)(I)), g continuous
        i3, i5 = pl_image(g, *i3), pl_image(g, *i5)
        if _contains(u1, i3) and _contains(u7, i5):
            return m, "standard"
        if _contains(u7, i3) and _contains(u1, i5):
            return m, "swapped"
    return None


class HorseshoeCertificate(NamedTuple):
    k: int
    depth: int
    exponent: int
    nonempty: int
    expected: int
    failing_word: Optional[tuple[int, ...]]
    # the first slot whose g^m image misses the span of the slots, if any
    short_slot: Optional[int]
    entropy_bound: float
    slots: tuple[tuple[FR, FR], ...]
    scale: int
    # each surviving full-depth word's hull, as numerators over `scale`
    intervals: dict[tuple[int, ...], tuple[int, int]]

    @property
    def passed(self) -> bool:
        return self.short_slot is None

    def summary(self) -> str:
        if self.passed:
            return (f"horseshoe certificate: k={self.k} depth={self.depth} "
                    f"m={self.exponent}: all {self.expected} itinerary intervals "
                    f"nonempty, entropy >= {self.entropy_bound:.9g}")
        if self.failing_word is None:
            reason = f"g^{self.exponent}(slot {self.short_slot}) misses the span of the slots"
        else:
            reason = f"empty branch at word ({','.join(map(str, self.failing_word))})"
        return (f"horseshoe certificate FAILED: k={self.k} depth={self.depth} "
                f"m={self.exponent}: {reason}; "
                f"{self.nonempty}/{self.expected} intervals nonempty")


def _lattice_preimages(laps, lo: int, hi: int) -> list[tuple[int, int]]:
    """g^-1([lo, hi]) as merged pieces, on the integer lattice of one
    preimage step: lo, hi and each lap's y0, ymin and ymax are numerators
    over the step's old scale D, its x0 and x1 numerators over D·S, and r is
    its inverse slope times S (0 on a constant lap), so each piece comes out
    over D·S."""
    pieces = []
    for x0, x1, y0, ymin, ymax, r in laps:
        if ymax < lo or ymin > hi:
            continue
        if not r:
            pieces.append((x0, x1))
            continue
        a = x0 + (lo - y0) * r
        b = x0 + (hi - y0) * r
        if a > b:
            a, b = b, a
        if a < x0:
            a = x0
        if b > x1:
            b = x1
        if a <= b:
            pieces.append((a, b))
    return _merge_intervals(pieces)


def _pullback(g: PL, m: int, slots: Sequence[tuple[FR, FR]], depth: int
              ) -> list[tuple[int, dict[tuple[int, ...], list[tuple[int, int]]]]]:
    """The points of slot w[0] whose g^m-itinerary through the slots is w,
    as merged pieces, for every word w where they exist: level l holds the
    words of length l + 1, for l = 0..depth, as (scale, pieces by word), each
    piece a pair of integer numerators over the level's scale.

    The pieces of (s,) + v are g^-m(pieces of v) ∩ slot s, so they depend on
    v alone: each level is built from the previous one.  g^-m is m chained
    preimage steps over the merged piece list, one `_lattice_preimages` call
    per piece per step; with m = 1 and every piece whole that is
    k + k² + ... + k^depth calls.  The slots are sorted and disjoint, so each
    preimage piece is clipped only to the run of slots that it meets.

    Every endpoint lies on one integer lattice.  Let D0 be the lcm of the
    denominators of the breakpoints and the slots, and S the lcm of the
    denominators of the laps' inverse slopes: a preimage step takes a value
    over D to a value over D·S, so level l lives on scale D0·S^(l·m), and
    each preimage, clip and merge is a plain integer operation."""
    d0 = math.lcm(*(v.denominator for point in g for v in point),
                  *(v.denominator for slot in slots for v in slot))
    inv = [(x1 - x0) / (y1 - y0) if y1 != y0 else 0 for (x0, y0), (x1, y1) in zip(g, g[1:])]
    s = math.lcm(*(r.denominator for r in inv))

    def over_d0(v: FR) -> int:
        return v.numerator * (d0 // v.denominator)

    pts = [(over_d0(x), over_d0(y)) for x, y in g]
    laps = [(x0, x1, y0, min(y0, y1), max(y0, y1), int(r * s))
            for ((x0, y0), (x1, y1)), r in zip(zip(pts, pts[1:]), inv)]
    base = [(over_d0(lo), over_d0(hi)) for lo, hi in slots]
    levels = [(d0, {(i + 1,): [slot] for i, slot in enumerate(base)})]
    for _ in range(depth):
        scale, level = levels[-1]
        steps = []
        for _ in range(m):
            old, scale = scale // d0, scale * s
            new = scale // d0
            steps.append([(x0 * new, x1 * new, y0 * old, ymin * old, ymax * old, r)
                          for x0, x1, y0, ymin, ymax, r in laps])
        clip = [(lo * new, hi * new) for lo, hi in base]
        starts = [lo for lo, _ in clip]
        nxt: dict[tuple[int, ...], list[tuple[int, int]]] = {}
        for suffix, pieces in level.items():
            pre = pieces
            for step in steps:
                pre = [p for lo, hi in _merge_intervals(pre)
                       for p in _lattice_preimages(step, lo, hi)]
            clipped: dict[int, list[tuple[int, int]]] = {}
            for lo, hi in pre:
                for i in range(max(bisect_right(starts, lo) - 1, 0), bisect_right(starts, hi)):
                    a, b = clip[i]
                    if a < lo:
                        a = lo
                    if b > hi:
                        b = hi
                    if a <= b:
                        clipped.setdefault(i + 1, []).append((a, b))
            for sym in sorted(clipped):
                nxt[(sym,) + suffix] = _merge_intervals(clipped[sym])
        levels.append((scale, nxt))
    return levels


def horseshoe_extract(g: PL, chain: IntervalChain, k: int, depth: int,
                      m_bound: int = 8) -> HorseshoeCertificate:
    """Itinerary certificate over the k symbol slots of the k-fold refinement.

    kfold(k) visits link 4 at positions 4, 6, ..., 2k+2 and nowhere else, and
    the refinement splits a link's free part equally among its visits, so the
    slots are the k equal parts of the gap between links 3 and 5, each shrunk
    by a tenth of its width at both ends: sorted, and w/5 apart.

    The horseshoe lemma decides it: if g^m(J) covers the span
    [J_1.lo, J_k.hi] of the slots for every slot J, then every itinerary
    through the disjoint closed slots is realized, at every depth at once,
    and h_top(g) >= log(k)/m (Misiurewicz-Szlenk; Block-Coppel, ch. VIII).
    Each g^m(J) is m chained exact images.  No finite depth of the pullback
    proves that bound: a monotone map, of entropy 0, realizes every word
    of length 1.

    The exact pullback gives the rest: a word's branch is nonempty exactly
    when some point of its first slot has that g^m-itinerary, and the hull
    of those points is reported for each surviving full-depth word.  A
    failed certificate names the least missing word at the first level
    that misses one, or, when none is missing to this depth, the first slot
    whose image misses the span."""
    if k % 2 == 0 or k < 3:
        raise ValueError(f"horseshoe extraction requires odd k >= 3, got {k}")
    if depth < 0:
        raise ValueError("depth must be >= 0")
    stretch = stretch_check(g, chain, m_bound)
    if stretch is None:
        raise StretchPreconditionError(
            f"map does not stretch the chain for any exponent <= {m_bound}")
    lo, hi = chain.links[2][1], chain.links[4][0]
    w = (hi - lo) / k
    if w <= FR(1, 10 ** 6):
        raise ChainError("refinement margins collapse inside parent 4")
    slots = tuple((lo + s * w + w / 10, lo + (s + 1) * w - w / 10) for s in range(k))
    m, _ = stretch
    span = (slots[0][0], slots[-1][1])
    short = None
    for s, image in enumerate(slots, start=1):
        for _ in range(m):
            image = pl_image(g, *image)
        if not _contains(image, span):
            short = s
            break

    levels = _pullback(g, m, slots, depth)
    scale, pulled = levels[-1]
    nonempty = len(pulled)
    expected = k ** (depth + 1)
    # At the first level that misses a word every shorter word is present,
    # so its least missing word is the first empty branch in word order.
    failing = None
    for n, (_, level) in enumerate(levels, start=1):
        if len(level) < k ** n:
            failing = next(w for w in itertools.product(range(1, k + 1), repeat=n)
                           if w not in level)
            break
    intervals = {word: (pieces[0][0], pieces[-1][1]) for word, pieces in sorted(pulled.items())}

    return HorseshoeCertificate(
        k=k, depth=depth, exponent=m, nonempty=nonempty, expected=expected,
        failing_word=failing, short_slot=short, entropy_bound=math.log(k) / m,
        slots=slots, scale=scale, intervals=intervals)


# ---------------------------------------------------------------------------
# the map and chain of a config, and the subcommands that read them
# ---------------------------------------------------------------------------

def build_plmap(cfg: RunConfig) -> PL:
    """The exact interval map of [plmap]: a PL whose y lie in [0, 1]."""
    from .config import ConfigError, parse_fractions

    pts = parse_fractions(cfg.get("plmap", "breakpoints"), "plmap.breakpoints", "x,y")
    try:
        g = pl_check(pts)
    except ValueError as exc:
        raise ConfigError(f"plmap.breakpoints: {exc}") from exc
    if any(not 0 <= y <= 1 for _, y in g):
        raise ConfigError("plmap.breakpoints: image must stay inside [0,1]")
    return g


def build_interval_chain(cfg: RunConfig) -> IntervalChain:
    from .config import ConfigError, parse_fractions

    links = parse_fractions(cfg.get("chain", "links"), "chain.links", "lo,hi")
    try:
        return IntervalChain(tuple(links))
    except ValueError as exc:
        raise ConfigError(f"chain.links: {exc}") from exc


def _kfold(k, key: str) -> Pattern:
    """The k-fold pattern for K = k; a K that is not an odd integer >= 3 is
    a config error naming `key`."""
    from .config import ConfigError

    try:
        return kfold(int(k))
    except ValueError as exc:
        raise ConfigError(f"{key} must give an odd integer K >= 3, got {k!r}") from exc


def cmd_pattern(args, cfg) -> int:
    from .cli import EXIT_OK, _write

    pat = _kfold(args["kfold"], "--kfold")
    text = ",".join(str(v) for v in pat.values)
    if args["out"]:
        _write(args["out"], text + "\n")
    print(text)
    return EXIT_OK


def cmd_horseshoe(args, cfg: RunConfig) -> int:
    from .cli import EXIT_CHECK, EXIT_OK, FLOAT, _write_csv
    from .config import ConfigError

    g = build_plmap(cfg)
    chain = build_interval_chain(cfg)
    k, depth, m_bound = (cfg.get("horseshoe", key) for key in ("k", "depth", "mbound"))
    if k % 2 == 0 or k < 3:
        raise ConfigError(f"horseshoe.k must be an odd integer >= 3, got {k}")
    try:
        cert = horseshoe_extract(g, chain, k, depth, m_bound)
    except StretchPreconditionError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return EXIT_CHECK
    except ChainError as exc:  # not 7 taut links, or link 4 too narrow for k slots
        raise ConfigError(f"chain.links: {exc}") from exc
    out = args["out"] or cfg.get("horseshoe", "out")
    # int true division rounds correctly, so each end is float(Fraction(end, scale))
    rows = [("-".join(map(str, word)), lo / cert.scale, hi / cert.scale)
            for word, (lo, hi) in sorted(cert.intervals.items())]
    _write_csv(out, {"word": "%s", "lo": FLOAT, "hi": FLOAT}, rows)
    print(cert.summary() + f" -> {out}")
    return EXIT_OK if cert.passed else EXIT_CHECK
