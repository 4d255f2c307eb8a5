"""Chain/pattern/horseshoe tests: exact rational geometry, frozen pattern
values, transition-matrix and forward-frontier oracles."""

from __future__ import annotations

import itertools
import math
from fractions import Fraction as FR

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pseudosusp import chains
from pseudosusp.chains import (ChainError, IntervalChain, PLMap, StretchPreconditionError,
                               _merge_intervals, _pullback, horseshoe_extract, kfold,
                               stretch_check)
from pseudosusp.cli import fixture_path, main
from pseudosusp.config import build_interval_chain, build_plmap, load_config
from pseudosusp.covers import ChainCover, Rect, essential_seven_chain, refine_chain, render_chains

from markov_oracle import transition_entropy
from oracles import full_branch_middle_map, tent_map, tent_seven_chain, uniform_seven_chain


# ---------------------------------------------------------------------------
# patterns
# ---------------------------------------------------------------------------

def test_kfold_three_exact():
    assert kfold(3).values == (1, 2, 3, 4, 5, 4, 3, 4, 5, 6, 7)


def test_kfold_five_structure():
    p = kfold(5)
    assert p.m == 15
    assert p.values[:5] == (1, 2, 3, 4, 5)
    assert p.values[-2:] == (6, 7)
    assert p.values[5:13] == (4, 3, 4, 5, 4, 3, 4, 5)


def test_kfold_even_rejected():
    with pytest.raises(ValueError):
        kfold(4)
    with pytest.raises(ValueError):
        kfold(1)


@pytest.mark.parametrize("k", [3, 5, 7, 9, 11, 13, 15, 17, 19, 21])
def test_kfold_combinatorics(k):
    p = kfold(k)
    assert p.m == 2 * k + 5
    assert p.values[0] == 1 and p.values[-1] == 7
    assert p.values[2 * k + 3] == 6
    assert sum(1 for v in p.values if v == 3) == (k + 1) // 2
    assert sum(1 for v in p.values if v == 5) == (k + 1) // 2
    assert p.n == 7 and all(1 <= v <= 7 for v in p.values)
    assert all(abs(b - a) == 1 for a, b in zip(p.values, p.values[1:]))  # unit steps


# ---------------------------------------------------------------------------
# PL maps
# ---------------------------------------------------------------------------

def test_plmap_eval_image_preimage():
    t = tent_map()
    assert t(FR(1, 4)) == FR(1, 2)
    assert t.image((FR(1, 4), FR(3, 4))) == (FR(1, 2), FR(1))
    pre = _preimages(t, (FR(1, 2), FR(1)))
    assert pre == [(FR(1, 4), FR(3, 4))]


def _compose(outer, inner):
    """The map outer ∘ inner, with exact breakpoint refinement: the oracle
    for the chained exact images and preimage steps the program takes of g^m.
    Each piece of inner gains a knot where it crosses a knot of outer."""
    outer_knots = [x for x, _ in outer.breakpoints]
    bp = inner.breakpoints
    points = [bp[0]]
    for (x0, y0), (x1, y1) in zip(bp, bp[1:]):
        crossings = sorted(x0 + (knot - y0) * (x1 - x0) / (y1 - y0)
                           for knot in outer_knots if min(y0, y1) < knot < max(y0, y1))
        points += [(x, y0 + (x - x0) * (y1 - y0) / (x1 - x0)) for x in crossings]
        points.append((x1, y1))
    return PLMap(tuple((x, outer(y)) for x, y in points))


def _iterate(g, m):
    out = g
    for _ in range(m - 1):
        out = _compose(g, out)
    return out


def test_plmap_compose_exact():
    t = tent_map()
    t2 = _iterate(t, 2)
    assert t2(FR(1, 8)) == FR(1, 2)
    assert t2(FR(3, 8)) == FR(1, 2)
    assert t2(FR(1, 4)) == FR(1)
    assert t2(FR(1, 2)) == FR(0)
    assert len(t2.breakpoints) == 5


# Small rationals in [0,1]; maps have up to five pieces.
unit_fractions = st.integers(1, 9).flatmap(
    lambda q: st.builds(FR, st.integers(0, q), st.just(q)))


@st.composite
def plmaps(draw):
    inner = draw(st.lists(unit_fractions.filter(lambda x: 0 < x < 1),
                          max_size=4, unique=True))
    xs = [FR(0)] + sorted(inner) + [FR(1)]
    ys = draw(st.lists(unit_fractions, min_size=len(xs), max_size=len(xs)))
    return PLMap(tuple(zip(xs, ys)))


@st.composite
def unit_intervals(draw):
    a, b = draw(unit_fractions), draw(unit_fractions)
    return min(a, b), max(a, b)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(g=plmaps(), interval=unit_intervals(),
       samples=st.lists(unit_fractions, max_size=8))
def test_plmap_preimages_exact(g, interval, samples):
    lo, hi = interval
    pieces = _preimages(g, interval)
    assert pieces == sorted(pieces)
    assert all(a <= b for a, b in pieces)
    assert all(b < c for (_, b), (c, _) in zip(pieces, pieces[1:]))
    tiny = FR(1, 10 ** 12)
    points = set(samples) | {x for x, _ in g.breakpoints}
    for a, b in pieces:
        points |= {a, b, (a + b) / 2, max(a - tiny, FR(0)), min(b + tiny, FR(1))}
    for x in points:
        assert any(a <= x <= b for a, b in pieces) == (lo <= g(x) <= hi), x


@settings(max_examples=100, deadline=None, derandomize=True)
@given(g=plmaps(), interval=unit_intervals(),
       samples=st.lists(unit_fractions, max_size=8))
def test_plmap_image_exact(g, interval, samples):
    lo, hi = interval
    low, high = g.image(interval)
    corners = [lo, hi] + [x for x, _ in g.breakpoints if lo <= x <= hi]
    # attained at an endpoint or a breakpoint inside the interval ...
    assert low in {g(x) for x in corners} and high in {g(x) for x in corners}
    # ... and bounding g everywhere on it
    for x in corners + [x for x in samples if lo <= x <= hi]:
        assert low <= g(x) <= high


@settings(max_examples=100, deadline=None, derandomize=True)
@given(g=plmaps(), h=plmaps(), samples=st.lists(unit_fractions, max_size=8))
def test_plmap_compose_after_exact(g, h, samples):
    gh = _compose(g, h)
    knots = [x for x, _ in gh.breakpoints]
    points = (set(samples) | set(knots) | {x for x, _ in h.breakpoints}
              | {(a + b) / 2 for a, b in zip(knots, knots[1:])})
    for x in points:
        assert gh(x) == g(h(x)), x


def test_transition_entropy_oracles():
    assert transition_entropy(tent_map()) == pytest.approx(math.log(2), abs=1e-12)
    assert transition_entropy(full_branch_middle_map(3)) == pytest.approx(
        math.log(3), abs=1e-9)
    assert transition_entropy(full_branch_middle_map(5)) == pytest.approx(
        math.log(5), abs=1e-9)
    identity = PLMap(((FR(0), FR(0)), (FR(1), FR(1))))
    assert transition_entropy(identity) == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------------------------------
# 1D chains
# ---------------------------------------------------------------------------

def test_interval_chain_tautness():
    uniform_seven_chain().validate_taut()
    bad = IntervalChain(((FR(0), FR(1, 2)), (FR(1, 4), FR(3, 4)),
                         (FR(2, 5), FR(1))))  # links 1,3 overlap
    with pytest.raises(ChainError):
        bad.validate_taut()


# ---------------------------------------------------------------------------
# stretching
# ---------------------------------------------------------------------------

def test_stretch_three_branch_standard_m1():
    assert stretch_check(full_branch_middle_map(3), uniform_seven_chain()) == (1, "standard")


def test_stretch_tent_tailored_chain_m2():
    assert stretch_check(tent_map(), tent_seven_chain()) == (2, "swapped")


def test_stretch_identity_false():
    identity = PLMap(((FR(0), FR(0)), (FR(1), FR(1))))
    assert stretch_check(identity, uniform_seven_chain(), 6) is None


def test_stretch_rotation_like_false():
    # continuous PL surrogate of x + 1/3: images of middle links never land
    # inside an end link
    surrogate = PLMap(((FR(0), FR(1, 3)), (FR(2, 3), FR(1)), (FR(1), FR(0))))
    assert stretch_check(surrogate, uniform_seven_chain(), 8) is None


# ---------------------------------------------------------------------------
# horseshoe certificates
# ---------------------------------------------------------------------------

def test_horseshoe_three_branch_certifies():
    g = full_branch_middle_map(3)
    cert = horseshoe_extract(g, uniform_seven_chain(), 3, 5)
    assert cert.passed
    assert cert.nonempty == cert.expected == 729
    assert cert.exponent == 1
    assert abs(cert.entropy_bound - transition_entropy(g)) <= 1e-9
    assert len(cert.intervals) == 729
    # top-level family pairwise disjoint
    for a, b in zip(cert.slots, cert.slots[1:]):
        assert a[1] < b[0]


def test_horseshoe_five_branch_certifies():
    g = full_branch_middle_map(5)
    cert = horseshoe_extract(g, uniform_seven_chain(), 5, 4)
    assert cert.passed and cert.nonempty == 5 ** 5
    assert abs(cert.entropy_bound - transition_entropy(g)) <= 1e-9


def test_horseshoe_tent_negative_with_named_branch():
    cert = horseshoe_extract(tent_map(), tent_seven_chain(), 3, 5)
    assert not cert.passed
    # no word of length 6 survives, and the first empty branch is still named
    assert cert.nonempty == 0 and cert.intervals == {}
    assert cert.failing_word == (1, 1)
    assert "empty branch" in cert.summary()


def test_horseshoe_monotone_map_fails_at_depth_0(tmp_path, capsys):
    """A nondecreasing map has entropy 0.  At depth 0 its pullback realizes
    every word, each a single slot, yet no slot's image covers the span of
    the slots, so the certificate fails and names that slot."""
    argv = ["horseshoe", "--map", fixture_path("three_branch_horseshoe.ini"),
            "--override", "plmap.breakpoints=0,0; 3/7,0; 4/7,1; 1,1", "--depth", "0",
            "--out", str(tmp_path / "h.csv")]
    assert main(argv) == 2
    out = capsys.readouterr().out
    assert "entropy" not in out and "g^1(slot 1) misses the span of the slots; 3/3" in out
    monotone = PLMap(((FR(0), FR(0)), (FR(3, 7), FR(0)), (FR(4, 7), FR(1)), (FR(1), FR(1))))
    cert = horseshoe_extract(monotone, uniform_seven_chain(), 3, 0)
    assert not cert.passed and cert.nonempty == cert.expected == 3
    assert cert.failing_word is None and cert.short_slot == 1


def test_horseshoe_slot_images_must_cover_the_span_of_the_slots():
    """With its first peak at 13/25, g(slot 1) covers slot 1 but not slot 3:
    slot 1 is the one named, not slot 2, whose image misses even slot 1."""
    low_peak = PLMap(((FR(0), FR(0)), (FR(3, 7), FR(0)), (FR(10, 21), FR(13, 25)),
                      (FR(11, 21), FR(0)), (FR(4, 7), FR(1)), (FR(1), FR(1))))
    cert = horseshoe_extract(low_peak, uniform_seven_chain(), 3, 0)
    (lo, _), _, (_, hi) = cert.slots
    image = low_peak.image(cert.slots[0])
    assert image[0] <= lo <= cert.slots[0][1] <= image[1] < hi
    assert not cert.passed and cert.failing_word is None and cert.short_slot == 1


def test_horseshoe_bound_never_exceeds_oracle():
    for k in (3, 5):
        g = full_branch_middle_map(k)
        cert = horseshoe_extract(g, uniform_seven_chain(), k, 3)
        assert cert.passed
        assert cert.entropy_bound <= transition_entropy(g) + 1e-9


def test_horseshoe_requires_stretch():
    identity = PLMap(((FR(0), FR(0)), (FR(1), FR(1))))
    with pytest.raises(StretchPreconditionError):
        horseshoe_extract(identity, uniform_seven_chain(), 3, 2)


def test_horseshoe_rejects_even_k():
    with pytest.raises(ValueError):
        horseshoe_extract(full_branch_middle_map(3), uniform_seven_chain(), 4, 2)


def test_horseshoe_counts_are_full_powers():
    g = full_branch_middle_map(3)
    for depth in (0, 1, 2, 3):
        cert = horseshoe_extract(g, uniform_seven_chain(), 3, depth)
        assert cert.passed and cert.nonempty == 3 ** (depth + 1)


def _mirror(g, chain):
    """The conjugate of g and chain by x -> 1 - x."""
    return (PLMap(tuple((1 - x, 1 - y) for x, y in reversed(g.breakpoints))),
            IntervalChain(tuple((1 - hi, 1 - lo) for lo, hi in reversed(chain.links))))


def _preimages(g, interval):
    """g^-1(interval) as merged pieces, lap by lap in Fraction arithmetic:
    the oracle for each preimage step of the lattice pullback."""
    lo, hi = interval
    pieces = []
    bp = g.breakpoints
    for (x0, y0), (x1, y1) in zip(bp, bp[1:]):
        if max(y0, y1) < lo or min(y0, y1) > hi:
            continue
        if y0 == y1:
            pieces.append((x0, x1))
            continue
        a = x0 + (lo - y0) * (x1 - x0) / (y1 - y0)
        b = x0 + (hi - y0) * (x1 - x0) / (y1 - y0)
        a, b = max(min(a, b), x0), min(max(a, b), x1)
        if a <= b:
            pieces.append((a, b))
    return _merge_intervals(pieces)


def _fractions(levels):
    """The lattice pullback's levels as Fractions: each numerator over its
    level's scale."""
    return [{word: [(FR(lo, scale), FR(hi, scale)) for lo, hi in pieces]
             for word, pieces in level.items()} for scale, level in levels]


def _reference_levels(g, m, slots, depth):
    """The pullback's levels in Fraction arithmetic: the pieces of (s,) + v
    are m chained `_preimages` steps of the pieces of v, clipped to slot s."""
    levels = [{(s + 1,): [slot] for s, slot in enumerate(slots)}]
    for _ in range(depth):
        nxt = {}
        for suffix, pieces in levels[-1].items():
            for _ in range(m):
                pieces = _merge_intervals([p for piece in pieces for p in _preimages(g, piece)])
            for sym, (slo, shi) in enumerate(slots, start=1):
                clipped = [(max(lo, slo), min(hi, shi)) for lo, hi in pieces
                           if max(lo, slo) <= min(hi, shi)]
                if clipped:
                    nxt[(sym,) + suffix] = _merge_intervals(clipped)
        levels.append(nxt)
    return levels


def _reference_pullback(gm, slots, word):
    """Pieces of slot word[0] with gm-itinerary word, pulled back one word at
    a time through all its symbols (the per-word loop the shared-suffix
    pullback replaced)."""
    pieces = [slots[word[-1] - 1]]
    for sym in reversed(word[:-1]):
        pulled = []
        for piece in pieces:
            for pre in _preimages(gm, piece):
                lo = max(pre[0], slots[sym - 1][0])
                hi = min(pre[1], slots[sym - 1][1])
                if lo <= hi:
                    pulled.append((lo, hi))
        pieces = _merge_intervals(pulled)
        if not pieces:
            break
    return pieces


def _reference_frontier(g, m, slots, depth):
    """Forward interval arithmetic, the computation the pullback replaced:
    the interval of w + (s,) is g^m(interval of w) ∩ slot s, by m chained
    exact images.  Returns the surviving words of length depth + 1 with their
    intervals, and the first word found empty in word order (or None)."""
    frontier = {(i + 1,): slot for i, slot in enumerate(slots)}
    failing = None
    for _ in range(depth):
        nxt = {}
        for word in sorted(frontier):
            img = frontier[word]
            for _ in range(m):
                img = g.image(img)
            for sym, (slo, shi) in enumerate(slots, start=1):
                lo, hi = max(img[0], slo), min(img[1], shi)
                if lo <= hi:
                    nxt[word + (sym,)] = (lo, hi)
                elif failing is None:
                    failing = word + (sym,)
        frontier = nxt
    return frontier, failing


def _reference_short_slot(g, m, slots):
    """The first slot whose image under the composed g^m misses the span of
    the slots, or None when every image covers it."""
    gm = _iterate(g, m)
    images = [gm.image(slot) for slot in slots]
    return next((s for s, (lo, hi) in enumerate(images, start=1)
                 if lo > slots[0][0] or hi < slots[-1][1]), None)


def _hulls(cert):
    """The certificate's hulls as Fractions: each numerator over its scale."""
    return {word: (FR(lo, cert.scale), FR(hi, cert.scale))
            for word, (lo, hi) in cert.intervals.items()}


def _reference_intervals(gm, slots, depth):
    """Forward frontier, then the per-word pullback hull of each survivor."""
    frontier, _ = _reference_frontier(gm, 1, slots, depth)
    intervals = {}
    for word in sorted(frontier):
        pieces = _reference_pullback(gm, slots, word)
        if pieces:
            intervals[word] = (pieces[0][0], pieces[-1][1])
    return intervals


# 0,0; 3/7,0; 9/20,1; 1/2,0; 4/7,1; 1,1: three laps over the middle seventh,
# not symmetric under x -> 1 - x; it stretches the uniform chain at m = 2 and
# its certificate fails
_ASYMMETRIC = PLMap(((FR(0), FR(0)), (FR(3, 7), FR(0)), (FR(9, 20), FR(1)),
                     (FR(1, 2), FR(0)), (FR(4, 7), FR(1)), (FR(1), FR(1))))

# (map, chain, k, every pullback piece stays whole, deepest depth tested).
# Five laps under three slots split the pullbacks into several pieces per
# suffix.  The 3- and 5-branch fixtures are their own mirror images, the
# asymmetric map is not; its lattice denominators reach 17 digits at depth 3,
# where the per-word Fraction reference already takes a while.
_PULLBACK_CASES = {
    "3-branch": (full_branch_middle_map(3), uniform_seven_chain(), 3, True, 5),
    "5-branch": (full_branch_middle_map(5), uniform_seven_chain(), 5, True, 5),
    "5 laps, 3 slots": (full_branch_middle_map(5), uniform_seven_chain(), 3, False, 5),
    "tent": (tent_map(), tent_seven_chain(), 3, False, 5),
    "asymmetric": (_ASYMMETRIC, uniform_seven_chain(), 3, False, 3),
}
for _name in ("3-branch", "5-branch", "asymmetric"):
    _g, _chain, _k, _whole, _deepest = _PULLBACK_CASES[_name]
    _PULLBACK_CASES[f"{_name} mirrored"] = (*_mirror(_g, _chain), _k, _whole, _deepest)


def _pullback_params(depths):
    return [(case, depth) for case in sorted(_PULLBACK_CASES) for depth in depths
            if depth <= _PULLBACK_CASES[case][4]]


@pytest.mark.parametrize("case, depth", _pullback_params(range(5)))
def test_shared_pullback_matches_per_word_reference(case, depth, monkeypatch):
    g, chain, k, whole, _ = _PULLBACK_CASES[case]
    calls = []
    preimages = chains._lattice_preimages

    def counted(laps, lo, hi):
        calls.append((lo, hi))
        return preimages(laps, lo, hi)

    monkeypatch.setattr(chains, "_lattice_preimages", counted)
    cert = horseshoe_extract(g, chain, k, depth)
    n_calls = len(calls)
    monkeypatch.undo()

    m = cert.exponent
    gm = _iterate(g, m)
    assert _hulls(cert) == _reference_intervals(gm, cert.slots, depth)
    assert len(cert.intervals) == cert.nonempty
    # g^-m is pulled as m chained lattice preimage steps over a merged piece
    # list: at most one call per component of g^-j(piece), j = 0..m-1, for
    # each piece of each suffix of length 1..depth (one call per piece at m = 1)
    inner = [_iterate(g, j) for j in range(1, m)]
    suffix_calls = sum(1 + sum(len(_preimages(gj, piece)) for gj in inner)
                       for n in range(1, depth + 1)
                       for word in itertools.product(range(1, k + 1), repeat=n)
                       for piece in _reference_pullback(gm, cert.slots, word))
    assert n_calls <= suffix_calls
    if whole:
        assert n_calls == suffix_calls == sum(k ** n for n in range(1, depth + 1))


@pytest.mark.parametrize("case, depth", _pullback_params(range(6)))
def test_pullback_verdict_matches_forward_frontier(case, depth, monkeypatch):
    g, chain, k, _, _ = _PULLBACK_CASES[case]
    images = []
    image = PLMap.image

    def counted(self, interval):
        images.append(interval)
        return image(self, interval)

    monkeypatch.setattr(PLMap, "image", counted)
    cert = horseshoe_extract(g, chain, k, depth)
    monkeypatch.undo()

    # the stretch test's two images per exponent tried and the m chained
    # images of each slot up to the first short one are the only ones
    assert len(images) == (2 + (cert.short_slot or k)) * cert.exponent
    frontier, failing = _reference_frontier(g, cert.exponent, cert.slots, depth)
    assert cert.nonempty == len(frontier) == len(cert.intervals)
    assert cert.short_slot == _reference_short_slot(g, cert.exponent, cert.slots)
    # the horseshoe lemma: when every image covers the span, every word survives
    assert not cert.passed or len(frontier) == k ** (depth + 1)
    assert cert.failing_word == failing


@st.composite
def seven_chains(draw):
    """Taut 7-link chains: links around six distinct cuts i/24, overlapping
    their neighbours by a quarter of the smallest gap."""
    cuts = draw(st.lists(st.integers(1, 23), min_size=6, max_size=6, unique=True))
    cuts = [FR(0)] + [FR(i, 24) for i in sorted(cuts)] + [FR(1)]
    overlap = min(b - a for a, b in zip(cuts, cuts[1:])) / 4
    return IntervalChain(tuple((max(FR(0), a - overlap), min(FR(1), b + overlap))
                               for a, b in zip(cuts, cuts[1:])))


@st.composite
def folds(draw, stretching=False):
    """A taut 7-link chain and a map sending 0, 1 and the middle of each
    overlap of consecutive links to 0 or 1, linear between: some stretch
    the chain, which maps from `plmaps()` almost never do.  With
    `stretching`, the four values around link 4 read 0,0,1,1 or 1,1,0,0,
    which folds links 3 and 5 towards opposite ends, so most of them do."""
    chain = draw(seven_chains())
    links = chain.links
    xs = [FR(0)] + [(a[1] + b[0]) / 2 for a, b in zip(links, links[1:])] + [FR(1)]
    ys = draw(st.lists(st.sampled_from([FR(0), FR(1)]), min_size=8, max_size=8))
    if stretching:
        ys[2:6] = map(FR, draw(st.sampled_from([(0, 0, 1, 1), (1, 1, 0, 0)])))
    return PLMap(tuple(zip(xs, ys))), chain


def _reference_stretch(g, chain, m_bound):
    """The stretch test on composed iterates, one full map per exponent."""
    def inside(outer, inner):
        return outer[0] <= inner[0] and inner[1] <= outer[1]

    u1, u3, u5, u7 = (chain.links[i] for i in (0, 2, 4, 6))
    gm = g
    for m in range(1, m_bound + 1):
        if m > 1:
            gm = _compose(g, gm)
        i3, i5 = gm.image(u3), gm.image(u5)
        if inside(u1, i3) and inside(u7, i5):
            return m, "standard"
        if inside(u7, i3) and inside(u1, i5):
            return m, "swapped"
    return None


@settings(max_examples=200, deadline=None, derandomize=True)
@given(g=plmaps(), interval=unit_intervals(), m=st.integers(1, 3),
       chain=seven_chains(), fold=folds(), m_bound=st.integers(1, 4))
def test_chained_exact_calls_match_composed_iterate(g, interval, m, chain, fold,
                                                    m_bound):
    gm = _iterate(g, m)
    image, pieces = interval, [interval]
    for _ in range(m):
        image = g.image(image)
        pieces = _merge_intervals([p for piece in pieces for p in _preimages(g, piece)])
    assert image == gm.image(interval)
    assert pieces == _preimages(gm, interval)
    pulled = _fractions(_pullback(g, m, (interval,), 1))[-1]
    assert pulled.get((1, 1), []) == _reference_pullback(gm, (interval,), (1, 1))
    for f, links in ((g, chain), fold):
        assert stretch_check(f, links, m_bound) == _reference_stretch(f, links, m_bound)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(fold=folds(stretching=True), k=st.sampled_from([3, 5]), depth=st.integers(0, 3),
       m_bound=st.integers(1, 4))
def test_pullback_certificate_matches_forward_frontier(fold, k, depth, m_bound):
    g, chain = fold
    try:
        cert = horseshoe_extract(g, chain, k, depth, m_bound)
    except StretchPreconditionError:
        assert stretch_check(g, chain, m_bound) is None
        return
    m = cert.exponent
    frontier, failing = _reference_frontier(g, m, cert.slots, depth)
    assert cert.nonempty == len(frontier)
    assert cert.short_slot == _reference_short_slot(g, m, cert.slots)
    assert not cert.passed or len(frontier) == k ** (depth + 1)
    assert cert.failing_word == failing
    assert _hulls(cert) == _reference_intervals(_iterate(g, m), cert.slots, depth)


# m·depth at most 6: the Fraction reference's pieces multiply with each step
@settings(max_examples=200, deadline=None, derandomize=True)
@given(fold=folds(stretching=True), k=st.sampled_from([3, 5]),
       m_depth=st.integers(1, 4).flatmap(
           lambda m: st.tuples(st.just(m), st.integers(0, min(3, 6 // m)))))
def test_lattice_levels_equal_the_fraction_pullback(fold, k, m_depth):
    # every level, those of failing certificates too, and any m: the
    # pullback does not need the map to stretch the chain
    g, chain = fold
    m, depth = m_depth
    refined = _refined_link_4(chain, kfold(k))
    slots = tuple(refined[i] for i in range(4, 2 * k + 3, 2))
    levels = _pullback(g, m, slots, depth)
    assert _fractions(levels) == _reference_levels(g, m, slots, depth)


# 0,0; 1/4,1; 1/2,0; 3/4,1; 1,0: the tent map's second iterate, whose
# iterates double their laps
_FOUR_LAPS = PLMap(((FR(0), FR(0)), (FR(1, 4), FR(1)), (FR(1, 2), FR(0)),
                    (FR(3, 4), FR(1)), (FR(1), FR(0))))


def _shipped(name):
    cfg = load_config(fixture_path(name), [], "horseshoe")
    return build_plmap(cfg), build_interval_chain(cfg), cfg.get("horseshoe", "k")


@pytest.mark.parametrize("case", ["four laps", "three_branch_horseshoe.ini",
                                  "five_branch_horseshoe.ini", "tent_horseshoe.ini"])
def test_certificates_build_no_composed_map(case, monkeypatch):
    if case == "four laps":
        g, chain, k, m_bound = _FOUR_LAPS, uniform_seven_chain(), 3, 4
    else:
        (g, chain, k), m_bound = _shipped(case), 8
    built = []
    init = PLMap.__init__

    def recorded(self, breakpoints):
        built.append(len(breakpoints))
        init(self, breakpoints)

    monkeypatch.setattr(PLMap, "__init__", recorded)
    stretch = stretch_check(g, chain, m_bound)
    if stretch is not None:
        horseshoe_extract(g, chain, k, 3, m_bound)
    else:
        with pytest.raises(StretchPreconditionError):
            horseshoe_extract(g, chain, k, 3, m_bound)
    monkeypatch.undo()
    assert (stretch is not None) == (case != "four laps")
    assert max(built, default=0) <= len(g.breakpoints)


def _refined_link_4(chain, f):
    """The 1-D pattern refinement's rule for link 4, by position: the core of
    link 4 (the link less its overlaps with links 3 and 5) split equally
    among the positions where f visits 4, each part shrunk by a tenth of its
    width at both ends."""
    visits = [i for i in range(1, f.m + 1) if f(i) == 4]
    (_, hi3), (lo4, hi4), (lo5, _) = chain.links[2:5]
    lo, hi = max(lo4, hi3), min(hi4, lo5)
    w = (hi - lo) / len(visits)
    return {i: (lo + s * w + w / 10, lo + (s + 1) * w - w / 10)
            for s, i in enumerate(visits)}


@pytest.mark.parametrize("k", range(3, 22, 2))
def test_kfold_visits_link_4_at_the_even_positions_4_to_2k_plus_2(k):
    assert [i for i in range(1, 2 * k + 6) if kfold(k)(i) == 4] == list(range(4, 2 * k + 3, 2))


def _assert_slots_are_refined_link_4(g, chain, k):
    cert = horseshoe_extract(g, chain, k, 0)
    refined = _refined_link_4(chain, kfold(k))
    assert cert.slots == tuple(refined[i] for i in range(4, 2 * k + 3, 2))
    w = (chain.links[4][0] - chain.links[2][1]) / k
    assert all(b[0] - a[1] == w / 5 for a, b in zip(cert.slots, cert.slots[1:]))


@pytest.mark.parametrize("mirrored", [False, True])
@pytest.mark.parametrize("name", ["three_branch_horseshoe.ini", "five_branch_horseshoe.ini",
                                  "tent_horseshoe.ini"])
def test_shipped_slots_are_the_refinements_link_4_visits(name, mirrored):
    g, chain, k = _shipped(name)
    if mirrored:
        g, chain = _mirror(g, chain)
    _assert_slots_are_refined_link_4(g, chain, k)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(fold=folds(stretching=True), k=st.sampled_from([3, 5, 7, 9, 11]))
def test_drawn_slots_are_the_refinements_link_4_visits(fold, k):
    g, chain = fold
    if stretch_check(g, chain) is not None:
        _assert_slots_are_refined_link_4(g, chain, k)


# ---------------------------------------------------------------------------
# 2D chain covers
# ---------------------------------------------------------------------------

def test_essential_chain_builds_taut():
    ec = essential_seven_chain()
    assert ec.taut and ec.essential and len(ec.links) == 7


def test_refine_chain_three_levels():
    ec = essential_seven_chain()
    pat = kfold(3)
    levels = [ec]
    for _ in range(3):
        levels.append(refine_chain(levels[-1], pat))
    for parent, child in zip(levels, levels[1:]):
        assert len(child.links) == 11
        for i in range(1, pat.m + 1):
            assert parent.links[pat(i) - 1].contains(child.links[i - 1])
    assert levels[1].taut  # first-level folding fits tautly in 2D


def test_refine_chain_rejects_large_pattern():
    small = ChainCover.build([Rect((FR(0), FR(1)), (FR(0), FR(3, 10))),
                              Rect((FR(0), FR(1)), (FR(1, 4), FR(11, 20)))])
    with pytest.raises(ChainError):
        refine_chain(small, kfold(3))


def test_chain_cover_rejects_wide_links():
    with pytest.raises(ChainError):
        ChainCover.build([Rect((FR(0), FR(1)), (FR(0), FR(1, 2))),
                          Rect((FR(0), FR(1)), (FR(2, 5), FR(4, 5)))])


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def test_render_counts_and_layers():
    ec = essential_seven_chain()
    svg = render_chains([ec])
    assert svg.count("<polygon") == 7
    lvl1 = refine_chain(ec, kfold(3))
    lvl2 = refine_chain(lvl1, kfold(3))
    svg3 = render_chains([ec, lvl1, lvl2])
    assert svg3.count("<polygon") == 29
    assert svg3.count("<g id=") == 3
    assert 'id="level2-link10"' in svg3


def test_render_empty_is_valid_svg():
    svg = render_chains([])
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")


def test_render_deterministic():
    ec = essential_seven_chain()
    assert render_chains([ec]) == render_chains([ec])
