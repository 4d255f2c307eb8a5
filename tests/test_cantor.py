"""Cantor-system tests: frozen example values, independent oracles, seeded
property sweeps."""

from __future__ import annotations

import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pseudosusp import cantor, substitution
from pseudosusp.cantor import (FullShift, InvalidPointError, Odometer, OdometerPoint,
                               ReducibleSFTWarning, SFT)
from pseudosusp.substitution import Substitution, _language_words

from oracles import cantor_metric, golden_mean_sft, recurrence_profile, thue_morse

# `test_system_contract` runs over this list: a new system class is tested
# by adding it here
ALL_SYSTEMS = [
    FullShift(2),
    FullShift(4),
    golden_mean_sft(),
    thue_morse(),
    Odometer((2, 2, 2)),
    Odometer((2, 3)),
]


# the three kinds of shift, whose points widen
SHIFT_IDS = ["shift3", "golden", "three_sft", "thue_morse"]
SHIFTS = [FullShift(3), golden_mean_sft(), SFT(3, ((1, 1, 1), (1, 0, 0), (0, 1, 1))),
          thue_morse()]


def seq_from_word(word, W=8, R=128):
    """The full 2-shift point reading word[(i + W) mod len(word)] at every
    |i| <= R."""
    return FullShift(2).point([word[(i + W) % len(word)] for i in range(-R, R + 1)])


def window(c, W):
    return tuple(c.symbol_at(i) for i in range(-W, W + 1))


def digits(c):
    return tuple(c.symbol_at(i) for i in range(len(c.system.bases)))


# ---------------------------------------------------------------------------
# shifting
# ---------------------------------------------------------------------------

def test_fullshift_moves_marker_left():
    # ...000.1000... -> ...0001.000...: the 1 moves from index 0 to index -1
    c = FullShift(2).point((0,) * 8 + (1,) + (0,) * 8)
    assert c.symbol_at(0) == 1
    c2 = FullShift(2).power(c, 1)
    assert c2.symbol_at(-1) == 1 and c2.symbol_at(0) == 0


def test_odometer_add_examples():
    o = Odometer((2, 2, 2))
    c = OdometerPoint(o, 7)
    assert digits(c) == (1, 1, 1) and digits(o.power(c, 1)) == (0, 0, 0)

    o23 = Odometer((2, 3))
    c = OdometerPoint(o23, 5)
    assert digits(c) == (1, 2) and digits(o23.power(c, 1)) == (0, 0)

    o22 = Odometer((2, 2))
    assert digits(o22.power(OdometerPoint(o22, 0), -1)) == (1, 1)
    # indices off the digits read 0
    assert [c.symbol_at(i) for i in (-1, 2, 9)] == [0, 0, 0]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(bases=st.lists(st.integers(2, 5), min_size=1, max_size=5), data=st.data(),
       a=st.integers(-400, 400), b=st.integers(-400, 400))
def test_odometer_add_is_an_action_of_the_integers(bases, data, a, b):
    h = Odometer(tuple(bases))
    c = OdometerPoint(h, data.draw(st.integers(0, math.prod(bases) - 1)))
    assert h.power(h.power(c, a), b) == h.power(c, a + b)
    assert h.power(h.power(c, a), -a) == c
    # the digits are the mixed-radix digits of the value
    value, want = c.value, []
    for base in bases:
        value, d = divmod(value, base)
        want.append(d)
    assert digits(c) == tuple(want)


def test_backward_path_stays_admissible():
    sft = golden_mean_sft()
    c = sft.random_point(3, 8)
    w = window(sft.power(c, -1), 8)
    assert all(sft.adjacency[a][b] for a, b in zip(w, w[1:]))


def test_forward_backward_identity_many_points():
    for sys_ in ALL_SYSTEMS:
        for seed in range(0, 1000, 6):
            c = sys_.random_point(seed, 8)
            back = sys_.power(sys_.power(c, 1), -1)
            for i in range(-7, 8):
                assert back.symbol_at(i) == c.symbol_at(i)


# ---------------------------------------------------------------------------
# metric
# ---------------------------------------------------------------------------

def test_metric_examples():
    a = seq_from_word((0, 1) * 9)
    assert cantor_metric(a, a, 8) == 0.0
    b = seq_from_word((1, 1) + (0, 1) * 8)  # anchored so index 0 differs
    c0 = seq_from_word((0,) * 17)
    c1 = seq_from_word((1,) + (0,) * 16)
    assert cantor_metric(c0, c1, 8) != 0.0

    # mismatch exactly at |i| = 3
    base = [0] * 17
    other = list(base)
    other[8 + 3] = 1
    d = cantor_metric(seq_from_word(base), seq_from_word(other), 8)
    assert d == pytest.approx(0.125)

    # mismatch at index 0
    other0 = list(base)
    other0[8] = 1
    assert cantor_metric(seq_from_word(base), seq_from_word(other0), 8) == 1.0


def test_metric_is_ultrametric_on_samples():
    pts = [FullShift(2).random_point(s, 8) for s in range(30)]
    for i in range(0, 30, 3):
        for j in range(1, 30, 4):
            for k in range(2, 30, 5):
                a, b, c = pts[i], pts[j], pts[k]
                dab = cantor_metric(a, b, 8)
                dbc = cantor_metric(b, c, 8)
                dac = cantor_metric(a, c, 8)
                assert dab == cantor_metric(b, a, 8)
                assert dac <= max(dab, dbc) + 1e-15


# ---------------------------------------------------------------------------
# entropy
# ---------------------------------------------------------------------------

def test_entropy_exact_values():
    assert FullShift(2).entropy_exact() == math.log(2)
    assert FullShift(4).entropy_exact() == math.log(4)
    assert Odometer((2, 3, 2)).entropy_exact() == 0.0
    assert thue_morse().entropy_exact() == 0.0


def test_golden_mean_entropy_against_root_oracle():
    # oracle: the growth rate solves x^2 = x + 1
    phi = (1 + math.sqrt(5)) / 2
    val = golden_mean_sft().entropy_exact()
    assert val == pytest.approx(math.log(phi), abs=1e-9)
    assert val == pytest.approx(0.481212, abs=1e-6)


def irreducible_01_matrices():
    """Every irreducible 0/1 matrix up to 3 x 3, then 100 seeded ones each of
    4 x 4 and 5 x 5.  Irreducible: every state reaches every other, which
    the oracle decides by closing the reach relation itself."""
    def irreducible(a):
        k = len(a)
        reach = {(i, j) for i in range(k) for j in range(k) if a[i][j]}
        for _ in range(k):
            reach |= {(i, j) for i, t in reach for s, j in reach if s == t}
        return k == 1 or len(reach) == k * k

    out = [[list(bits[i * k:(i + 1) * k]) for i in range(k)]
           for k in (1, 2, 3) for bits in itertools.product((0, 1), repeat=k * k)]
    rng = random.Random(2024)
    for k in (4, 5):
        drawn = 0
        while drawn < 100:
            a = [[int(rng.random() < 0.4) for _ in range(k)] for _ in range(k)]
            out.append(a)
            drawn += irreducible(a)
    return [a for a in out if irreducible(a)]


def test_spectral_radius_against_eigenvalue_oracle():
    """Periodic matrices (a bipartite graph, a cycle) are included: a power
    iteration on A alone oscillates on them."""
    matrices = irreducible_01_matrices()
    assert len(matrices) == 150 + 200
    for a in matrices:
        want = max(abs(np.linalg.eigvals(np.array(a, dtype=float))))
        assert abs(cantor.spectral_radius(a) - want) <= 1e-9 * want, a
    phi = (1 + math.sqrt(5)) / 2
    assert cantor.spectral_radius(golden_mean_sft().adjacency) == pytest.approx(phi, rel=1e-12)


@pytest.mark.parametrize("matrix,root", [
    (((1, 1), (0, 1)), 1.0),                      # a Jordan block
    (((0, 1), (0, 0)), 0.0),                      # nilpotent
    (((1, 1, 0), (1, 0, 1), (0, 0, 1)), "phi"),   # the golden mean feeding a sink
    (((1, 0, 0), (1, 1, 1), (1, 1, 0)), "phi"),   # ... fed by a source
    (((1, 1, 0, 0), (1, 0, 0, 0), (1, 0, 1, 1), (0, 0, 1, 1)), 2.0),
])
def test_spectral_radius_of_reducible_matrices(matrix, root):
    """The largest root over the strongly connected classes, which a power
    iteration on the whole matrix approaches only slowly or not at all."""
    want = (1 + math.sqrt(5)) / 2 if root == "phi" else root
    assert cantor.spectral_radius(matrix) == pytest.approx(want, rel=1e-12, abs=1e-12)


def count_words(adjacency, n):
    """Brute-force oracle: number of admissible words of length n."""
    k = len(adjacency)
    counts = [1] * k
    for _ in range(n - 1):
        counts = [sum(counts[p] for p in range(k) if adjacency[p][q])
                  for q in range(k)]
    return sum(counts)


@pytest.mark.parametrize("sys_", [golden_mean_sft(),
                                  SFT(2, ((1, 1), (1, 1))),
                                  SFT(2, ((0, 1), (1, 1)))])
def test_sft_entropy_matches_word_growth(sys_):
    n = 14
    growth = math.log(count_words(sys_.adjacency, n)) / n
    assert abs(sys_.entropy_exact() - growth) < 0.02


def test_reducible_sft_warns_but_returns():
    reducible = SFT(2, ((1, 0), (0, 1)))
    with pytest.warns(ReducibleSFTWarning):
        val = reducible.entropy_exact()
    assert val == pytest.approx(0.0, abs=1e-9)


# ---------------------------------------------------------------------------
# seeded points
# ---------------------------------------------------------------------------

def test_random_point_deterministic_and_valid():
    for sys_ in ALL_SYSTEMS:
        a = sys_.random_point(99, 8)
        b = sys_.random_point(99, 8)
        assert window(a, 8) == window(b, 8)
        assert sys_.contains(tuple(a.symbol_at(i) for i in sys_.positions(8)))
    fs = FullShift(2).random_point(1, 8)
    assert len(fs.word) == 17


def test_sft_random_point_admissible():
    sft = golden_mean_sft()
    for seed in range(20):
        w = sft.random_point(seed, 8).word
        assert all(sft.adjacency[a][b] for a, b in zip(w, w[1:]))


def test_odometer_orbit_period_is_product_of_bases():
    for bases in [(2, 3, 2), (2,) * 10, (10, 10, 10), (5, 4)]:
        total = math.prod(bases)
        assert total <= 10 ** 4
        sys_ = Odometer(bases)
        c = OdometerPoint(sys_, 0)
        for step in range(1, total + 1):
            c = sys_.power(c, 1)
            if c.value == 0:
                assert step == total
                break
        else:
            pytest.fail("orbit did not close")


# ---------------------------------------------------------------------------
# recurrence and mixing witnesses
# ---------------------------------------------------------------------------

def test_recurrence_fullshift_periodic_word():
    # period 0011 contains every length-2 word; oracle: exhaustive scan
    c = seq_from_word((0, 0, 1, 1), W=8)
    prof = recurrence_profile(FullShift(2), c, 2, 64)
    for word in [(0, 0), (0, 1), (1, 0), (1, 1)]:
        assert math.isfinite(prof[word])
        assert prof[word] <= 4


def test_recurrence_odometer_gap_bound():
    bases = (2, 2, 2)
    sys_ = Odometer(bases)
    c = OdometerPoint(sys_, 0)
    prof = recurrence_profile(sys_, c, 3, 2 * math.prod(bases) + 1)
    assert all(g <= math.prod(bases) for g in prof.values())


def test_recurrence_constant_sequence():
    c = seq_from_word((0,) * 17)
    prof = recurrence_profile(FullShift(2), c, 2, 32)
    finite = [w for w, g in prof.items() if math.isfinite(g)]
    assert finite == [(0, 0)]


def test_mixing_witness_fullshift():
    assert FullShift(2).mixing_witness((0,), (1,), 8) == 1
    # an empty cylinder has no witness: u and v must be nonempty words
    for u, v in (((5,), (0,)), ((0,), (2,)), ((), (0,)), ((0,), ())):
        with pytest.raises(ValueError, match="nonempty word"):
            FullShift(2).mixing_witness(u, v, 8)


def test_mixing_witness_golden_mean_with_power_oracle():
    sft = golden_mean_sft()
    got = sft.mixing_witness((1,), (1,), 16)
    # oracle: first n >= 1 with A^n[1][1] > 0
    a = np.array(sft.adjacency)
    p = a.copy()
    expect = None
    for n in range(1, 16):
        if p[1][1] > 0:
            expect = n
            break
        p = p @ a
    assert got == expect == 2
    with pytest.raises(ValueError, match="u must be"):
        sft.mixing_witness((1, 1), (1,), 16)


@st.composite
def sft_witness_cases(draw):
    """An SFT on 2 or 3 letters with no zero row or column, two of its
    words of length 1 to 3 and a horizon of at most 5."""
    k = draw(st.sampled_from([2, 3]))
    row = st.lists(st.integers(0, 1), min_size=k, max_size=k).map(tuple)
    adj = draw(st.lists(row, min_size=k, max_size=k).map(tuple).filter(
        lambda a: all(any(r) for r in a) and all(any(c) for c in zip(*a))))
    sft = SFT(k, adj)
    words = [w for L in (1, 2, 3) for w in sft.words(L)]
    return sft, draw(st.sampled_from(words)), draw(st.sampled_from(words)), draw(
        st.integers(1, 5))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=sft_witness_cases())
def test_sft_witness_matches_legal_word_enumeration(case):
    """The least n <= horizon for which some legal word of length
    max(|u|, horizon + |v|) holds u at 0 and v at n.  With no zero row or
    column every legal word extends both ways, so that word is a point's."""
    sft, u, v, horizon = case
    adj = sft.adjacency
    legal = [w for w in itertools.product(range(sft.k), repeat=max(len(u), horizon + len(v)))
             if all(adj[a][b] for a, b in zip(w, w[1:]))]
    hits = [n for n in range(1, horizon + 1)
            if any(w[:len(u)] == u and w[n:n + len(v)] == v for w in legal)]
    assert sft.mixing_witness(u, v, horizon) == min(hits, default=None)


def test_mixing_witness_thue_morse_with_enumeration_oracle():
    tm = thue_morse()
    got = tm.mixing_witness((0, 0), (1, 1), 32)
    # oracle: independent language enumeration to substitution depth 6
    words = []
    for a in range(2):
        w = (a,)
        for _ in range(6):
            w = tuple(s for x in w for s in tm.rules[x])
        words.append(w)
    best = None
    for big in words:
        for i in range(len(big) - 1):
            if big[i:i + 2] == (0, 0):
                for j in range(i + 1, len(big) - 1):
                    if big[j:j + 2] == (1, 1):
                        best = j - i if best is None else min(best, j - i)
    assert got == best
    assert got is not None and got <= 32
    for u, v in (((5, 5), (1, 1)), ((0, 0, 0), (1,)), ((0,), (1, 1, 1))):
        with pytest.raises(ValueError, match="nonempty word"):
            tm.mixing_witness(u, v, 32)
    # the block scan against the materialised one, which scans every legal
    # word of length max(|u|, horizon + |v|) for u at 0 and v at n
    for rules in (tm.rules, ((0, 1), (0,)), ((0, 0, 1), (1, 0))):
        sub = Substitution(rules)
        words = [w for L in (1, 2, 3) for w in sub.words(L)]
        for horizon in (1, 5, 40):
            for u in words:
                for v in words:
                    legal = _language_words(rules, max(len(u), horizon + len(v)))
                    hits = [n for w in legal if w[:len(u)] == u
                            for n in range(1, horizon + 1) if w[n:n + len(v)] == v]
                    assert sub.mixing_witness(u, v, horizon) == min(hits, default=None)


def test_odometer_witness_prefix_arithmetic():
    sys_ = Odometer((2, 2))
    # [00] meets the n-step preimage of [10] first at n = 1
    assert sys_.mixing_witness((0, 0), (1, 0), 8) == 1
    # and of [01] first at n = 2
    assert sys_.mixing_witness((0, 0), (0, 1), 8) == 2
    for u in ((3,), (0, 0, 0), ()):
        with pytest.raises(ValueError, match="u must be"):
            Odometer((2, 2)).mixing_witness(u, (0,), 8)
    with pytest.raises(ValueError, match="u must be"):
        Odometer((2, 2, 2)).mixing_witness((3,), (0,), 8)


def _odometer_witness_loop(bases, u, v, horizon):
    """The least n <= horizon with h^n[u] meeting [v], by trying each n:
    the shorter word's digits of value + n must match."""
    def value(word):
        return sum(d * math.prod(bases[:i]) for i, d in enumerate(word))

    pu, pv = math.prod(bases[:len(u)]), math.prod(bases[:len(v)])
    for n in range(1, horizon + 1):
        if len(v) <= len(u):
            ok = (value(u) + n) % pv == value(v)
        else:
            ok = (value(v) - n) % pu == value(u)
        if ok:
            return n
    return None


@settings(max_examples=300, deadline=None, derandomize=True)
@given(bases=st.lists(st.integers(2, 4), min_size=1, max_size=4).map(tuple),
       data=st.data(), horizon=st.integers(0, 79))
def test_odometer_witness_matches_the_loop(bases, data, horizon):
    def word():
        n = data.draw(st.integers(1, len(bases)))
        return tuple(data.draw(st.integers(0, b - 1)) for b in bases[:n])

    u, v = word(), word()
    assert (Odometer(bases).mixing_witness(u, v, horizon)
            == _odometer_witness_loop(bases, u, v, horizon))


JOIN_SYSTEMS = [FullShift(2), golden_mean_sft(), SFT(3, ((1, 1, 1), (1, 0, 0), (0, 1, 1))),
                thue_morse(), Substitution(((0, 1), (0,))), Odometer((2, 3)),
                Odometer((3, 2, 2))]


def brute_joins(h, u, i, v, j):
    """Whether some point holds u from position i on and v from j on, from
    the definitions: over every value of an odometer, and over the legal
    words of the span of a shift, grown symbol by symbol for an SFT."""
    if isinstance(h, Odometer):
        def holds(c, word, at):
            return all(h.power(c, at).symbol_at(x) == s for x, s in enumerate(word))

        return any(holds(c, u, i) and holds(c, v, j)
                   for c in (OdometerPoint(h, value) for value in range(math.prod(h.bases))))
    lo = min(i, j)
    span = max(i + len(u), j + len(v)) - lo
    if isinstance(h, Substitution):
        legal = _language_words(h.rules, span)
    else:
        legal = [(a,) for a in range(h.k)]
        for _ in range(span - 1):
            legal = [w + (b,) for w in legal for b in range(h.k) if h.adjacency[w[-1]][b]]
    return any(w[i - lo:i - lo + len(u)] == u and w[j - lo:j - lo + len(v)] == v
               for w in legal)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(h=st.sampled_from(JOIN_SYSTEMS), data=st.data(), i=st.integers(-6, 6),
       j=st.integers(-6, 6))
def test_joins_matches_brute_force(h, data, i, j):
    """`joins(u, i, v, j)` at any offsets, j < i, overlapping words and
    words far apart included."""
    words = [w for L in (1, 2, 3) for w in h.words(L)]
    u, v = data.draw(st.sampled_from(words)), data.draw(st.sampled_from(words))
    assert h.joins(u, i, v, j) == brute_joins(h, u, i, v, j)


def test_constructors_reject_bad_configs():
    with pytest.raises(ValueError):
        FullShift(1)
    with pytest.raises(ValueError):
        SFT(2, ((0, 0), (1, 1)))
    with pytest.raises(ValueError):
        Odometer((1, 2))
    with pytest.raises(ValueError):
        Substitution(((0,), (1,)))  # not primitive


# ---------------------------------------------------------------------------
# the full shift: its closed forms as oracles for the SFT path
# ---------------------------------------------------------------------------

FULL_K = st.sampled_from([2, 3, 4])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(k=FULL_K, D=st.integers(0, 3), windings=st.lists(st.integers(-6, 6), max_size=8))
def test_full_shift_class_counts_are_k_to_the_free_positions(k, D, windings):
    """k^(f_R + f_L) for every core, f_R and f_L the seen positions right
    and left of the core [-D, D]."""
    h = FullShift(k)
    seen = sorted({p for w in [0] + windings for p in range(w - D, w + D + 1)})
    counts = h.class_counts(D, seen)
    assert set(counts.values()) == {k ** sum(abs(p) > D for p in seen)}


@settings(max_examples=100, deadline=None, derandomize=True)
@given(k=FULL_K, data=st.data(), horizon=st.integers(1, 12))
def test_full_shift_witness_is_the_least_overlap_consistent_n(k, data, horizon):
    word = st.lists(st.integers(0, k - 1), min_size=1, max_size=5).map(tuple)
    u, v = data.draw(word), data.draw(word)
    consistent = [n for n in range(1, horizon + 1)
                  if all(u[n + j] == s for j, s in enumerate(v) if n + j < len(u))]
    assert FullShift(k).mixing_witness(u, v, horizon) == min(consistent, default=None)


@settings(max_examples=10, deadline=None, derandomize=True)
@given(k=FULL_K)
def test_full_shift_entropy_is_log_k(k):
    assert FullShift(k).entropy_exact() == math.log(k)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(k=FULL_K, seed=st.integers(0, 10 ** 6), W=st.integers(0, 20))
def test_full_shift_random_point_is_k_ary_randrange_draws(k, seed, W):
    rng = random.Random(seed)
    assert FullShift(k).random_point(seed, W).word == [rng.randrange(k)
                                                       for _ in range(2 * W + 1)]


# ---------------------------------------------------------------------------
# the contract every system class keeps
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("h", ALL_SYSTEMS, ids=repr)
@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10 ** 6), a=st.integers(-40, 40), b=st.integers(-40, 40),
       W=st.integers(2, 10), D=st.integers(0, 2), L=st.integers(0, 5))
def test_system_contract(h, seed, a, b, W, D, L):
    c = h.random_point(seed, W)
    # h^a . h^b = h^(a+b) and h^-w . h^w = id, on the window
    assert window(h.power(h.power(c, b), a), W) == window(h.power(c, a + b), W)
    assert window(h.power(h.power(c, a), -a), W) == window(c, W)

    # the pattern at the positions the metric reads to depth D is a word of
    # the system, for the seeded point moved anywhere within its window
    positions = h.positions(D)
    assert h.cylinder(c, D) == (tuple(c.symbol_at(i) for i in positions), positions[0])
    words = set(h.words(len(positions)))
    for j in range(D - W, W - D + 1):
        assert tuple(h.power(c, j).symbol_at(i) for i in positions) in words

    # the words are legal, and each extends to a longer one
    shorter = h.words(L)
    assert all(h.contains(w) for w in shorter)
    assert set(shorter) <= {w[:L] for w in h.words(L + 1)}


class Pick:
    """Stands in for the rng of one draw, which returns index i."""

    def __init__(self, i):
        self.i = i

    def randrange(self, n):
        return self.i


def test_thue_morse_splice_draws_every_legal_window():
    tm, W = thue_morse(), 32
    language = _language_words(tm.rules, 2 * W + 1)
    for seed, D in ((1, 0), (2, 3), (5, 6), (8, 9)):
        base = tm.random_point(seed, W)
        core = tuple(base.word[W - D:W + D + 1])
        legal = {w for w in language if w[W - D:W + D + 1] == core}
        drawn = {tuple(tm.splice(base, D, Pick(i), W).word) for i in range(len(legal))}
        assert drawn == legal


# ---------------------------------------------------------------------------
# points beyond their word
# ---------------------------------------------------------------------------

@settings(max_examples=200, deadline=None, derandomize=True)
@given(block=st.lists(st.integers(0, 2), max_size=40).map(tuple),
       word=st.lists(st.integers(0, 2), min_size=1, max_size=4).map(tuple))
def test_occurrences_match_a_slice_scan(block, word):
    assert substitution._occurrences(block, word) == [
        i for i in range(len(block) - len(word) + 1) if block[i:i + len(word)] == word]


def test_building_an_inadmissible_sft_point_raises():
    sft = golden_mean_sft()
    # (1, 1) is forbidden in the golden-mean shift
    with pytest.raises(InvalidPointError, match=r"inadmissible pair \(1,1\)"):
        sft.point((0, 1, 0, 1, 1, 0, 1, 0, 0))
    for h in (sft, FullShift(2), thue_morse()):
        with pytest.raises(InvalidPointError, match="outside alphabet"):
            h.point((0, 2, 0))


@pytest.mark.parametrize("h", SHIFTS, ids=SHIFT_IDS)
@settings(max_examples=30, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10 ** 6), W=st.integers(1, 10),
       reads=st.lists(st.integers(-200, 200), min_size=1, max_size=12))
def test_widened_symbols_do_not_depend_on_the_order_of_reads(h, seed, W, reads):
    """Two builds of one seeded point, read far outside their words in
    opposite orders, hold the same symbols; the splice's rng is untouched."""
    forward, backward = h.random_point(seed, W), h.random_point(seed, W)
    got = [forward.symbol_at(i) for i in reads]
    assert got == [backward.symbol_at(i) for i in reversed(reads)][::-1]
    assert forward.word == backward.word
    rng = random.Random(seed)
    spliced = h.splice(forward, 0, rng, W)
    state = rng.getstate()
    spliced.symbol_at(5 * W + 3)
    assert rng.getstate() == state


@pytest.mark.parametrize("h", SHIFTS, ids=SHIFT_IDS)
@settings(max_examples=30, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10 ** 6), W=st.integers(1, 10),
       a=st.integers(-120, 120), b=st.integers(-120, 120))
def test_powers_compose_past_the_first_widening(h, seed, W, a, b):
    composed = h.power(h.power(h.random_point(seed, W), a), b)
    direct = h.power(h.random_point(seed, W), a + b)
    assert window(composed, 2 * W) == window(direct, 2 * W)


@pytest.mark.parametrize("h", SHIFTS[1:3], ids=SHIFT_IDS[1:3])
@settings(max_examples=30, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10 ** 6), W=st.integers(0, 10))
def test_widened_sft_point_is_admissible_across_the_old_edge(h, seed, W):
    c = h.random_point(seed, W)
    core = list(c.word)
    span = [c.symbol_at(i) for i in range(-3 * W - 2, 3 * W + 3)]
    assert all(h.adjacency[x][y] for x, y in zip(span, span[1:]))
    # widening keeps the old word at the centre
    R = len(c.word) // 2
    assert c.word[R - W:R + W + 1] == core


@settings(max_examples=30, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10 ** 6), W=st.integers(1, 10), far=st.integers(1, 60))
def test_widened_thue_morse_windows_are_legal(seed, W, far):
    tm = thue_morse()
    c = tm.random_point(seed, W)
    c.symbol_at(far)
    c.symbol_at(-far)
    word = tuple(c.word)
    for L in {2 * W + 1, len(word)}:
        language = _language_words(tm.rules, L)
        assert all(word[i:i + L] in language for i in range(len(word) - L + 1))
