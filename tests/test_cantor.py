"""Cantor-system tests: frozen example values, independent oracles, seeded
property sweeps."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pseudosusp import cantor
from pseudosusp.cantor import (DigitStream, FullShift, GraphPath, InvalidPointError,
                               Odometer, Periodic,
                               ReducibleSFTWarning, SFT, Substitution,
                               SymbolSequence, cantor_metric, entropy_exact,
                               golden_mean_sft, mixing_witness_symbolic,
                               random_point, recurrence_profile, shift_backward,
                               shift_forward, thue_morse, validate_system,
                               _odometer_add)

ALL_SYSTEMS = [
    FullShift(2),
    FullShift(4),
    golden_mean_sft(),
    thue_morse(),
    Odometer((2, 2, 2)),
    Odometer((2, 3)),
]


def seq_from_word(word, alphabet=2, W=8):
    return SymbolSequence(Periodic(tuple(word), tuple(word), -W), alphabet, W)


# ---------------------------------------------------------------------------
# shifting
# ---------------------------------------------------------------------------

def test_fullshift_moves_marker_left():
    # ...000.1000... -> ...0001.000...: the 1 moves from index 0 to index -1
    word = (0,) * 8 + (1,) + (0,) * 8
    c = SymbolSequence(Periodic(word, word, -8), 2, 8)
    assert c.symbol_at(0) == 1
    c2 = shift_forward(c, FullShift(2))
    assert c2.symbol_at(-1) == 1 and c2.symbol_at(0) == 0


def test_odometer_add_examples():
    o = Odometer((2, 2, 2))
    c = SymbolSequence(DigitStream((1, 1, 1), (2, 2, 2)), 2, 8)
    assert shift_forward(c, o).extension.digits == (0, 0, 0)

    o23 = Odometer((2, 3))
    c = SymbolSequence(DigitStream((1, 2), (2, 3)), 3, 8)
    assert shift_forward(c, o23).extension.digits == (0, 0)

    o22 = Odometer((2, 2))
    c = SymbolSequence(DigitStream((0, 0), (2, 2)), 2, 8)
    assert shift_backward(c, o22).extension.digits == (1, 1)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(bases=st.lists(st.integers(2, 5), min_size=1, max_size=5), data=st.data(),
       a=st.integers(-400, 400), b=st.integers(-400, 400))
def test_odometer_add_is_an_action_of_the_integers(bases, data, a, b):
    bases = tuple(bases)
    digits = tuple(data.draw(st.integers(0, base - 1)) for base in bases)
    assert _odometer_add(_odometer_add(digits, bases, a), bases, b) == \
        _odometer_add(digits, bases, a + b)
    assert _odometer_add(_odometer_add(digits, bases, a), bases, -a) == digits


def test_backward_path_stays_admissible():
    sft = golden_mean_sft()
    c = random_point(sft, 3, 8)
    back = shift_backward(c, sft)
    w = back.window
    assert all(sft.adjacency[a][b] for a, b in zip(w, w[1:]))


def test_sft_refill_maps_are_built_once_per_adjacency():
    cantor._successor_map.cache_clear()
    cantor._predecessor_map.cache_clear()
    adjacencies = [golden_mean_sft().adjacency, ((0, 1), (1, 1)), ((1, 1), (1, 1))]
    for adjacency in adjacencies:
        path = GraphPath(adjacency, (0, 1, 0), -1)
        window = [path.symbol(i) for i in range(-300, 301)]
        assert all(adjacency[a][b] for a, b in zip(window, window[1:]))
    assert cantor._successor_map.cache_info().misses == len(adjacencies)
    assert cantor._predecessor_map.cache_info().misses == len(adjacencies)
    # the far reads follow the lex-smallest walk: 1 -> 0 -> 0 ... on the golden mean
    golden = GraphPath(golden_mean_sft().adjacency, (1,), 0)
    assert [golden.symbol(i) for i in (1, 2, 50, -1, -50)] == [0, 0, 0, 0, 0]

    no_successor = GraphPath(((0, 0), (1, 1)), (1,), 0)
    for _ in range(2):
        with pytest.raises(InvalidPointError, match="without successor"):
            no_successor.symbol(5)


def test_forward_backward_identity_many_points():
    for sys_ in ALL_SYSTEMS:
        for seed in range(0, 1000, 6):
            c = random_point(sys_, seed, 8)
            back = shift_backward(shift_forward(c, sys_), sys_)
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
    pts = [random_point(FullShift(2), s, 8) for s in range(30)]
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
    assert entropy_exact(FullShift(2)) == math.log(2)
    assert entropy_exact(FullShift(4)) == math.log(4)
    assert entropy_exact(Odometer((2, 3, 2))) == 0.0
    assert entropy_exact(thue_morse()) == 0.0


def test_golden_mean_entropy_against_root_oracle():
    # oracle: the growth rate solves x^2 = x + 1
    phi = (1 + math.sqrt(5)) / 2
    val = entropy_exact(golden_mean_sft())
    assert val == pytest.approx(math.log(phi), abs=1e-9)
    assert val == pytest.approx(0.481212, abs=1e-6)


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
    assert abs(entropy_exact(sys_) - growth) < 0.02


def test_reducible_sft_warns_but_returns():
    reducible = SFT(2, ((1, 0), (0, 1)))
    with pytest.warns(ReducibleSFTWarning):
        val = entropy_exact(reducible)
    assert val == pytest.approx(0.0, abs=1e-9)


# ---------------------------------------------------------------------------
# seeded points
# ---------------------------------------------------------------------------

def test_random_point_deterministic_and_valid():
    for sys_ in ALL_SYSTEMS:
        a = random_point(sys_, 99, 8)
        b = random_point(sys_, 99, 8)
        assert a.window == b.window
        a.validate()
    fs = random_point(FullShift(2), 1, 8)
    assert len(fs.window) == 17


def test_sft_random_point_admissible():
    sft = golden_mean_sft()
    for seed in range(20):
        w = random_point(sft, seed, 8).window
        assert all(sft.adjacency[a][b] for a, b in zip(w, w[1:]))


def test_odometer_orbit_period_is_product_of_bases():
    for bases in [(2, 3, 2), (2,) * 10, (10, 10, 10), (5, 4)]:
        total = math.prod(bases)
        assert total <= 10 ** 4
        sys_ = Odometer(bases)
        zero = SymbolSequence(DigitStream((0,) * len(bases), bases),
                              max(bases), 8)
        c = zero
        for step in range(1, total + 1):
            c = shift_forward(c, sys_)
            if c.extension.digits == zero.extension.digits:
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
    c = SymbolSequence(DigitStream((0, 0, 0), bases), 2, 8)
    prof = recurrence_profile(sys_, c, 3, 2 * math.prod(bases) + 1)
    assert all(g <= math.prod(bases) for g in prof.values())


def test_recurrence_constant_sequence():
    c = seq_from_word((0,) * 17)
    prof = recurrence_profile(FullShift(2), c, 2, 32)
    finite = [w for w, g in prof.items() if math.isfinite(g)]
    assert finite == [(0, 0)]


def test_mixing_witness_fullshift():
    assert mixing_witness_symbolic(FullShift(2), (0,), (1,), 8) == 1


def test_mixing_witness_golden_mean_with_power_oracle():
    sft = golden_mean_sft()
    got = mixing_witness_symbolic(sft, (1,), (1,), 16)
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


def test_mixing_witness_thue_morse_with_enumeration_oracle():
    tm = thue_morse()
    got = mixing_witness_symbolic(tm, (0, 0), (1, 1), 32)
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


def test_odometer_witness_prefix_arithmetic():
    sys_ = Odometer((2, 2))
    # [00] meets the n-step preimage of [10] first at n = 1
    assert mixing_witness_symbolic(sys_, (0, 0), (1, 0), 8) == 1
    # and of [01] first at n = 2
    assert mixing_witness_symbolic(sys_, (0, 0), (0, 1), 8) == 2


def test_validate_system_rejects_bad_configs():
    with pytest.raises(ValueError):
        validate_system(FullShift(1))
    with pytest.raises(ValueError):
        validate_system(SFT(2, ((0, 0), (1, 1))))
    with pytest.raises(ValueError):
        validate_system(Odometer((1, 2)))
    with pytest.raises(ValueError):
        validate_system(Substitution(((0,), (1,))))  # not primitive
