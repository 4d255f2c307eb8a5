"""Suspension quotient tests: normalization algebra, orbit bookkeeping,
dense-orbit and mixing searches, entropy brackets."""

from __future__ import annotations

import functools
import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pseudosusp.annulus import (LiftedAnnulusMap, Profile, RadialReparam, RigidRotation,
                                Twist, cover_lift, orbit, rotation_estimate)
from pseudosusp.cantor import FullShift, Odometer, OdometerPoint, SFT
from pseudosusp.cli import _speed
from pseudosusp.config import build_map, load_config
from pseudosusp.pl import HALF, pl_at
from pseudosusp.substitution import Substitution, _language_words
from pseudosusp.suspension import (CapacityError, SuspensionPoint, SuspensionSystem,
                                   _cylinder_counts, _seen_positions, _strip_meets,
                                   dense_orbit_check, depth_for, entropy_separated,
                                   entropy_spanning, normalize, product_formula_report,
                                   weak_mixing_witness)

from oracles import (brute_force_witness, cantor_metric, core_key, cylinders_meet,
                     golden_mean_sft, quotient_distance, rigidity_suspension, sampled_witness,
                     splice_point, step, stepped_dense_orbit, stepped_orbit, strip_meets,
                     thue_morse, winding_rate)


def rot(beta):
    return LiftedAnnulusMap((RigidRotation(beta),))


def constant(beta):
    """The exact speed of a rotation by beta."""
    return ((Fraction(0), Fraction(beta)), (Fraction(1), Fraction(beta)))


def make_sys(beta=0.5, h=None, window=32):
    """The suspension of h under the rotation by beta, at its exact speed."""
    return SuspensionSystem(constant(beta), h or FullShift(2), window)


def symbols(c, W):
    return [c.symbol_at(i) for i in range(-W, W + 1)]


GOLDEN = (math.sqrt(5) - 1) / 2


def twist_speed(beta, points):
    """The exact speed of a twist through `points` followed by a rotation
    by beta."""
    return tuple((Fraction(x), Fraction(y) + Fraction(beta)) for x, y in points)


# each map with its exact speed, the sum of its pieces
MAPS = [
    (rot(0.5), constant(0.5)),
    (rot(GOLDEN), constant(GOLDEN)),
    (LiftedAnnulusMap((Twist(Profile(((0.0, 0.11), (0.5, 0.6), (1.0, 0.4)))),
                       RigidRotation(0.3))),
     twist_speed(0.3, ((0.0, 0.11), (0.5, 0.6), (1.0, 0.4)))),
]


# ---------------------------------------------------------------------------
# normalization and stepping
# ---------------------------------------------------------------------------

def test_normalize_examples():
    sys_ = make_sys()
    c = sys_.h.random_point(4, 32)
    p = normalize(sys_, 0.3, 2.7, c)
    assert p.t == 0.3 and p.r == pytest.approx(0.7)
    for i in range(-8, 9):
        assert p.c.symbol_at(i) == c.symbol_at(i + 2)

    p2 = normalize(sys_, 0.3, -0.4, c)
    assert p2.r == pytest.approx(0.6)
    assert symbols(p2.c, 8) == symbols(sys_.h.power(c, -1), 8)
    p3 = normalize(sys_, 0.5, 0.5, c)
    assert p3 == (0.5, 0.5, c)


def test_normalize_takes_zero_where_the_floor_rounds_up_to_one():
    # -1e-300 - floor(-1e-300) rounds to 1.0: the point is (t, 0, c), as
    # `annulus.orbit` reduces the same r; -0.0 reads as 0.0, not -0.0
    sys_ = make_sys()
    c = sys_.h.random_point(4, 32)
    for r in (-1e-300, -2.0 ** -54, -0.0):
        p = normalize(sys_, 0.3, r, c)
        assert p.r == 0.0 and math.copysign(1.0, p.r) == 1.0
        assert symbols(p.c, 8) == symbols(c, 8)


def test_step_example_and_identity():
    sys6 = make_sys(0.6)
    c = sys6.h.random_point(4, 32)
    p = normalize(sys6, 0.2, 0.9, c)
    q, k = step(sys6, rot(0.6), p)
    assert q.t == 0.2 and q.r == pytest.approx(0.5) and k == 1
    for i in range(-8, 9):
        assert q.c.symbol_at(i) == c.symbol_at(i + 1)

    sys0 = make_sys(0.0)
    p0 = normalize(sys0, 0.4, 0.3, c)
    assert step(sys0, rot(0.0), p0) == (p0, 0)


def test_winding_closed_form():
    # 0.37*k + 0.215 stays at least 0.005 away from the integers for k < 200,
    # so the floor comparison is float-safe
    alpha, r0 = 0.37, 0.215
    sys_ = make_sys(alpha)
    p = normalize(sys_, 0.5, r0, sys_.h.random_point(9, 32))
    w = 0
    for k in range(1, 200):
        p, dw = step(sys_, rot(alpha), p)
        w += dw
        assert w == math.floor(k * alpha + r0)


def test_quotient_distance_examples():
    sys_ = make_sys()
    c = sys_.h.random_point(12, 32)
    p = normalize(sys_, 0.5, 0.2, c)
    assert quotient_distance(sys_, p, p) == 0.0

    # representatives related by the gluing relation are at distance zero
    # (up to the float rounding of r + 1)
    q_shifted = normalize(sys_, 0.5, 1.2, sys_.h.power(c, -1))
    assert quotient_distance(sys_, p, q_shifted) == pytest.approx(0.0, abs=1e-12)

    a = normalize(sys_, 0.5, 0.99, c)
    b = normalize(sys_, 0.5, 0.01, sys_.h.power(c, 1))
    assert quotient_distance(sys_, a, b) == pytest.approx(0.02)


def test_quotient_well_definedness_sweep():
    sys_ = make_sys()
    for seed in range(0, 1000, 7):
        c = sys_.h.random_point(seed, 32)
        t, r = (seed % 17) / 17.0, (seed % 13) / 13.0
        ref = normalize(sys_, t, r, c)
        for m in range(-3, 4):
            other = normalize(sys_, t, r + m, sys_.h.power(c, -m))
            assert other.t == ref.t
            assert other.r == pytest.approx(ref.r, abs=1e-12)
            assert cantor_metric(other.c, ref.c, 8) == 0.0


def test_step_normalize_commutation():
    sys_ = make_sys(0.6)
    for seed in range(0, 200, 3):
        c = sys_.h.random_point(seed, 32)
        t, r = (seed % 11) / 11.0, (seed % 19) / 6.0 - 1.5
        before, _ = step(sys_, rot(0.6), normalize(sys_, t, r, c))
        t2, r2 = rot(0.6).apply(t, r)
        after = normalize(sys_, float(t2), float(r2), c)
        assert before.t == after.t
        assert before.r == pytest.approx(after.r, abs=1e-9)
        assert cantor_metric(before.c, after.c, 8) == 0.0


QUOTIENT_SYSTEMS = [FullShift(2), golden_mean_sft(), Odometer((2, 3, 2))]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(h=st.sampled_from(QUOTIENT_SYSTEMS), seed=st.integers(0, 10 ** 6),
       t=st.floats(0.0, 1.0), r=st.floats(-3.0, 3.0), m=st.integers(-6, 6))
def test_normalize_trades_deck_shift_for_power(h, seed, t, r, m):
    # (t, r + m, h^-m c) is the same quotient point as (t, r, c)
    assume(math.floor(r + m) == math.floor(r) + m)  # r + m may round onto an integer
    sys_ = make_sys(0.5, h, 16)
    c = h.random_point(seed, 16)
    ref = normalize(sys_, t, r, c)
    other = normalize(sys_, t, r + m, h.power(c, -m))
    assert other.t == ref.t
    assert symbols(other.c, 16) == symbols(ref.c, 16)
    assert other.r == pytest.approx(ref.r, abs=1e-12)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(h=st.sampled_from(QUOTIENT_SYSTEMS), m=st.integers(0, 2),
       seed=st.integers(0, 10 ** 6), t=st.floats(0.0, 1.0), r=st.floats(-3.0, 3.0))
def test_step_commutes_with_normalize(h, m, seed, t, r):
    m, speed = MAPS[m]
    sys_ = SuspensionSystem(speed, h, 16)
    c = h.random_point(seed, 16)
    t2, r2 = (float(x) for x in m.apply(t, r))
    assume(abs(r2 - round(r2)) > 1e-9)  # both orders round to the same floor
    before, _ = step(sys_, m, normalize(sys_, t, r, c))
    after = normalize(sys_, t2, r2, c)
    assert before.t == after.t
    assert symbols(before.c, 16) == symbols(after.c, 16)
    assert before.r == pytest.approx(after.r, abs=1e-9)


def test_pseudo_component_conserved_and_fiber_preserved():
    """The windings that `step` adds track the pseudo-component: after
    windings w in all, the Cantor coordinate is h^w of the start's."""
    sys_ = make_sys(0.53)
    c = sys_.h.random_point(5, 32)
    cur = normalize(sys_, 0.3, 0.8, c)
    w = 0
    for _ in range(1, 50):
        nxt, k = step(sys_, rot(0.53), cur)
        w += k
        assert symbols(nxt.c, 8) == symbols(sys_.h.power(c, w), 8)
        t2, r2 = rot(0.53).apply(cur.t, cur.r)
        assert abs(nxt.t - t2) < 1e-9
        assert abs((nxt.r + k) - r2) < 1e-9
        cur = nxt


@pytest.mark.parametrize("m", [m for m, _ in MAPS] + [
    rot(-0.37),
    LiftedAnnulusMap((RigidRotation(0.2), Twist(Profile(((0.0, 0.1), (0.5, -0.7),
                                                         (1.0, 0.3)))),
                      RigidRotation(-0.05))),
    cover_lift(MAPS[2][0], 2, 1),
    LiftedAnnulusMap((RadialReparam(Profile(((0.0, 0.0), (0.5, 0.7), (1.0, 1.0)))),
                      RigidRotation(0.6))),
], ids=["half", "golden", "twist", "back", "pipeline3", "cover", "reparam"])
def test_orbit_equals_stepped_points(m):
    """`orbit` on both of its paths: the quotient stepped point by point,
    and, bit for bit, the orbit stepped by `apply`."""
    sys_ = SuspensionSystem(None, golden_mean_sft(), 32)  # `step` reads no speed
    p = normalize(sys_, 0.3, 0.8, sys_.h.random_point(5, 32))
    points = [(p, 0)]
    for _ in range(60):
        q, k = step(sys_, m, points[-1][0])
        points.append((q, points[-1][1] + k))
    rows = orbit(m, p.t, p.r, 60)
    assert rows == [(q.t, q.r, w) for q, w in points]
    assert [(t.hex(), r.hex(), w) for t, r, w in rows] \
        == [(t.hex(), r.hex(), w) for t, r, w in stepped_orbit(m, p.t, p.r, 60)]


def test_winding_rate_examples():
    sys_ = make_sys(0.5)
    c = sys_.h.random_point(2, 32)
    rates = winding_rate(rot(0.5), normalize(sys_, 0.5, 0.0, c), 10)
    assert rates[-1] == (10, 0.5)

    beta = (math.sqrt(5) - 1) / 2
    for k, rate in winding_rate(rot(beta), normalize(sys_, 0.5, 0.0, c), 300):
        assert abs(rate - beta) <= 1.0 / k + 1e-12


def test_winding_rate_agrees_with_rotation_estimate():
    m = LiftedAnnulusMap((RigidRotation(0.3),
                          Twist(Profile(((0.0, 0.11), (1.0, 0.4))))))
    sys_ = make_sys()
    c = sys_.h.random_point(3, 32)
    rates = winding_rate(m, normalize(sys_, 0.0, 0.0, c), 500)
    ests = rotation_estimate(m, 0.0, 0.0, 500)
    for (k, rate), (_, est) in zip(rates, ests):
        assert abs(rate - est) <= 2.0 / k + 1e-12


# ---------------------------------------------------------------------------
# dense-orbit search
# ---------------------------------------------------------------------------

def de_bruijn_word(order: int) -> tuple[int, ...]:
    """Binary de Bruijn cycle of the given order (prefer-one greedy)."""
    seen = {(0,) * order}
    word = [0] * order
    while True:
        tail = tuple(word[-(order - 1):]) if order > 1 else ()
        for bit in (1, 0):
            cand = tail + (bit,)
            if cand not in seen:
                seen.add(cand)
                word.append(bit)
                break
        else:
            break
    cycle = word[order:] if order > 1 else word
    return tuple(cycle) if len(cycle) == 2 ** order else tuple(word[:2 ** order])


def test_dense_orbit_debruijn_fixture():
    word = de_bruijn_word(7)
    assert len(word) == 128
    # every 7-window occurs in the cycle
    doubled = word + word
    windows = {doubled[i:i + 7] for i in range(128)}
    assert len(windows) == 128

    sys_ = make_sys(0.5)
    # the cycle repeated out to every position the backward walk reads
    c = FullShift(2).point([word[i % 128] for i in range(-200, 201)])
    hit = dense_orbit_check(sys_, c, 0.5, 1 / 8, 2, 3, 200)
    assert hit is not None
    k, s, p = hit
    assert (k, s) == (1, 2)
    assert p == 127
    # clause (2) is exact for the rational rotation: displacement k per block
    t, r = 0.5, 0.0
    for j in range(1, p + 1):
        for _ in range(s):
            t, r = rot(0.5).apply(t, r)
        assert abs(r - (0.0 + k * j)) < 1e-9
    assert stepped_dense_orbit(sys_, rot(0.5), c, (0.5, 0.0), 1 / 8, 2, 3, 200) == hit


def test_dense_orbit_odometer_coprime():
    bases = (2, 3)
    sys_ = make_sys(1.0, Odometer(bases))
    c = OdometerPoint(sys_.h, 0)
    hit = dense_orbit_check(sys_, c, 0.5, 1 / 4, 1, 2, 50)
    assert hit is not None
    k, s, p = hit
    assert k == 1 and p <= math.prod(bases)


def test_dense_orbit_negative_control():
    sys_ = make_sys(math.sqrt(2) / 2)
    c = sys_.h.random_point(8, 32)
    assert dense_orbit_check(sys_, c, 0.5, 0.05, 2, 3, 60) is None


# dyadic `map.map` values: a rotation by a multiple of 1/8, a twist in
# eighths on the pieces [0, 1/4], [1/4, 1/2], [1/2, 1], and a cover 2,p or
# 4,p around them.  At t and r in eighths every float step of such a map is
# exact, so the float orbit is the exact one.
eighths = st.integers(-16, 16).map(lambda n: f"{n}/8")
dyadic_maps = st.tuples(
    st.one_of(st.none(), eighths.map(lambda beta: f"rotation:{beta}")),
    st.one_of(st.none(), st.tuples(eighths, eighths, eighths, eighths).map(
        lambda ys: "twist:" + ";".join(f"{x},{y}" for x, y in zip(("0", "1/4", "1/2", "1"), ys)))),
    st.one_of(st.none(), st.tuples(st.sampled_from([2, 4]), st.integers(-3, 3)).map(
        lambda cover: f"cover:{cover[0]},{cover[1]}")),
).map(lambda parts: "|".join(part for part in parts if part) or "rotation:0")


@settings(max_examples=120, deadline=None, derandomize=True)
@given(spec=dyadic_maps, t0=st.integers(0, 8), r0=st.integers(-8, 8), seed=st.integers(0, 99),
       eps=st.sampled_from([0.75, 1 / 2, 0.3]), n=st.integers(1, 40))
def test_exact_speed_matches_the_float_map_on_dyadic_speeds(spec, t0, r0, seed, eps, n):
    """On a dyadic map the closed forms read what stepping the float map
    reads: the windings floor(i*P(1/2)) of the entropy counts are the w of
    `annulus.orbit`, and the dense-orbit test p*|s*P(t0) - k| < eps finds
    the witness of the stepped search."""
    cfg = load_config(None, [f"map.map={spec}"], "rotation")
    m, speed = build_map(cfg), _speed(cfg, "rotation")
    sys_ = SuspensionSystem(speed, FullShift(2), 8)
    windings = [w for _, _, w in orbit(m, 0.5, 0.0, n - 1)]
    assert windings == [math.floor(i * pl_at(speed, HALF)) for i in range(n)]
    D, seen = _seen_positions(sys_, 1 / 4, n)
    assert seen == sorted({p for w in windings for p in range(w - D, w + D + 1)})
    c = sys_.h.random_point(seed, 8)
    tr = (t0 / 8, r0 / 8)
    assert dense_orbit_check(sys_, c, tr[0], eps, 3, 4, 64) \
        == stepped_dense_orbit(sys_, m, c, tr, eps, 3, 4, 64)


# ---------------------------------------------------------------------------
# weak-mixing witness
# ---------------------------------------------------------------------------

def test_weak_mixing_witness_found_for_mixing_shift():
    sys_ = make_sys(0.5)
    cu = sys_.h.random_point(3, 32)
    cv = sys_.h.random_point(9, 32)
    U = (normalize(sys_, 0.5, 0.10, cu), 0.3)
    V = (normalize(sys_, 0.5, 0.35, cv), 0.3)
    # the windows of U's and V's words at depth 1 must part: winding k >= 3
    l = weak_mixing_witness(sys_, U, V, 64)
    assert l == brute_force_witness(sys_, U, V, 12) == 5


def test_weak_mixing_witness_self_ball():
    """The half rotation carries (0.5, 0.85, h^-1 c_U), at 0.25 from U's
    centre under deck shift 1, to (0.5, 0.35, c_U), at 0.25 from it: U meets
    itself at l = 1."""
    sys_ = make_sys(0.5)
    cu = sys_.h.random_point(3, 32)
    U = (normalize(sys_, 0.5, 0.10, cu), 0.3)
    assert weak_mixing_witness(sys_, U, U, 16) == 1
    p = normalize(sys_, 0.5, 0.85, sys_.h.power(cu, -1))
    assert quotient_distance(sys_, p, U[0]) < 0.3
    assert quotient_distance(sys_, step(sys_, rot(0.5), p)[0], U[0]) < 0.3


def test_weak_mixing_witness_odometer_negative():
    sys_ = make_sys("0.3819660112501051", Odometer((2, 2, 2)))
    c = sys_.h.random_point(1, 32)
    U = (normalize(sys_, 0.5, 0.10, c), 0.05)
    V = (normalize(sys_, 0.5, 0.60, c), 0.05)
    assert weak_mixing_witness(sys_, U, V, 40) is None


SAMPLED_SYSTEMS = [FullShift(2), FullShift(3), golden_mean_sft(), thue_morse(),
                   Odometer((2, 2, 2)), Odometer((3, 2, 5, 2))]


def test_exact_witness_is_at_most_the_sampled_one():
    """Every hit of the sampled search is a point of U whose l-th iterate
    lies in the ball, so the exact l is at most the sampled l."""
    pairs = []
    for h in SAMPLED_SYSTEMS:
        for m, speed in MAPS:
            sys_ = SuspensionSystem(speed, h, 32)
            for seed, (ru, rv) in enumerate([(0.3, 0.3), (0.1, 0.2), (0.05, 0.05)]):
                U = (normalize(sys_, 0.5, 0.1, h.random_point(seed + 3, 32)), ru)
                V = (normalize(sys_, 0.5, 0.35 + 0.2 * seed, h.random_point(seed + 9, 32)), rv)
                exact = weak_mixing_witness(sys_, U, V, 24)
                sampled = sampled_witness(sys_, m, U, V, 24, cloud_size=12, seed=seed)
                assert sampled is None or exact is not None and exact <= sampled
                pairs.append((exact, sampled))
    assert sum(s is not None for _, s in pairs) >= 10
    assert (None, None) in pairs


def balls_meet(h, p, rp, q, rq, n, W):
    """The cylinder question of `weak_mixing_witness`: whether the ball of
    radius rp about p meets h^-n of the ball of radius rq about q, from the
    system's `ball` and `joins`."""
    a, b = h.ball(p, rp, W), h.ball(q, rq, W)
    return a is None or b is None or h.joins(*a, b[0], b[1] + n)


def spliced_points(sys_, base, count, seed):
    """Points near `base` in the strip whose Cantor coordinates agree with
    base.c to various depths, so that every term of the metric is hit."""
    rng = random.Random(seed)
    out = []
    for j in range(count):
        c = splice_point(sys_.h, base.c, j % 5, rng, sys_.window)
        out.append(normalize(sys_, min(1.0, max(0.0, base.t + rng.uniform(-0.1, 0.1))),
                             base.r + rng.uniform(-0.6, 0.6), c))
    return out


def speed_at(speed, t):
    """P(t) in floats, by interpolation between the speed's breakpoints."""
    for (x0, y0), (x1, y1) in zip(speed, speed[1:]):
        if x0 <= t <= x1:
            return float(y0) + (float(y1) - float(y0)) * (t - float(x0)) / float(x1 - x0)
    raise ValueError(t)


@pytest.mark.parametrize("h", SAMPLED_SYSTEMS, ids=["shift2", "shift3", "golden", "thue_morse",
                                                 "odometer222", "odometer3252"])
@pytest.mark.parametrize("m", MAPS, ids=["half", "golden", "twist"])
def test_cloud_steps_and_distances_equal_scalar(h, m):
    """A spliced cloud about two centres, each point followed by `orbit`,
    against the scalar `step` and `quotient_distance` of the sampled
    reference: the iterates agree, the n-th one is (t, r + n*P(t) - k,
    h^k c) as the exact witness models it, and wherever an iterate lies
    near a target, the system's `ball` and `joins` say the balls about the
    centre and the target meet under that winding."""
    m, speed = m
    for window in (32, 2):
        sys_ = SuspensionSystem(speed, h, window)
        base = normalize(sys_, 0.5, 0.1, h.random_point(4, window))
        other = normalize(sys_, 0.45, 0.7, h.random_point(5, window))
        for centre, points in ((base, spliced_points(sys_, base, 20, 7)),
                               (other, spliced_points(sys_, other, 4, 8))):
            for p in points:
                rp = 2 * cantor_metric(p.c, centre.c, window) or 2.0 ** -(window + 1)
                cur, w = p, 0
                for n, (t, r, k) in enumerate(orbit(m, p.t, p.r, 20)[1:], start=1):
                    cur, dw = step(sys_, m, cur)
                    w += dw
                    assert (t, r, k) == (cur.t, cur.r, w)
                    assert t == p.t
                    assert abs(r + k - (p.r + n * speed_at(speed, t))) < 1e-9
                    c = h.power(p.c, k)
                    assert symbols(c, window) == symbols(cur.c, window)
                    for q in (base, other):
                        assert quotient_distance(sys_, SuspensionPoint(t, r, c), q) \
                            == quotient_distance(sys_, cur, q)
                        for s in (-1, 0, 1):
                            target = h.power(q.c, -s)
                            rq = 2 * cantor_metric(c, target, window) or 2.0 ** -(window + 1)
                            assert balls_meet(h, centre.c, rp, target, rq, k, window)


# a rotation by a multiple of 1/8, a twist with a sloped and a flat piece,
# and a cover 2,1 or 3,-1 around a twist
speeds = st.one_of(
    st.integers(-12, 12).map(lambda n: constant(Fraction(n, 8))),
    st.tuples(st.integers(1, 7), st.integers(-8, 8), st.integers(-8, 8),
              st.integers(-8, 8)).map(lambda v: (
                  (Fraction(0), Fraction(v[1], 8)), (Fraction(v[0], 8), Fraction(v[2], 8)),
                  (Fraction(1), Fraction(v[3], 8)))),
    st.tuples(st.integers(1, 7), st.integers(-8, 8), st.integers(-8, 8)).map(lambda v: (
        (Fraction(0), Fraction(v[1], 8)), (Fraction(v[0], 8), Fraction(v[1], 8)),
        (Fraction(1), Fraction(v[2], 8)))),
    st.tuples(st.sampled_from([(2, 1), (3, -1)]), st.integers(-8, 8)).map(lambda v: (
        (Fraction(0), (Fraction(v[1], 8) + v[0][1]) / v[0][0]),
        (Fraction(1), (Fraction(v[1] + 3, 8) + v[0][1]) / v[0][0]))),
)
WITNESS_SYSTEMS = [FullShift(2), golden_mean_sft(), thue_morse(), Odometer((2, 2, 2)),
                   Odometer((2, 3))]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(h=st.sampled_from(WITNESS_SYSTEMS), speed=speeds, W=st.sampled_from([2, 32]),
       data=st.data())
def test_exact_witness_matches_brute_force(h, speed, W, data):
    sys_ = SuspensionSystem(speed, h, W)

    def ball():
        t = data.draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)))
        r = data.draw(st.floats(0.0, 1.0, exclude_max=True))
        radius = data.draw(st.sampled_from([0.05, 0.1, 0.2, 0.3, 0.5, 1.5]))
        return normalize(sys_, t, r, h.random_point(data.draw(st.integers(0, 99)), W)), radius

    U, V = ball(), ball()
    assert weak_mixing_witness(sys_, U, V, 6) == brute_force_witness(sys_, U, V, 6)


# numerators over 8: balls (t, r, radius), pieces (x0, x1, m, c) with
# P(t) = m*t + c; the coarse grid makes balls, windows and pieces touch often
balls8 = st.tuples(st.integers(0, 8), st.integers(0, 7), st.integers(1, 12))
pieces8 = st.integers(0, 7).flatmap(lambda x0: st.tuples(
    st.just(x0), st.integers(x0 + 1, 8), st.one_of(st.just(0), st.integers(-12, 12)),
    st.integers(-16, 16)))


@settings(max_examples=600, deadline=None, derandomize=True)
@given(u=balls8, q=balls8, piece=pieces8, l=st.integers(1, 3), k=st.integers(-4, 6),
       su=st.sampled_from((-1, 0, 1)), sq=st.sampled_from((-1, 0, 1)))
def test_strip_meets_matches_the_arrangement(u, q, piece, l, k, su, sq):
    """The integer strip test, closed form on flat pieces and elimination
    on sloped ones, against the arrangement's vertices in Fractions."""
    def exact(values):
        return tuple(Fraction(x, 8) for x in values)

    assert (_strip_meets(u, q, piece, l, k, su, sq, 8)
            == strip_meets(exact(u), exact(q), exact(piece), l, k, su, sq))


RADII = [0.05, 0.1, 0.125, 0.2, 0.25, 0.3, 0.5, 1.0, 1.5]


@settings(max_examples=400, deadline=None, derandomize=True)
@given(h=st.sampled_from(WITNESS_SYSTEMS + [Odometer((3, 2, 2))]), W=st.sampled_from([1, 2, 32]),
       seeds=st.tuples(st.integers(0, 3), st.integers(0, 3)), j=st.integers(-2, 2),
       rp=st.sampled_from(RADII), rq=st.sampled_from(RADII), n=st.integers(-8, 12))
def test_meets_matches_the_metric(h, W, seeds, j, rp, rq, n):
    """The balls' cylinders joined as `weak_mixing_witness` joins them,
    against the metric's definition: every value of an odometer, and for a
    shift the positions the metric reads."""
    p = h.random_point(seeds[0], W)
    q = h.power(h.random_point(seeds[1], W), j)
    assert balls_meet(h, p, rp, q, rq, n, W) == cylinders_meet(SuspensionSystem(None, h, W),
                                                               p, rp, q, rq, n)


def test_weak_mixing_witness_rejects_degenerate_radius():
    sys_ = make_sys(0.5)
    c = sys_.h.random_point(3, 32)
    with pytest.raises(ValueError):
        weak_mixing_witness(sys_, (normalize(sys_, 0.5, 0.1, c), 0.0),
                            (normalize(sys_, 0.5, 0.2, c), 0.1), 8)


# ---------------------------------------------------------------------------
# rigidity on the quotient
# ---------------------------------------------------------------------------

def test_rigidity_odometer_quarter_rotation():
    sys_ = make_sys(0.25, Odometer((2, 2)))
    hits = rigidity_suspension(sys_, rot(0.25), 5, 20, 0.1, seed=0)
    assert [n for n, _ in hits] == [16]


def test_rigidity_identity_map():
    sys_ = make_sys(0.0)
    hits = rigidity_suspension(sys_, rot(0.0), 4, 6, 1e-6, seed=0)
    assert [n for n, _ in hits] == [1, 2, 3, 4, 5, 6]


def test_rigidity_fullshift_negative():
    sys_ = make_sys(0.5)
    assert rigidity_suspension(sys_, rot(0.5), 4, 40, 0.05, seed=0) == []


# ---------------------------------------------------------------------------
# entropy brackets
# ---------------------------------------------------------------------------

def test_entropy_bracket_halfspeed():
    sys_ = make_sys(0.5)
    lo = entropy_separated(sys_, 1 / 16, 12)
    up = entropy_spanning(sys_, 1 / 16, 12)
    assert 0.20 <= lo <= up <= 0.55


def test_entropy_zero_cases():
    sys0 = make_sys(0.0)
    assert entropy_spanning(sys0, 1 / 16, 12) <= 0.05
    syso = make_sys(0.5, Odometer((2,) * 8))
    assert entropy_spanning(syso, 1 / 16, 12) <= 0.05


def test_entropy_monotone_in_eps_and_ordered():
    sys_ = make_sys(0.5)
    lo_coarse = entropy_separated(sys_, 1 / 8, 12)
    lo_fine = entropy_separated(sys_, 1 / 16, 12)
    assert lo_coarse <= lo_fine + 1e-12
    up = entropy_spanning(sys_, 1 / 16, 12)
    assert lo_fine <= up + 1e-12


def test_entropy_capacity_error():
    # W = 8 resolves scales down to 2^-6: below that is a capacity error
    sys_ = make_sys(1.0, window=8)
    with pytest.raises(CapacityError, match="scale below window resolution"):
        entropy_separated(sys_, 1 / 128, 12)
    with pytest.raises(CapacityError, match="scale below window resolution"):
        entropy_spanning(sys_, 1 / 64, 12)
    # windings up to 11 outrun W = 8, but W caps only D: the counts read
    # every position, and agree with W = 32
    wide = make_sys(1.0, window=32)
    assert entropy_separated(sys_, 1 / 16, 12) == entropy_separated(wide, 1 / 16, 12)
    assert entropy_spanning(sys_, 1 / 16, 12) == entropy_spanning(wide, 1 / 16, 12)


def test_product_report_targets():
    sys4 = make_sys(0.25, FullShift(4))
    rows = product_formula_report(sys4, 0.25, [1 / 16], [12])
    assert rows[0].target == pytest.approx(0.25 * math.log(4))
    assert rows[0].target == pytest.approx(0.5 * math.log(2))


def test_entropy_sft_and_substitution_paths():
    sys_sft = make_sys(0.5, golden_mean_sft())
    lo = entropy_separated(sys_sft, 1 / 16, 12)
    up = entropy_spanning(sys_sft, 1 / 16, 12)
    assert 0.0 <= lo <= up
    # golden-mean factor: product target is 0.5 * log(phi) ~ 0.2406
    assert up <= 0.45

    sys_sub = make_sys(0.5, thue_morse())
    up_sub = entropy_spanning(sys_sub, 1 / 16, 12)
    assert up_sub <= 0.25  # zero-entropy factor: low complexity growth


def test_entropy_scale_must_be_below_one():
    sys_ = make_sys(0.5)
    with pytest.raises(ValueError, match="below 1"):
        entropy_separated(sys_, 1.0, 4)
    with pytest.raises(ValueError, match="below 1"):
        entropy_spanning(sys_, 2.0, 4)


@functools.lru_cache(maxsize=None)
def substitution_factors(rules, L: int) -> frozenset[tuple[int, ...]]:
    """Length-L factors of sigma^d(a) over every letter a, d deep enough
    that each image has 4096 letters or more."""
    out = set()
    for a in range(len(rules)):
        w = (a,)
        while len(w) < 4096:
            w = tuple(s for x in w for s in rules[x])
        out.update(w[i:i + L] for i in range(len(w) - L + 1))
    return frozenset(out)


def cylinder_fillings(h, core, D: int, lo: int, hi: int) -> np.ndarray:
    """Every admissible word over positions lo..hi (rows) whose positions
    -D..D hold `core`, by brute force over all k^(free) candidates.  For an
    odometer: every digit list whose first D + 1 digits are `core`."""
    if isinstance(h, Odometer):
        tails = itertools.product(*(range(b) for b in h.bases[len(core):]))
        return np.array([core + tail for tail in tails], dtype=np.int64)
    k = len(h.rules) if isinstance(h, Substitution) else h.k
    free = [i for i in range(lo, hi + 1) if abs(i) > D]
    language = (substitution_factors(h.rules, hi - lo + 1)
                if isinstance(h, Substitution) else None)
    rows = []
    for fill in itertools.product(range(k), repeat=len(free)):
        word = dict(zip(free, fill))
        word.update((i, core[i + D]) for i in range(-D, D + 1))
        word = tuple(word[i] for i in range(lo, hi + 1))
        if isinstance(h, SFT) and not all(h.adjacency[a][b] for a, b in zip(word, word[1:])):
            continue
        if language is not None and word not in language:
            continue
        rows.append(word)
    return np.array(rows, dtype=np.int64)


def greedy_bowen_oracle(sys_, scale, n, core) -> int:
    """The greedy Bowen scan over every point of the cylinder with this
    core: scan the fillings in order, keeping a point unless some kept point
    is close to it at every time under some deck shift s in {-1, 0, 1}.  The
    orbit of (0.5, 0.0) is (0.5, i*P(1/2)), exact in Fractions."""
    D = min(depth_for(scale), sys_.window)
    r_exact = [i * pl_at(sys_.speed, HALF) for i in range(n)]
    w = np.array([math.floor(r) for r in r_exact], dtype=np.int64)
    lo, hi = int(w.min()) - D, int(w.max()) + D
    win = cylinder_fillings(sys_.h, core, D, lo, hi)
    if not isinstance(sys_.h, Odometer):
        # the margin columns lo - 1 and hi + 1 are read only under the deck
        # shifts +-1; fix them to 0
        win = np.pad(win, ((0, 0), (1, 1)))
    count = len(win)
    tt = np.full((count, n), 0.5)
    rn = np.tile([float(r - wi) for r, wi in zip(r_exact, w.tolist())], (count, 1))
    width = 2 * D + 1
    shifts = (-1, 0, 1)
    eff = np.zeros((count, n, 3, width), dtype=np.int64)
    for i in range(n):
        for si, s in enumerate(shifts):
            if isinstance(sys_.h, Odometer):
                bases = sys_.h.bases
                v = sum(win[:, idx] * math.prod(bases[:idx]) for idx in range(len(bases)))
                v = (v + int(w[i]) - s) % math.prod(bases)
                for idx in range(min(len(bases), D + 1)):
                    eff[:, i, si, idx + D] = v % bases[idx]
                    v //= bases[idx]
            else:
                col = int(w[i]) + s - D - (lo - 1)
                eff[:, i, si] = win[:, col:col + width]

    kept: list[int] = []
    for j in range(count):
        ks = np.array(kept, dtype=np.int64)
        close = np.ones(len(ks), dtype=bool)
        for i in range(n):
            close_i = np.zeros(len(ks), dtype=bool)
            for si, s in enumerate(shifts):
                strip = np.abs(tt[j, i] - tt[ks, i]) + np.abs(rn[j, i] - (rn[ks, i] + s))
                agree = (eff[ks, i, si] == eff[j, i, 1]).all(axis=1)
                close_i |= (strip < scale) & agree
            close &= close_i
        if not close.any():
            kept.append(j)
    return len(kept)


def base_core(h, seed: int, D: int, W: int) -> tuple[int, ...]:
    """The core of the cylinder of a seeded point."""
    base = h.random_point(seed * 7 + 1, W)
    if isinstance(h, Odometer):
        return tuple(base.symbol_at(i) for i in range(min(D + 1, len(h.bases))))
    return tuple(base.symbol_at(i) for i in range(-D, D + 1))


def every_core(h, D: int) -> list[tuple[int, ...]]:
    if isinstance(h, Odometer):
        return list(itertools.product(*(range(b) for b in h.bases[:D + 1])))
    k = len(h.rules) if isinstance(h, Substitution) else h.k
    cores = list(itertools.product(range(k), repeat=2 * D + 1))
    if isinstance(h, SFT):
        return [c for c in cores if all(h.adjacency[a][b] for a, b in zip(c, c[1:]))]
    if isinstance(h, Substitution):
        language = substitution_factors(h.rules, 2 * D + 1)
        return [c for c in cores if c in language]
    return cores


# row sums 3, 1, 2 and column sums 2, 2, 2: left and right fillings differ
THREE_SFT = SFT(3, ((1, 1, 1), (1, 0, 0), (0, 1, 1)))

ENTROPY_SYSTEMS = [
    make_sys(0.0), make_sys(0.5), make_sys(1.0), make_sys(0.75, FullShift(3)),
    make_sys(0.5, golden_mean_sft()), make_sys(-0.5, THREE_SFT), make_sys(0.5, thue_morse()),
    make_sys(0.5, Odometer((2,) * 8)),
    SuspensionSystem(twist_speed(0.3, ((0.0, 0.11), (1.0, 0.4))), FullShift(2), 32),
]


@settings(max_examples=80, deadline=None, derandomize=True)
@given(sys_=st.sampled_from(ENTROPY_SYSTEMS),
       scale=st.one_of(st.sampled_from([1 / 2, 1 / 8, 1 / 16, 1 / 32]),
                       st.floats(min_value=1 / 64, max_value=1.0, exclude_max=True)),
       n=st.integers(1, 10), seed=st.integers(0, 1000))
def test_bowen_class_count_matches_greedy_scan(sys_, scale, n, seed):
    """The class count of a drawn core's cylinder is the greedy count over
    that cylinder."""
    D = min(depth_for(scale), sys_.window)
    core = base_core(sys_.h, seed, D, sys_.window)
    count = greedy_bowen_oracle(sys_, scale, n, core)
    assert _cylinder_counts(sys_, scale, n)[core_key(sys_.h, core)] == count


@settings(max_examples=25, deadline=None, derandomize=True)
@given(sys_=st.sampled_from(ENTROPY_SYSTEMS),
       scale=st.sampled_from([1 / 2, 1 / 4]), n=st.integers(1, 6))
def test_separated_count_is_least_cylinder_count(sys_, scale, n):
    """The lower estimate's count at eps is the least greedy count over
    every cylinder at scale eps."""
    D = min(depth_for(scale), sys_.window)
    least = min(greedy_bowen_oracle(sys_, scale, n, core) for core in every_core(sys_.h, D))
    assert entropy_separated(sys_, scale, n) == math.log(least) / n


@settings(max_examples=25, deadline=None, derandomize=True)
@given(sys_=st.sampled_from(ENTROPY_SYSTEMS),
       scale=st.sampled_from([1 / 2, 1 / 4]), n=st.integers(1, 6))
def test_spanning_count_is_largest_cylinder_count(sys_, scale, n):
    """The upper estimate's count at eps is the largest greedy count over
    every cylinder at scale eps/2."""
    D = min(depth_for(scale / 2), sys_.window)
    best = max(greedy_bowen_oracle(sys_, scale / 2, n, core)
               for core in every_core(sys_.h, D))
    assert entropy_spanning(sys_, scale, n) == math.log(best) / n


@pytest.mark.parametrize("h", [golden_mean_sft(), THREE_SFT, thue_morse(), FullShift(2)])
@pytest.mark.parametrize("speed", [3.5, -3.5])
def test_counts_across_unseen_gaps(h, speed):
    """Winding steps of 3 and 4 leave unseen positions between the windows
    at D = 0 (scale 0.9) and D = 1 (scale 1/2 and 0.9/2); the oracle fills
    them too, so a count that treats a gap as one step fails here."""
    sys_ = make_sys(speed, h)
    for n in (2, 3):
        for scale in (1 / 2, 0.9):
            greedy = {core: greedy_bowen_oracle(sys_, scale, n, core)
                      for core in every_core(h, depth_for(scale))}
            counts = _cylinder_counts(sys_, scale, n)
            assert all(counts[core_key(h, core)] == count for core, count in greedy.items())
            assert entropy_separated(sys_, scale, n) == math.log(min(greedy.values())) / n
        best = max(greedy_bowen_oracle(sys_, 0.45, n, core) for core in every_core(h, 1))
        assert entropy_spanning(sys_, 0.9, n) == math.log(best) / n


def golden_column_sums(f: int) -> list[int]:
    a = np.identity(2, dtype=np.int64)
    for _ in range(f):
        a = a @ np.array(golden_mean_sft().adjacency)
    return a.sum(axis=0).tolist()


@pytest.mark.parametrize("speed", [0.5, 1.0, -0.5])
def test_golden_mean_bracket_is_ordered_and_exact(speed):
    """At n 10, eps 1/16: upper is the largest row sum of A^f (column sum
    when the windings run negative) and lower the least, so lower <= upper;
    golden-mean A is symmetric, so rows and columns agree."""
    sys_ = make_sys(speed, golden_mean_sft())
    f = abs(math.floor(speed * 9))
    upper = entropy_spanning(sys_, 1 / 16, 10)
    assert upper == math.log(max(golden_column_sums(f))) / 10
    lower = entropy_separated(sys_, 1 / 16, 10)
    assert lower == math.log(min(golden_column_sums(f))) / 10 <= upper
    if speed == 1.0:
        assert lower == math.log(55) / 10


def test_thue_morse_bracket_is_ordered():
    """Thue-Morse at speed 1, eps 1/8, n 6 has eps-cylinders with 3 classes
    and no eps/2-cylinder with more than 2, yet lower <= upper: the least
    eps-cylinder count is 1."""
    sys_ = make_sys(1.0, thue_morse())
    assert max(_cylinder_counts(sys_, 1 / 8, 6).values()) == 3
    lower, upper = entropy_separated(sys_, 1 / 8, 6), entropy_spanning(sys_, 1 / 8, 6)
    assert (lower, upper) == (0.0, math.log(2) / 6)


BRACKET_SYSTEMS = [FullShift(2), FullShift(3), golden_mean_sft(), THREE_SFT,
                   Odometer((2, 3, 2, 2))]


@settings(max_examples=120, deadline=None, derandomize=True)
@given(h=st.sampled_from(BRACKET_SYSTEMS), speed=st.floats(-1.0, 1.0),
       scale=st.floats(1 / 64, 1 / 2), n=st.integers(1, 24))
def test_bracket_is_ordered_for_shifts_sfts_and_odometers(h, speed, scale, n):
    sys_ = make_sys(speed, h)
    assert entropy_separated(sys_, scale, n) <= entropy_spanning(sys_, scale, n)


SUBSTITUTIONS = {"thue_morse": ((0, 1), (1, 0)), "fibonacci": ((0, 1), (0,)),
                 "period_doubling": ((0, 1), (0, 0)), "tribonacci": ((0, 1), (0, 2), (0,))}


@pytest.mark.parametrize("rules", SUBSTITUTIONS.values(), ids=SUBSTITUTIONS.keys())
def test_bracket_is_ordered_for_substitutions(rules):
    """No proof covers a substitution, whose count depends on the whole
    core, so the ordering is checked case by case."""
    for speed in (1, -1, 0.5, -0.5, 0.75, 0.3):
        sys_ = make_sys(speed, Substitution(rules))
        for scale in (1 / 4, 1 / 8, 1 / 16):
            for n in range(3, 11):
                assert entropy_separated(sys_, scale, n) <= entropy_spanning(sys_, scale, n), \
                    (speed, scale, n)


@pytest.mark.parametrize("rules", [((0, 1), (1, 0)), ((0, 1), (0,)), ((0, 0, 1), (1, 0))])
def test_language_words_equal_deeper_factor_sets(rules):
    for L in range(1, 65):
        m, images = 0, [(a,) for a in range(len(rules))]
        while min(len(w) for w in images) < L:
            m += 1
            images = [tuple(s for x in w for s in rules[x]) for w in images]
        for _ in range(3):
            images = [tuple(s for x in w for s in rules[x]) for w in images]
        deeper = {w[i:i + L] for w in images for i in range(len(w) - L + 1)}
        assert _language_words(rules, L) == deeper, L


def test_all_words_of_a_substitution_are_its_language_in_order():
    tm = thue_morse()
    for L in (1, 5, 12, 40):
        words = tm.words(L)
        assert words == sorted(substitution_factors(tm.rules, L))
    assert len(tm.words(40)) == 124
