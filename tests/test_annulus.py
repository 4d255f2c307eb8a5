"""Annulus-map tests: equivariance, rotation estimates, rigidity, the staged
verifier and its mutants, rotation families, covers, conjugacy."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pseudosusp.annulus import (DeckCover, LiftedAnnulusMap, RadialReparam, RigidRotation,
                                Twist, cover_lift, fixes_t, orbit, rotation_estimate,
                                rotation_family)
from pseudosusp.cli import fixture_path
from pseudosusp.config import ConfigError, load_config
from pseudosusp.pl import pl_at, pl_check, pl_image, pl_sum
from pseudosusp.tower import (build_stages, circle_sup, hak_verify, rigidity_times,
                              stage_profiles)

from oracles import (UnsupportedConjugacyError, apply_arrays, circle_distance,
                     conjugacy_invariance_check, displacement_bound, equivariance_defect,
                     identity_map, invert_map, pl_eval_arrays, rigidity_margins,
                     stepped_orbit)


def rot(beta):
    return LiftedAnnulusMap((RigidRotation(beta),))


def twist(*pts):
    return LiftedAnnulusMap((Twist(tuple(pts)),))


# ---------------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------------

def test_apply_examples():
    assert rot(0.25).apply(0.5, 0.0) == (0.5, 0.25)
    tw = twist((0.0, 0.0), (1.0, 1.0))
    t, r = tw.apply(0.0, 0.7)
    assert (t, r) == (0.0, 0.7)


def test_equivariance_all_primitives():
    maps = [
        rot(0.37),
        twist((0.0, 0.0), (0.4, 0.2), (1.0, 0.0)),
        LiftedAnnulusMap((RadialReparam(((0.0, 0.0), (0.5, 0.7), (1.0, 1.0))),)),
        cover_lift(rot(0.5), 3, 2),
        LiftedAnnulusMap((RigidRotation(0.3), Twist(((0.0, 0.1), (1.0, 0.3))))),
    ]
    for m in maps:
        assert equivariance_defect(m, samples=1000) < 1e-9


def same_bits(a, b) -> bool:
    # hex tells -0.0 from 0.0, which == does not
    return float(a).hex() == float(b).hex()


def ticks(n: int):
    """n distinct sorted points strictly inside (0, 1)."""
    return st.lists(st.integers(1, 9999), min_size=n, max_size=n, unique=True).map(
        lambda ks: [k / 10000 for k in sorted(ks)])


pl_profiles = st.integers(0, 4).flatmap(lambda n: st.builds(
    lambda xs, ys: tuple(zip([0.0] + xs + [1.0], ys)),
    ticks(n), st.lists(st.floats(-2.0, 2.0), min_size=n + 2, max_size=n + 2)))
reparams = st.integers(0, 3).flatmap(lambda n: st.builds(
    lambda xs, ys: RadialReparam(tuple(zip([0.0] + xs + [1.0], [0.0] + ys + [1.0]))),
    ticks(n), ticks(n)))
primitive_lists = st.lists(st.one_of(st.builds(RigidRotation, st.floats(-2.0, 2.0)),
                                     st.builds(Twist, pl_profiles), reparams), max_size=4)
pipelines = st.one_of(
    primitive_lists.map(lambda p: LiftedAnnulusMap(tuple(p))),
    st.builds(lambda p, q, k: LiftedAnnulusMap((DeckCover(LiftedAnnulusMap(tuple(p)), q, k),)),
              primitive_lists, st.integers(1, 5), st.integers(-3, 3)))


def probes(xs):
    """Points where the float path's bisect and the tests' array path's
    searchsorted could part: the breakpoints and their float neighbours, 0
    and 1, and points outside [0, 1], where the clamp extends the end
    pieces."""
    near = [math.nextafter(x, d) for x in xs for d in (-math.inf, math.inf)]
    return st.one_of(st.sampled_from(sorted({0.0, 1.0, *xs, *near})),
                     st.floats(-3.0, 4.0), st.floats(-1e-12, 1e-12))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(profile=pl_profiles, data=st.data())
def test_profile_float_and_array_paths_agree_bit_for_bit(profile, data):
    x = data.draw(probes([x for x, _ in profile]))
    assert same_bits(pl_at(profile, x), pl_eval_arrays(profile, np.array([x]))[0])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(m=pipelines, data=st.data())
def test_map_float_and_array_paths_agree_bit_for_bit(m, data):
    """The contract behind the tests' array references: `apply` on floats
    (the program) and `apply_arrays` on arrays give the same t and r, bit
    for bit."""
    inner = m.pipeline[0].inner.pipeline if m.pipeline and isinstance(
        m.pipeline[0], DeckCover) else m.pipeline
    xs = [x for prim in inner if hasattr(prim, "profile") for x, _ in prim.profile]
    t = data.draw(probes(xs))
    r = data.draw(st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5]),
                            st.floats(-5.0, 5.0)))
    t1, r1 = m.apply(t, r)
    t2, r2 = apply_arrays(m, np.array([t]), np.array([r]))
    assert same_bits(t1, t2[0]) and same_bits(r1, r2[0])


# ---------------------------------------------------------------------------
# rotation estimates
# ---------------------------------------------------------------------------

def test_rotation_estimate_rigid_exact():
    rng = random.Random(5)
    for _ in range(10):
        beta = rng.random()
        for n, est in rotation_estimate(rot(beta), 0.3, 0.1, 200):
            assert abs(est - beta) < 1e-12


def test_rational_rotation_periodicity():
    ests = dict(rotation_estimate(rot(1.0 / 3.0), 0.5, 0.0, 9))
    for n in (3, 6, 9):
        assert ests[n] == pytest.approx(1.0 / 3.0, abs=1e-15)


def test_twist_on_invariant_boundary_circle():
    m = LiftedAnnulusMap((Twist(((0.0, 0.25), (1.0, 0.5))),))
    ests = rotation_estimate(m, 0.0, 0.0, 500)
    for n, est in ests:
        assert abs(est - 0.25) <= 1.0 / n + 1e-12


# ---------------------------------------------------------------------------
# orbits
# ---------------------------------------------------------------------------

def orbit_bits(rows):
    # hex tells -0.0 from 0.0, which == does not
    return [(float(t).hex(), float(r).hex(), w) for t, r, w in rows]


rotations_and_twists = st.lists(st.one_of(st.builds(RigidRotation, st.floats(-2.0, 2.0)),
                                          st.builds(Twist, pl_profiles)),
                                min_size=1, max_size=3).map(
    lambda p: LiftedAnnulusMap(tuple(p)))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(m=rotations_and_twists, t=st.floats(0.0, 1.0), r=st.floats(-3.0, 3.0),
       n=st.integers(0, 300))
def test_increment_orbit_equals_stepped_orbit_bit_for_bit(m, t, r, n):
    """A pipeline of rotations and twists, negative speeds included, takes
    `orbit`'s increment path, and gives the rows of stepping by `apply`."""
    assert fixes_t(m)
    rows = orbit(m, t, r, n)
    assert orbit_bits(rows) == orbit_bits(stepped_orbit(m, t, r, n))
    assert all(0.0 <= r < 1.0 for _, r, _ in rows)


def test_only_rotations_and_twists_fix_t():
    reparam = RadialReparam(((0.0, 0.0), (0.5, 0.7), (1.0, 1.0)))
    twist_back = Twist(((0.0, 0.1), (1.0, -0.3)))
    assert fixes_t(LiftedAnnulusMap(()))
    assert fixes_t(LiftedAnnulusMap((RigidRotation(0.2), twist_back)))
    assert not fixes_t(LiftedAnnulusMap((reparam, RigidRotation(0.6))))
    assert not fixes_t(cover_lift(rot(0.2), 2, 1))


def test_orbit_reduces_r_to_zero_where_its_floor_rounds_up_to_one():
    """An r in [-2^-54, 0) has r - floor(r) = 1.0 in floats; it reads r = 0
    and one more winding, on the increment path, on the `apply` path and
    at the start."""
    reparam = RadialReparam(((0.0, 0.0), (0.5, 0.7), (1.0, 1.0)))
    back = -0.30000000000000004
    assert 0.3 + back < 0.0 and 0.3 + back - math.floor(0.3 + back) == 1.0
    assert orbit(rot(back), 0.2, 0.3, 2) == [(0.2, 0.3, 0), (0.2, 0.0, 0), (0.2, 0.7, -1)]
    rows = orbit(LiftedAnnulusMap((reparam, RigidRotation(back))), 0.2, 0.3, 1)
    assert rows[1][1:] == (0.0, 0)
    assert orbit(rot(0.6), 0.2, -1e-300, 1) == [(0.2, 0.0, 0), (0.2, 0.6, 0)]
    assert orbit(rot(0.6), 0.2, -2.0 ** -54, 0) == [(0.2, 0.0, 0)]


# ---------------------------------------------------------------------------
# rigidity
# ---------------------------------------------------------------------------

ZERO, HALF, ONE = Fraction(0), Fraction(1, 2), Fraction(1)


def constant(y):
    return ((ZERO, Fraction(y)), (ONE, Fraction(y)))


def circle_norm(y):
    return min(y % 1, -y % 1)


def test_rigidity_rational_rotation():
    hits = rigidity_times(constant(Fraction(1, 3)), ZERO, ONE, 9, Fraction(1, 10 ** 9))
    assert hits == [(3, 0), (6, 0), (9, 0)]


def test_rigidity_identity():
    hits = rigidity_times(constant(0), ZERO, ONE, 5, Fraction(1, 10 ** 9))
    assert hits == [(n, 0) for n in range(1, 6)]


def test_rigidity_golden_conjugate_continued_fraction():
    beta = Fraction("0.6180339887498949")
    eps = Fraction(15, 100)
    hits = rigidity_times(constant(beta), ZERO, ONE, 15, eps)
    # oracle: direct circle distance of n*beta
    expect = [(n, circle_norm(n * beta)) for n in range(1, 16)]
    assert hits == [(n, d) for n, d in expect if d < eps]
    assert [n for n, _ in hits] == [3, 5, 8, 13]


@st.composite
def speeds_and_bands(draw):
    """A rational PL speed on [0, 1] and a band [a, b] inside [0, 1]."""
    inner = sorted(set(draw(st.lists(st.integers(1, 99), max_size=4))))
    xs = [ZERO] + [Fraction(k, 100) for k in inner] + [ONE]
    den = draw(st.sampled_from([1, 2, 3, 7, 12, 100]))
    ys = [Fraction(draw(st.integers(-3 * den, 3 * den)), den) for _ in xs]
    ka, kb = sorted(draw(st.lists(st.integers(0, 100), min_size=2, max_size=2)))
    return tuple(zip(xs, ys)), Fraction(ka, 100), Fraction(kb, 100)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(case=speeds_and_bands(), n=st.integers(1, 40))
def test_rigidity_sup_is_the_brute_force_max(case, n):
    """The exact sup of ||n*speed(t)|| over the band equals the max over the
    band's ends, the breakpoints inside it and the t inside it where
    n*speed(t) crosses Z + 1/2; no sample of a fine rational grid exceeds it."""
    speed, a, b = case
    # every sup is at most 1/2, so at eps 1 every step qualifies
    exact = dict(rigidity_times(speed, a, b, n, ONE))[n]
    ts = {a, b} | {x for x, _ in speed if a < x < b}
    for (x0, y0), (x1, y1) in zip(speed, speed[1:]):
        if y0 == y1:
            continue
        lo, hi = sorted((n * y0, n * y1))
        for k in range(math.ceil(lo - HALF), math.floor(hi - HALF) + 1):
            t = x0 + (k + HALF - n * y0) / (n * (y1 - y0)) * (x1 - x0)
            if a <= t <= b:
                ts.add(t)
    assert exact == max(circle_norm(n * value_at(speed, t)) for t in ts)
    grid = [a + (b - a) * Fraction(k, 64) for k in range(65)]
    assert all(circle_norm(n * value_at(speed, t)) <= exact for t in grid)


def test_displacement_bound_examples():
    assert displacement_bound(rot(0.6)) == 1
    assert displacement_bound(identity_map()) == 0
    two = LiftedAnnulusMap((RigidRotation(2.3), RigidRotation(-0.3)))
    assert displacement_bound(two) == 2


# ---------------------------------------------------------------------------
# staged verifier
# ---------------------------------------------------------------------------

TAIL = Fraction("0.025")


def toy_stages():
    return build_stages(load_config(fixture_path("hak_toy.ini"), [], "hak-verify"))


def test_toy_tower_passes_all_conditions():
    checks = hak_verify(toy_stages(), tail=TAIL)
    assert all(c.passed for c in checks)
    for c in checks:
        assert c.margin > 0 or (c.bound == 0 and c.value == 0)


@pytest.mark.parametrize("fixture,condition", [
    ("hak_mut_band.ini", "1"),
    ("hak_mut_alpha.ini", "2"),
    ("hak_mut_support.ini", "3"),
])
def test_mutants_fail_exactly_one_condition(fixture, condition):
    stages = build_stages(load_config(fixture_path(fixture), [], "hak-verify"))
    failing = {c.condition for c in hak_verify(stages, tail=TAIL) if not c.passed}
    assert failing == {condition}


@pytest.mark.parametrize("fixture,override,failing", [
    ("hak_mut_band.ini", None, {("1", 2, Fraction(3, 100), Fraction(1, 40))}),
    ("hak_mut_alpha.ini", None, {("2", 2, Fraction(1, 40), Fraction(1, 80)),
                                 ("2", 2, Fraction(67, 5), Fraction(0))}),
    ("hak_mut_support.ini", None, {("3", 2, Fraction(1, 1152), Fraction(0))}),
    # the collar leaks on the right of the previous band only
    ("hak_mut_support.ini", "stage 2.support=0.48,0.53",
     {("3", 2, Fraction(1, 1152), Fraction(0))}),
])
def test_failing_rows_hold_exact_values(fixture, override, failing):
    stages = build_stages(load_config(fixture_path(fixture), [override] if override else [],
                                      "hak-verify"))
    rows = {(c.condition, c.stage, c.value, c.bound)
            for c in hak_verify(stages, tail=TAIL) if not c.passed}
    assert rows == failing


def test_box_tracking_is_capped_by_the_farthest_point_from_a_box():
    # with q_1 = 576 the stage-1 drift 25/13824 reaches 1/2, and no point of
    # the circle is further than (1 - alpha_1)/2 = 47/96 from a box
    stages = [s._replace(q=576) if s.n == 1 else s for s in toy_stages()]
    (eight,) = [c for c in hak_verify(stages, tail=TAIL) if c.condition == "8"
                and c.stage == 1]
    assert eight.value == Fraction(47, 96)
    reference = iterated_reference(stages, 576, TAIL)[2][2]
    assert Fraction(47, 96) - Fraction(1, 1000) < reference <= Fraction(47, 96)


def test_stage_config_errors():
    stages = toy_stages()
    bad_q = [s._replace(q=s.q + (7 if s.n == 2 else 0)) for s in stages]
    with pytest.raises(ConfigError, match=r"stage 2\.q: condition \(6\) needs q = m\*p"):
        hak_verify(bad_q)
    bad_band = [s._replace(band=(Fraction(1, 10), Fraction(9, 10)) if s.n == 2 else s.band)
                for s in stages]
    with pytest.raises(ConfigError, match=r"stage 2\.band: bands must be strictly nested"):
        hak_verify(bad_band)
    # a support must contain the band, or the collar profile is not a function
    bad_support = [s._replace(support=(s.band[0], Fraction(6, 10)) if s.n == 2 else None)
                   for s in stages]
    with pytest.raises(ConfigError, match=r"stage 2\.support"):
        hak_verify(bad_support)


def test_truncation_rigidity_within_gamma():
    # the near-period of each stage returns the deep band within gamma_n
    for n, disp, gamma in rigidity_margins(toy_stages(), tail=TAIL):
        assert disp < gamma


def float_truncations(stages):
    """H_1, ..., H_N as float Twist pipelines built from the exact profiles."""
    twists = [Twist(tuple((float(x), float(y)) for x, y in g))
              for g in stage_profiles(stages)]
    return [LiftedAnnulusMap(tuple(twists[:n])) for n in range(1, len(twists) + 1)]


def iterated_reference(stages, horizon, tail):
    """Conditions (6) and (8) over the first min(q_n, horizon) iterates,
    computed by iterating the float truncations step by step on a grid: the
    reference the exact sups are compared against.  The grid holds every
    breakpoint of the fixtures' profiles, where their sups are attained."""
    hs = float_truncations(stages)
    h_full = hs[-1]
    t_parts = [np.linspace(0.0, 1.0, 24)]
    for s in stages:
        t_parts.append(np.linspace(float(s.band[0]), float(s.band[1]), 12))
        if s.support is not None:
            t_parts.append(np.linspace(float(s.support[0]), float(s.support[1]), 12))
    tfull = np.unique(np.concatenate(t_parts))
    rfull = np.linspace(0.0, 1.0, 24, endpoint=False)
    tt, rr = np.meshgrid(tfull, rfull, indexing="ij")
    rows = []
    for i in range(len(stages) - 1):
        q_n = min(stages[i].q, horizon)
        ta, ra = tt.ravel(), rr.ravel()
        tb, rb = tt.ravel(), rr.ravel()
        worst = 0.0
        for _ in range(q_n):
            ta, ra = apply_arrays(hs[i], ta, ra)
            tb, rb = apply_arrays(hs[i + 1], tb, rb)
            worst = max(worst, float((np.abs(ta - tb) + circle_distance(ra, rb)).max()))
        rows.append(("6", stages[i].n, worst, stages[i].eps))
    for i, s in enumerate(stages):
        u, v = float(s.band[0]), float(s.band[1])
        alpha = float(s.alpha)
        starts = np.array([(j * float(s.rot)) % 1.0 for j in range(s.p)])
        js = sorted({0, 1, s.p // 3, s.p // 2, s.p - 1} & set(range(s.p)))
        pts = [(t, starts[j] + fr * alpha, j)
               for j in js for t in np.linspace(u, v, 9) for fr in (0.0, 0.5, 1.0)]
        tc, rc, j_arr = (np.array(col) for col in zip(*pts))
        worst = 0.0
        for step in range(1, min(s.q, horizon) + 1):
            tc, rc = apply_arrays(h_full, tc, rc)
            rel = np.mod(np.mod(rc, 1.0) - starts[(j_arr + step) % s.p], 1.0)
            dr = np.where(rel <= alpha, 0.0, np.minimum(rel - alpha, 1.0 - rel))
            dt = np.maximum(0.0, np.maximum(u - tc, tc - v))
            worst = max(worst, float((dt + dr).max()))
        rows.append(("8", s.n, worst, sum(x.eps for x in stages[i:]) + tail))
    return rows


def capped_sups(stages, horizon):
    """The sups of (6) and (8) over the first min(q_n, horizon) iterates, from
    the exact profiles and `circle_sup`."""
    gs = stage_profiles(stages)
    speed = pl_sum(gs)
    six = [circle_sup(g, Fraction(0), Fraction(1), range(1, min(s.q, horizon) + 1))
           for s, g in zip(stages, gs[1:])]
    eight = [circle_sup(tuple((x, y - s.rot) for x, y in speed), s.band[0], s.band[1],
                        range(1, min(s.q, horizon) + 1)) for s in stages]
    return six + eight


def iterated_rigidity_margins(stages, grid, tail):
    """`rigidity_margins` by p_n iterations of H_N on a band x circle grid."""
    h_full = float_truncations(stages)[-1]
    u, v = float(stages[-1].band[0]), float(stages[-1].band[1])
    t0, r0 = np.meshgrid(np.linspace(u, v, grid),
                         np.linspace(0.0, 1.0, grid, endpoint=False), indexing="ij")
    out = []
    for i, s in enumerate(stages):
        t, r = t0, r0
        for _ in range(s.p):
            t, r = apply_arrays(h_full, t, r)
        disp = float(np.max(np.abs(t - t0) + circle_distance(r, r0)))
        out.append((s.n, disp, sum(x.eps for x in stages[i:]) + tail))
    return out


def signed(stages, signs):
    """The tower with the increment of stage n multiplied by signs[n - 1]."""
    out, rot, prev = [], Fraction(0), Fraction(0)
    for s, sign in zip(stages, signs):
        rot, prev = rot + sign * (s.rot - prev), s.rot
        out.append(s._replace(rot=rot))
    return out


TOWER_SIGNS = {"flipped": (-1, -1, -1), "mixed": (1, 1, -1)}


@pytest.mark.parametrize("horizon", [None, 1, 257, 1000])
@pytest.mark.parametrize("tower", ["hak_toy.ini", "hak_mut_band.ini", "hak_mut_alpha.ini",
                                   "hak_mut_support.ini", "flipped hak_toy.ini",
                                   "mixed hak_toy.ini"])
def test_closed_form_iterates_match_iterated_reference(tower, horizon):
    """At the full q_n (horizon None) the verifier's (6) and (8) rows equal the
    iterated reference; over the first `horizon` iterates so do the sups that
    `circle_sup` takes of the same profiles.  The "mixed" tower turns with
    stage 3 against stages 1 and 2, so its (8) sup on band 1 sits at t = 0.49,
    inside the band."""
    stages = build_stages(load_config(fixture_path(tower.split()[-1]), [], "hak-verify"))
    if tower.split()[0] in TOWER_SIGNS:
        stages = signed(stages, TOWER_SIGNS[tower.split()[0]])
    rows = iterated_reference(stages, horizon or max(s.q for s in stages), TAIL)
    if horizon is None:
        got = [c for c in hak_verify(stages, tail=TAIL) if c.condition in ("6", "8")]
        assert [(c.condition, c.stage, c.bound) for c in got] == \
            [(cond, n, bound) for cond, n, _, bound in rows]
        values = [c.value for c in got]
    else:
        values = capped_sups(stages, horizon)
    for value, (_, _, ref, bound) in zip(values, rows, strict=True):
        assert abs(value - Fraction(ref)) <= 1e-9
    if horizon is None:
        got_margins = rigidity_margins(stages, tail=TAIL)
        want_margins = iterated_rigidity_margins(stages, 8, TAIL)
        assert [(n, g) for n, _, g in got_margins] == [(n, g) for n, _, g in want_margins]
        for (_, disp, _), (_, disp_ref, _) in zip(got_margins, want_margins):
            assert abs(disp - Fraction(disp_ref)) <= 1e-9


profiles = st.builds(
    lambda xs, ys: tuple(zip([0.0] + xs + [1.0], ys)),
    st.lists(st.integers(1, 9999), max_size=4, unique=True).map(
        lambda ks: [k / 10000 for k in sorted(ks)]),
    st.lists(st.floats(-2.0, 2.0), min_size=6, max_size=6),
)
twist_primitives = st.one_of(st.builds(RigidRotation, st.floats(-2.0, 2.0)),
                             st.builds(Twist, profiles))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(pipeline=st.lists(twist_primitives, max_size=5),
       t=st.floats(0.0, 1.0), r=st.floats(-3.0, 3.0), i=st.integers(1, 50))
def test_twist_speed_is_the_closed_form_iterate(pipeline, t, r, i):
    """Rigid rotations and twists fix t and move r by their speed P(t), the
    sum of their parts, so i steps move r by i*P(t): the identity behind
    `tower`'s closed forms."""
    m = LiftedAnnulusMap(tuple(pipeline))
    speed = sum(p.beta if isinstance(p, RigidRotation) else pl_at(p.profile, t) for p in pipeline)
    assert speed == pytest.approx(m.apply(t, 0.0)[1], abs=1e-12)
    tc, rc = t, r
    for _ in range(i):
        tc, rc = m.apply(tc, rc)
    assert tc == t
    assert abs(rc - (r + i * speed)) <= 1e-9 * i


def value_at(f, t):
    for (x0, y0), (x1, y1) in zip(f, f[1:]):
        if x0 <= t <= x1:
            return y0 + (t - x0) * (y1 - y0) / (x1 - x0)
    raise AssertionError(t)


def brute_circle_sup(f, ts, q):
    """max of ||i*f(t)|| over i <= q and t in ts, every pair enumerated."""
    best = Fraction(0)
    for t in ts:
        y = value_at(f, t)
        n, d = y.numerator, y.denominator
        best = max(best, Fraction(max(min(i * n % d, -i * n % d) for i in range(1, q + 1)), d))
    return best


@st.composite
def pl_on_interval(draw):
    """A rational PL function on [0, 1] with an interval [a, b] and whether
    its range on [a, b] holds 0: near-constant ones stay off Z + 1/2."""
    inner = sorted(set(draw(st.lists(st.integers(1, 99), max_size=4))))
    xs = [Fraction(0)] + [Fraction(k, 100) for k in inner] + [Fraction(1)]
    den = draw(st.sampled_from([1, 3, 7, 12, 48, 1001]))
    spread = draw(st.sampled_from([0, Fraction(1, 10 ** 6), Fraction(1, 997), 1]))
    base = Fraction(draw(st.integers(-3 * den, 3 * den)), den)
    ys = [base + spread * draw(st.integers(-3, 3)) for _ in xs]
    ka, kb = sorted(draw(st.lists(st.integers(0, 100), min_size=2, max_size=2)))
    a, b = Fraction(ka, 100), Fraction(kb, 100)
    f = tuple(zip(xs, ys))
    at = [a, b] + [x for x in xs if a < x < b]
    if draw(st.booleans()):
        shift = value_at(f, draw(st.sampled_from(at)))
    else:
        shift = min(value_at(f, t) for t in at) - Fraction(1, draw(st.sampled_from([3, 7, 1001])))
    return tuple((x, y - shift) for x, y in f), a, b, at


@settings(max_examples=40, deadline=None, derandomize=True)
@given(case=pl_on_interval(), q=st.integers(1, 2000))
def test_circle_sup_bounds_and_meets_the_brute_force_max(case, q):
    f, a, b, at = case
    exact = circle_sup(f, a, b, range(1, q + 1))
    assert 0 <= exact <= Fraction(1, 2)
    grid = [a + (b - a) * Fraction(k, 8) for k in range(9)]
    at_breakpoints = brute_circle_sup(f, at, q)
    assert exact >= max(at_breakpoints, brute_circle_sup(f, grid, q))
    if exact < Fraction(1, 2):
        assert exact == at_breakpoints
    else:
        # f([a, b]) = [lo, hi], and some i*[lo, hi] meets Z + 1/2
        lo, hi = min(value_at(f, t) for t in at), max(value_at(f, t) for t in at)
        assert any(math.floor(i * hi - Fraction(1, 2)) >= math.ceil(i * lo - Fraction(1, 2))
                   for i in range(1, q + 1))


@st.composite
def pl_functions(draw):
    """A continuous PL function with Fraction breakpoints running from 0 to 1."""
    inner = {Fraction(draw(st.integers(1, d - 1)), d)
             for d in draw(st.lists(st.integers(2, 60), max_size=5))}
    xs = [ZERO, *sorted(inner), ONE]
    return tuple((x, Fraction(draw(st.integers(-120, 120)), draw(st.integers(1, 60))))
                 for x in xs)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(fs=st.lists(pl_functions(), min_size=1, max_size=4), data=st.data())
def test_pl_sum_is_the_pointwise_sum_and_pl_at_meets_each_breakpoint(fs, data):
    """`pl_sum` agrees with the sum of the values at any Fraction in [0, 1],
    on a breakpoint of any summand or between, and `pl_at` returns each
    breakpoint's own y."""
    total = pl_sum(fs)
    knots = sorted({x for f in fs for x, _ in f})
    den = data.draw(st.integers(1, 1000))
    for x in [*knots, Fraction(data.draw(st.integers(0, den)), den)]:
        assert pl_at(total, x) == sum(pl_at(f, x) for f in fs), x
    for f in fs:
        assert all(pl_at(f, bx) == by for bx, by in f)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(f=pl_functions(), data=st.data())
def test_pl_image_is_attained_and_bounds_f(f, data):
    """Each end of `pl_image(f, lo, hi)` is f at lo, at hi or at a
    breakpoint between, and every sampled f(x) with x in [lo, hi] lies
    inside."""
    den = data.draw(st.integers(1, 1000))
    unit = st.integers(0, den).map(lambda n: Fraction(n, den))
    lo, hi = sorted([data.draw(unit), data.draw(unit)])
    low, high = pl_image(f, lo, hi)
    attained = {pl_at(f, x) for x in [lo, hi] + [x for x, _ in f if lo <= x <= hi]}
    assert low in attained and high in attained
    samples = data.draw(st.lists(unit, max_size=8))
    for x in [lo, hi] + [x for x, _ in f] + samples:
        if lo <= x <= hi:
            assert low <= pl_at(f, x) <= high, x


def test_pl_check_refuses_breakpoints_that_do_not_increase_from_0_to_1():
    good = ((0.0, 0.0), (0.5, 1.0), (1.0, 0.0))
    assert pl_check(iter(good)) == good
    for bad in [(), ((0.0, 0.0),), ((0.1, 0.0), (1.0, 0.0)), ((0.0, 0.0), (0.9, 0.0)),
                ((0.0, 0.0), (0.5, 0.0), (0.5, 1.0), (1.0, 0.0)),
                ((0.0, 0.0), (0.6, 0.0), (0.4, 1.0), (1.0, 0.0)),
                # distinct as fractions, one float
                tuple((float(x), 0.0) for x in (0, Fraction("0.3333333333333333"),
                                                Fraction(1, 3), 1))]:
        with pytest.raises(ValueError, match="breakpoints must increase from 0 to 1"):
            pl_check(bad)


# ---------------------------------------------------------------------------
# rotation family
# ---------------------------------------------------------------------------

def test_family_schedule_conditions():
    eps = 0.5
    bits = (1,) * 12
    _, sched = rotation_family(bits, eps)
    assert all(b > 0 for b in sched)
    assert sum(sched) < eps / 2
    # geometric tail ratio 1/7 < 1/6
    for i in range(len(sched)):
        tail = sched[i] / 7.0
        assert tail < sched[i] / 6.0


def test_family_examples():
    eps = 0.5
    a0, sched = rotation_family((0, 0, 0), eps)
    a1, _ = rotation_family((1, 0, 0), eps)
    assert abs(a1 - a0) == pytest.approx(2 * sched[0] / 3, rel=1e-12)
    assert abs(a1 - a0) == pytest.approx(eps / 48, rel=1e-12)
    single, sched1 = rotation_family((1,), eps)
    assert single == pytest.approx(eps / 32, rel=1e-12)


def test_family_256_words_distinct_with_gap():
    eps = 0.5
    words = [tuple((j >> i) & 1 for i in range(8)) for j in range(256)]
    alphas = {}
    b8 = None
    for w in words:
        a, sched = rotation_family(w, eps)
        alphas[w] = a
        b8 = sched[7]
    values = sorted(alphas.values())
    gaps = [b - a for a, b in zip(values, values[1:])]
    assert min(gaps) >= b8 / 2 - 1e-15
    assert len(set(values)) == 256


def test_family_validation():
    with pytest.raises(ValueError):
        rotation_family((), 0.5)
    with pytest.raises(ValueError):
        rotation_family((1,), 0.0)


# ---------------------------------------------------------------------------
# covers and conjugacy
# ---------------------------------------------------------------------------

def test_cover_lift_rotation_numbers():
    for m, alpha in ((cover_lift(rot(0.0), 3, 1), 1 / 3), (cover_lift(rot(0.5), 2, 0), 1 / 4)):
        assert rotation_estimate(m, 0.5, 0.0, 1024)[-1][1] == pytest.approx(alpha, abs=1e-12)


def test_cover_lift_identity_case():
    m = rot(0.3)
    same = cover_lift(m, 1, 0)
    rng = np.random.default_rng(3)
    t = rng.uniform(0, 1, 100)
    r = rng.uniform(-1, 2, 100)
    t1, r1 = m.apply(t, r)
    t2, r2 = same.apply(t, r)
    assert np.allclose(t1, t2, atol=0) and np.allclose(r1, r2, atol=0)


def test_cover_lift_validation():
    with pytest.raises(ConfigError):
        cover_lift(rot(0.1), 0, 1)


def test_conjugacy_rotations_commute():
    f, c, bound = conjugacy_invariance_check(rot(0.37), rot(0.7), 100)
    assert f == pytest.approx(c, abs=1e-12)


def test_conjugacy_identity():
    f, c, _ = conjugacy_invariance_check(rot(0.2), identity_map(), 50)
    assert f == c


def test_conjugacy_twist_bound():
    g = LiftedAnnulusMap((RadialReparam(((0.0, 0.0), (0.5, 0.7), (1.0, 1.0))),
                          RigidRotation(0.4)))
    F = LiftedAnnulusMap((RigidRotation(0.31),
                          Twist(((0.0, 0.0), (1.0, 0.2)))))
    f, c, bound = conjugacy_invariance_check(F, g, 1000)
    assert abs(f - c) <= bound


def test_conjugacy_rejects_noninvertible():
    g = LiftedAnnulusMap((DeckCover(identity_map(), 2, 1),))
    with pytest.raises(UnsupportedConjugacyError):
        conjugacy_invariance_check(rot(0.1), g, 10)


def test_invert_map_roundtrip():
    g = LiftedAnnulusMap((RigidRotation(0.4),
                          Twist(((0.0, 0.1), (1.0, 0.3))),
                          RadialReparam(((0.0, 0.0), (0.3, 0.6), (1.0, 1.0)))))
    gi = invert_map(g)
    rng = np.random.default_rng(11)
    for _ in range(50):
        t, r = rng.uniform(0, 1), rng.uniform(-1, 2)
        t2, r2 = gi.apply(*g.apply(t, r))
        assert abs(t2 - t) < 1e-12 and abs(r2 - r) < 1e-12
