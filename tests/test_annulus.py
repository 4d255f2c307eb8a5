"""Annulus-map tests: equivariance, rotation estimates, rigidity, the staged
verifier and its mutants, rotation families, covers, conjugacy."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pseudosusp.annulus import (CheckResult, DeckCover, GridSampled,
                                HAKConfigError, HAKStage, LiftedAnnulusMap,
                                Profile, RadialReparam, RigidRotation, Twist,
                                UnsupportedConjugacyError, circle_distance,
                                conjugacy_invariance_check, cover_lift,
                                displacement_bound, equivariance_defect,
                                hak_verify, identity_map, invert_map,
                                rigidity_margins, rigidity_scan,
                                rotation_estimate, rotation_family,
                                rotation_number, truncated_maps, twist_speed)
from pseudosusp.cli import fixture_path
from pseudosusp.config import build_stages, load_config


def rot(beta):
    return LiftedAnnulusMap((RigidRotation(beta),))


def twist(*pts):
    return LiftedAnnulusMap((Twist(Profile(tuple(pts))),))


# ---------------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------------

def test_apply_examples():
    assert rot(0.25).apply(0.5, 0.0) == (0.5, 0.25)
    tw = twist((0.0, 0.0), (1.0, 1.0))
    t, r = tw.apply(0.0, 0.7)
    assert (t, r) == (0.0, 0.7)


def test_equivariance_all_primitives():
    grid_tables = tuple(tuple(0.01 * ((i + j) % 3) for j in range(8)) for i in range(9))
    zero_tables = tuple(tuple(0.0 for _ in range(8)) for _ in range(9))
    maps = [
        rot(0.37),
        twist((0.0, 0.0), (0.4, 0.2), (1.0, 0.0)),
        LiftedAnnulusMap((RadialReparam(Profile(((0.0, 0.0), (0.5, 0.7), (1.0, 1.0)))),)),
        LiftedAnnulusMap((GridSampled(8, zero_tables, grid_tables),)),
        cover_lift(rot(0.5), 3, 2),
        LiftedAnnulusMap((RigidRotation(0.3), Twist(Profile(((0.0, 0.1), (1.0, 0.3)))))),
    ]
    for m in maps:
        assert equivariance_defect(m, samples=1000) < 1e-9


def test_gridsampled_domain_error():
    zero = tuple(tuple(0.0 for _ in range(4)) for _ in range(5))
    g = LiftedAnnulusMap((GridSampled(4, zero, zero),))
    with pytest.raises(ValueError):
        g.apply(1.5, 0.0)


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
    m = LiftedAnnulusMap((Twist(Profile(((0.0, 0.25), (1.0, 0.5)))),))
    ests = rotation_estimate(m, 0.0, 0.0, 500)
    for n, est in ests:
        assert abs(est - 0.25) <= 1.0 / n + 1e-12


# ---------------------------------------------------------------------------
# rigidity
# ---------------------------------------------------------------------------

def test_rigidity_rational_rotation():
    hits = rigidity_scan(rot(1.0 / 3.0), 8, 9, 1e-9)
    assert [n for n, _ in hits] == [3, 6, 9]
    assert all(d < 1e-12 for _, d in hits)


def test_rigidity_identity():
    hits = rigidity_scan(identity_map(), 6, 5, 1e-9)
    assert [n for n, _ in hits] == [1, 2, 3, 4, 5]


def test_rigidity_golden_conjugate_continued_fraction():
    beta = (math.sqrt(5) - 1) / 2
    eps = 0.15
    hits = rigidity_scan(rot(beta), 8, 15, eps)
    got = [n for n, _ in hits]
    # oracle: direct circle distance of n*beta
    expect = [n for n in range(1, 16)
              if min((n * beta) % 1.0, 1.0 - (n * beta) % 1.0) < eps]
    assert got == expect == [3, 5, 8, 13]
    denominators = {1, 2, 3, 5, 8, 13, 21}
    assert set(got) <= denominators


def test_displacement_bound_examples():
    assert displacement_bound(rot(0.6)) == 1
    assert displacement_bound(identity_map()) == 0
    two = LiftedAnnulusMap((RigidRotation(2.3), RigidRotation(-0.3)))
    assert displacement_bound(two) == 2


# ---------------------------------------------------------------------------
# staged verifier
# ---------------------------------------------------------------------------

def toy_stages():
    return build_stages(load_config(fixture_path("hak_toy.ini")))


def test_toy_tower_passes_all_conditions():
    report = hak_verify(toy_stages(), grid=24, tail=0.025)
    assert report.passed
    for c in report.checks:
        assert c.margin > 0 or (c.bound == c.SLACK and c.value == 0.0)


@pytest.mark.parametrize("fixture,condition", [
    ("hak_mut_band.ini", "1"),
    ("hak_mut_alpha.ini", "2"),
    ("hak_mut_support.ini", "3"),
])
def test_mutants_fail_exactly_one_condition(fixture, condition):
    stages = build_stages(load_config(fixture_path(fixture)))
    report = hak_verify(stages, grid=24, tail=0.025)
    assert not report.passed
    assert report.failing_conditions() == [condition]


def test_stage_config_errors():
    stages = toy_stages()
    bad_q = [HAKStage(s.n, s.eps, s.band, s.rot, s.alpha,
                      s.q + (7 if s.n == 2 else 0)) for s in stages]
    with pytest.raises(HAKConfigError):
        hak_verify(bad_q)
    bad_band = [HAKStage(s.n, s.eps,
                         (0.1, 0.9) if s.n == 2 else s.band,
                         s.rot, s.alpha, s.q) for s in stages]
    with pytest.raises(HAKConfigError):
        hak_verify(bad_band)
    for kwargs in ({"horizon": 0}, {"horizon": -3}, {"grid": 0}, {"grid": 1}):
        with pytest.raises(ValueError, match="at least"):
            hak_verify(stages, **kwargs)


def test_truncation_rigidity_within_gamma():
    # the near-period of each stage returns the deep band within gamma_n
    for n, disp, gamma in rigidity_margins(toy_stages(), grid=8, tail=0.025):
        assert disp < gamma


def iterated_reference(stages, grid, horizon, tail):
    """The verifier's conditions (6) and (8), computed by iterating the
    truncations step by step: the reference the closed-form iterates are
    compared against."""
    hs = truncated_maps(stages)
    h_full = hs[-1]
    t_parts = [np.linspace(0.0, 1.0, grid)]
    for s in stages:
        t_parts.append(np.linspace(s.band[0], s.band[1], max(5, grid // 2)))
        if s.support is not None:
            t_parts.append(np.linspace(s.support[0], s.support[1], max(5, grid // 2)))
    tfull = np.unique(np.concatenate(t_parts))
    rfull = np.linspace(0.0, 1.0, grid, endpoint=False)
    tt, rr = np.meshgrid(tfull, rfull, indexing="ij")
    rows = []
    for i in range(len(stages) - 1):
        q_n = stages[i].q if horizon is None else min(stages[i].q, horizon)
        ta, ra = tt.ravel(), rr.ravel()
        tb, rb = tt.ravel(), rr.ravel()
        worst = 0.0
        for _ in range(q_n):
            ta, ra = hs[i].apply(ta, ra)
            tb, rb = hs[i + 1].apply(tb, rb)
            worst = max(worst, float((np.abs(ta - tb) + circle_distance(ra, rb)).max()))
        rows.append(("6", stages[i].n, worst, stages[i].eps))
    eps_list = [s.eps for s in stages]
    for i, s in enumerate(stages):
        u, v = s.band
        alpha = float(s.alpha)
        starts = np.array([(j * float(s.rot)) % 1.0 for j in range(s.p)])
        js = sorted({0, 1, s.p // 3, s.p // 2, s.p - 1} & set(range(s.p)))
        pts = [(u + ft * (v - u), starts[j] + fr * alpha, j)
               for j in js for ft in (0.0, 0.5, 1.0) for fr in (0.0, 0.5, 1.0)]
        tc, rc, j_arr = (np.array(col) for col in zip(*pts))
        q_n = s.q if horizon is None else min(s.q, horizon)
        worst = 0.0
        for step in range(1, q_n + 1):
            tc, rc = h_full.apply(tc, rc)
            rel = np.mod(np.mod(rc, 1.0) - starts[(j_arr + step) % s.p], 1.0)
            dr = np.where(rel <= alpha, 0.0, np.minimum(rel - alpha, 1.0 - rel))
            dt = np.maximum(0.0, np.maximum(u - tc, tc - v))
            worst = max(worst, float((dt + dr).max()))
        rows.append(("8", s.n, worst, sum(eps_list[i:]) + tail))
    return rows


def iterated_rigidity_margins(stages, grid, tail):
    """`rigidity_margins` by p_n iterations of H_N on a band x circle grid."""
    h_full = truncated_maps(stages)[-1]
    u, v = stages[-1].band
    t0, r0 = np.meshgrid(np.linspace(u, v, grid),
                         np.linspace(0.0, 1.0, grid, endpoint=False), indexing="ij")
    out = []
    for i, s in enumerate(stages):
        t, r = t0, r0
        for _ in range(s.p):
            t, r = h_full.apply(t, r)
        disp = float(np.max(np.abs(t - t0) + circle_distance(r, r0)))
        out.append((s.n, disp, sum(x.eps for x in stages[i:]) + tail))
    return out


def flipped(stages):
    """The tower with the sign of every stage increment flipped."""
    return [HAKStage(s.n, s.eps, s.band, -s.rot, s.alpha, s.q, s.chart, s.support)
            for s in stages]


@pytest.mark.parametrize("horizon", [None, 1, 257, 1000])
@pytest.mark.parametrize("tower", ["hak_toy.ini", "hak_mut_band.ini", "hak_mut_alpha.ini",
                                   "hak_mut_support.ini", "flipped hak_toy.ini"])
def test_closed_form_iterates_match_iterated_reference(tower, horizon):
    stages = build_stages(load_config(fixture_path(tower.split()[-1])))
    if tower.startswith("flipped"):
        stages = flipped(stages)
        assert all(s.rot < 0 for s in stages)
    rows = iterated_reference(stages, 24, horizon, 0.025)
    got = [c for c in hak_verify(stages, grid=24, horizon=horizon, tail=0.025).checks
           if c.condition in ("6", "8")]
    assert [(c.condition, c.stage, c.bound) for c in got] == \
        [(cond, n, bound) for cond, n, _, bound in rows]
    for c, (_, _, value, bound) in zip(got, rows):
        assert abs(c.value - value) <= 1e-9
        assert c.passed == (bound - value > -CheckResult.SLACK)
    if horizon is None:
        got_margins = rigidity_margins(stages, grid=8, tail=0.025)
        want_margins = iterated_rigidity_margins(stages, 8, 0.025)
        assert [(n, g) for n, _, g in got_margins] == [(n, g) for n, _, g in want_margins]
        for (_, disp, _), (_, disp_ref, _) in zip(got_margins, want_margins):
            assert abs(disp - disp_ref) <= 1e-9


profiles = st.builds(
    lambda xs, ys: Profile(tuple(zip([0.0] + xs + [1.0], ys))),
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
    m = LiftedAnnulusMap(tuple(pipeline))
    speed = twist_speed(m)
    assert speed(t) == pytest.approx(m.apply(t, 0.0)[1], abs=1e-12)
    tc, rc = t, r
    for _ in range(i):
        tc, rc = m.apply(tc, rc)
    assert tc == t
    assert abs(rc - (r + i * speed(t))) <= 1e-9 * i


@settings(max_examples=30, deadline=None, derandomize=True)
@given(pipeline=st.lists(twist_primitives, max_size=4), at=st.integers(0, 4),
       mover=st.sampled_from([
           RadialReparam(Profile(((0.0, 0.0), (0.5, 0.7), (1.0, 1.0)))),
           GridSampled(2, ((0.0, 0.0),) * 3, ((0.1, 0.2),) * 3),
           DeckCover(identity_map(), 2, 1),
       ]))
def test_twist_speed_refuses_primitives_that_move_t(pipeline, at, mover):
    pipeline.insert(at, mover)
    with pytest.raises(TypeError, match=type(mover).__name__):
        twist_speed(LiftedAnnulusMap(tuple(pipeline)))


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
    assert rotation_number(cover_lift(rot(0.0), 3, 1)) == pytest.approx(1 / 3, abs=1e-12)
    assert rotation_number(cover_lift(rot(0.5), 2, 0)) == pytest.approx(1 / 4, abs=1e-12)


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
    with pytest.raises(HAKConfigError):
        cover_lift(rot(0.1), 0, 1)


def test_conjugacy_rotations_commute():
    f, c, bound = conjugacy_invariance_check(rot(0.37), rot(0.7), 100)
    assert f == pytest.approx(c, abs=1e-12)


def test_conjugacy_identity():
    f, c, _ = conjugacy_invariance_check(rot(0.2), identity_map(), 50)
    assert f == c


def test_conjugacy_twist_bound():
    g = LiftedAnnulusMap((RadialReparam(Profile(((0.0, 0.0), (0.5, 0.7), (1.0, 1.0)))),
                          RigidRotation(0.4)))
    F = LiftedAnnulusMap((RigidRotation(0.31),
                          Twist(Profile(((0.0, 0.0), (1.0, 0.2))))))
    f, c, bound = conjugacy_invariance_check(F, g, 1000)
    assert abs(f - c) <= bound


def test_conjugacy_rejects_noninvertible():
    zero = tuple(tuple(0.0 for _ in range(4)) for _ in range(5))
    g = LiftedAnnulusMap((GridSampled(4, zero, zero),))
    with pytest.raises(UnsupportedConjugacyError):
        conjugacy_invariance_check(rot(0.1), g, 10)


def test_invert_map_roundtrip():
    g = LiftedAnnulusMap((RigidRotation(0.4),
                          Twist(Profile(((0.0, 0.1), (1.0, 0.3)))),
                          RadialReparam(Profile(((0.0, 0.0), (0.3, 0.6), (1.0, 1.0))))))
    gi = invert_map(g)
    rng = np.random.default_rng(11)
    for _ in range(50):
        t, r = rng.uniform(0, 1), rng.uniform(-1, 2)
        t2, r2 = gi.apply(*g.apply(t, r))
        assert abs(t2 - t) < 1e-12 and abs(r2 - r) < 1e-12


def test_custom_charts_rejected():
    stages = toy_stages()
    with_chart = [HAKStage(s.n, s.eps, s.band, s.rot, s.alpha, s.q,
                           chart=rot(0.0) if s.n == 1 else None)
                  for s in stages]
    with pytest.raises(HAKConfigError):
        hak_verify(with_chart)
