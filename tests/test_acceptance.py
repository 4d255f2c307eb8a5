"""Acceptance suite: each criterion runs at its stated tolerance and prints
one pass/fail line (run with `pytest -s` to see the lines as they pass)."""

from __future__ import annotations

import math
import random
import time
from fractions import Fraction

from pseudosusp.annulus import (LiftedAnnulusMap, RadialReparam, RigidRotation, Twist,
                                rotation_estimate, rotation_family)
from pseudosusp.cantor import FullShift, Odometer
from pseudosusp.chains import horseshoe_extract, kfold
from pseudosusp.cli import fixture_path, main
from pseudosusp.config import load_config
from pseudosusp.suspension import (SuspensionSystem, entropy_separated,
                                   entropy_spanning, normalize)
from pseudosusp.tower import build_stages, hak_verify

from markov_oracle import transition_entropy
from oracles import (cantor_metric, conjugacy_invariance_check, full_branch_middle_map, step,
                     tent_map, tent_seven_chain, uniform_seven_chain, winding_rate)


def report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:>2}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def rot(beta: float) -> LiftedAnnulusMap:
    return LiftedAnnulusMap((RigidRotation(beta),))


def speed(beta: float):
    """The exact speed of a rotation by beta."""
    return ((Fraction(0), Fraction(beta)), (Fraction(1), Fraction(beta)))


# ---------------------------------------------------------------------------
# 1. entropy product-formula bracket
# ---------------------------------------------------------------------------

def test_criterion_1_entropy_bracket():
    t0 = time.time()
    sys_half = SuspensionSystem(speed(0.5), FullShift(2), 32)
    lower = entropy_separated(sys_half, 1 / 16, 12)
    upper = entropy_spanning(sys_half, 1 / 16, 12)
    t_half = time.time() - t0
    ok_half = lower >= 0.20 and upper <= 0.55 and lower <= upper and t_half <= 60

    t0 = time.time()
    sys_zero = SuspensionSystem(speed(0.0), FullShift(2), 32)
    upper_zero = entropy_spanning(sys_zero, 1 / 16, 12)
    t_zero = time.time() - t0
    ok_zero = upper_zero <= 0.05 and t_zero <= 60

    t0 = time.time()
    sys_odo = SuspensionSystem(speed(0.5), Odometer((2,) * 8), 32)
    upper_odo = entropy_spanning(sys_odo, 1 / 16, 12)
    t_odo = time.time() - t0
    ok_odo = upper_odo <= 0.05 and t_odo <= 60

    target = 0.5 * math.log(2)
    report(1, ok_half and ok_zero and ok_odo,
           f"bracket [{lower:.4f}, {upper:.4f}] in [0.20, 0.55] around "
           f"{target:.4f}; zero-rotation upper {upper_zero:.4f} <= 0.05; "
           f"odometer upper {upper_odo:.4f} <= 0.05 "
           f"(times {t_half:.1f}/{t_zero:.1f}/{t_odo:.1f}s)")


# ---------------------------------------------------------------------------
# 2. linearity of the estimates in the rotation speed
# ---------------------------------------------------------------------------

def test_criterion_2_linearity_in_alpha():
    t0 = time.time()
    h = FullShift(2)
    lo_half = entropy_separated(SuspensionSystem(speed(0.5), h, 32), 1 / 16, 12)
    lo_unit = entropy_separated(SuspensionSystem(speed(1.0), h, 32), 1 / 16, 12)
    up_half = entropy_spanning(SuspensionSystem(speed(0.5), h, 32), 1 / 16, 12)
    up_unit = entropy_spanning(SuspensionSystem(speed(1.0), h, 32), 1 / 16, 12)
    elapsed = time.time() - t0
    r_lo = lo_unit / lo_half
    r_up = up_unit / up_half
    ok = 1.5 <= r_lo <= 2.5 and 1.5 <= r_up <= 2.5 and elapsed <= 120
    report(2, ok, f"alpha-doubling ratios lower {r_lo:.3f}, upper {r_up:.3f} "
                  f"in [1.5, 2.5] ({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 3. rotation-number convergence and winding agreement
# ---------------------------------------------------------------------------

def test_criterion_3_rotation_convergence():
    t0 = time.time()
    rng = random.Random(2024)
    worst = 0.0
    for _ in range(50):
        beta = rng.random()
        start_r = rng.random()
        for _, est in rotation_estimate(rot(beta), 0.5, start_r, 500):
            worst = max(worst, abs(est - beta))
    ok_exact = worst <= 1e-12

    composite = LiftedAnnulusMap((RigidRotation(0.3),
                                  Twist(((0.0, 0.11), (1.0, 0.4)))))
    sys_ = SuspensionSystem(None, FullShift(2), 32)  # `winding_rate` steps the map itself
    c = sys_.h.random_point(7, 32)
    rates = winding_rate(composite, normalize(sys_, 0.0, 0.0, c), 10_000)
    ests = rotation_estimate(composite, 0.0, 0.0, 10_000)
    worst_gap = max(abs(rate - est) * k
                    for (k, rate), (_, est) in zip(rates, ests))
    ok_wind = worst_gap <= 2.0 + 1e-9
    elapsed = time.time() - t0
    report(3, ok_exact and ok_wind and elapsed <= 10,
           f"rigid-rotation estimates exact to {worst:.2e} (<= 1e-12) over 50 "
           f"seeds; |w_k - k*est| <= {worst_gap:.3f} (<= 2) up to k = 10^4 "
           f"({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 4. staged-approximation verifier and its mutants
# ---------------------------------------------------------------------------

def test_criterion_4_hak_toy_and_mutants(tmp_path):
    t0 = time.time()
    stages = build_stages(load_config(fixture_path("hak_toy.ini"), [], "hak-verify"))
    checks = hak_verify(stages, tail=Fraction("0.025"))
    # every row has a positive margin but the identities, which are 0 <= 0
    margins_pos = all(c.margin > 0 or c.value == c.bound == 0 for c in checks)
    ok_toy = all(c.passed for c in checks) and margins_pos
    conds = {c.condition for c in checks}
    ok_cover = {"1", "2", "3", "5", "6", "7", "8"} <= conds

    expected = {"hak_mut_band.ini": "1", "hak_mut_alpha.ini": "2",
                "hak_mut_support.ini": "3"}
    ok_mut = True
    for fixture, cond in expected.items():
        stages_m = build_stages(load_config(fixture_path(fixture), [], "hak-verify"))
        checks_m = hak_verify(stages_m, tail=Fraction("0.025"))
        ok_mut &= {c.condition for c in checks_m if not c.passed} == {cond}
        code = main(["hak-verify", "-c", fixture_path(fixture),
                     "--out", str(tmp_path / (fixture + ".csv"))])
        ok_mut &= code == 2
    elapsed = time.time() - t0
    report(4, ok_toy and ok_cover and ok_mut and elapsed <= 30,
           f"toy passes measured (3,6,8), config (1,2,7) and structural (5) with positive "
           f"margins off the identities; three mutants each fail exactly their condition "
           f"with exit 2 ({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 5. quotient algebra on 10^3 seeded samples
# ---------------------------------------------------------------------------

def test_criterion_5_quotient_algebra():
    t0 = time.time()
    sys_ = SuspensionSystem(speed(0.6), FullShift(2), 32)
    rng = random.Random(77)
    ok = True
    seed_pts = [sys_.h.random_point(s, 32) for s in range(40)]
    for i in range(1000):
        c = seed_pts[i % 40]
        t, r = rng.random(), rng.uniform(-2.5, 2.5)
        ref = normalize(sys_, t, r, c)
        m = (i % 7) - 3
        other = normalize(sys_, t, r + m, sys_.h.power(c, -m))
        ok &= other.t == ref.t and abs(other.r - ref.r) < 1e-9
        ok &= cantor_metric(other.c, ref.c, 8) == 0.0

        before, _ = step(sys_, rot(0.6), ref)
        t2, r2 = rot(0.6).apply(t, r)
        after = normalize(sys_, float(t2), float(r2), c)
        ok &= abs(before.r - after.r) < 1e-9
        ok &= cantor_metric(before.c, after.c, 8) == 0.0
    ok_algebra = ok

    # the windings that `step` adds keep each point on its pseudo-component:
    # after windings w in all, the Cantor coordinate is h^w of the start's
    p = normalize(sys_, 0.3, 0.2, seed_pts[0])
    w = 0
    ok_fiber = True
    ok_component = True
    for _ in range(1000):
        q, k = step(sys_, rot(0.6), p)
        w += k
        t2, r2 = rot(0.6).apply(p.t, p.r)
        ok_fiber &= abs(q.t - t2) < 1e-9
        ok_fiber &= abs((q.r + k) - r2) < 1e-9
        ok_component &= cantor_metric(q.c, sys_.h.power(p.c, k), 8) == 0.0
        ok_component &= cantor_metric(q.c, sys_.h.power(seed_pts[0], w), 8) == 0.0
        p = q
    elapsed = time.time() - t0
    report(5, ok_algebra and ok_fiber and ok_component and elapsed <= 5,
           f"well-definedness, commutation, component conservation and fiber "
           f"preservation hold on 10^3 samples at 1e-9 ({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 6. k-fold patterns
# ---------------------------------------------------------------------------

def test_criterion_6_kfold():
    t0 = time.time()
    ok_exact = kfold(3).values == (1, 2, 3, 4, 5, 4, 3, 4, 5, 6, 7)
    ok_valid = True
    for k in range(3, 22, 2):
        pat = kfold(k)
        ok_valid &= all(1 <= v <= 7 for v in pat.values) and pat.n == 7
        ok_valid &= all(abs(b - a) == 1 for a, b in zip(pat.values, pat.values[1:]))
        ok_valid &= pat.m == 2 * k + 5 and pat.values[-1] == 7
    try:
        kfold(4)
        ok_even = False
    except ValueError:
        ok_even = True
    elapsed = time.time() - t0
    report(6, ok_exact and ok_valid and ok_even and elapsed < 1,
           f"kfold(3) exact, all odd k <= 21 validate, kfold(4) rejected "
           f"({elapsed:.2f}s)")


# ---------------------------------------------------------------------------
# 7. horseshoe certificates
# ---------------------------------------------------------------------------

def test_criterion_7_horseshoe(tmp_path):
    t0 = time.time()
    g3 = full_branch_middle_map(3)
    cert = horseshoe_extract(g3, uniform_seven_chain(), 3, 5)
    oracle = transition_entropy(g3)
    ok_pos = (cert.passed and cert.nonempty == 729
              and abs(cert.entropy_bound - oracle) <= 1e-9)

    neg = horseshoe_extract(tent_map(), tent_seven_chain(), 3, 5)
    ok_neg = (not neg.passed) and neg.failing_word is not None
    code = main(["horseshoe", "--map", fixture_path("tent_horseshoe.ini"),
                 "--out", str(tmp_path / "tent.csv")])
    ok_exit = code == 2
    elapsed = time.time() - t0
    report(7, ok_pos and ok_neg and ok_exit and elapsed <= 10,
           f"3-branch map certifies k=3 depth=5 (729/729, bound = oracle to "
           f"1e-9); tent fixture fails at branch "
           f"{','.join(map(str, neg.failing_word))} with exit 2 ({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 8. rotation-number family separation
# ---------------------------------------------------------------------------

def test_criterion_8_rotation_family():
    t0 = time.time()
    eps = 0.5
    alphas = []
    b8 = None
    for j in range(256):
        bits = tuple((j >> i) & 1 for i in range(8))
        a, sched = rotation_family(bits, eps)
        alphas.append(a)
        b8 = sched[7]
    values = sorted(alphas)
    min_gap = min(b - a for a, b in zip(values, values[1:]))
    ok = len(set(values)) == 256 and min_gap >= b8 / 2 - 1e-15
    elapsed = time.time() - t0
    report(8, ok and elapsed < 1,
           f"256 length-8 words give distinct values, min gap {min_gap:.3e} "
           f">= b_8/2 = {b8 / 2:.3e} ({elapsed:.2f}s)")


# ---------------------------------------------------------------------------
# 9. conjugacy invariance of rotation estimates
# ---------------------------------------------------------------------------

def test_criterion_9_conjugacy():
    t0 = time.time()
    rng = random.Random(909)
    worst_ratio = 0.0
    for _ in range(20):
        F = LiftedAnnulusMap((RigidRotation(rng.uniform(0, 1)),
                              Twist(((0.0, 0.0), (1.0, rng.uniform(0, 0.3))))))
        mid = rng.uniform(0.3, 0.7)
        g = LiftedAnnulusMap((RadialReparam(((0.0, 0.0), (0.5, mid), (1.0, 1.0))),
                              RigidRotation(rng.uniform(0, 2))))
        est_f, est_c, bound = conjugacy_invariance_check(F, g, 1000)
        worst_ratio = max(worst_ratio, abs(est_f - est_c) / bound)
    elapsed = time.time() - t0
    report(9, worst_ratio <= 1.0 and elapsed <= 10,
           f"20 seeded pairs stay within 2*K/n (worst ratio {worst_ratio:.3f}) "
           f"({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 10. end-to-end determinism of every subcommand
# ---------------------------------------------------------------------------

RERUNS = [
    (["rotation", "-c", fixture_path("rotation_demo.ini")], "rot.csv"),
    (["rigidity", "-c", fixture_path("rigidity_golden.ini")], "rig.csv"),
    (["hak-verify", "-c", fixture_path("hak_toy.ini")], "hak.csv"),
    (["suspend-entropy", "-c", fixture_path("entropy_halfspeed.ini"),
      "--override", "experiment.budget=4000"], "ent.csv"),
    (["suspend-orbit", "-c", fixture_path("orbit_demo.ini")], "orb.csv"),
    (["mixing-witness", "-c", fixture_path("witness_fullshift.ini")], "wit.csv"),
    (["mixing-witness", "-c", fixture_path("golden_mean.ini")], "wis.csv"),
    (["dense-orbit", "-c", fixture_path("dense_demo.ini")], "den.csv"),
    (["rotation-family", "-c", fixture_path("family_demo.ini")], "fam.csv"),
    (["pattern", "--kfold", "5"], "pat.txt"),
    (["horseshoe", "--map", fixture_path("three_branch_horseshoe.ini")], "hor.csv"),
    (["render", "--levels", fixture_path("render_demo.ini")], "ren.svg"),
]


def test_criterion_10_determinism(tmp_path):
    t0 = time.time()
    ok = True
    for argv, name in RERUNS:
        paths = []
        for run_id in (1, 2):
            out = tmp_path / f"{run_id}_{name}"
            flag = "--out"
            code = main(argv + [flag, str(out)])
            assert code == 0, f"{argv} exited {code}"
            paths.append(out.read_bytes())
        ok &= paths[0] == paths[1]
    elapsed = time.time() - t0
    report(10, ok, f"all {len(RERUNS)} subcommand artifacts byte-identical "
                   f"across reruns ({elapsed:.1f}s)")
