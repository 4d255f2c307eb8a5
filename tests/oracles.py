"""Estimators that no subcommand runs, kept as test oracles: the circle
distance of float arrays, the deck equivariance defect of an annulus map,
word recurrence gaps of a Cantor point, near-identity return times on the
quotient, and the rigidity margins of a staged tower.  Also the canned
systems and maps that only tests build.  Shared by
`test_annulus.py`, `test_cantor.py` and `test_suspension.py`."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from pseudosusp.annulus import LiftedAnnulusMap
from pseudosusp.cantor import SFT, CantorPoint, CantorSystem, Substitution, cantor_metric
from pseudosusp.suspension import SuspensionSystem
from pseudosusp.tower import HAKStage, _gamma, circle_sup, pl_sum, stage_profiles


def golden_mean_sft() -> SFT:
    return SFT(2, ((1, 1), (1, 0)), label="golden-mean SFT")


def thue_morse() -> Substitution:
    return Substitution(((0, 1), (1, 0)), label="Thue-Morse substitution")


def identity_map() -> LiftedAnnulusMap:
    return LiftedAnnulusMap(())


def circle_distance(a, b):
    """The distance of a - b from the integers, elementwise."""
    d = np.mod(np.asarray(a) - b, 1.0)
    return np.minimum(d, 1.0 - d)


def equivariance_defect(m: LiftedAnnulusMap, samples: int = 100, seed: int = 7) -> float:
    """Max over seeded samples of |map(t, r+1) - map(t, r) - (0, 1)|."""
    rng = np.random.default_rng(seed)
    t = rng.uniform(0, 1, samples)
    r = rng.uniform(-2, 2, samples)
    t1, r1 = m.apply(t, r)
    t2, r2 = m.apply(t, r + 1.0)
    return float(np.max(np.abs(t2 - t1) + np.abs(r2 - (r1 + 1.0))))


def recurrence_profile(sys: CantorSystem, c: CantorPoint, L: int,
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
        cur = sys.power(cur, -1)
    out: dict[tuple[int, ...], float] = {}
    for word in sys.words(L):
        if word not in counts:
            out[word] = math.inf
        elif counts[word] == 1:
            out[word] = float(horizon)
        else:
            out[word] = gaps[word]
    return out


def rigidity_suspension(sys: SuspensionSystem, grid: int, horizon: int,
                        eps: float, seed: int = 0) -> list[tuple[int, float]]:
    """All n <= horizon with sup quotient displacement < eps over a grid of
    start points sharing one seeded Cantor coordinate."""
    c0 = sys.h.random_point(seed, sys.window)
    t0 = np.linspace(0.05, 0.95, grid)
    r0 = np.linspace(0.0, 1.0, grid, endpoint=False)
    tt, rr = np.meshgrid(t0, r0, indexing="ij")
    tt, rr = tt.ravel(), rr.ravel()
    t, rlift = tt.copy(), rr.copy()
    wdist: dict[tuple[int, int], float] = {}

    def cantor_gap(w: int, s: int) -> float:
        # distance between h^w(c0) and h^(-s)(c0); the metric is not
        # shift-invariant, so cache per (w, s) pair
        key = (w, s)
        if key not in wdist:
            wdist[key] = cantor_metric(sys.h.power(c0, w), sys.h.power(c0, -s), sys.window)
        return wdist[key]

    qualifying = []
    for n in range(1, horizon + 1):
        t, rlift = sys.H.apply(t, rlift)
        w = np.floor(rlift).astype(int)
        worst = 0.0
        for j in range(len(tt)):
            best = math.inf
            for s in (-1, 0, 1):
                strip = abs(t[j] - tt[j]) + abs((rlift[j] - w[j]) - (rr[j] + s))
                cd = cantor_gap(int(w[j]), s)
                best = min(best, max(strip, cd))
            worst = max(worst, best)
            if worst >= eps:
                break
        if worst < eps:
            qualifying.append((n, worst))
    return qualifying


def rigidity_margins(stages: list[HAKStage],
                     tail: Fraction = Fraction(0)) -> list[tuple[int, Fraction, Fraction]]:
    """(n, sup displacement of H_N^(p_n) on the deepest band, gamma_n).

    H_N^(p_n)(t, r) = (t, r + p_n*P_N(t)), so the displacement is
    ||p_n*P_N(t)||, the same for every r."""
    speed = pl_sum(stage_profiles(stages))
    u, v = stages[-1].band
    return [(st.n, circle_sup(speed, u, v, range(st.p, st.p + 1)), _gamma(stages, i, tail))
            for i, st in enumerate(stages)]
