"""Correctness checks for the benchmark's artifacts.

Every expected value here is computed from the generated inputs alone, with
closed forms and exact arithmetic, never by calling into `pseudosusp`.  Each
check returns a list of problems; an empty list means the artifact passed.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
import re
from fractions import Fraction

import numpy as np

REL = 1e-8  # artifacts print floats with 9 significant digits

# the problem reported for an entropy row whose lower estimate exceeds its upper one
LOWER_ABOVE_UPPER = "bracket has lower > upper"


def close(a: float, b: float, tol: float = REL) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def read_csv(text: str) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(text)))


def circle_distance(x: Fraction) -> Fraction:
    d = x % 1
    return min(d, 1 - d)


# ---------------------------------------------------------------------------
# entropy brackets
# ---------------------------------------------------------------------------

def depth_for(eps: float) -> int:
    """Least D with 2^-(D+1) < eps: agreement on |i| <= D is eps-closeness."""
    d = 0
    while Fraction(1, 2 ** (d + 1)) >= Fraction(eps):
        d += 1
    return d


def free_positions(beta: Fraction, n: int, eps: float) -> int:
    """Symbol positions seen by the Bowen windows of one annulus orbit from
    r = 0 over n steps, outside the shared core [-D, D]."""
    d = depth_for(eps)
    seen = set()
    for i in range(n):
        w = math.floor(beta * i)
        seen.update(range(w - d, w + d + 1))
    return len(seen - set(range(-d, d + 1)))


def max_row_sum(adjacency, power: int) -> int:
    a = np.array(adjacency, dtype=object)
    p = np.identity(len(adjacency), dtype=object)
    for _ in range(power):
        p = p.dot(a)
    return int(max(sum(row) for row in p))


def class_count(estimate: float, n: int) -> int | None:
    """The count behind an estimate log(count)/n, or None if it is not one."""
    value = math.exp(estimate * n)
    count = round(value)
    return count if count >= 1 and abs(value - count) <= 1e-4 * count else None


def check_entropy(csv_text: str, system: dict, beta: Fraction, eps: float,
                  n: int, budget: int) -> list[str]:
    """`system` is {"kind": "fullshift", "k": k}, {"kind": "sft", "adjacency":
    rows} or {"kind": "odometer"}."""
    rows = read_csv(csv_text)
    if len(rows) != 1:
        return [f"expected 1 entropy row, got {len(rows)}"]
    row = rows[0]
    problems = []
    try:
        lower, upper = float(row["lower"]), float(row["upper"])
        target = float(row["target"])
        if (float(row["eps"]), int(row["n"]), int(row["budget"])) != (eps, n, budget):
            problems.append(f"row echoes eps/n/budget {row['eps']}/{row['n']}/{row['budget']}")
    except (KeyError, ValueError) as exc:
        return [f"malformed entropy row: {exc}"]
    cap = math.log(budget) / n
    if lower > upper:
        problems.append(f"{LOWER_ABOVE_UPPER}: {lower} > {upper}")
    if not (0.0 <= lower and upper <= cap * (1 + REL)):
        problems.append(f"bracket not in 0 <= {lower}, {upper} <= log(budget)/n = {cap:.9g}")
    kind = system["kind"]
    if kind == "fullshift":
        h = math.log(system["k"])
    elif kind == "sft":
        h = math.log(max(abs(np.linalg.eigvals(np.array(system["adjacency"], dtype=float)))))
    else:
        h = 0.0
    if not close(target, abs(float(beta)) * h):
        problems.append(f"target {target} != |alpha| h = {abs(float(beta)) * h:.9g}")
    for label, est, scale in (("lower", lower, eps), ("upper", upper, eps / 2)):
        count = class_count(est, n)
        if count is None:
            problems.append(f"{label} {est} is not log(count)/{n}")
            continue
        f = free_positions(beta, n, scale)
        if kind == "fullshift":
            exact = system["k"] ** f
            if budget >= exact and count != exact:
                problems.append(f"{label} count {count} != k^f = {exact} (f = {f})")
            if count > min(budget, exact):
                problems.append(f"{label} count {count} above min(budget, k^f)")
        elif kind == "sft":
            bound = max_row_sum(system["adjacency"], f)
            if count > bound:
                problems.append(f"{label} count {count} above max row sum of A^{f} = {bound}")
        elif count != 1:
            problems.append(f"{label} count {count} != 1 on the odometer")
    return problems


# ---------------------------------------------------------------------------
# staged approximation tower
# ---------------------------------------------------------------------------

def tower_expectations(stages: list[dict]) -> dict[tuple[str, int], Fraction]:
    """Exact (3) and (6) values of a twist tower.  `stages` holds the INI
    fields rot (Fraction) and q (int) per stage, in order.  Twists fix t, so
    H_n^i moves r by i * P_n(t); the (3) value of stage n is its increment
    and (6) compares i * increment_(n+1) over i <= q_n."""
    out = {}
    prev = Fraction(0)
    incs = []
    for st in stages:
        incs.append(st["rot"] - prev)
        prev = st["rot"]
    for n, inc in enumerate(incs, start=1):
        out[("3", n)] = circle_distance(inc)
    for n in range(1, len(stages)):
        out[("6", n)] = max(circle_distance(i * incs[n]) for i in range(stages[n - 1]["q"] + 1))
    return out


def check_hak(rc: int, csv_text: str, stages: list[dict], expect_fail: str | None) -> list[str]:
    """`expect_fail` is the condition a mutant must fail alone, or None for a
    tower that must pass every checked condition."""
    rows = read_csv(csv_text)
    problems = []
    try:
        failing = {r["condition"] for r in rows if r["passed"] != "1"}
        conditions = {r["condition"] for r in rows}
    except KeyError as exc:
        return [f"malformed verifier csv: missing {exc}"]
    if expect_fail is not None:
        if rc != 2 or failing != {expect_fail}:
            problems.append(f"mutant: exit {rc}, failing {sorted(failing)}, "
                            f"expected exit 2 failing only ({expect_fail})")
        return problems
    if rc != 0 or failing:
        problems.append(f"toy: exit {rc}, failing {sorted(failing)}")
    missing = {"1", "2", "3", "5", "6", "7", "8"} - conditions
    if missing:
        problems.append(f"toy: no rows for conditions {sorted(missing)}")
    expected = tower_expectations(stages)
    eps = {n: st["eps"] for n, st in enumerate(stages, start=1)}
    for (cond, n), value in expected.items():
        got = [float(r["value"]) for r in rows
               if r["condition"] == cond and int(r["stage"]) == n
               and float(r["bound"]) == eps[n]]
        if len(got) != 1 or abs(got[0] - float(value)) > 1e-8:
            problems.append(f"condition ({cond}) stage {n}: {got} != {value}")
    return problems


# ---------------------------------------------------------------------------
# horseshoe certificates
# ---------------------------------------------------------------------------

def covering_entropy(breakpoints: list[tuple[Fraction, Fraction]]) -> float:
    """log of the spectral radius of the 0/1 matrix in which piece i covers
    piece j when the image of piece i contains the domain of piece j."""
    pieces = [((x0, x1), (min(y0, y1), max(y0, y1)))
              for (x0, y0), (x1, y1) in zip(breakpoints, breakpoints[1:])]
    a = np.array([[1.0 if ilo < ihi and ilo <= dlo and dhi <= ihi else 0.0
                   for (dlo, dhi), _ in pieces] for _, (ilo, ihi) in pieces])
    return math.log(max(abs(np.linalg.eigvals(a))))


def check_certificate(rc: int, stdout: str, csv_text: str, k: int, depth: int,
                      breakpoints: list[tuple[Fraction, Fraction]]) -> list[str]:
    rows = read_csv(csv_text)
    problems = []
    if rc != 0:
        problems.append(f"certificate exit {rc}, expected 0")
    try:
        words = {r["word"] for r in rows}
        bounds = [(float(r["lo"]), float(r["hi"])) for r in rows]
    except (KeyError, ValueError) as exc:
        return problems + [f"malformed certificate csv: {exc}"]
    expected = {"-".join(map(str, w))
                for w in itertools.product(range(1, k + 1), repeat=depth + 1)}
    if len(rows) != k ** (depth + 1) or words != expected:
        problems.append(f"{len(rows)} rows, {len(expected - words)} words missing; "
                        f"expected all {k ** (depth + 1)} words")
    if any(not 0.0 <= lo <= hi <= 1.0 for lo, hi in bounds):
        problems.append("an itinerary interval is not 0 <= lo <= hi <= 1")
    m = re.search(r"entropy >= (\S+)", stdout)
    want = covering_entropy(breakpoints)
    if m is None or not close(float(m.group(1)), want):
        problems.append(f"entropy bound {m and m.group(1)} != log rho(A) = {want:.9g}")
    return problems


def check_negative_certificate(rc: int, csv_text: str, k: int, depth: int) -> list[str]:
    rows = read_csv(csv_text)
    if rc != 2 or len(rows) >= k ** (depth + 1):
        return [f"negative fixture: exit {rc} with {len(rows)} rows, "
                f"expected exit 2 with fewer than {k ** (depth + 1)}"]
    return []


# ---------------------------------------------------------------------------
# quotient orbits
# ---------------------------------------------------------------------------

def check_witness(csv_text: str, horizon: int, expect_found: bool) -> list[str]:
    rows = read_csv(csv_text)
    if len(rows) != 1:
        return [f"expected 1 witness row, got {len(rows)}"]
    found = rows[0].get("found") == "1"
    if found != expect_found:
        return [f"witness found={found}, expected {expect_found}"]
    if found and not 1 <= int(rows[0]["l"]) <= horizon:
        return [f"witness l={rows[0]['l']} outside 1..{horizon}"]
    return []


def check_dense(csv_text: str, beta: Fraction, eps: float, k_max: int,
                s_max: int, p_max: int) -> list[str]:
    rows = read_csv(csv_text)
    if len(rows) != 1 or rows[0].get("found") != "1":
        return [f"dense-orbit found no witness: {rows}"]
    k, s, p = (int(rows[0][c]) for c in ("k", "s", "p"))
    problems = []
    if s * beta != k:
        problems.append(f"s*beta = {s * beta} != k = {k}")
    net = 2 ** (2 * depth_for(eps) + 1)
    if p < net - 1:
        problems.append(f"p = {p} cannot cover {net} cylinder words")
    if not (1 <= k <= k_max and 1 <= s <= s_max and p <= p_max):
        problems.append(f"witness ({k}, {s}, {p}) outside the search bounds")
    return problems


def check_orbit(csv_text: str, r0: Fraction, beta: Fraction, n: int) -> list[str]:
    rows = read_csv(csv_text)
    if len(rows) != n + 1:
        return [f"orbit has {len(rows)} rows, expected {n + 1}"]
    want = math.floor(r0 + n * beta)
    if int(rows[-1]["w"]) != want:
        return [f"final winding {rows[-1]['w']} != floor(r0 + n beta) = {want}"]
    return []
