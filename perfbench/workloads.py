"""The benchmark's four workloads: CLI commands on inputs generated from a seed.

Each workload is a list of operations.  An operation is one `pseudosusp`
subcommand, the exit code it must return, the artifact it writes and the
check that artifact must pass.  Inputs are written into the run directory;
the program sees only those files and command-line arguments.
"""

from __future__ import annotations

import configparser
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import checks

# (exit code, stdout, artifact text) -> problems
Check = Callable[[int, str, str], list[str]]


@dataclass
class Op:
    name: str
    argv: list[str]
    expected_rc: int
    check: Check
    # the one problem a known program fault gives this operation every time;
    # any other problem still makes the run incorrect
    fault: str | None = None


def write_ini(path: Path, comment: str, sections: dict[str, dict[str, object]]) -> str:
    lines = [f"; {comment}"]
    for name, values in sections.items():
        lines.append(f"[{name}]")
        lines.extend(f"{k} = {v}" for k, v in values.items())
        lines.append("")
    path.write_text("\n".join(lines), encoding="utf-8")
    return path.name


def frac_pairs(raw: str) -> list[tuple[Fraction, Fraction]]:
    return [tuple(Fraction(x.strip()) for x in chunk.split(","))
            for chunk in raw.split(";") if chunk.strip()]


def fmt_pairs(pairs) -> str:
    return "; ".join(f"{a},{b}" for a, b in pairs)


# ---------------------------------------------------------------------------
# entropy_bracket
# ---------------------------------------------------------------------------

ENTROPY_EPS = 0.0625
ENTROPY_N = 10
ENTROPY_BUDGET = 600

# The golden-mean bracket runs on a fixed sample seed: on about two seeds in
# five the program reports lower > upper there (8 classes at eps, 5 at eps/2,
# as the base point fixes a 1 next to a longer core), and seed 2 is one.  It
# is kept as the one operation expected to fail, on input independent of the
# benchmark seed.
GOLDEN_FAULT_SEED = 2
GOLDEN_FAULT = checks.LOWER_ABOVE_UPPER

# (name, rotation, [cantor] section, system description for the check).
# At n = 10 the full shift has 512 classes at alpha = 1 and 16 at 1/2, the
# golden-mean SFT at most 8 and the odometer 1, so one budget spans every
# counting regime and still covers the largest class set.
ENTROPY_SYSTEMS = [
    ("fullshift_unit", Fraction(1), {"kind": "fullshift", "k": 2},
     {"kind": "fullshift", "k": 2}),
    ("fullshift_half", Fraction(1, 2), {"kind": "fullshift", "k": 2},
     {"kind": "fullshift", "k": 2}),
    ("golden_half", Fraction(1, 2), {"kind": "sft", "k": 2, "adjacency": "1,1;1,0"},
     {"kind": "sft", "adjacency": [[1, 1], [1, 0]]}),
    ("odometer_half", Fraction(1, 2), {"kind": "odometer", "bases": ",".join(["2"] * 8)},
     {"kind": "odometer"}),
]


def entropy_bracket(rng: random.Random, fixtures: Path, run_dir: Path) -> list[Op]:
    ops = []
    for name, beta, cantor, system in ENTROPY_SYSTEMS:
        seed = rng.randrange(10 ** 6)
        fault = GOLDEN_FAULT if cantor["kind"] == "sft" else None
        cfg = write_ini(run_dir / f"{name}.ini", f"entropy bracket: {name}", {
            "map": {"map": f"rotation:{beta}"},
            "cantor": {**cantor, "window": 32},
            "experiment": {"seed": GOLDEN_FAULT_SEED if fault else seed, "eps": ENTROPY_EPS,
                           "n": ENTROPY_N, "budget": ENTROPY_BUDGET},
        })

        def check(rc, stdout, text, system=system, beta=beta):
            return checks.check_entropy(text, system, beta, ENTROPY_EPS,
                                        ENTROPY_N, ENTROPY_BUDGET)
        ops.append(Op(name, ["suspend-entropy", "-c", cfg], 0, check, fault))
    return ops


# ---------------------------------------------------------------------------
# hak_tower
# ---------------------------------------------------------------------------

HAK_FILES = ["hak_toy", "hak_mut_alpha", "hak_mut_band", "hak_mut_support"]


def hak_tower(rng: random.Random, fixtures: Path, run_dir: Path) -> list[Op]:
    """The shipped toy tower and its mutants, with the sign of every stage
    increment chosen by the seed.  Flipping a sign keeps each increment's
    size, so every condition keeps its value or its verdict."""
    signs = [rng.choice((1, -1)) for _ in range(3)]
    ops = []
    for name in HAK_FILES:
        text = (fixtures / f"{name}.ini").read_text(encoding="utf-8")
        first = text.splitlines()[0]
        named = re.search(r"condition \((\d+)\) fails", first)
        cfg = configparser.ConfigParser()
        cfg.read_string(text)
        stage_names = sorted(s for s in cfg.sections() if s.startswith("stage"))
        shipped = [Fraction(cfg.get(s, "rot")) for s in stage_names]
        rot = Fraction(0)
        stages = []
        for i, (sec, sign) in enumerate(zip(stage_names, signs)):
            rot += sign * abs(shipped[i] - (shipped[i - 1] if i else 0))
            cfg.set(sec, "rot", str(rot))
            stages.append({"rot": rot, "q": cfg.getint(sec, "q"),
                           "eps": cfg.getfloat(sec, "eps")})
        path = write_ini(run_dir / f"{name}.ini", first.lstrip("; "),
                         {s: dict(cfg.items(s)) for s in cfg.sections()})

        def check(rc, stdout, out, stages=stages, named=named):
            return checks.check_hak(rc, out, stages, named and named.group(1))
        ops.append(Op(name, ["hak-verify", "-c", path], 2 if named else 0, check))
    return ops


# ---------------------------------------------------------------------------
# horseshoe_certs
# ---------------------------------------------------------------------------

# (fixture, depth, certifies).  Depths are raised from the fixtures' 5 and 4
# where a round stays short: the 5-branch map at depth 5 alone takes 12.6 s.
HORSESHOE_MAPS = [
    ("three_branch_horseshoe", 6, True),
    ("five_branch_horseshoe", 4, True),
    ("tent_horseshoe", 5, False),
]


def horseshoe_certs(rng: random.Random, fixtures: Path, run_dir: Path) -> list[Op]:
    """Each shipped map and chain as shipped or conjugated by x -> 1 - x,
    chosen by the seed.  The conjugate keeps the stretch exponent, the
    number of nonempty itinerary intervals and the covering entropy."""
    ops = []
    for name, depth, certifies in HORSESHOE_MAPS:
        cfg = configparser.ConfigParser()
        cfg.read(fixtures / f"{name}.ini", encoding="utf-8")
        breakpoints = frac_pairs(cfg.get("plmap", "breakpoints"))
        links = frac_pairs(cfg.get("chain", "links"))
        mirrored = rng.random() < 0.5
        if mirrored:
            breakpoints = [(1 - x, 1 - y) for x, y in reversed(breakpoints)]
            links = [(1 - hi, 1 - lo) for lo, hi in reversed(links)]
        k = cfg.getint("horseshoe", "k")
        path = write_ini(run_dir / f"{name}.ini",
                         f"{name}{' mirrored by x -> 1 - x' if mirrored else ''}", {
                             "plmap": {"breakpoints": fmt_pairs(breakpoints)},
                             "chain": {"links": fmt_pairs(links)},
                             "horseshoe": dict(cfg.items("horseshoe")),
                         })
        if certifies:
            def check(rc, stdout, out, k=k, depth=depth, bp=breakpoints):
                return checks.check_certificate(rc, stdout, out, k, depth, bp)
        else:
            def check(rc, stdout, out, k=k, depth=depth):
                return checks.check_negative_certificate(rc, out, k, depth)
        ops.append(Op(name, ["horseshoe", "--map", path, "--depth", str(depth)],
                      0 if certifies else 2, check))
    return ops


# ---------------------------------------------------------------------------
# quotient_orbits
# ---------------------------------------------------------------------------

WITNESS_CLOUD = 128
CONTROL_HORIZON = 400
POSITIVE_HORIZON = 200
DENSE = {"eps": 0.3, "k_max": 3, "s_max": 4, "p_max": 300}
ORBIT_STEPS = 50000


def quotient_orbits(rng: random.Random, fixtures: Path, run_dir: Path) -> list[Op]:
    """Generated configs in the shape of the shipped witness, dense-orbit and
    orbit fixtures, with horizons, cloud sizes and orbit length raised."""
    ops = []
    # Odometer control: the annulus factor is a rigid rotation, so the cloud
    # keeps its shape; its balls sit 0.5 apart, farther than the radii plus
    # the cloud's spread, so no iterate can meet both and the search runs to
    # its horizon.
    radius = Fraction(1, 20)
    r_u = Fraction(rng.randrange(20), 20)
    control = write_ini(run_dir / "witness_odometer.ini", "odometer negative control", {
        "map": {"map": "rotation:0.3819660112501051"},
        "cantor": {"kind": "odometer", "bases": "2,2,2", "window": 32},
        "witness": {"mode": "suspension",
                    "u": f"0.5,{float(r_u)},{rng.randrange(1000)}", "u_radius": float(radius),
                    "v": f"0.5,{float(r_u + Fraction(1, 2))},{rng.randrange(1000)}",
                    "v_radius": float(radius),
                    "horizon": CONTROL_HORIZON, "cloud": WITNESS_CLOUD},
        "experiment": {"seed": rng.randrange(10 ** 6)},
    })
    ops.append(Op("witness_odometer", ["mixing-witness", "-c", control], 0,
                  lambda rc, so, out: checks.check_witness(out, CONTROL_HORIZON, False)))
    for name, cantor in (("witness_fullshift", {"kind": "fullshift", "k": 2}),
                         ("witness_golden", {"kind": "sft", "k": 2, "adjacency": "1,1;1,0"})):
        path = write_ini(run_dir / f"{name}.ini", f"weak-mixing witness over {cantor['kind']}", {
            "map": {"map": "rotation:0.5"},
            "cantor": {**cantor, "window": 32},
            "witness": {"mode": "suspension",
                        "u": f"0.5,0.10,{rng.randrange(1000)}", "u_radius": 0.3,
                        "v": f"0.5,0.35,{rng.randrange(1000)}", "v_radius": 0.3,
                        "horizon": POSITIVE_HORIZON, "cloud": WITNESS_CLOUD},
            "experiment": {"seed": rng.randrange(10 ** 6)},
        })
        ops.append(Op(name, ["mixing-witness", "-c", path], 0,
                      lambda rc, so, out: checks.check_witness(out, POSITIVE_HORIZON, True)))
    # A window of 64 makes the seeded point's period 129, long enough that
    # every 3-symbol cylinder word occurs in it.
    beta = Fraction(1, 2)
    dense = write_ini(run_dir / "dense.ini", "dense-orbit witness over the full 2-shift", {
        "map": {"map": f"rotation:{beta}"},
        "cantor": {"kind": "fullshift", "k": 2, "window": 64},
        "dense": {"seed": rng.randrange(10 ** 6), **DENSE},
        "orbit": {"t": 0.5, "r": 0.0},
    })
    ops.append(Op("dense_orbit", ["dense-orbit", "-c", dense], 0,
                  lambda rc, so, out: checks.check_dense(out, beta, DENSE["eps"], DENSE["k_max"],
                                                         DENSE["s_max"], DENSE["p_max"])))
    # r0 an odd number of tenths keeps r0 + n * 3/5 off the integers, so
    # rounding in the float orbit cannot move a winding.
    r0 = Fraction(2 * rng.randrange(5) + 1, 10)
    orbit = write_ini(run_dir / "orbit.ini", "suspension orbit over the full 2-shift", {
        "map": {"map": "rotation:0.6"},
        "cantor": {"kind": "fullshift", "k": 2, "window": 32},
        "orbit": {"seed": rng.randrange(10 ** 6), "t": rng.choice((0.2, 0.4, 0.6, 0.8)),
                  "r": float(r0), "n": ORBIT_STEPS},
    })
    ops.append(Op("suspend_orbit", ["suspend-orbit", "-c", orbit], 0,
                  lambda rc, so, out: checks.check_orbit(out, r0, Fraction(3, 5), ORBIT_STEPS)))
    return ops


WORKLOADS = {
    "entropy_bracket": entropy_bracket,
    "hak_tower": hak_tower,
    "horseshoe_certs": horseshoe_certs,
    "quotient_orbits": quotient_orbits,
}
