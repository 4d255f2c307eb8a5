"""Command-line entry point: every operation as a subcommand over an INI
config, emitting CSV/SVG artifacts with fixed schemas.

Exit codes: 0 success, 2 check/certificate failed, 3 config error,
4 capacity error (an entropy scale below the resolution 2^-(W-2) of the
symbol window W).

Only `config` is imported here; each handler imports the layer it runs, so a
command loads no layer it does not use.
"""

from __future__ import annotations

import argparse
import sys
from importlib import resources
from pathlib import Path
from typing import TYPE_CHECKING

from . import __version__
from .config import (CapacityError, ConfigError, RunConfig, _finite, build_cantor,
                     build_interval_chain, build_map, build_plmap, build_stages,
                     load_config, parse, parse_fractions, parse_map)

if TYPE_CHECKING:
    from .suspension import SuspensionSystem

EXIT_OK = 0
EXIT_CHECK = 2
EXIT_CONFIG = 3
EXIT_CAPACITY = 4

CONFIG_FORMAT = 1


# column formats are printf fields: "%s" writes str(value), FLOAT a float to
# 9 significant digits, BOOL a bool as 1 or 0
FLOAT, BOOL = "%.9g", "%d"


def _write_csv(path: str, columns: dict[str, str], rows) -> None:
    """A header of the column names, then one line per row tuple, each value
    in its column's printf field.  A column whose format has no field is
    text that every line holds, and takes no value from the rows."""
    line = ",".join(columns.values())
    text = "\n".join([",".join(columns), *(line % row for row in rows)])
    Path(path).write_text(text + "\n", encoding="utf-8")


def _out_path(args, cfg: RunConfig) -> str:
    return args.out or cfg.get("experiment", "out")


def _suspension(cfg: RunConfig) -> SuspensionSystem:
    from .suspension import SuspensionSystem

    m = build_map(cfg)
    h = build_cantor(cfg)
    return SuspensionSystem(m, h, cfg.get("cantor", "window"))


def _speed(cfg: RunConfig, command: str):
    """The exact speed P of `map.map`, for a command that needs a map that
    fixes t and moves r by P(t): rotations and twists sum into P, and a
    cover q,p around them moves r by (P + p)/q.  A reparam moves t, which
    is a config error naming map.map."""
    from .tower import ONE, ZERO, pl_sum

    pieces, cover = parse_map(cfg)
    if any(name == "reparam" for name, _ in pieces):
        raise ConfigError(f"map.map: {command} needs a map that fixes t, and a reparam moves t")
    q, p = cover or (1, 0)
    parts = [value if name == "twist" else ((ZERO, value), (ONE, value))
             for name, value in pieces + [("rotation", p)]]
    return tuple((x, y / q) for x, y in pl_sum(parts))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_rotation(args, cfg: RunConfig) -> int:
    from .annulus import rotation_estimate

    m = build_map(cfg)
    n = cfg.get("experiment", "n")
    rows = rotation_estimate(m, cfg.get("orbit", "t"), cfg.get("orbit", "r"), n)
    out = _out_path(args, cfg)
    _write_csv(out, {"n": "%s", "estimate": FLOAT}, rows)
    print(f"rotation: estimate {rows[-1][1]:.9g} at n={n} -> {out}")
    return EXIT_OK


def cmd_rigidity(args, cfg: RunConfig) -> int:
    from .tower import rigidity_times

    speed = _speed(cfg, "rigidity")
    horizon = cfg.get("experiment", "horizon")
    eps = cfg.get("experiment", "eps")
    lo, hi = cfg.get("experiment", "band")
    rows = rigidity_times(speed, lo, hi, horizon, eps)
    out = _out_path(args, cfg)
    # the exact sups become floats for their FLOAT column
    _write_csv(out, {"n": "%s", "sup_displacement": FLOAT}, [(n, float(d)) for n, d in rows])
    print(f"rigidity: {len(rows)} qualifying times <= {horizon} at eps={float(eps):.9g} -> {out}")
    return EXIT_OK


def cmd_hak_verify(args, cfg: RunConfig) -> int:
    from .tower import CONFIG, MEASURED, STRUCTURAL, hak_verify

    checks = hak_verify(build_stages(cfg), tail=cfg.get("hak", "tail"))
    out = _out_path(args, cfg)
    # the exact values become floats for their FLOAT columns
    _write_csv(out, {"condition": "%s", "stage": "%s", "value": FLOAT, "bound": FLOAT,
                     "margin": FLOAT, "passed": BOOL},
               [(c.condition, c.stage, float(c.value), float(c.bound), float(c.margin),
                 c.passed) for c in checks])
    failing = sorted({c.condition for c in checks if not c.passed})
    if failing:
        print(f"hak-verify: FAILED condition(s) ({','.join(failing)}) -> {out}")
        return EXIT_CHECK
    # the bound-0 rows hold identities, whose margin 0 says nothing
    binding = min((c for c in checks if c.condition in MEASURED and c.bound),
                  key=lambda c: c.margin)
    print(f"hak-verify: measured ({','.join(MEASURED)}) pass, smallest margin "
          f"{float(binding.margin):.9g} at ({binding.condition}) stage {binding.stage}; "
          f"config ({','.join(CONFIG)}) hold; ({','.join(STRUCTURAL)}) structural -> {out}")
    return EXIT_OK


def cmd_suspend_entropy(args, cfg: RunConfig) -> int:
    from .annulus import rotation_number
    from .suspension import product_formula_report

    sys_ = _suspension(cfg)
    eps_list = cfg.get("experiment", "eps")
    n_list = cfg.get("experiment", "n")
    # the counts are exact; experiment.budget is only echoed in its column
    budget = cfg.get("experiment", "budget")
    alpha = rotation_number(sys_.H)
    rows = product_formula_report(sys_, alpha, eps_list, n_list)
    out = _out_path(args, cfg)
    _write_csv(out, {"eps": FLOAT, "n": "%s", "budget": "%s", "lower": FLOAT, "upper": FLOAT,
                     "target": FLOAT, "alpha": FLOAT, "h_entropy": FLOAT},
               [(r.eps, r.n, budget, r.lower, r.upper, r.target, r.alpha, r.h_entropy)
                for r in rows])
    last = rows[-1]
    print(f"suspend-entropy: bracket [{last.lower:.9g}, {last.upper:.9g}] "
          f"target {last.target:.9g} -> {out}")
    return EXIT_OK


def cmd_suspend_orbit(args, cfg: RunConfig) -> int:
    from .annulus import fixes_t, orbit

    m = build_map(cfg)
    t, r = cfg.get("orbit", "t"), cfg.get("orbit", "r")
    n = cfg.get("orbit", "n")
    # the k-th point's Cantor coordinate is h^(w_k - w_0)(c), never built
    rows = orbit(m, t, r, n)
    out = _out_path(args, cfg)
    columns = {"k": "%s", "t": FLOAT, "r": FLOAT, "w": "%s"}
    if fixes_t(m):
        # every row holds the start's t, so its text is formatted once
        columns["t"] = FLOAT % t
        table = ((k, r, w) for k, (_, r, w) in enumerate(rows))
    else:
        table = ((k, *row) for k, row in enumerate(rows))
    _write_csv(out, columns, table)
    print(f"suspend-orbit: {n} steps, final winding {rows[-1][2]} -> {out}")
    return EXIT_OK


def cmd_mixing_witness(args, cfg: RunConfig) -> int:
    from .suspension import normalize, weak_mixing_witness

    mode = cfg.get("witness", "mode")
    horizon = cfg.get("witness", "horizon")
    out = _out_path(args, cfg)
    if mode == "symbolic":
        h = build_cantor(cfg)
        u, v = (tuple(parse(f"witness.{key}", cfg.get("witness", key), "integer list"))
                for key in ("u", "v"))
        try:
            found = h.mixing_witness(u, v, horizon)
        except ValueError as exc:  # the message starts with the argument, u or v
            raise ConfigError(f"witness.{exc}") from exc
    else:
        speed = _speed(cfg, "mixing-witness")
        sys_ = _suspension(cfg)

        def ball(key):
            raw = cfg.get("witness", key)
            try:
                t, r, seed = raw.split(",")
                t, r, seed = _finite(t), _finite(r), int(seed)
            except ValueError:
                t = None
            if t is None or not 0.0 <= t <= 1.0:
                raise ConfigError(f"witness.{key} must be 't,r,seed' with t in [0, 1] and "
                                  f"an integer seed, got {raw!r}")
            c = sys_.h.random_point(seed, sys_.window)
            return (normalize(sys_, t, r, c), cfg.get("witness", f"{key}_radius"))

        found = weak_mixing_witness(sys_, speed, ball("u"), ball("v"), horizon)
    _write_csv(out, {"mode": "%s", "horizon": "%s", "found": BOOL, "l": "%s"},
               [(mode, horizon, found is not None, "" if found is None else found)])
    verdict = f"l={found}" if found is not None else "none within horizon"
    print(f"mixing-witness[{mode}]: {verdict} -> {out}")
    return EXIT_OK


def cmd_dense_orbit(args, cfg: RunConfig) -> int:
    from .suspension import dense_orbit_check

    sys_ = _suspension(cfg)
    seed, eps, k_max, s_max, p_max = (cfg.get("dense", key)
                                      for key in ("seed", "eps", "k_max", "s_max", "p_max"))
    t, r = cfg.get("orbit", "t"), cfg.get("orbit", "r")
    c = sys_.h.random_point(seed, sys_.window)
    hit = dense_orbit_check(sys_, c, (t, r), eps, k_max, s_max, p_max)
    out = _out_path(args, cfg)
    columns = {"found": BOOL, "k": "%s", "s": "%s", "p": "%s"}
    if hit is None:
        _write_csv(out, columns, [(False, "", "", "")])
        print(f"dense-orbit: no witness within bounds -> {out}")
    else:
        _write_csv(out, columns, [(True, *hit)])
        print(f"dense-orbit: witness k={hit[0]} s={hit[1]} p={hit[2]} -> {out}")
    return EXIT_OK


def cmd_rotation_family(args, cfg: RunConfig) -> int:
    from .annulus import rotation_family

    bits = cfg.get("family", "bits")
    alpha, schedule = rotation_family(bits, cfg.get("family", "eps"))
    out = _out_path(args, cfg)
    _write_csv(out, {"n": "%s", "bit": "%s", "b_n": FLOAT, "term": FLOAT},
               [(i + 1, b, s, s if b else s / 3.0)
                for i, (b, s) in enumerate(zip(bits, schedule))])
    print(f"rotation-family: alpha = {alpha:.12g} for bits {''.join(map(str, bits))} -> {out}")
    return EXIT_OK


def _kfold(k, key: str):
    """The k-fold pattern for K = k; a K that is not an odd integer >= 3 is
    a config error naming `key`."""
    from .chains import kfold

    try:
        return kfold(int(k))
    except ValueError as exc:
        raise ConfigError(f"{key} must give an odd integer K >= 3, got {k!r}") from exc


def cmd_pattern(args, cfg) -> int:
    pat = _kfold(args.kfold, "--kfold")
    text = ",".join(str(v) for v in pat.values)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    print(text)
    return EXIT_OK


def cmd_horseshoe(args, cfg: RunConfig) -> int:
    from .chains import ChainError, StretchPreconditionError, horseshoe_extract

    g = build_plmap(cfg)
    chain = build_interval_chain(cfg)
    k, depth, m_bound = (cfg.get("horseshoe", key) for key in ("k", "depth", "mbound"))
    if k % 2 == 0 or k < 3:
        raise ConfigError(f"horseshoe.k must be an odd integer >= 3, got {k}")
    try:
        cert = horseshoe_extract(g, chain, k, depth, m_bound)
    except StretchPreconditionError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return EXIT_CHECK
    except ChainError as exc:  # not 7 taut links, or link 4 too narrow for k slots
        raise ConfigError(f"chain.links: {exc}") from exc
    out = args.out or cfg.get("horseshoe", "out")
    # int true division rounds correctly, so each end is float(Fraction(end, scale))
    rows = [("-".join(map(str, word)), lo / cert.scale, hi / cert.scale)
            for word, (lo, hi) in sorted(cert.intervals.items())]
    _write_csv(out, {"word": "%s", "lo": FLOAT, "hi": FLOAT}, rows)
    print(cert.summary() + f" -> {out}")
    return EXIT_OK if cert.passed else EXIT_CHECK


def cmd_render(args, cfg: RunConfig) -> int:
    from .chains import (ChainCover, ChainError, Rect, essential_seven_chain,
                         refine_chain, render_chains)

    levels = []
    level_sections = cfg.numbered("level")
    if level_sections:
        for _, name in level_sections:
            rects = [Rect((tlo, thi), (alo, ahi)) for tlo, thi, alo, ahi
                     in parse_fractions(cfg.get(name, "links"), f"{name}.links",
                                        "tlo,thi,alo,ahi")]
            try:
                levels.append(ChainCover.build(rects, cfg.get(name, "essential") == "true"))
            except ChainError as exc:
                raise ConfigError(f"{name}.links: {exc}") from exc
    elif cfg.parser.has_section("render"):
        # render.base takes only essential7, which its declaration checks
        n_levels = cfg.get("render", "levels")
        pattern_spec = cfg.get("render", "pattern").strip()
        name, _, arg = pattern_spec.partition(":")
        if name != "kfold":
            raise ConfigError(f"render.pattern: only kfold:K supported, got {pattern_spec!r}")
        pat = _kfold(arg, "render.pattern")
        chain = essential_seven_chain()
        levels = [chain]
        for _ in range(n_levels - 1):
            try:
                levels.append(refine_chain(levels[-1], pat))
            except ChainError as exc:
                raise ConfigError(f"render.pattern: {exc}") from exc
    else:
        raise ConfigError("levels file needs [level *] sections or a [render] block")
    out = args.out or "chains.svg"
    svg = render_chains(levels)
    Path(out).write_text(svg, encoding="utf-8")
    counts = "/".join(str(len(lv.links)) for lv in levels)
    print(f"render: {len(levels)} level(s) with {counts or '0'} links -> {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

def list_fixtures() -> list[tuple[str, str]]:
    out = []
    for entry in sorted(resources.files("pseudosusp.fixtures").iterdir()):
        if entry.name.endswith(".ini"):
            first = entry.read_text(encoding="utf-8").splitlines()[0]
            desc = first.lstrip("; #").strip() if first.startswith((";", "#")) else ""
            out.append((entry.name, desc))
    return out


def fixture_path(name: str) -> str:
    return str(resources.files("pseudosusp.fixtures") / name)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="pseudosusp",
        description="suspension-quotient dynamics laboratory")
    ap.add_argument("--version", action="store_true", help="print version and exit")
    ap.add_argument("--list-fixtures", action="store_true",
                    help="enumerate shipped fixture configs and exit")
    sub = ap.add_subparsers(dest="command")

    def common(p, config_required=True):
        p.add_argument("-c", "--config", required=config_required, help="INI config path")
        p.add_argument("--out", help="output artifact path")
        p.add_argument("--override", action="append", default=[],
                       metavar="SEC.KEY=VAL", help="override a config value")

    common(sub.add_parser("rotation", help="rotation-number estimate sequence"))
    common(sub.add_parser("rigidity", help="near-identity return times of a map"))
    common(sub.add_parser("hak-verify", help="verify the staged approximation conditions"))
    common(sub.add_parser("suspend-entropy", help="entropy bracket on the suspension"))
    common(sub.add_parser("suspend-orbit", help="suspension orbit with winding bookkeeping"))
    common(sub.add_parser("mixing-witness", help="weak-mixing witness search"))
    common(sub.add_parser("dense-orbit", help="dense-orbit condition search"))
    common(sub.add_parser("rotation-family", help="injective rotation-number family"))

    p_pat = sub.add_parser("pattern", help="print a k-fold pattern")
    p_pat.add_argument("--kfold", type=int, required=True, metavar="K")
    p_pat.add_argument("--out")

    p_h = sub.add_parser("horseshoe", help="itinerary certificate for a PL map")
    p_h.add_argument("--map", dest="config", required=True, help="INI with [plmap] and [chain]")
    p_h.add_argument("--k", type=int)
    p_h.add_argument("--depth", type=int)
    p_h.add_argument("--out")
    p_h.add_argument("--override", action="append", default=[])

    p_r = sub.add_parser("render", help="render nested chains to SVG")
    p_r.add_argument("--levels", dest="config", required=True,
                     help="INI with [level *] or [render]")
    p_r.add_argument("--out")
    p_r.add_argument("--override", action="append", default=[])
    return ap


HANDLERS = {
    "rotation": cmd_rotation,
    "rigidity": cmd_rigidity,
    "hak-verify": cmd_hak_verify,
    "suspend-entropy": cmd_suspend_entropy,
    "suspend-orbit": cmd_suspend_orbit,
    "mixing-witness": cmd_mixing_witness,
    "dense-orbit": cmd_dense_orbit,
    "rotation-family": cmd_rotation_family,
    "pattern": cmd_pattern,
    "horseshoe": cmd_horseshoe,
    "render": cmd_render,
}


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    if args.version:
        print(f"pseudosusp {__version__} (config format {CONFIG_FORMAT})")
        return EXIT_OK
    if args.list_fixtures:
        for name, desc in list_fixtures():
            print(f"{name}: {desc}")
        return EXIT_OK
    if not args.command:
        ap.print_help()
        return EXIT_CONFIG
    try:
        cfg = None
        if args.command != "pattern":
            overrides = list(args.override)
            if args.command == "horseshoe":
                overrides += [f"horseshoe.{key}={value}" for key, value
                              in (("k", args.k), ("depth", args.depth)) if value is not None]
            cfg = load_config(args.config, overrides, args.command)
        return HANDLERS[args.command](args, cfg)
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
