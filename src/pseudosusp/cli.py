"""Command-line entry point: every operation as a subcommand over an INI
config, emitting CSV/SVG artifacts with fixed schemas.

`SUBCOMMANDS` is the whole command line: each subcommand's handler, its
one-line help and the flags it takes.  `parse_args` reads it (`--flag value`
or `--flag=value`, no abbreviations) and `usage` prints it.

Exit codes: 0 success, 2 check/certificate failed, 3 config or usage error,
4 capacity error (an entropy scale below the resolution 2^-(W-2) of the
symbol window W).

Only `config` is imported here; each handler imports the layer it runs, so a
command loads no layer it does not use.
"""

from __future__ import annotations

import sys
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
    _write(path, text + "\n")


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _out_path(args, cfg: RunConfig) -> str:
    return args["out"] or cfg.get("experiment", "out")


def _suspension(cfg: RunConfig, command: str) -> SuspensionSystem:
    from .suspension import SuspensionSystem

    return SuspensionSystem(_speed(cfg, command), build_cantor(cfg), cfg.get("cantor", "window"))


def _speed(cfg: RunConfig, command: str):
    """The exact speed P of `map.map`, for a command that needs a map that
    fixes t and moves r by P(t): rotations and twists sum into P, and a
    cover q,p around them moves r by (P + p)/q.  A reparam moves t, which
    is a config error naming map.map."""
    from .pl import ONE, ZERO, pl_sum

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
    from .suspension import product_formula_report
    from .pl import HALF, pl_at

    sys_ = _suspension(cfg, "suspend-entropy")
    eps_list = cfg.get("experiment", "eps")
    n_list = cfg.get("experiment", "n")
    # the counts are exact; experiment.budget is only echoed in its column
    budget = cfg.get("experiment", "budget")
    # the rotation number of the orbit of t = 1/2, which the counts follow
    alpha = float(pl_at(sys_.speed, HALF))
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
        sys_ = _suspension(cfg, "mixing-witness")

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

        found = weak_mixing_witness(sys_, ball("u"), ball("v"), horizon)
    _write_csv(out, {"mode": "%s", "horizon": "%s", "found": BOOL, "l": "%s"},
               [(mode, horizon, found is not None, "" if found is None else found)])
    verdict = f"l={found}" if found is not None else "none within horizon"
    print(f"mixing-witness[{mode}]: {verdict} -> {out}")
    return EXIT_OK


def cmd_dense_orbit(args, cfg: RunConfig) -> int:
    from .suspension import dense_orbit_check

    sys_ = _suspension(cfg, "dense-orbit")
    seed, eps, k_max, s_max, p_max = (cfg.get("dense", key)
                                      for key in ("seed", "eps", "k_max", "s_max", "p_max"))
    t = cfg.get("orbit", "t")
    cfg.get("orbit", "r")  # read so that a malformed r exits 3; the search needs only t
    c = sys_.h.random_point(seed, sys_.window)
    hit = dense_orbit_check(sys_, c, t, eps, k_max, s_max, p_max)
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
    pat = _kfold(args["kfold"], "--kfold")
    text = ",".join(str(v) for v in pat.values)
    if args["out"]:
        _write(args["out"], text + "\n")
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
    out = args["out"] or cfg.get("horseshoe", "out")
    # int true division rounds correctly, so each end is float(Fraction(end, scale))
    rows = [("-".join(map(str, word)), lo / cert.scale, hi / cert.scale)
            for word, (lo, hi) in sorted(cert.intervals.items())]
    _write_csv(out, {"word": "%s", "lo": FLOAT, "hi": FLOAT}, rows)
    print(cert.summary() + f" -> {out}")
    return EXIT_OK if cert.passed else EXIT_CHECK


def cmd_render(args, cfg: RunConfig) -> int:
    from .chains import ChainError
    from .covers import ChainCover, Rect, essential_seven_chain, refine_chain, render_chains

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
    out = args["out"] or "chains.svg"
    _write(out, render_chains(levels))
    counts = "/".join(str(len(lv.links)) for lv in levels)
    print(f"render: {len(levels)} level(s) with {counts or '0'} links -> {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

def list_fixtures() -> list[tuple[str, str]]:
    from importlib import resources

    out = []
    for entry in sorted(resources.files("pseudosusp.fixtures").iterdir()):
        if entry.name.endswith(".ini"):
            first = entry.read_text(encoding="utf-8").splitlines()[0]
            desc = first.lstrip("; #").strip() if first.startswith((";", "#")) else ""
            out.append((entry.name, desc))
    return out


def fixture_path(name: str) -> str:
    from importlib import resources

    return str(resources.files("pseudosusp.fixtures") / name)


class UsageError(Exception):
    """A command line that `SUBCOMMANDS` does not allow; exit 3."""


# each flag of a subcommand -> the argument it sets
COMMON = {"-c": "config", "--config": "config", "--out": "out", "--override": "override"}

# name -> (handler, help, flags)
SUBCOMMANDS = {
    "rotation": (cmd_rotation, "rotation-number estimate sequence", COMMON),
    "rigidity": (cmd_rigidity, "near-identity return times of a map", COMMON),
    "hak-verify": (cmd_hak_verify, "verify the staged approximation conditions", COMMON),
    "suspend-entropy": (cmd_suspend_entropy, "entropy bracket on the suspension", COMMON),
    "suspend-orbit": (cmd_suspend_orbit, "suspension orbit with winding bookkeeping", COMMON),
    "mixing-witness": (cmd_mixing_witness, "weak-mixing witness search", COMMON),
    "dense-orbit": (cmd_dense_orbit, "dense-orbit condition search", COMMON),
    "rotation-family": (cmd_rotation_family, "injective rotation-number family", COMMON),
    "pattern": (cmd_pattern, "print a k-fold pattern", {"--kfold": "kfold", "--out": "out"}),
    "horseshoe": (cmd_horseshoe, "itinerary certificate for a PL map",
                  {"--map": "config", "--k": "k", "--depth": "depth", "--out": "out",
                   "--override": "override"}),
    "render": (cmd_render, "render nested chains to SVG",
               {"--levels": "config", "--out": "out", "--override": "override"}),
}
INTEGERS = ("k", "depth", "kfold")
METAVARS = {"config": "INI", "out": "PATH", "override": "SEC.KEY=VAL", "k": "K",
            "depth": "N", "kfold": "K"}


def _required(command: str) -> str:
    return "kfold" if command == "pattern" else "config"


def _spellings(flags: dict[str, str], arg: str) -> str:
    return "/".join(flag for flag, name in flags.items() if name == arg)


def parse_args(argv: list[str]) -> tuple[str, dict]:
    """The subcommand and its arguments, each None where its flag is absent
    and `override` the list of every --override value in order.  A flag
    takes the next word or the text after its `=`; a later flag replaces an
    earlier one.  Raises UsageError naming the word at fault."""
    if not argv or argv[0] not in SUBCOMMANDS:
        got = f"unknown subcommand {argv[0]!r}" if argv else "no subcommand"
        raise UsageError(f"{got}; pseudosusp -h lists the subcommands")
    command, words = argv[0], iter(argv[1:])
    flags = SUBCOMMANDS[command][2]
    args = {arg: [] if arg == "override" else None for arg in flags.values()}
    for word in words:
        flag, eq, value = word.partition("=")
        if flag not in flags:
            raise UsageError(f"{command} takes no {word!r}")
        if not eq:
            value = next(words, None)
            if value is None or value.partition("=")[0] in flags:
                raise UsageError(f"{flag} needs a value")
        arg = flags[flag]
        if arg in INTEGERS:
            try:
                value = int(value)
            except ValueError:
                raise UsageError(f"{flag} needs an integer, got {value!r}") from None
        if arg == "override":
            args[arg].append(value)
        else:
            args[arg] = value
    if args[_required(command)] is None:
        raise UsageError(f"{command} needs {_spellings(flags, _required(command))}")
    return command, args


def usage(commands) -> str:
    """The usage of the named subcommands, from their entries in SUBCOMMANDS."""
    lines = ["usage: pseudosusp [-h | --version | --list-fixtures]",
             "       pseudosusp SUBCOMMAND [-h] FLAGS", "",
             "suspension-quotient dynamics laboratory", "", "subcommands:"]
    for command in commands:
        _, summary, flags = SUBCOMMANDS[command]
        words = []
        for arg in dict.fromkeys(flags.values()):
            word = f"{_spellings(flags, arg)} {METAVARS[arg]}"
            words.append(word if arg == _required(command) else f"[{word}]")
        lines += [f"  {command:<16}{summary}", f"  {'':<16}{' '.join(words)}"]
    lines += ["", "A flag takes its value as the next word or as --flag=VALUE.",
              "--override may be given more than once; of any other flag the last counts."]
    return "\n".join(lines)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv[:1] == ["--version"]:
        print(f"pseudosusp {__version__} (config format {CONFIG_FORMAT})")
        return EXIT_OK
    if argv[:1] == ["--list-fixtures"]:
        for name, desc in list_fixtures():
            print(f"{name}: {desc}")
        return EXIT_OK
    if "-h" in argv or "--help" in argv:
        print(usage(argv[:1] if argv[0] in SUBCOMMANDS else SUBCOMMANDS))
        return EXIT_OK
    try:
        command, args = parse_args(argv)
        cfg = None
        if command != "pattern":
            # only horseshoe takes --k and --depth
            overrides = args["override"] + [f"horseshoe.{key}={args[key]}"
                                            for key in ("k", "depth") if args.get(key) is not None]
            cfg = load_config(args["config"], overrides, command)
        # called through the module's name, so that a wrapper bound over the
        # module attribute (a profiler's or a tracer's) sees the call
        return globals()[SUBCOMMANDS[command][0].__name__](args, cfg)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
