"""INI-style run configuration.  `COMMANDS` declares, for each subcommand,
the sections it reads and each key's type, default and range; every parse
error names the failing section.key.

This module imports only the standard library: each builder imports the
layer it builds from when it is called, so a command loads only the layers
it runs."""

from __future__ import annotations

import configparser
import math
from fractions import Fraction
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:
    from .annulus import LiftedAnnulusMap
    from .cantor import CantorSystem
    from .chains import IntervalChain, PLMap
    from .tower import HAKStage


class ConfigError(ValueError):
    """Bad or missing configuration value; message names section.key."""


class CapacityError(RuntimeError):
    """An entropy scale below the window's resolution 2^-(W-2); construct
    with a larger W."""


def _finite(raw: str) -> float:
    """float(raw); ValueError for nan and the infinities, which no key takes."""
    x = float(raw)
    if not math.isfinite(x):
        raise ValueError(f"{raw!r} is not finite")
    return x


def _items(raw: str, parse) -> list:
    """The ','- or ';'-separated values of a nonempty list."""
    values = [parse(x) for x in raw.replace(";", ",").split(",") if x.strip()]
    if not values:
        raise ValueError("empty list")
    return values


def _pair(raw: str) -> tuple[Fraction, Fraction]:
    lo, hi = (Fraction(x) for x in raw.split(","))
    if lo > hi:
        raise ValueError("lo above hi")
    return lo, hi


def _bits(raw: str) -> tuple[int, ...]:
    if not raw or set(raw) - {"0", "1"}:
        raise ValueError("not a nonempty 0/1 word")
    return tuple(int(ch) for ch in raw)


# a key's type names its parser here
PARSERS = {"string": str, "integer": int, "number": _finite, "fraction": Fraction,
           "'lo,hi' pair": _pair, "0/1 word": _bits,
           "integer list": lambda raw: _items(raw, int),
           "number list": lambda raw: _items(raw, _finite),
           "matrix": lambda raw: tuple(tuple(int(x) for x in row.split(","))
                                       for row in raw.split(";"))}

# The sections each subcommand reads, and each section's keys.  A key is
# (type, default) or (type, default, range).  The type is a name in PARSERS,
# or a dict of the values the key takes, each with the further keys of its
# section that the value brings.  The default is written as in the file, or
# is REQUIRED, or None for an optional key with no value.  A range is an
# interval that every number of the value lies in.  "stage N" declares
# every [stage N].
REQUIRED = ...
MAP = {"map": ("string", REQUIRED)}
CANTOR = {"kind": ({"fullshift": {"k": ("integer", REQUIRED)},
                    "sft": {"k": ("integer", REQUIRED), "adjacency": ("matrix", REQUIRED)},
                    "substitution": {"rules": ("string", REQUIRED)},
                    "odometer": {"bases": ("integer list", REQUIRED)}}, REQUIRED),
          "window": ("integer", "32", "[1, inf)")}
ORBIT = {"t": ("number", "0.5", "[0, 1]"), "r": ("number", "0.0")}
COMMANDS = {
    "rotation": {"map": MAP, "orbit": ORBIT, "experiment": {
        "n": ("integer", "1024", "[1, inf)"), "out": ("string", "rotation.csv")}},
    "rigidity": {"map": MAP, "experiment": {
        "horizon": ("integer", REQUIRED, "[1, inf)"), "eps": ("fraction", REQUIRED, "(0, inf)"),
        "band": ("'lo,hi' pair", "0,1", "[0, 1]"), "out": ("string", "rigidity.csv")}},
    # the tower checks the stage values against each other, naming the key
    "hak-verify": {"stage N": {
        "eps": ("fraction", REQUIRED), "band": ("'lo,hi' pair", REQUIRED),
        "rot": ("fraction", REQUIRED), "alpha": ("fraction", REQUIRED),
        "q": ("integer", REQUIRED), "support": ("'lo,hi' pair", None)},
        "hak": {"tail": ("fraction", "0")}, "experiment": {"out": ("string", "hak_verify.csv")}},
    # experiment.seed here and orbit.seed of suspend-orbit are read by
    # nothing, and stay declared for configs that still set them
    "suspend-entropy": {"map": MAP, "cantor": CANTOR, "experiment": {
        "seed": ("integer", REQUIRED), "eps": ("number list", REQUIRED, "(0, 1)"),
        "n": ("integer list", REQUIRED, "[1, inf)"), "budget": ("integer", "20000"),
        "out": ("string", "suspend_entropy.csv")}},
    "suspend-orbit": {"map": MAP, "orbit": {
        "seed": ("integer", REQUIRED), **ORBIT, "n": ("integer", "32", "[0, inf)")},
        "experiment": {"out": ("string", "suspend_orbit.csv")}},
    # both modes' keys, so that an override may switch the mode; witness.cloud
    # and experiment.seed are read by nothing, and stay declared for configs
    # that still set them
    "mixing-witness": {"map": MAP, "cantor": CANTOR, "witness": {
        "mode": ({"symbolic": {}, "suspension": {}}, "suspension"),
        "horizon": ("integer", "64", "[1, inf)"), "u": ("string", REQUIRED),
        "v": ("string", REQUIRED), "u_radius": ("number", REQUIRED, "(0, inf)"),
        "v_radius": ("number", REQUIRED, "(0, inf)"), "cloud": ("integer", "64", "[1, inf)")},
        "experiment": {"seed": ("integer", REQUIRED), "out": ("string", "mixing_witness.csv")}},
    "dense-orbit": {"map": MAP, "cantor": CANTOR, "dense": {
        "seed": ("integer", REQUIRED), "eps": ("number", REQUIRED, "(0, inf)"),
        "k_max": ("integer", "4", "[1, inf)"), "s_max": ("integer", "4", "[1, inf)"),
        "p_max": ("integer", "256", "[1, inf)")},
        "orbit": ORBIT, "experiment": {"out": ("string", "dense_orbit.csv")}},
    "rotation-family": {"family": {
        "bits": ("0/1 word", REQUIRED), "eps": ("number", REQUIRED, "(0, inf)")},
        "experiment": {"out": ("string", "rotation_family.csv")}},
    "horseshoe": {"plmap": {"breakpoints": ("string", REQUIRED)},
                  "chain": {"links": ("string", REQUIRED)}, "horseshoe": {
        "k": ("integer", REQUIRED), "depth": ("integer", "5", "[0, inf)"),
        "mbound": ("integer", "8", "[1, inf)"), "out": ("string", "horseshoe.csv")}},
    "render": {"level N": {
        "links": ("string", REQUIRED), "essential": ({"true": {}, "false": {}}, "false")},
        "render": {"base": ({"essential7": {}}, "essential7"),
                   "levels": ("integer", "1", "[1, inf)"), "pattern": ("string", "kfold:3")}},
}


def parse(key: str, raw: str, kind):
    """`raw` read as `kind`, a name in PARSERS or a dict of the values the
    key takes (in any case); a ConfigError names `key`."""
    if isinstance(kind, dict):
        value = raw.strip().lower()
        if value not in kind:
            raise ConfigError(f"{key} must be one of {', '.join(kind)}, got {raw!r}")
        return value
    try:
        return PARSERS[kind](raw)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"{key} is not a valid {kind}: {raw!r}") from exc


def _in(value, interval: str) -> bool:
    lo, hi = (float(end) for end in interval[1:-1].split(","))
    return ((lo < value if interval[0] == "(" else lo <= value)
            and (value < hi if interval[-1] == ")" else value <= hi))


class RunConfig:
    """A config with its overrides applied, read through one subcommand's
    declaration in COMMANDS."""

    def __init__(self, parser: configparser.ConfigParser, command: str):
        self.parser = parser
        self.declaration = COMMANDS[command]

    def numbered(self, prefix: str) -> list[tuple[int, str]]:
        """The [prefix N] sections as (N, name) in the order of N.  A section
        whose name starts with `prefix` but is not `prefix N`, N a whole
        number, or that repeats an N, is a ConfigError."""
        found: dict[int, str] = {}
        for name in sorted(s for s in self.parser.sections() if s.startswith(prefix)):
            number = name[len(prefix):].strip()
            if not (number.isascii() and number.isdigit()):
                raise ConfigError(f"[{name}]: a {prefix} section is named '{prefix} N', "
                                  f"N a whole number")
            if int(number) in found:
                raise ConfigError(f"[{name}]: {prefix} {int(number)} is already "
                                  f"[{found[int(number)]}]")
            found[int(number)] = name
        return sorted(found.items())

    def declared(self, section: str) -> dict:
        """The keys [section] takes, with those its keys' values bring."""
        name = section if section in self.declaration else (
            section.rstrip("0123456789").rstrip() + " N")
        keys = dict(self.declaration[name])
        for key, spec in list(keys.items()):
            if isinstance(spec[0], dict):
                keys.update(spec[0][self._read(section, key, spec)])
        return keys

    def check(self) -> None:
        """Refuse a key that it does not take in every declared section the
        config holds, [prefix N] ones included, whether or not the command
        goes on to read the section."""
        for declared in self.declaration:
            if declared.endswith(" N"):
                sections = [name for _, name in self.numbered(declared[:-2])]
            else:
                sections = [declared] if self.parser.has_section(declared) else []
            for section in sections:
                keys = self.declared(section)
                unknown = sorted(set(self.parser.options(section)) - keys.keys())
                if unknown:
                    raise ConfigError(f"{section}.{unknown[0]}: unknown key; [{section}] "
                                      f"takes {', '.join(sorted(keys))}")

    def get(self, section: str, key: str):
        """The value of section.key, parsed, range-checked and defaulted as
        declared."""
        return self._read(section, key, self.declared(section)[key])

    def _read(self, section: str, key: str, spec: tuple):
        kind, default, *interval = spec
        if self.parser.has_option(section, key):
            raw = self.parser.get(section, key)
        elif default is REQUIRED:
            raise ConfigError(f"missing required key {section}.{key}")
        elif default is None:
            return None
        else:
            raw = default
        value = parse(f"{section}.{key}", raw, kind)
        for x in value if isinstance(value, (list, tuple)) else [value]:
            if interval and not _in(x, interval[0]):
                raise ConfigError(f"{section}.{key} must lie in {interval[0]}, got {x}")
        return value


def load_config(path: Optional[str], overrides: Optional[list[str]], command: str) -> RunConfig:
    """The config at `path` with `overrides` applied, as `command` reads it,
    its declared sections checked for unknown keys.  Values are literal: no
    key interpolates `%`."""
    parser = configparser.ConfigParser(interpolation=None)
    if path is not None:
        try:
            read = parser.read(path)
        except configparser.Error as exc:
            raise ConfigError(f"{path}: {exc}") from exc
        if not read:
            raise ConfigError(f"config file not found: {path}")
    for item in overrides or []:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ConfigError(f"override must look like section.key=value: {item!r}")
        target, value = item.split("=", 1)
        section, key = target.split(".", 1)
        # the parser folds an override's key as it folds the file's keys
        parser.read_dict({section.strip(): {key.strip(): value.strip()}})
    cfg = RunConfig(parser, command)
    cfg.check()
    return cfg


# ---------------------------------------------------------------------------
# section builders
# ---------------------------------------------------------------------------

def parse_fractions(raw: str, key: str, fields: str) -> list[tuple[Fraction, ...]]:
    """';'-separated entries of exact fractions, each shaped like `fields`
    (for example 'x,y').  Errors raise ConfigError naming `key`."""
    width = len(fields.split(","))
    entries = []
    for chunk in raw.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(",")
        if len(parts) != width:
            raise ConfigError(f"{key}: entry {chunk!r} is not '{fields}'")
        try:
            entries.append(tuple(Fraction(part) for part in parts))
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"{key}: bad fraction in entry {chunk!r}") from exc
    return entries


def parse_map(cfg: RunConfig) -> tuple[list[tuple[str, object]], Optional[tuple[int, int]]]:
    """`map.map` checked and parsed once: the exact pieces ("rotation", beta)
    and ("twist" or "reparam", (x, y) breakpoints) in pipeline order, and
    the cover (q, p) around them all, or None."""
    pieces: list[tuple[str, object]] = []
    cover = None
    for stage in cfg.get("map", "map").split("|"):
        stage = stage.strip()
        if not stage:
            continue
        if ":" not in stage:
            raise ConfigError(f"map.map: primitive {stage!r} needs 'name:args'")
        name, args = stage.split(":", 1)
        name = name.strip().lower()
        if name == "rotation":
            try:
                pieces.append((name, Fraction(args.strip())))
            except (ValueError, ZeroDivisionError) as exc:
                raise ConfigError(f"map.map: bad rotation {args!r}") from exc
        elif name in ("twist", "reparam"):
            points = tuple(parse_fractions(args, f"map.map {name}", "x,y"))
            xs = [x for x, _ in points]
            if (len(xs) < 2 or xs[0] != 0 or xs[-1] != 1
                    or any(b <= a for a, b in zip(xs, xs[1:]))):
                raise ConfigError(f"map.map: {name} breakpoints must increase from 0 to 1")
            pieces.append((name, points))
        elif name == "cover":
            if cover is not None:
                raise ConfigError(f"map.map: a second cover {args!r}; one wraps the pipeline")
            try:
                q, p = (int(x) for x in args.split(","))
            except ValueError as exc:
                raise ConfigError(f"map.map: cover needs integers 'q,p', got {args!r}") from exc
            if q < 1:
                raise ConfigError("map.map: cover degree q must be an integer >= 1")
            cover = (q, p)
        else:
            raise ConfigError(f"map.map: unknown primitive {name!r}")
    return pieces, cover


def build_map(cfg: RunConfig) -> LiftedAnnulusMap:
    from .annulus import (LiftedAnnulusMap, Profile, RadialReparam, RigidRotation, Twist,
                          cover_lift)

    pieces, cover = parse_map(cfg)
    pipeline = []
    for name, value in pieces:
        if name == "rotation":
            pipeline.append(RigidRotation(float(value)))
            continue
        try:
            profile = Profile(tuple((float(x), float(y)) for x, y in value))
            pipeline.append(Twist(profile) if name == "twist" else RadialReparam(profile))
        except ValueError as exc:
            raise ConfigError(f"map.map: {name} {exc}") from exc
    m = LiftedAnnulusMap(tuple(pipeline))
    return m if cover is None else cover_lift(m, *cover)


def build_cantor(cfg: RunConfig) -> CantorSystem:
    from .cantor import FullShift, Odometer, SFT

    kind = cfg.get("cantor", "kind")
    if kind == "fullshift":
        system, args, key = FullShift, (cfg.get("cantor", "k"),), "k"
    elif kind == "sft":
        system, args = SFT, (cfg.get("cantor", "k"), cfg.get("cantor", "adjacency"))
        key = "adjacency"
    elif kind == "substitution":
        from .substitution import Substitution

        raw = cfg.get("cantor", "rules")
        rules: dict[int, tuple[int, ...]] = {}
        for part in raw.split(";"):
            part = part.strip()
            if not part:
                continue
            try:
                sym, word = part.split(":")
                rules[int(sym)] = tuple(int(ch) for ch in word.strip())
            except ValueError as exc:
                raise ConfigError(f"cantor.rules: entry {part!r} is not "
                                  f"'symbol:digits'") from exc
        system, args, key = Substitution, (tuple(rules[i] for i in sorted(rules)),), "rules"
    else:
        system, args, key = Odometer, (tuple(cfg.get("cantor", "bases")),), "bases"
    try:
        return system(*args)
    except ValueError as exc:
        raise ConfigError(f"cantor.{key}: {exc}") from exc


def build_stages(cfg: RunConfig) -> list[HAKStage]:
    """The [stage N] sections in the order of N, every value exact."""
    from .tower import HAKStage

    sections = cfg.numbered("stage")
    if not sections:
        raise ConfigError("no [stage *] sections found")
    return [HAKStage(n=n, **{key: cfg.get(name, key) for key in cfg.declared(name)})
            for n, name in sections]


def build_plmap(cfg: RunConfig) -> PLMap:
    from .chains import PLMap

    pts = parse_fractions(cfg.get("plmap", "breakpoints"), "plmap.breakpoints", "x,y")
    try:
        return PLMap(tuple(pts))
    except ValueError as exc:
        raise ConfigError(f"plmap.breakpoints: {exc}") from exc


def build_interval_chain(cfg: RunConfig) -> IntervalChain:
    from .chains import IntervalChain

    links = parse_fractions(cfg.get("chain", "links"), "chain.links", "lo,hi")
    try:
        return IntervalChain(tuple(links))
    except ValueError as exc:
        raise ConfigError(f"chain.links: {exc}") from exc
