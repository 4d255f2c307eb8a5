"""INI-style run configuration.  `COMMANDS` declares, for each subcommand,
the sections it reads and each key's type, default and range; every parse
error names the failing section.key.  A file is read as UTF-8.

Besides the reader, this module holds only what several layers read:
`parse_fractions`, `parse_map` and the exact speed `_speed` of `map.map`.
Each section builder lives in the layer whose objects it builds
(`annulus.build_map`, `cantor.build_cantor`, `tower.build_stages`,
`chains.build_plmap` and `chains.build_interval_chain`), so every launch
compiles only the builders it calls.  This module imports only the
standard library, and `pl` when a map is parsed."""

from __future__ import annotations

import configparser
import math
from fractions import Fraction
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:
    from .pl import PL


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


def _declaring(declaration: dict, section: str) -> Optional[str]:
    """The name in `declaration` that declares [section]: the section's own,
    or 'prefix N' for a [prefix N]; None if there is neither."""
    if section in declaration:
        return section
    numbered = section.rstrip("0123456789").rstrip() + " N"
    return numbered if numbered in declaration else None


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
        keys = dict(self.declaration[_declaring(self.declaration, section)])
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
    its declared sections checked for unknown keys.  An override of a
    section that `command` does not declare is refused; such a section of
    the file is ignored.  Values are literal: no key interpolates `%`."""
    parser = configparser.ConfigParser(interpolation=None)
    if path is not None:
        try:
            read = parser.read(path, encoding="utf-8")
        except configparser.Error as exc:
            raise ConfigError(f"{path}: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not UTF-8 text ({exc.reason} at byte "
                              f"{exc.start})") from exc
        if not read:
            raise ConfigError(f"config file not found: {path}")
    for item in overrides or []:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ConfigError(f"override must look like section.key=value: {item!r}")
        target, value = item.split("=", 1)
        section, key = (part.strip() for part in target.split(".", 1))
        if _declaring(COMMANDS[command], section) is None:
            raise ConfigError(f"{section}.{key}: unknown section; {command} reads "
                              f"{', '.join(f'[{name}]' for name in COMMANDS[command])}")
        # the parser folds an override's key as it folds the file's keys
        parser.read_dict({section: {key: value.strip()}})
    cfg = RunConfig(parser, command)
    cfg.check()
    return cfg


# ---------------------------------------------------------------------------
# readers shared by several layers' builders
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
    and ("twist" or "reparam", an exact PL) in pipeline order, and the cover
    (q, p) around them all, or None."""
    from .pl import pl_check

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
            points = parse_fractions(args, f"map.map {name}", "x,y")
            try:
                pieces.append((name, pl_check(points)))
            except ValueError as exc:
                raise ConfigError(f"map.map: {name} {exc}") from exc
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



def _speed(cfg: RunConfig, command: str) -> PL:
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
