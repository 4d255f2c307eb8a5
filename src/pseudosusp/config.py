"""INI-style run configuration: sections [map], [cantor], [stage *],
[experiment] and per-subcommand blocks.  Every parse error names the failing
section.key.

This module imports only the standard library: each builder imports the
layer it builds from when it is called, so a command loads only the layers
it runs."""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field
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
    """Windings would outrun the metric window; construct with a larger W."""


@dataclass
class RunConfig:
    parser: configparser.ConfigParser
    path: str = "<none>"
    overrides: dict = field(default_factory=dict)

    def has(self, section: str, key: str) -> bool:
        if (section, key) in self.overrides:
            return True
        return self.parser.has_option(section, key)

    def sections(self) -> set[str]:
        """The sections of the file and of the overrides."""
        return set(self.parser.sections()) | {section for section, _ in self.overrides}

    def check_keys(self, section: str, known: set[str]) -> None:
        """Refuse a key of `section`, from the file or an override, that no
        reader of the section reads."""
        keys = {key for sec, key in self.overrides if sec == section}
        if self.parser.has_section(section):
            keys.update(self.parser.options(section))
        unknown = sorted(keys - known)
        if unknown:
            raise ConfigError(f"{section}.{unknown[0]}: unknown key; [{section}] takes "
                              f"{', '.join(sorted(known))}")

    def raw(self, section: str, key: str, default=None, required: bool = False):
        if (section, key) in self.overrides:
            return self.overrides[(section, key)]
        if self.parser.has_option(section, key):
            return self.parser.get(section, key)
        if required:
            raise ConfigError(f"missing required key {section}.{key}")
        return default

    def _typed(self, caster, kind, section, key, default, required):
        raw = self.raw(section, key, None, required)
        if raw is None:
            return default
        try:
            return caster(raw)
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"{section}.{key} is not a valid {kind}: {raw!r}") from exc

    def get_int(self, section, key, default=None, required=False) -> Optional[int]:
        return self._typed(int, "integer", section, key, default, required)

    def get_float(self, section, key, default=None, required=False) -> Optional[float]:
        return self._typed(_finite, "number", section, key, default, required)

    def get_fraction(self, section, key, default=None, required=False) -> Optional[Fraction]:
        return self._typed(Fraction, "fraction", section, key, default, required)

    def get_interval(self, section, key, default=None, required=False) -> Optional[tuple]:
        def cast(raw):
            lo, hi = raw.split(",")
            return Fraction(lo), Fraction(hi)
        return self._typed(cast, "'lo,hi' pair", section, key, default, required)

    def get_floats(self, section, key, default=None, required=False) -> Optional[list[float]]:
        def cast(raw):
            return [_finite(x) for x in raw.replace(";", ",").split(",") if x.strip()]
        return self._typed(cast, "number list", section, key, default, required)

    def get_ints(self, section, key, default=None, required=False) -> Optional[list[int]]:
        def cast(raw):
            return [int(x) for x in raw.replace(";", ",").split(",") if x.strip()]
        return self._typed(cast, "integer list", section, key, default, required)


def _finite(raw: str) -> float:
    """float(raw); ValueError for nan and the infinities, which no key takes."""
    x = float(raw)
    if not math.isfinite(x):
        raise ValueError(f"{raw!r} is not finite")
    return x


def load_config(path: Optional[str], overrides: Optional[list[str]] = None) -> RunConfig:
    parser = configparser.ConfigParser()
    if path is not None:
        try:
            read = parser.read(path)
        except configparser.Error as exc:
            raise ConfigError(f"{path}: {exc}") from exc
        if not read:
            raise ConfigError(f"config file not found: {path}")
    cfg = RunConfig(parser, path or "<none>")
    for item in overrides or []:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ConfigError(f"override must look like section.key=value: {item!r}")
        target, value = item.split("=", 1)
        section, key = target.split(".", 1)
        cfg.overrides[(section.strip(), key.strip())] = value.strip()
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


def parse_map(cfg: RunConfig) -> tuple[str, list[tuple[str, object]], Optional[tuple[int, int]]]:
    """`map.map` checked and parsed once: the raw string, the exact pieces
    ("rotation", beta) and ("twist" or "reparam", (x, y) breakpoints) in
    pipeline order, and the cover (q, p) around them all, or None."""
    raw = cfg.raw("map", "map", required=True)
    pieces: list[tuple[str, object]] = []
    cover = None
    for stage in raw.split("|"):
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
    return raw, pieces, cover


def build_map(cfg: RunConfig) -> LiftedAnnulusMap:
    from .annulus import (LiftedAnnulusMap, Profile, RadialReparam, RigidRotation, Twist,
                          cover_lift)

    raw, pieces, cover = parse_map(cfg)
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
    m = LiftedAnnulusMap(tuple(pipeline), label=raw)
    return m if cover is None else cover_lift(m, *cover)


def build_cantor(cfg: RunConfig) -> CantorSystem:
    from .cantor import FullShift, Odometer, SFT, Substitution

    kind = (cfg.raw("cantor", "kind", required=True) or "").strip().lower()
    if kind == "fullshift":
        system, args, key = FullShift, (cfg.get_int("cantor", "k", required=True),), "k"
    elif kind == "sft":
        k = cfg.get_int("cantor", "k", required=True)
        raw = cfg.raw("cantor", "adjacency", required=True)
        try:
            rows = tuple(tuple(int(x) for x in row.split(",")) for row in raw.split(";"))
        except ValueError as exc:
            raise ConfigError(f"cantor.adjacency must be ';'-separated rows of "
                              f"integers, got {raw!r}") from exc
        system, args, key = SFT, (k, rows), "adjacency"
    elif kind == "substitution":
        raw = cfg.raw("cantor", "rules", required=True)
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
    elif kind == "odometer":
        bases = tuple(cfg.get_ints("cantor", "bases", required=True))
        system, args, key = Odometer, (bases,), "bases"
    else:
        raise ConfigError(f"cantor.kind: unknown kind {kind!r}")
    try:
        return system(*args)
    except ValueError as exc:
        raise ConfigError(f"cantor.{key}: {exc}") from exc


STAGE_KEYS = {"eps", "band", "rot", "alpha", "q", "support"}


def build_stages(cfg: RunConfig) -> list[HAKStage]:
    """The [stage N] sections in the order of N, every value exact."""
    from .tower import HAKStage

    numbered: dict[int, str] = {}
    for name in sorted(s for s in cfg.sections() if s.startswith("stage")):
        number = name[len("stage"):].strip()
        if not number.isdigit():
            raise ConfigError(f"[{name}]: a stage section is named 'stage N', N a whole number")
        n = int(number)
        if n in numbered:
            raise ConfigError(f"[{name}]: stage {n} is already [{numbered[n]}]")
        numbered[n] = name
    if not numbered:
        raise ConfigError("no [stage *] sections found")
    stages = []
    for n, name in sorted(numbered.items()):
        cfg.check_keys(name, STAGE_KEYS)
        stages.append(HAKStage(
            n=n,
            eps=cfg.get_fraction(name, "eps", required=True),
            band=cfg.get_interval(name, "band", required=True),
            rot=cfg.get_fraction(name, "rot", required=True),
            alpha=cfg.get_fraction(name, "alpha", required=True),
            q=cfg.get_int(name, "q", required=True),
            support=cfg.get_interval(name, "support"),
        ))
    return stages


def build_plmap(cfg: RunConfig, section: str = "plmap") -> PLMap:
    from .chains import PLMap

    key = f"{section}.breakpoints"
    pts = parse_fractions(cfg.raw(section, "breakpoints", required=True), key, "x,y")
    try:
        return PLMap(tuple(pts))
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from exc


def build_interval_chain(cfg: RunConfig, section: str = "chain") -> IntervalChain:
    from .chains import IntervalChain

    links = parse_fractions(cfg.raw(section, "links", required=True),
                            f"{section}.links", "lo,hi")
    return IntervalChain(tuple(links))
