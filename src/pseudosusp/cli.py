"""Command-line entry point: every operation as a subcommand over an INI
config, emitting CSV/SVG artifacts with fixed schemas.

`SUBCOMMANDS` is the whole command line: each subcommand's module, its
one-line help and the flags it takes.  `parse_args` reads it (`--flag value`
or `--flag=value`, no abbreviations) and `usage` prints it.

Exit codes: 0 success, 2 check/certificate failed, 3 config or usage error
(an output path that cannot be written among them), 4 capacity error (an
entropy scale below the resolution 2^-(W-2) of the symbol window W).

This module holds the shared driver and the artifact writers, and imports
only `config`.  Each subcommand's handler `cmd_<name>` lives in the layer it
runs, and `main` imports that layer when it calls the handler, so a launch
compiles no handler and loads no layer that it does not run.
"""

from __future__ import annotations

import importlib
import sys

from . import __version__
from .config import CapacityError, ConfigError, RunConfig, load_config

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
    """Write every artifact: a path that cannot be written is a config
    error naming it."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror}") from exc


def _out_path(args, cfg: RunConfig) -> str:
    return args["out"] or cfg.get("experiment", "out")


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

# name -> (module, help, flags); the module holds the handler cmd_<name>,
# its '-' written '_'
SUBCOMMANDS = {
    "rotation": ("annulus", "rotation-number estimate sequence", COMMON),
    "rigidity": ("tower", "near-identity return times of a map", COMMON),
    "hak-verify": ("tower", "verify the staged approximation conditions", COMMON),
    "suspend-entropy": ("suspension", "entropy bracket on the suspension", COMMON),
    "suspend-orbit": ("annulus", "suspension orbit with winding bookkeeping", COMMON),
    "mixing-witness": ("suspension", "weak-mixing witness search", COMMON),
    "dense-orbit": ("suspension", "dense-orbit condition search", COMMON),
    "rotation-family": ("annulus", "injective rotation-number family", COMMON),
    "pattern": ("chains", "print a k-fold pattern", {"--kfold": "kfold", "--out": "out"}),
    "horseshoe": ("chains", "itinerary certificate for a PL map",
                  {"--map": "config", "--k": "k", "--depth": "depth", "--out": "out",
                   "--override": "override"}),
    "render": ("covers", "render nested chains to SVG",
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
        # looked up on the module at call time, so that a wrapper bound over
        # the module attribute (a profiler's or a tracer's) sees the call
        module = importlib.import_module("." + SUBCOMMANDS[command][0], __package__)
        return getattr(module, "cmd_" + command.replace("-", "_"))(args, cfg)
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
