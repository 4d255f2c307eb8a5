"""Exit code and sha256 digests of every subcommand on every shipped fixture,
for comparing the artifacts of two source trees:

    python tests/artifact_digests.py path/to/src [EXTRA.ini ...] > digests.txt
    diff parent.txt change.txt

Every config subcommand runs on every fixture of the tree and on each EXTRA
file, `pattern` on a few K, then the override cases in `OVERRIDES` and
the command lines in `USAGE`.
Each case runs in-process through `pseudosusp.cli.main`, inside a temporary
directory that holds copies of the configs and the artifact, so no printed
path depends on where the tree lies; nothing is written elsewhere.  One line
per case:

    <case> exit=<code> stdout=<sha256> stderr=<sha256> artifact=<sha256 or ->

An exception that escapes `main` reads as exit 1 with its type and message
on stderr (not the traceback, whose paths name the tree), and a warning as
its category and message."""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import shutil
import sys
import tempfile
import warnings
from pathlib import Path

CONFIG_COMMANDS = ["rotation", "rigidity", "hak-verify", "suspend-entropy", "suspend-orbit",
                   "mixing-witness", "dense-orbit", "rotation-family"]
FLAGS = {"horseshoe": "--map", "render": "--levels"}
KFOLDS = [1, 2, 3, 4, 5, 7]

# (subcommand, fixture, overrides): inputs whose outputs a change to the
# Cantor systems, to the checks of numbers or to the declared keys can move
OVERRIDES = [
    ("dense-orbit", "dense_demo.ini", ["dense.eps=0.1", "dense.p_max=3000"]),
    ("dense-orbit", "dense_demo.ini", ["dense.eps=nan"]),
    ("dense-orbit", "dense_demo.ini", ["orbit.t=1.5"]),
    ("suspend-orbit", "orbit_demo.ini", ["orbit.r=nan"]),
    ("suspend-orbit", "orbit_demo.ini", ["orbit.t=-0.5"]),
    ("suspend-orbit", "orbit_demo.ini", ["orbit.r=inf"]),
    ("rotation", "rotation_demo.ini", ["orbit.t=2"]),
    ("mixing-witness", "witness_fullshift.ini", ["witness.u_radius=nan"]),
    ("mixing-witness", "witness_fullshift.ini", ["witness.u=0.5,0.1,nan"]),
    ("mixing-witness", "witness_fullshift.ini", ["witness.u=1.5,0.1,3"]),
    ("mixing-witness", "witness_fullshift.ini", ["witness.u=0.5,0.1,3.7"]),
    ("mixing-witness", "witness_fullshift.ini", ["witness.v=-0.1,0.1,3"]),
    ("mixing-witness", "witness_fullshift.ini", ["cantor.k=3"]),
    ("mixing-witness", "witness_fullshift.ini", ["cantor.k=1"]),
    ("mixing-witness", "golden_mean.ini", ["map.map=rotation:0.5", "witness.mode=suspension",
                                           "witness.u=0.5,0.1,3",
                                           "witness.v=0.5,0.4,5", "witness.u_radius=0.3",
                                           "witness.v_radius=0.3", "experiment.seed=1"]),
    ("suspend-entropy", "entropy_unit.ini", ["experiment.eps=nan"]),
    ("suspend-entropy", "entropy_unit.ini", ["cantor.k=3"]),
    ("rigidity", "rigidity_golden.ini", ["experiment.eps=inf"]),
    ("rigidity", "rigidity_golden.ini", ["map.map=twist:0,0;0.37,0.2;1,0",
                                         "experiment.horizon=2", "experiment.eps=0.197"]),
    ("rigidity", "rigidity_golden.ini", ["map.map=rotation:0.1|cover:2,1",
                                         "experiment.horizon=40", "experiment.eps=0.06"]),
    ("rigidity", "rigidity_golden.ini", ["map.map=reparam:0,0;0.5,0.7;1,1"]),
    ("suspend-orbit", "orbit_demo.ini", ["map.map=rotation:0.1|cover:2,1|cover:3,0"]),
    ("mixing-witness", "golden_mean.ini", ["cantor.adjacency=2,1;1,0"]),
    ("mixing-witness", "golden_mean.ini", ["cantor.adjacency=1,-1;1,0"]),
    ("mixing-witness", "witness_fullshift.ini", ["witness.u=0.5,0.1,9007199254740993"]),
    ("dense-orbit", "dense_demo.ini", ["cantor.k=3"]),
    ("mixing-witness", "witness_fullshift.ini", ["witness.horizn=9"]),
    ("mixing-witness", "golden_mean.ini", ["witness.Horizon=3"]),
    ("suspend-orbit", "orbit_demo.ini", ["cantor.bases=2,2"]),
    ("horseshoe", "tent_horseshoe.ini", ["horseshoe.dpth=1"]),
    # windings up to 11 past W = 8, and a scale below W = 8's resolution 2^-6
    ("suspend-entropy", "entropy_unit.ini", ["cantor.window=8"]),
    ("suspend-entropy", "entropy_unit.ini", ["cantor.window=8", "experiment.eps=0.001"]),
    # the odometer's first witness for [001] -> [11] is l = 3
    ("mixing-witness", "odometer_222.ini", ["witness.mode=symbolic", "witness.u=0,0,1",
                                            "witness.v=1,1", "witness.horizon=8"]),
    ("mixing-witness", "odometer_222.ini", ["witness.mode=symbolic", "witness.u=0,0,1",
                                            "witness.v=1,1", "witness.horizon=2"]),
    # symbolic misses on an SFT and on a substitution
    ("mixing-witness", "golden_mean.ini", ["witness.horizon=1"]),
    ("mixing-witness", "thue_morse.ini", ["witness.horizon=1"]),
    # V's ball is the whole space, while "H^l(U) meets U" still reads U's
    # cylinder
    ("mixing-witness", "witness_odometer.ini", ["witness.v_radius=1.5"]),
    # the suspension witness on a twist, on a cover and on a reparam, which
    # moves t; the witness reads the cover's exact speed, and an orbit runs
    # it through `DeckCover.apply`
    ("mixing-witness", "witness_fullshift.ini", ["map.map=twist:0,0.2;0.4,0.7;1,0.5"]),
    ("mixing-witness", "witness_fullshift.ini",
     ["map.map=rotation:0.2|twist:0,0;1,0.3|cover:2,1"]),
    ("mixing-witness", "witness_fullshift.ini", ["map.map=reparam:0,0;0.5,0.7;1,1"]),
    ("suspend-orbit", "orbit_demo.ini", ["map.map=rotation:0.2|twist:0,0;1,0.3|cover:2,1"]),
    # an orbit through `RadialReparam.apply`, and the entropy bracket on a
    # substitution
    ("suspend-orbit", "orbit_demo.ini", ["map.map=reparam:0,0;0.5,0.7;1,1|rotation:0.6"]),
    ("suspend-entropy", "thue_morse.ini", ["map.map=rotation:1.0", "experiment.seed=42",
                                           "experiment.eps=0.0625", "experiment.n=12"]),
    # the lower estimate reads neither the seed nor the window: the golden
    # mean at eps 1/8, n 12 at W = 8 and 32, and Thue-Morse at speed 1,
    # eps 1/8, n 6, where some eps-cylinders hold more classes than any
    # eps/2-cylinder
    *(("suspend-entropy", "entropy_unit.ini",
       ["cantor.kind=sft", "cantor.adjacency=1,1;1,0", "experiment.eps=0.125",
        f"cantor.window={window}"]) for window in (8, 32)),
    ("suspend-entropy", "thue_morse.ini", ["map.map=rotation:1.0", "experiment.seed=7",
                                           "experiment.eps=0.125", "experiment.n=6"]),
    # a [cantor] key of another kind, in a command that declares [cantor]
    ("suspend-entropy", "entropy_unit.ini", ["cantor.bases=2,2"]),
    # orbits long enough for float drift to show: the benchmark's shape,
    # then a rotation/twist pipeline with a negative speed, a cover and a
    # reparam, one for each way `orbit` steps
    ("suspend-orbit", "orbit_demo.ini", ["orbit.n=50000", "orbit.t=0.4", "orbit.r=0.3"]),
    ("suspend-orbit", "orbit_demo.ini", ["map.map=rotation:0.2|twist:0,0.1;0.5,-0.7;1,0.3|"
                                         "rotation:-0.05", "orbit.t=0.35", "orbit.n=5000"]),
    ("suspend-orbit", "orbit_demo.ini", ["map.map=rotation:0.2|twist:0,0;1,0.3|cover:2,1",
                                         "orbit.n=5000"]),
    ("suspend-orbit", "orbit_demo.ini", ["map.map=reparam:0,0;0.5,0.7;1,1|rotation:0.6",
                                         "orbit.n=5000"]),
    # a step and a start in [-2^-54, 0), whose r - floor(r) rounds to 1.0
    ("suspend-orbit", "orbit_demo.ini", ["map.map=rotation:-0.30000000000000004",
                                         "orbit.r=0.3", "orbit.n=3"]),
    ("suspend-orbit", "orbit_demo.ini", ["orbit.r=-1e-300", "orbit.n=3"]),
    # the bracket at speed 1/10, whose orbit of t = 1/2 winds at step 10
    # where ten float additions of 0.1 stay below 1, and a reparam, which
    # moves t, in each command that reads the exact speed
    ("suspend-entropy", "entropy_unit.ini", ["map.map=rotation:0.1", "experiment.n=11",
                                             "experiment.eps=0.25"]),
    ("suspend-entropy", "entropy_unit.ini", ["map.map=reparam:0,0;0.5,0.7;1,1"]),
    ("dense-orbit", "dense_demo.ini", ["map.map=rotation:0.5|reparam:0,0;0.5,0.7;1,1"]),
    # a primitive substitution whose first positive matrix power is
    # Wielandt's bound (k - 1)^2 + 1 = 10, past 2k
    ("mixing-witness", "thue_morse.ini", ["cantor.rules=0:1;1:2;2:3;3:01", "witness.u=0,1",
                                          "witness.v=3"]),
    # an override of a section that the command does not declare
    ("suspend-orbit", "orbit_demo.ini", ["orbt.n=5"]),
    # breakpoints distinct as fractions that float() merges
    ("suspend-orbit", "orbit_demo.ini", ["map.map=twist:0,0;0.3333333333333333,0.1;1/3,0.2;1,0"]),
    ("rotation", "rotation_demo.ini", ["map.map=reparam:0,0;0.3333333333333333,0.1;1/3,0.2;1,1"]),
    # a value too large for a float: refused where a command floats the map
    # or the speed at t = 1/2, read exactly by the rest
    *((command, fixture, [f"map.map={spec}"])
      for spec in ("rotation:1e400", "twist:0,0;1/2,1e400;1,0")
      for command, fixture in (("rotation", "rotation_demo.ini"),
                               ("suspend-orbit", "orbit_demo.ini"),
                               ("suspend-entropy", "entropy_unit.ini"),
                               ("rigidity", "rigidity_golden.ini"),
                               ("dense-orbit", "dense_demo.ini"))),
    ("mixing-witness", "witness_fullshift.ini", ["map.map=rotation:1e400"]),
    ("suspend-orbit", "orbit_demo.ini", [f"map.map=rotation:0.1|cover:2,{10 ** 400}"]),
    ("rigidity", "rigidity_golden.ini", [f"map.map=rotation:0.1|cover:2,{10 ** 400}"]),
]

# horseshoe certificates at depth 0, at the benchmark's depths, mirrored by
# x -> 1 - x as the benchmark mirrors them (the 3- and 5-branch fixtures are
# their own mirror images), on a 6-link chain, on a chain whose link 3 has a
# core 10^-7 wide but holds no symbol slot, and on a chain whose end links
# leave [0, 1]; then an asymmetric 3-lap map and its mirror, whose
# certificates fail with different hulls, the asymmetric map at depth 0, the
# 4-lap map 0,0; 1/4,1; 1/2,0; 3/4,1; 1,0, which stretches the chain for no
# m <= 8, and the monotone map 0,0; 3/7,0; 4/7,1; 1,1 at depth 0, whose
# entropy is 0 although every word of length 1 is realized
_BRANCH_LINKS = ["0,37/252", "35/252,73/252", "71/252,109/252", "107/252,145/252",
                 "143/252,181/252", "179/252,217/252", "215/252,1"]
_MIRRORED_BRANCH_LINKS = ("0,37/252; 5/36,73/252; 71/252,109/252; 107/252,145/252; "
                          "143/252,181/252; 179/252,31/36; 215/252,1")
_MIRRORED = {
    "three_branch_horseshoe.ini": ("0,0; 3/7,0; 10/21,1; 11/21,0; 4/7,1; 1,1",
                                   _MIRRORED_BRANCH_LINKS),
    "five_branch_horseshoe.ini": ("0,0; 3/7,0; 16/35,1; 17/35,0; 18/35,1; 19/35,0; 4/7,1; 1,1",
                                  _MIRRORED_BRANCH_LINKS),
    "tent_horseshoe.ini": ("0,1; 1/2,0; 1,1",
                           "0,1/4; 6/25,109/200; 27/50,14/25; 111/200,139/200; "
                           "69/100,71/100; 7/10,19/25; 3/4,1"),
}
for _fixture, _depth in (("three_branch_horseshoe.ini", 6), ("five_branch_horseshoe.ini", 4),
                         ("tent_horseshoe.ini", 5)):
    _breakpoints, _links = _MIRRORED[_fixture]
    OVERRIDES += [
        ("horseshoe", _fixture, ["horseshoe.depth=0"]),
        ("horseshoe", _fixture, [f"horseshoe.depth={_depth}"]),
        ("horseshoe", _fixture, [f"plmap.breakpoints={_breakpoints}", f"chain.links={_links}",
                                 f"horseshoe.depth={_depth}"]),
    ]
OVERRIDES += [
    ("horseshoe", "three_branch_horseshoe.ini", ["chain.links=" + "; ".join(_BRANCH_LINKS[:6])]),
    ("horseshoe", "three_branch_horseshoe.ini",
     ["chain.links=" + "; ".join(_BRANCH_LINKS[:1] + ["35/252,267499937/630000000"]
                                 + _BRANCH_LINKS[2:]), "horseshoe.depth=2"]),
    ("horseshoe", "three_branch_horseshoe.ini",
     ["chain.links=" + "; ".join(["-1,37/252"] + _BRANCH_LINKS[1:6] + ["215/252,2"]),
      "horseshoe.depth=1"]),
    ("horseshoe", "three_branch_horseshoe.ini",
     ["plmap.breakpoints=0,0; 3/7,0; 9/20,1; 1/2,0; 4/7,1; 1,1"]),
    ("horseshoe", "three_branch_horseshoe.ini",
     ["plmap.breakpoints=0,0; 3/7,0; 1/2,1; 11/20,0; 4/7,1; 1,1",
      f"chain.links={_MIRRORED_BRANCH_LINKS}"]),
    ("horseshoe", "three_branch_horseshoe.ini",
     ["plmap.breakpoints=0,0; 3/7,0; 9/20,1; 1/2,0; 4/7,1; 1,1", "horseshoe.depth=0"]),
    ("horseshoe", "three_branch_horseshoe.ini",
     ["plmap.breakpoints=0,0; 1/4,1; 1/2,0; 3/4,1; 1,0"]),
    ("horseshoe", "three_branch_horseshoe.ini",
     ["plmap.breakpoints=0,0; 3/7,0; 4/7,1; 1,1", "horseshoe.depth=0"]),
    # an interval map whose x repeat, and one whose y leave [0, 1]
    ("horseshoe", "three_branch_horseshoe.ini", ["plmap.breakpoints=0,0; 1/2,1; 1/2,0; 1,1"]),
    ("horseshoe", "three_branch_horseshoe.ini", ["plmap.breakpoints=0,0; 1/2,2; 1,0"]),
]

# (subcommand, fixture, words): command lines the parser refuses, a flag the
# subcommand does not take and a non-integer integer flag
USAGE = [
    ("hak-verify", "hak_toy.ini", ["--outt", "x.csv"]),
    ("horseshoe", "tent_horseshoe.ini", ["--depth", "x"]),
]


def run_case(cli, argv: list[str]) -> tuple[int, bytes, bytes]:
    """Exit code, stdout and stderr of `cli.main(argv)` run in-process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:
            code = 1
            print(f"{type(exc).__name__}: {exc}", file=err)
    for w in caught:
        print(f"{w.category.__name__}: {w.message}", file=err)
    return code, out.getvalue().encode(), err.getvalue().encode()


def cases(configs: list[str]) -> list[tuple[str, list[str]]]:
    """(name, argv without --out) for every case."""
    out = []
    for config in configs:
        for command in CONFIG_COMMANDS + list(FLAGS):
            out.append((f"{command} {config}", [command, FLAGS.get(command, "-c"), config]))
    for k in KFOLDS:
        out.append((f"pattern --kfold {k}", ["pattern", "--kfold", str(k)]))
    for command, fixture, overrides in OVERRIDES:
        argv = [command, FLAGS.get(command, "-c"), f"fixtures/{fixture}"]
        for item in overrides:
            argv += ["--override", item]
        out.append((" ".join([command, fixture] + overrides), argv))
    for command, fixture, words in USAGE:
        out.append((" ".join([command, fixture] + words),
                    [command, FLAGS.get(command, "-c"), f"fixtures/{fixture}", *words]))
    return out


def digest(data: bytes | None) -> str:
    return "-" if data is None else hashlib.sha256(data).hexdigest()


def main(argv: list[str]) -> int:
    if not argv:
        print("usage: python tests/artifact_digests.py SRC [EXTRA.ini ...]", file=sys.stderr)
        return 2
    src, extras = Path(argv[0]).resolve(), [Path(p).resolve() for p in argv[1:]]
    sys.path.insert(0, str(src))
    import pseudosusp.cli as cli

    if Path(cli.__file__).resolve().parents[1] != src:
        print(f"pseudosusp was imported from {cli.__file__}, not {src}", file=sys.stderr)
        return 2
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copytree(src / "pseudosusp" / "fixtures", Path(tmp) / "fixtures")
        configs = [f"fixtures/{p.name}" for p in sorted((Path(tmp) / "fixtures").glob("*.ini"))]
        for i, path in enumerate(extras):
            shutil.copy(path, Path(tmp) / f"extra{i}_{path.name}")
            configs.append(f"extra{i}_{path.name}")
        os.chdir(tmp)
        try:
            for name, case in cases(configs):
                artifact = Path("artifact")
                artifact.unlink(missing_ok=True)
                code, stdout, stderr = run_case(cli, case + ["--out", artifact.name])
                data = artifact.read_bytes() if artifact.exists() else None
                print(f"{name} exit={code} stdout={digest(stdout)} stderr={digest(stderr)} "
                      f"artifact={digest(data)}", flush=True)
        finally:
            os.chdir(home)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
