"""CLI surface tests: exit codes, CSV schemas, overrides, fixtures."""

from __future__ import annotations

import configparser
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import pseudosusp
import pseudosusp.config
import pseudosusp.suspension
from pseudosusp.cli import (BOOL, FLOAT, SUBCOMMANDS, _write_csv, fixture_path, list_fixtures,
                            main, parse_args)
from pseudosusp.config import COMMANDS


def run(argv):
    return main(argv)


def test_version_and_fixture_listing(capsys):
    assert run(["--version"]) == 0
    out = capsys.readouterr().out
    assert "pseudosusp" in out and "0.1.0" in out

    assert run(["--list-fixtures"]) == 0
    out = capsys.readouterr().out
    for name in ("hak_toy.ini", "tent_horseshoe.ini", "three_branch_horseshoe.ini",
                 "golden_mean.ini", "thue_morse.ini", "odometer_222.ini"):
        assert name in out


@pytest.mark.parametrize("argv, named", [
    (["hak-verify", "-c", "hak_toy.ini", "--outt", "x.csv"], "--outt"),
    (["hak-verify", "-c", "hak_toy.ini", "--over", "hak.tail=0.1"], "--over"),
    (["hak-verify", "-c", "hak_toy.ini", "x.csv"], "x.csv"),
    (["hak-verify", "-c", "hak_toy.ini", "--out"], "--out"),
    (["hak-verify", "-c", "--out", "x.csv"], "-c"),
    (["horseshoe", "--map", "tent_horseshoe.ini", "--depth", "x"], "--depth"),
    (["horseshoe", "--map", "tent_horseshoe.ini", "--k=3.0"], "--k"),
    (["horseshoe", "-c", "tent_horseshoe.ini"], "-c"),
    (["pattern", "--kfold", "5", "--override", "a.b=1"], "--override"),
    (["hak-verfy", "-c", "hak_toy.ini"], "hak-verfy"),
    (["hak-verify", "--out", "x.csv"], "-c/--config"),
    (["horseshoe", "--depth", "3"], "--map"),
    (["pattern"], "--kfold"),
    ([], "no subcommand"),
])
def test_usage_errors_exit_3_naming_the_flag(argv, named, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage error: ") and captured.err.count("\n") == 1
    assert named in captured.err
    assert not list(tmp_path.iterdir())


def test_help_lists_every_subcommand(capsys):
    for argv in (["-h"], ["--help"]):
        assert run(argv) == 0
        out = capsys.readouterr().out
        assert len(SUBCOMMANDS) == 11
        for name, (_, summary, flags) in SUBCOMMANDS.items():
            assert f"  {name} " in out and summary in out
    assert run(["horseshoe", "-h"]) == 0
    out = capsys.readouterr().out
    assert "--map INI [--k K] [--depth N]" in out and "hak-verify" not in out


def test_flags_take_their_value_after_an_equals_sign(tmp_path, capsys):
    out = tmp_path / "r.csv"
    assert run(["hak-verify", f"--config={fixture_path('hak_toy.ini')}", f"--out={out}",
                "--override=hak.tail=0.025"]) == 0
    assert out.read_text().startswith("condition,stage,value,bound,margin,passed\n")
    assert run(["pattern", "--kfold=3", f"--out={tmp_path / 'p.txt'}"]) == 0
    assert (tmp_path / "p.txt").read_text() == "1,2,3,4,5,4,3,4,5,6,7\n"
    # the last of a repeated flag counts; --k and --depth apply after every --override;
    # the tent's slot images do not cover the slots, so even depth 0 fails
    capsys.readouterr()
    assert run(["horseshoe", "--map", fixture_path("tent_horseshoe.ini"), "--depth", "9",
                "--depth=0", "--override", "horseshoe.k=5", "--k", "3",
                "--out", str(tmp_path / "h.csv")]) == 2
    assert "k=3 depth=0 " in capsys.readouterr().out
    # the text after the first "=" is the value, and is checked as the next word is
    assert parse_args(["horseshoe", "--map=a=b.ini", "--k=3", "--override=chain.links=0,1",
                       "--override", "horseshoe.depth=2"]) == (
        "horseshoe", {"config": "a=b.ini", "k": 3, "depth": None, "out": None,
                      "override": ["chain.links=0,1", "horseshoe.depth=2"]})
    assert run(["horseshoe", "--map", fixture_path("tent_horseshoe.ini"), "--depth=x"]) == 3
    assert capsys.readouterr().err == "usage error: --depth needs an integer, got 'x'\n"


def test_pattern_prints_kfold(capsys):
    assert run(["pattern", "--kfold", "3"]) == 0
    assert capsys.readouterr().out.strip() == "1,2,3,4,5,4,3,4,5,6,7"
    assert run(["pattern", "--kfold", "4"]) == 3


def test_hak_verify_exit_codes(tmp_path, capsys):
    out = tmp_path / "hak.csv"
    assert run(["hak-verify", "-c", fixture_path("hak_toy.ini"),
                "--out", str(out)]) == 0
    # the summary names the binding measured check and the kind of every
    # condition; (4) is not evaluated, so it must not be claimed
    message = capsys.readouterr().out
    assert ("measured (3,6,8) pass, smallest margin 0.00833333333 at (6) stage 2; "
            "config (1,2,7) hold; (5) structural -> ") in message
    assert "(4" not in message and "-(8)" not in message
    header = out.read_text().splitlines()[0]
    assert header == "condition,stage,value,bound,margin,passed"
    for mutant in ("hak_mut_band.ini", "hak_mut_alpha.ini", "hak_mut_support.ini"):
        assert run(["hak-verify", "-c", fixture_path(mutant),
                    "--out", str(tmp_path / mutant.replace(".ini", ".csv"))]) == 2


def test_hak_config_error_exit(tmp_path, capsys):
    assert run(["hak-verify", "-c", fixture_path("hak_toy.ini"),
                "--override", "stage 2.q=577",
                "--out", str(tmp_path / "x.csv")]) == 3
    # the verifier is exact and grid-free: hak.horizon and hak.grid are gone,
    # and a config that still sets them is refused
    for override in ("hak.horizon=0", "hak.horizon=-3", "hak.grid=0", "hak.grid=1"):
        capsys.readouterr()
        assert run(["hak-verify", "-c", fixture_path("hak_toy.ini"),
                    "--override", override,
                    "--out", str(tmp_path / "x.csv")]) == 3
        err = capsys.readouterr().err
        assert override.split("=")[0] in err and "unknown key" in err


def test_stage_sections_are_numbered_by_their_name(tmp_path, capsys):
    toy = Path(fixture_path("hak_toy.ini")).read_text()
    renamed = tmp_path / "stage10.ini"
    renamed.write_text(toy.replace("[stage 3]", "[stage 10]"))
    out = tmp_path / "k.csv"
    assert run(["hak-verify", "-c", str(renamed), "--out", str(out)]) == 0
    stages = [line.split(",")[1] for line in out.read_text().splitlines()[1:]
              if line.startswith("1,")]
    assert stages == ["1", "2", "10"]
    for text, section in ((toy.replace("[stage 3]", "[stage x]"), "[stage x]"),
                          (toy.replace("[stage 3]", "[stage ²]"), "[stage ²]"),
                          (toy.replace("[stage 3]", "[stage 02]"), "[stage 2"),
                          (toy.replace("[stage 3]", "[stage 2]"), "'stage 2'")):
        bad = tmp_path / "bad.ini"
        bad.write_text(text)
        capsys.readouterr()
        assert run(["hak-verify", "-c", str(bad), "--out", str(out)]) == 3, section
        assert section in capsys.readouterr().err, section


def test_horseshoe_exit_codes(tmp_path, capsys):
    good = tmp_path / "h3.csv"
    assert run(["horseshoe", "--map", fixture_path("three_branch_horseshoe.ini"),
                "--out", str(good)]) == 0
    lines = good.read_text().splitlines()
    assert lines[0] == "word,lo,hi"
    assert len(lines) == 1 + 729

    assert run(["horseshoe", "--map", fixture_path("tent_horseshoe.ini"),
                "--out", str(tmp_path / "tent.csv")]) == 2
    # each bad input exits 3 with a message naming the key it came from
    for extra, key in (
            (["--k", "4"], "horseshoe.k"),
            (["--k", "1"], "horseshoe.k"),
            (["--override", "horseshoe.k=6"], "horseshoe.k"),
            (["--depth", "-1"], "horseshoe.depth"),
            (["--override", "horseshoe.mbound=0"], "horseshoe.mbound"),
            (["--override", "horseshoe.mbound=-2"], "horseshoe.mbound"),
            (["--override", "plmap.breakpoints=0,0; 1/0,1; 1,0"], "plmap.breakpoints"),
            (["--override", "plmap.breakpoints=0,0; 1/2,1,3; 1,0"], "plmap.breakpoints"),
            (["--override", "chain.links=0,1/0; 1/2,1"], "chain.links"),
            (["--override", "chain.links=0,1/3,1/2; 1/2,1"], "chain.links")):
        capsys.readouterr()
        assert run(["horseshoe", "--map", fixture_path("three_branch_horseshoe.ini"),
                    *extra, "--out", str(tmp_path / "bad.csv")]) == 3
        assert key in capsys.readouterr().err


def test_horseshoe_checks_the_link_count_and_link_4_only(tmp_path, capsys):
    """A 6-link chain exits 3 with its count, as does a link-4 gap too
    narrow for k slots; a narrow link 3 holds no slot and certifies."""
    links = ["0,37/252", "35/252,73/252", "71/252,109/252", "107/252,145/252",
             "143/252,181/252", "179/252,217/252", "215/252,1"]

    def horseshoe(chain, *extra):
        capsys.readouterr()
        code = run(["horseshoe", "--map", fixture_path("three_branch_horseshoe.ini"),
                    "--override", "chain.links=" + "; ".join(chain), *extra,
                    "--out", str(tmp_path / "h.csv")])
        return code, capsys.readouterr().err

    assert horseshoe(links[:6]) == (
        3, "config error: chain.links: stretch test is defined on 7-link chains, got 6\n")
    # link 3's core is 10^-7 wide
    narrow_3 = links[:1] + ["35/252,267499937/630000000"] + links[2:]
    assert horseshoe(narrow_3, "--depth", "2") == (0, "")
    assert len((tmp_path / "h.csv").read_text().splitlines()) == 1 + 27
    # the gap between links 3 and 5 is 34/252 wide, so 134921 slots are
    # each at most 10^-6 wide
    assert horseshoe(links, "--k", "134921") == (
        3, "config error: chain.links: refinement margins collapse inside parent 4\n")


def test_suspend_entropy_schema_and_capacity(tmp_path):
    out = tmp_path / "e.csv"
    assert run(["suspend-entropy", "-c", fixture_path("entropy_halfspeed.ini"),
                "--override", "experiment.budget=3000", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "eps,n,budget,lower,upper,target,alpha,h_entropy"
    assert len(lines) == 2

    # W = 8 resolves scales down to 2^-6, so eps = 0.001 is a capacity error
    assert run(["suspend-entropy", "-c", fixture_path("entropy_unit.ini"),
                "--override", "cantor.window=8",
                "--override", "experiment.eps=0.001",
                "--override", "experiment.budget=500",
                "--out", str(tmp_path / "cap.csv")]) == 4
    # the windings reach 11, past W = 8, which caps only D: same CSV as W = 32
    for window in (8, 32):
        assert run(["suspend-entropy", "-c", fixture_path("entropy_unit.ini"),
                    "--override", f"cantor.window={window}",
                    "--out", str(tmp_path / f"w{window}.csv")]) == 0
    assert (tmp_path / "w8.csv").read_text() == (tmp_path / "w32.csv").read_text()


def test_suspend_entropy_reads_no_seed_and_no_window(tmp_path):
    """The golden mean at eps 1/8, n 12: one CSV for every experiment.seed
    and every cantor.window that resolves the scale, its lower estimate the
    least cylinder's 144 classes."""
    golden = ["--override", "cantor.kind=sft", "--override", "cantor.adjacency=1,1;1,0",
              "--override", "experiment.eps=0.125"]
    texts = set()
    for seed, window in ((0, 8), (7, 8), (42, 32), (13, 32), (999, 64)):
        out = tmp_path / f"e{seed}_{window}.csv"
        assert run(["suspend-entropy", "-c", fixture_path("entropy_unit.ini"), *golden,
                    "--override", f"experiment.seed={seed}",
                    "--override", f"cantor.window={window}", "--out", str(out)]) == 0
        texts.add(out.read_text())
    assert len(texts) == 1
    row = dict(zip(*(line.split(",") for line in texts.pop().splitlines())))
    assert float(row["lower"]) == pytest.approx(math.log(144) / 12, rel=1e-8)


def test_suspend_entropy_winds_on_the_exact_speed(tmp_path, capsys):
    """At speed 1/10 the orbit of t = 1/2 winds once, at step 10: ten float
    additions of 0.1 reach only 0.9999999999999999, but floor(10 * 1/10) is
    1.  So n = 11 sees two windows, and the full 2-shift has log 2/11 at
    eps 1/4 and eps/2 alike; alpha is 1/10 exactly."""
    out = tmp_path / "e.csv"
    assert run(["suspend-entropy", "-c", fixture_path("entropy_unit.ini"),
                "--override", "map.map=rotation:0.1", "--override", "experiment.n=11",
                "--override", "experiment.eps=0.25", "--out", str(out)]) == 0
    assert "bracket [0.0630133801, 0.0630133801]" in capsys.readouterr().out
    row = dict(zip(*(line.split(",") for line in out.read_text().splitlines())))
    assert float(row["lower"]) == float(row["upper"]) == pytest.approx(math.log(2) / 11,
                                                                       rel=1e-8)
    assert row["alpha"] == "0.1"


def test_suspend_entropy_rejects_unit_scale(tmp_path, capsys):
    assert run(["suspend-entropy", "-c", fixture_path("entropy_unit.ini"),
                "--override", "experiment.eps=1",
                "--out", str(tmp_path / "e.csv")]) == 3
    assert "experiment.eps" in capsys.readouterr().err


def test_suspend_orbit_schema(tmp_path):
    out = tmp_path / "o.csv"
    assert run(["suspend-orbit", "-c", fixture_path("orbit_demo.ini"),
                "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "k,t,r,w"
    assert lines[1] == "0,0.2,0.9,0"
    assert len(lines) == 27  # header + points 0..25


def test_suspend_orbit_reduces_a_rounded_up_r_to_zero(tmp_path):
    # 0.3 - 0.30000000000000004 = -2^-54, whose r - floor(r) rounds to 1.0;
    # -0.0 - floor(-0.0) is -0.0, which the r column would write as -0
    out = tmp_path / "o.csv"
    for overrides, second in ((["map.map=rotation:-0.30000000000000004", "orbit.r=0.3"],
                               "1,0.2,0,0"),
                              (["orbit.r=-1e-300"], "0,0.2,0,0"),
                              (["orbit.r=-0.0"], "0,0.2,0,0")):
        argv = ["suspend-orbit", "-c", fixture_path("orbit_demo.ini"), "--out", str(out),
                "--override", "orbit.n=3"]
        for item in overrides:
            argv += ["--override", item]
        assert run(argv) == 0
        assert second in out.read_text().splitlines()


# each kind of value the commands write, in each kind of column, reads as
# `format` writes it with the column's spec: "" for a plain column, ".9g"
# for FLOAT and "d" for BOOL; the fixed column is text on every line
@pytest.mark.parametrize("column, spec, value", [
    (BOOL, "d", True), (BOOL, "d", False), ("%s", "", True),
    ("%s", "", 0), ("%s", "", -7), ("%s", "", 10 ** 20), ("%s", "", ""),
    ("%s", "", "a-b"), ("%s", "", 0.1),
    (FLOAT, ".9g", -0.0), (FLOAT, ".9g", 1e-12), (FLOAT, ".9g", 123456789.5),
    (FLOAT, ".9g", 1e22), (FLOAT, ".9g", math.inf), (FLOAT, ".9g", -math.inf),
    (FLOAT, ".9g", math.nan), (FLOAT, ".9g", 1 / 3), (FLOAT, ".9g", 3),
])
def test_write_csv_writes_each_value_as_its_format_spec(tmp_path, column, spec, value):
    out = tmp_path / "w.csv"
    _write_csv(str(out), {"x": column, "fixed": "0.4"}, [(value,)])
    assert out.read_text() == f"x,fixed\n{format(value, spec)},0.4\n"


def test_missing_config_and_keys(tmp_path):
    assert run(["rotation", "-c", str(tmp_path / "nope.ini")]) == 3
    bad = tmp_path / "bad.ini"
    bad.write_text("[map]\nmap = rotation:abc\n")
    assert run(["rotation", "-c", str(bad)]) == 3
    nomap = tmp_path / "nomap.ini"
    nomap.write_text("[experiment]\nn = 4\n")
    assert run(["rotation", "-c", str(nomap)]) == 3


def test_mixing_witness_modes(tmp_path, capsys):
    out = tmp_path / "w.csv"
    assert run(["mixing-witness", "-c", fixture_path("golden_mean.ini"),
                "--out", str(out)]) == 0
    assert out.read_text().splitlines()[1] == "symbolic,16,1,2"
    assert run(["mixing-witness", "-c", fixture_path("thue_morse.ini"),
                "--out", str(out)]) == 0
    assert out.read_text().splitlines()[1] == "symbolic,32,1,2"
    # an empty cylinder is a config error, not a search without a witness
    symbolic = ["--override", "witness.mode=symbolic"]
    for fixture, overrides, key in (
            ("thue_morse.ini", ["witness.u=5,5"], "witness.u"),
            ("thue_morse.ini", ["witness.v=1,1,1"], "witness.v"),
            ("golden_mean.ini", ["witness.u=1,1"], "witness.u"),
            ("golden_mean.ini", ["witness.u="], "witness.u"),
            ("witness_fullshift.ini", ["witness.u=5", "witness.v=0"], "witness.u"),
            ("odometer_222.ini", ["witness.u=3", "witness.v=0"], "witness.u")):
        capsys.readouterr()
        argv = ["mixing-witness", "-c", fixture_path(fixture), *symbolic]
        for override in overrides:
            argv += ["--override", override]
        assert run(argv + ["--out", str(out)]) == 3
        assert key in capsys.readouterr().err


def test_unparsable_cantor_and_map_values_name_their_key(tmp_path, capsys):
    for fixture, override, key in (
            ("golden_mean.ini", "cantor.adjacency=1,x;1,0", "cantor.adjacency"),
            ("golden_mean.ini", "cantor.adjacency=1,1;;1,0", "cantor.adjacency"),
            ("thue_morse.ini", "cantor.rules=0:01;1", "cantor.rules"),
            ("thue_morse.ini", "cantor.rules=0:01;1:1x", "cantor.rules"),
            ("orbit_demo.ini", "map.map=rotation:0.6|cover:2,x", "map.map"),
            ("orbit_demo.ini", "map.map=rotation:0.6|cover:2", "map.map")):
        capsys.readouterr()
        command = "suspend-orbit" if fixture == "orbit_demo.ini" else "mixing-witness"
        assert run([command, "-c", fixture_path(fixture), "--override", override,
                    "--out", str(tmp_path / "x.csv")]) == 3
        err = capsys.readouterr().err
        assert key in err and "invalid literal" not in err and "unpack" not in err


def test_mixing_witness_rejects_empty_cloud(tmp_path, capsys):
    # witness.cloud is declared but read by nothing, so only the window is left
    assert run(["mixing-witness", "-c", fixture_path("witness_fullshift.ini"),
                "--override", "cantor.window=0", "--out", str(tmp_path / "w.csv")]) == 3
    assert "cantor.window" in capsys.readouterr().err


def test_suspension_witness_is_exact(tmp_path, capsys):
    """The shipped full-shift witness is l = 5 (a cloud near U's centre first
    hit at 6); a twist and a cover run; a reparam moves t, so it exits 3
    naming map.map; the control finds none."""
    out = tmp_path / "w.csv"

    def witness(fixture, *overrides):
        argv = ["mixing-witness", "-c", fixture_path(fixture), "--out", str(out)]
        for item in overrides:
            argv += ["--override", item]
        return run(argv)

    assert witness("witness_fullshift.ini") == 0
    assert out.read_text().splitlines()[1] == "suspension,64,1,5"
    assert witness("witness_odometer.ini") == 0
    assert out.read_text().splitlines()[1] == "suspension,40,0,"
    for map_ in ("twist:0,0.2;0.4,0.7;1,0.5", "rotation:0.2|twist:0,0;1,0.3|cover:2,1"):
        assert witness("witness_fullshift.ini", f"map.map={map_}") == 0
        assert out.read_text().splitlines()[1].startswith("suspension,64,1,")
    capsys.readouterr()
    assert witness("witness_fullshift.ini", "map.map=reparam:0,0;0.5,0.7;1,1") == 3
    assert capsys.readouterr().err == ("config error: map.map: mixing-witness needs a map "
                                       "that fixes t, and a reparam moves t\n")


def test_dense_orbit_cli(tmp_path, capsys):
    out = tmp_path / "d.csv"
    assert run(["dense-orbit", "-c", fixture_path("dense_demo.ini"),
                "--out", str(out)]) == 0
    row = out.read_text().splitlines()[1]
    assert row.startswith("1,")
    for window in ("-1", "0"):
        capsys.readouterr()
        assert run(["dense-orbit", "-c", fixture_path("dense_demo.ini"),
                    "--override", f"cantor.window={window}", "--out", str(out)]) == 3
        assert "cantor.window" in capsys.readouterr().err


def test_dense_orbit_finds_a_witness_past_the_window(tmp_path, capsys):
    """At eps 0.1 the net has 128 cylinder words, so the backward walk runs
    far past the seeded window [-32, 32]; a point that repeated its window
    with period 65 could never show them all."""
    out = tmp_path / "d.csv"
    assert run(["dense-orbit", "-c", fixture_path("dense_demo.ini"),
                "--override", "dense.eps=0.1", "--override", "dense.p_max=3000",
                "--out", str(out)]) == 0
    found, k, s, p = out.read_text().splitlines()[1].split(",")
    assert found == "1" and 127 <= int(p) <= 3000
    assert f"witness k={k} s={s} p={p}" in capsys.readouterr().out


def test_render_cli(tmp_path, capsys):
    out = tmp_path / "c.svg"
    assert run(["render", "--levels", fixture_path("render_demo.ini"),
                "--out", str(out)]) == 0
    svg = out.read_text()
    assert svg.count("<polygon") == 29

    explicit = tmp_path / "levels.ini"
    explicit.write_text(
        "[level 0]\nlinks = 0/1,1/1,0/1,1/4; 0/1,1/1,1/5,1/2\n")
    assert run(["render", "--levels", str(explicit),
                "--out", str(tmp_path / "e.svg")]) == 0
    assert (tmp_path / "e.svg").read_text().count("<polygon") == 2

    for links in ("0/1,1/1,0/1,1/0", "0/1,1/1,0/1"):
        capsys.readouterr()
        explicit.write_text(f"[level 0]\nlinks = {links}\n")
        assert run(["render", "--levels", str(explicit),
                    "--out", str(tmp_path / "bad.svg")]) == 3
        assert "level 0.links" in capsys.readouterr().err


def test_level_sections_are_numbered_by_their_name(tmp_path, capsys):
    one = "0/1,1/1,0/1,1/4"
    two = "0/1,1/1,0/1,1/4; 0/1,1/1,1/5,1/2"
    levels = tmp_path / "levels.ini"
    levels.write_text(f"[level 10]\nlinks = {two}\n\n[level 2]\nlinks = {one}\n")
    assert run(["render", "--levels", str(levels), "--out", str(tmp_path / "l.svg")]) == 0
    assert "2 level(s) with 1/2 links" in capsys.readouterr().out
    levels.write_text(f"[level 2]\nlinks = {one}\n\n[levelx]\nlinks = {one}\n")
    assert run(["render", "--levels", str(levels), "--out", str(tmp_path / "l.svg")]) == 3
    assert "[levelx]" in capsys.readouterr().err


def test_essential_is_a_boolean(tmp_path):
    levels = tmp_path / "levels.ini"
    # three links whose last misses the first: a chain, but not an essential one
    links = "0,1,0,1/4; 0,1,1/5,2/5; 0,1,7/20,9/20"
    for value, code in (("TRUE", 3), ("true", 3), ("False", 0), ("false", 0)):
        levels.write_text(f"[level 0]\nlinks = {links}\nessential = {value}\n")
        assert run(["render", "--levels", str(levels),
                    "--out", str(tmp_path / "l.svg")]) == code, value


def test_override_keys_fold_like_file_keys(tmp_path):
    written = tmp_path / "golden.ini"
    written.write_text(Path(fixture_path("golden_mean.ini")).read_text()
                       .replace("horizon = 16", "Horizon = 3"))
    assert run(["mixing-witness", "-c", str(written), "--out", str(tmp_path / "file.csv")]) == 0
    assert run(["mixing-witness", "-c", fixture_path("golden_mean.ini"),
                "--override", "witness.Horizon=3", "--out", str(tmp_path / "over.csv")]) == 0
    assert (tmp_path / "file.csv").read_text() == (tmp_path / "over.csv").read_text()
    assert (tmp_path / "over.csv").read_text().splitlines()[1] == "symbolic,3,1,2"


# each subcommand on its own fixtures; every shipped fixture is one of them
OWN_FIXTURES = {
    "rotation": ["rotation_demo.ini"],
    "rigidity": ["rigidity_golden.ini"],
    "hak-verify": ["hak_toy.ini", "hak_mut_alpha.ini", "hak_mut_band.ini",
                   "hak_mut_support.ini"],
    "suspend-entropy": ["entropy_unit.ini", "entropy_frozen.ini", "entropy_halfspeed.ini",
                        "entropy_odometer.ini"],
    "suspend-orbit": ["orbit_demo.ini", "odometer_222.ini"],
    "mixing-witness": ["witness_fullshift.ini", "witness_odometer.ini", "golden_mean.ini",
                       "thue_morse.ini"],
    "dense-orbit": ["dense_demo.ini"],
    "rotation-family": ["family_demo.ini"],
    "horseshoe": ["three_branch_horseshoe.ini", "five_branch_horseshoe.ini",
                  "tent_horseshoe.ini"],
    "render": ["render_demo.ini"],
}
FLAG = {"horseshoe": "--map", "render": "--levels"}


def test_every_fixture_passes_its_own_declaration(tmp_path):
    owned = sorted(name for names in OWN_FIXTURES.values() for name in names)
    assert owned == sorted(name for name, _ in list_fixtures())
    for command, names in OWN_FIXTURES.items():
        for name in names:
            code = run([command, FLAG.get(command, "-c"), fixture_path(name),
                        "--out", str(tmp_path / "own.out")])
            assert code in (0, 2), (command, name)


@pytest.mark.parametrize("command,section", [
    (command, section) for command, sections in COMMANDS.items() for section in sections])
def test_misspelt_key_exits_3_naming_it(command, section, tmp_path, monkeypatch, capsys):
    """In every section a subcommand reads, a key it does not declare is
    refused, from the file and from an override.  No --out, so the run reads
    experiment.out too."""
    monkeypatch.chdir(tmp_path)
    fixture = OWN_FIXTURES[command][0]
    name = section.replace(" N", " 1")
    key = f"{next(iter(COMMANDS[command][section]))}x"
    parser = configparser.ConfigParser()
    parser.read(fixture_path(fixture))
    if not parser.has_section(name):
        parser.add_section(name)
    parser.set(name, key, "1")
    with open("misspelt.ini", "w") as fh:
        parser.write(fh)
    flag = FLAG.get(command, "-c")
    for argv in ([command, flag, "misspelt.ini"],
                 [command, flag, fixture_path(fixture), "--override", f"{name}.{key}=1"]):
        capsys.readouterr()
        assert run(argv) == 3, argv
        assert f"config error: {name}.{key}: unknown key" in capsys.readouterr().err, argv


def _declared_keys() -> set[tuple[str, str]]:
    keys = set()

    def add(section, declared):
        for key, (kind, *_) in declared.items():
            keys.add((section, key))
            if isinstance(kind, dict):
                for brought in kind.values():
                    add(section, brought)

    for sections in COMMANDS.values():
        for section, declared in sections.items():
            add(section, declared)
    return keys


def test_readme_documents_every_declared_key():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    text = readme.split("### Config format", 1)[1].split("\n## ", 1)[0]
    documented = set()
    for block in re.findall(r"```ini\n(.*?)```", text, re.S):
        section = None
        for line in block.splitlines():
            if match := re.match(r"\[([^\]]+)\]", line):
                section = match.group(1)
            elif match := re.match(r"(\w+)\s*=", line):
                documented.add((section, match.group(1)))
    assert documented == _declared_keys()


def test_rotation_family_cli(tmp_path):
    out = tmp_path / "f.csv"
    assert run(["rotation-family", "-c", fixture_path("family_demo.ini"),
                "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "n,bit,b_n,term"
    assert len(lines) == 9

    assert run(["rotation-family", "-c", fixture_path("family_demo.ini"),
                "--override", "family.bits=10x1",
                "--out", str(out)]) == 3


def test_bad_input_exits_3_naming_its_key(tmp_path, capsys):
    # (subcommand, fixture, override, key); main catches no bare ValueError,
    # so each of these needs a guard where its value is read.  No key takes
    # nan or an infinity, a ball's t and orbit.t lie in [0, 1], and a ball's
    # seed is an integer
    for command, fixture, override, key in (
            ("rotation", "rotation_demo.ini", "experiment.n=0", "experiment.n"),
            ("rotation", "rotation_demo.ini", "map.map=twist:0,0;0.5,1", "map.map"),
            ("rotation", "rotation_demo.ini", "map.map=reparam:0,0;0.5,0.7;1,0.2",
             "map.map"),
            ("rotation-family", "family_demo.ini", "family.eps=0", "family.eps"),
            ("rigidity", "rigidity_golden.ini", "experiment.grid=0", "experiment.grid"),
            ("rigidity", "rigidity_golden.ini", "experiment.grid=24", "experiment.grid"),
            ("rigidity", "rigidity_golden.ini", "map.map=reparam:0,0;0.5,0.7;1,1", "map.map"),
            ("suspend-entropy", "entropy_unit.ini", "map.map=reparam:0,0;0.5,0.7;1,1",
             "map.map"),
            ("dense-orbit", "dense_demo.ini", "map.map=rotation:0.5|reparam:0,0;0.5,0.7;1,1",
             "map.map"),
            ("suspend-orbit", "orbit_demo.ini", "map.map=rotation:0.1|cover:2,1|cover:3,0",
             "map.map"),
            ("mixing-witness", "golden_mean.ini", "cantor.adjacency=2,1;1,0",
             "cantor.adjacency"),
            ("mixing-witness", "golden_mean.ini", "cantor.adjacency=1,-1;1,0",
             "cantor.adjacency"),
            ("rigidity", "rigidity_golden.ini", "experiment.band=0.5", "experiment.band"),
            ("rigidity", "rigidity_golden.ini", "experiment.eps=-1", "experiment.eps"),
            ("dense-orbit", "dense_demo.ini", "dense.eps=0", "dense.eps"),
            ("mixing-witness", "witness_fullshift.ini", "witness.u_radius=0",
             "witness.u_radius"),
            ("suspend-entropy", "entropy_unit.ini", "experiment.n=0", "experiment.n"),
            ("suspend-orbit", "orbit_demo.ini", "orbit.n=-1", "orbit.n"),
            ("render", "render_demo.ini", "render.pattern=kfold:4", "render.pattern"),
            ("render", "render_demo.ini", "render.pattern=kfold:x", "render.pattern"),
            ("render", "render_demo.ini", "render.levels=0", "render.levels"),
            ("render", "render_demo.ini", "render.levels=-3", "render.levels"),
            ("horseshoe", "three_branch_horseshoe.ini", "chain.links=0,1/2; 1/2,1",
             "chain.links"),
            ("horseshoe", "three_branch_horseshoe.ini",
             "chain.links=0,1/2; 1/4,3/4; 1/3,1/2; 1/2,5/8; 5/8,3/4; 3/4,7/8; 7/8,1",
             "chain.links"),
            ("horseshoe", "three_branch_horseshoe.ini",
             "chain.links=-1,37/252; 35/252,73/252; 71/252,109/252; 107/252,145/252; "
             "143/252,181/252; 179/252,217/252; 215/252,2", "chain.links"),
            ("dense-orbit", "dense_demo.ini", "dense.k_max=0", "dense.k_max"),
            ("dense-orbit", "dense_demo.ini", "dense.s_max=0", "dense.s_max"),
            ("dense-orbit", "dense_demo.ini", "dense.p_max=-1", "dense.p_max"),
            ("mixing-witness", "witness_fullshift.ini", "witness.horizon=-1",
             "witness.horizon"),
            ("mixing-witness", "golden_mean.ini", "witness.horizon=0", "witness.horizon"),
            ("hak-verify", "hak_toy.ini", "stage 2.alpah=1/3", "stage 2.alpah"),
            ("hak-verify", "hak_toy.ini", "hak.tial=0.1", "hak.tial"),
            ("hak-verify", "hak_toy.ini", "stage 4.eps=0.01", "stage 4.band"),
            ("hak-verify", "hak_toy.ini", "stage 2.support=0.49,0.6", "stage 2.support"),
            ("mixing-witness", "witness_fullshift.ini", "witness.u_radius=nan",
             "witness.u_radius"),
            ("mixing-witness", "witness_fullshift.ini", "witness.u=0.5,0.1,nan", "witness.u"),
            ("mixing-witness", "witness_fullshift.ini", "witness.u=1.5,0.1,3", "witness.u"),
            ("mixing-witness", "witness_fullshift.ini", "witness.u=0.5,0.1,3.7", "witness.u"),
            ("mixing-witness", "witness_fullshift.ini", "witness.v=-0.1,0.35,9", "witness.v"),
            ("suspend-orbit", "orbit_demo.ini", "orbit.r=nan", "orbit.r"),
            ("suspend-orbit", "orbit_demo.ini", "orbit.t=-0.5", "orbit.t"),
            ("dense-orbit", "dense_demo.ini", "dense.eps=nan", "dense.eps"),
            ("dense-orbit", "dense_demo.ini", "orbit.t=1.5", "orbit.t"),
            ("rotation", "rotation_demo.ini", "orbit.t=2", "orbit.t"),
            ("rigidity", "rigidity_golden.ini", "experiment.eps=inf", "experiment.eps"),
            # a key that no reader of a read section takes, and [cantor] keys
            # of another kind
            ("mixing-witness", "witness_fullshift.ini", "witness.horizn=9", "witness.horizn"),
            ("suspend-entropy", "entropy_unit.ini", "experiment.sed=1", "experiment.sed"),
            ("horseshoe", "tent_horseshoe.ini", "horseshoe.dpth=1", "horseshoe.dpth"),
            ("render", "render_demo.ini", "render.level=3", "render.level"),
            ("suspend-entropy", "entropy_unit.ini", "cantor.bases=2,2", "cantor.bases"),
            ("mixing-witness", "thue_morse.ini", "cantor.k=2", "cantor.k"),
            ("mixing-witness", "golden_mean.ini", "cantor.rules=0:01;1:10", "cantor.rules"),
            ("dense-orbit", "dense_demo.ini", "cantor.adjacency=1,1;1,0", "cantor.adjacency"),
            ("render", "render_demo.ini", "level 0.essential=yes", "level 0.essential"),
            # a misspelt key in a declared section that, given --out, the
            # command never reads
            ("suspend-orbit", "orbit_demo.ini", "experiment.oot=1", "experiment.oot"),
            ("mixing-witness", "witness_fullshift.ini", "experiment.sede=1",
             "experiment.sede"),
            ("pattern", None, None, "--kfold")):
        if command == "pattern":
            argv = ["pattern", "--kfold", "4"]
        else:
            flag = {"render": "--levels", "horseshoe": "--map"}.get(command, "-c")
            argv = [command, flag, fixture_path(fixture), "--override", override]
        capsys.readouterr()
        assert run(argv + ["--out", str(tmp_path / "bad.out")]) == 3, argv
        assert key in capsys.readouterr().err, argv


def test_rigidity_is_exact(tmp_path, capsys):
    """A pipeline of rotations and twists moves r by n times its speed in n
    steps, so each row is the exact sup of that over the band, not a grid
    max: the twist below moves the point t = 0.37 by 0.2, which a 24-point
    grid reads as 0.193 and let pass at eps 0.197."""
    out = tmp_path / "r.csv"

    def rigidity(*overrides):
        argv = ["rigidity", "-c", fixture_path("rigidity_golden.ini"), "--out", str(out)]
        for item in overrides:
            argv += ["--override", item]
        assert run(argv) == 0
        return out.read_text().splitlines()

    assert rigidity("map.map=twist:0,0;0.37,0.2;1,0", "experiment.horizon=2",
                    "experiment.eps=0.197") == ["n,sup_displacement"]
    assert "0 qualifying times <= 2 at eps=0.197" in capsys.readouterr().out
    assert rigidity("map.map=twist:0,0;0.37,0.2;1,0", "experiment.horizon=1",
                    "experiment.eps=0.2001") == ["n,sup_displacement", "1,0.2"]
    # the band [0, 0.1] stays below the peak, so its end binds: 0.2*0.1/0.37
    assert rigidity("map.map=twist:0,0;0.37,0.2;1,0", "experiment.horizon=1",
                    "experiment.band=0,0.1")[1:] == ["1,0.0540540541"]
    # a cover 2,1 around rotation 0.1 has speed (0.1 + 1)/2 = 11/20
    assert rigidity("map.map=rotation:0.1|cover:2,1", "experiment.horizon=20",
                    "experiment.eps=0.06")[1:] == ["9,0.05", "11,0.05", "20,0"]


def test_ball_seed_is_an_integer(tmp_path, monkeypatch):
    """A ball's seed above 2^53 reaches `random_point` as written, not
    rounded through a float."""
    import pseudosusp.cantor as cantor

    seeds = []
    draw = cantor.SFT.random_point

    def recording(self, seed, W):
        seeds.append(seed)
        return draw(self, seed, W)

    monkeypatch.setattr(cantor.SFT, "random_point", recording)
    big = 2 ** 53 + 1
    assert run(["mixing-witness", "-c", fixture_path("witness_fullshift.ini"),
                "--override", f"witness.u=0.5,0.1,{big}", "--override", "witness.horizon=1",
                "--override", "witness.cloud=1", "--out", str(tmp_path / "w.csv")]) == 0
    assert big in seeds and float(big) != big


def test_fixture_descriptions_present():
    for name, desc in list_fixtures():
        assert desc, f"fixture {name} lacks a description comment"


def _modules_after(code: str, cwd: Path) -> set[str]:
    """The modules a fresh interpreter holds after running `code`."""
    env = {**os.environ, "PYTHONPATH": str(Path(pseudosusp.__file__).parents[1])}
    probe = code + "\nimport sys\nprint(' '.join(sys.modules))"
    done = subprocess.run([sys.executable, "-c", probe], cwd=cwd, env=env,
                          capture_output=True, text=True, check=True, timeout=60)
    return set(done.stdout.splitlines()[-1].split())


def test_each_command_loads_only_the_layers_it_runs(tmp_path):
    """No command loads numpy: the entropy counts, the orbits, the rotation
    estimates and both witnesses run on floats, ints and lists.
    `hak-verify` and `rigidity` are exact and load only `cli`, `config`,
    `pl` and `tower`, whose records are named tuples: no `dataclasses` either.
    `suspend-orbit` follows the annulus map alone and loads neither
    `cantor` nor `suspension`.  The suspension commands read the exact
    speed from `pl` and load no `annulus` and no `tower`; only a
    substitution loads `substitution`, and only `render` loads `covers`."""
    run_main = "from pseudosusp.cli import fixture_path, main\nassert main({}) == 0"
    layers = {"pseudosusp.annulus", "pseudosusp.cantor", "pseudosusp.chains",
              "pseudosusp.suspension"}

    def command(name, fixture, *overrides):
        flag = FLAG.get(name, "-c")
        extra = "".join(f", '--override', {o!r}" for o in overrides)
        return run_main.format(f"[{name!r}, {flag!r}, fixture_path({fixture!r}), "
                               f"'--out', 'o.csv'{extra}]")

    golden = ("cantor.kind=sft", "cantor.adjacency=1,1;1,0")
    # a substitution takes no cantor.k, so its probe starts from its own [cantor]
    entropy = ("map.map=rotation:1.0", "experiment.eps=0.0625", "experiment.n=12")
    no_numpy = [
        command("horseshoe", "three_branch_horseshoe.ini"),
        command("suspend-entropy", "entropy_unit.ini"),
        command("suspend-entropy", "entropy_odometer.ini"),
        command("suspend-entropy", "entropy_unit.ini", *golden),
        command("suspend-entropy", "thue_morse.ini", *entropy),
        command("dense-orbit", "dense_demo.ini"),
        command("suspend-orbit", "orbit_demo.ini"),
        command("rotation", "rotation_demo.ini"),
        command("rotation-family", "family_demo.ini"),
        command("mixing-witness", "golden_mean.ini", "witness.mode=symbolic"),
        command("mixing-witness", "thue_morse.ini", "witness.mode=symbolic"),
        "import pseudosusp.annulus, pseudosusp.cantor, pseudosusp.suspension",
    ]
    for code in no_numpy:
        assert "numpy" not in _modules_after(code, tmp_path), code
    for code, absent in (
            (command("hak-verify", "hak_toy.ini"), {"numpy", "dataclasses", *layers}),
            (command("rigidity", "rigidity_golden.ini"), {"numpy", "dataclasses", *layers}),
            (command("suspend-orbit", "orbit_demo.ini"),
             {"numpy", "pseudosusp.cantor", "pseudosusp.suspension"}),
            ("import pseudosusp.chains", {"numpy", "pseudosusp.cantor"})):
        assert not absent & _modules_after(code, tmp_path), code
    # every package module that each command loads; `fixture_path` loads
    # `pseudosusp.fixtures`
    base = {"pseudosusp", "pseudosusp.cli", "pseudosusp.config", "pseudosusp.fixtures"}
    speed = base | {"pseudosusp.cantor", "pseudosusp.pl", "pseudosusp.suspension"}
    for code, loaded in (
            (command("hak-verify", "hak_toy.ini"), base | {"pseudosusp.pl", "pseudosusp.tower"}),
            (command("rigidity", "rigidity_golden.ini"),
             base | {"pseudosusp.pl", "pseudosusp.tower"}),
            (command("horseshoe", "three_branch_horseshoe.ini"), base | {"pseudosusp.chains"}),
            (command("render", "render_demo.ini"),
             base | {"pseudosusp.chains", "pseudosusp.covers"}),
            (command("suspend-entropy", "entropy_unit.ini"), speed),
            (command("suspend-entropy", "thue_morse.ini", *entropy),
             speed | {"pseudosusp.substitution"}),
            (command("dense-orbit", "dense_demo.ini"), speed),
            (command("mixing-witness", "witness_fullshift.ini"), speed),
            ("import pseudosusp.pl", {"pseudosusp", "pseudosusp.pl"})):
        modules = _modules_after(code, tmp_path)
        assert {m for m in modules if m.split(".")[0] == "pseudosusp"} == loaded, code
    # the probe sees numpy when something loads it
    assert "numpy" in _modules_after("import numpy", tmp_path)


def test_no_subcommand_loads_numpy(tmp_path):
    """Every subcommand on each of its shipped fixtures, one after another in
    one fresh interpreter; numpy must be absent after each, and so must
    `dataclasses` and the `inspect` it imports (every record in `src/` is a
    named tuple or a class with `__slots__`) and `argparse` and the `gettext`
    it imports (`cli.parse_args` reads the command line)."""
    runs = [[command, FLAG.get(command, "-c"), name]
            for command, names in OWN_FIXTURES.items() for name in names]
    runs += [["pattern", "--kfold", "5"],
             ["mixing-witness", "-c", "witness_fullshift.ini",
              "--override", "map.map=rotation:0.2|twist:0,0;1,0.3|cover:2,1"]]
    probe = ("import sys\nfrom pseudosusp.cli import fixture_path, main\n"
             f"for argv in {runs!r}:\n"
             "    argv[2] = fixture_path(argv[2]) if argv[0] != 'pattern' else argv[2]\n"
             "    assert main(argv + ['--out', 'o.out']) in (0, 2), argv\n"
             "    assert not {'numpy', 'dataclasses', 'inspect', 'argparse', 'gettext'}"
             " & sys.modules.keys(), argv\n")
    env = {**os.environ, "PYTHONPATH": str(Path(pseudosusp.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", probe], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
    assert {argv[0] for argv in runs} == {*COMMANDS, "pattern"}


def test_layer_errors_keep_their_exit_codes(tmp_path, capsys):
    # a layer's config error is a ConfigError: exit 3 with the layer's own
    # message, led by the key that holds the bad value
    for command, fixture, override, key, message in (
            ("suspend-orbit", "orbit_demo.ini", "map.map=rotation:0.6|cover:0,1",
             "map.map", "cover degree q must be an integer >= 1"),
            ("hak-verify", "hak_toy.ini", "stage 2.band=0.47,0.51",
             "stage 2.band", "bands must be strictly nested"),
            ("hak-verify", "hak_toy.ini", "stage 2.band=0.2,1.5",
             "stage 2.band", "band must sit strictly inside (0,1)"),
            ("hak-verify", "hak_toy.ini", "stage 3.rot=1/5",
             "stage 3.rot", "period must not decrease"),
            ("hak-verify", "hak_toy.ini", "stage 2.q=5", "stage 2.q", "q must not decrease"),
            ("hak-verify", "hak_toy.ini", "stage 3.q=13825", "stage 3.q",
             "condition (6) needs q = m*p for some m >= 1; got q = 13825, p = 13824"),
            ("hak-verify", "hak_toy.ini", "stage 1.eps=0", "stage 1.eps",
             "eps must be positive")):
        capsys.readouterr()
        assert run([command, "-c", fixture_path(fixture), "--override", override,
                    "--out", str(tmp_path / "x.csv")]) == 3
        assert capsys.readouterr().err == f"config error: {key}: {message}\n"
    # CapacityError lives in config and is re-exported by suspension
    assert pseudosusp.suspension.CapacityError is pseudosusp.config.CapacityError
    capsys.readouterr()
    assert run(["suspend-entropy", "-c", fixture_path("entropy_unit.ini"),
                "--override", "cantor.window=8", "--override", "experiment.eps=0.001",
                "--out", str(tmp_path / "cap.csv")]) == 4
    assert capsys.readouterr().err == ("capacity error: scale below window resolution; "
                                       "increase W\n")
