"""Fast tests of the benchmark's checks, closed forms, input generation and
tracer.  They never run the program.  Run with: python3 -m pytest perfbench
"""

from __future__ import annotations

import configparser
import itertools
import json
import math
import random
import sys
import types
from fractions import Fraction
from pathlib import Path

import checks
import run
import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "src" / "pseudosusp" / "fixtures"
GOLDEN = [[1, 1], [1, 0]]


def csv_text(header, rows) -> str:
    return "\n".join([",".join(header)] + [",".join(map(str, r)) for r in rows]) + "\n"


def fixture_stages(name: str) -> list[dict]:
    cfg = configparser.ConfigParser()
    cfg.read(FIXTURES / f"{name}.ini")
    return [{"rot": Fraction(cfg.get(s, "rot")), "q": cfg.getint(s, "q"),
             "eps": cfg.getfloat(s, "eps")}
            for s in sorted(cfg.sections()) if s.startswith("stage")]


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def test_full_shift_classes_at_unit_speed():
    assert checks.depth_for(1 / 16) == 4
    assert checks.free_positions(Fraction(1), 12, 1 / 16) == 11
    assert 2 ** checks.free_positions(Fraction(1), 12, 1 / 16) == 2048
    assert checks.free_positions(Fraction(1, 2), 12, 1 / 16) == 5


def test_golden_mean_words_on_five_free_positions():
    assert checks.max_row_sum(GOLDEN, 5) == 13


def test_toy_tower_condition_values():
    expected = checks.tower_expectations(fixture_stages("hak_toy"))
    assert [expected[("3", n)] for n in (1, 2, 3)] == [
        Fraction(1, 48), Fraction(1, 576), Fraction(1, 13824)]
    assert [expected[("6", n)] for n in (1, 2)] == [Fraction(1, 12), Fraction(1, 24)]


def test_covering_entropy_of_branch_maps():
    for name, k in (("three_branch_horseshoe", 3), ("five_branch_horseshoe", 5)):
        cfg = configparser.ConfigParser()
        cfg.read(FIXTURES / f"{name}.ini")
        bp = workloads.frac_pairs(cfg.get("plmap", "breakpoints"))
        assert math.isclose(checks.covering_entropy(bp), math.log(k), rel_tol=1e-12)


# ---------------------------------------------------------------------------
# each check rejects a corrupted artifact
# ---------------------------------------------------------------------------

ENTROPY_HEADER = ["eps", "n", "budget", "lower", "upper", "target", "alpha", "h_entropy"]


def entropy_row(lower, upper, target):
    return csv_text(ENTROPY_HEADER, [[0.0625, 11, 1100, f"{lower:.9g}", f"{upper:.9g}",
                                      f"{target:.9g}", 1, 0]])


def test_entropy_check_accepts_exact_full_shift_row():
    est = math.log(1024) / 11
    assert checks.check_entropy(entropy_row(est, est, math.log(2)),
                                {"kind": "fullshift", "k": 2}, Fraction(1),
                                0.0625, 11, 1100) == []


def test_entropy_check_rejects_lower_above_upper():
    lo, hi = math.log(13) / 11, math.log(8) / 11
    problems = checks.check_entropy(entropy_row(lo, hi, 0.5 * math.log((1 + 5 ** 0.5) / 2)),
                                    {"kind": "sft", "adjacency": GOLDEN}, Fraction(1, 2),
                                    0.0625, 11, 1100)
    assert [p for p in problems if p.startswith(checks.LOWER_ABOVE_UPPER)]


def test_entropy_check_rejects_count_above_bound():
    est = math.log(14) / 11  # 13 golden-mean words fit on 5 free positions
    problems = checks.check_entropy(entropy_row(est, est, 0.5 * math.log((1 + 5 ** 0.5) / 2)),
                                    {"kind": "sft", "adjacency": GOLDEN}, Fraction(1, 2),
                                    0.0625, 11, 1100)
    assert any("above max row sum" in p for p in problems)


def test_entropy_check_rejects_wrong_target_and_odometer_count():
    est = math.log(2) / 11
    problems = checks.check_entropy(entropy_row(est, est, 0.1), {"kind": "odometer"},
                                    Fraction(1, 2), 0.0625, 11, 1100)
    assert any("target" in p for p in problems)
    assert any("!= 1 on the odometer" in p for p in problems)


def test_known_fault_excuses_only_its_own_problem(tmp_path):
    """The golden-mean operation may fail with lower > upper and leave the run
    correct; a wrong exit code or a wrong target on it must not."""
    golden = [op for op in workloads.entropy_bracket(random.Random(1), FIXTURES, tmp_path)
              if op.fault]
    assert len(golden) == 1
    op = golden[0]
    target = 0.5 * math.log((1 + 5 ** 0.5) / 2)
    lo, hi = math.log(8) / 10, math.log(5) / 10
    faulty = entropy_row(lo, hi, target).replace("11,1100", "10,600").encode()
    problems, unexpected = run.judge(op, 0, "", "", faulty, {})
    assert problems and unexpected == []
    problems, unexpected = run.judge(op, 1, "", "boom", faulty, {})
    assert unexpected and unexpected[0].startswith("exit 1, expected 0")
    wrong_target = entropy_row(lo, hi, 0.1).replace("11,1100", "10,600").encode()
    _, unexpected = run.judge(op, 0, "", "", wrong_target, {})
    assert any("target" in p for p in unexpected)
    _, unexpected = run.judge(op, 0, "", "", faulty, {op.name: "another digest"})
    assert unexpected == ["artifact differs from the first round's"]


def test_end_to_end_scales_each_round_to_the_reference_speed():
    slow = run.Round(False, 2 * run.REFERENCE_S, [run.Proc(0, 4.0, 3.0, 10.0, 0.4, "")])
    fast = run.Round(False, run.REFERENCE_S, [run.Proc(0, 2.0, 1.5, 12.0, 0.2, "")])
    assert run.end_to_end([slow, slow, fast]) == {
        "wall_s": 2.0, "cpu_s": 1.5, "peak_rss_mb": 10.0, "setup_s": 0.2}
    assert run.end_to_end([slow, slow, fast], scaled=False)["wall_s"] == 4.0


def toy_verifier_rows(stages, six_offset=0.0):
    rows = []
    for cond in ("1", "2", "5", "7", "8"):
        rows.append([cond, 1, 0.01, 0.05, 0.04, 1])
    for (cond, n), value in checks.tower_expectations(stages).items():
        v = float(value) + (six_offset if cond == "6" else 0.0)
        rows.append([cond, n, f"{v:.9g}", stages[n - 1]["eps"], 0.01, 1])
    return csv_text(["condition", "stage", "value", "bound", "margin", "passed"], rows)


def test_hak_check_accepts_toy_and_rejects_condition_six_off_by_1e6():
    stages = fixture_stages("hak_toy")
    assert checks.check_hak(0, toy_verifier_rows(stages), stages, None) == []
    problems = checks.check_hak(0, toy_verifier_rows(stages, 1e-6), stages, None)
    assert any("condition (6)" in p for p in problems)


def test_hak_check_rejects_a_mutant_that_passes():
    stages = fixture_stages("hak_mut_alpha")
    problems = checks.check_hak(0, toy_verifier_rows(stages), stages, "2")
    assert problems and "mutant" in problems[0]


def certificate(k: int, depth: int, drop: int = 0) -> str:
    words = list(itertools.product(range(1, k + 1), repeat=depth + 1))
    rows = [["-".join(map(str, w)), 0.4, 0.45] for w in words[drop:]]
    return csv_text(["word", "lo", "hi"], rows)


def test_certificate_check_rejects_a_missing_word():
    cfg = configparser.ConfigParser()
    cfg.read(FIXTURES / "three_branch_horseshoe.ini")
    bp = workloads.frac_pairs(cfg.get("plmap", "breakpoints"))
    stdout = "horseshoe certificate: k=3 depth=2 m=1: ..., entropy >= 1.09861229 -> h.csv"
    assert checks.check_certificate(0, stdout, certificate(3, 2), 3, 2, bp) == []
    problems = checks.check_certificate(0, stdout, certificate(3, 2, drop=1), 3, 2, bp)
    assert any("1 words missing" in p for p in problems)
    assert checks.check_negative_certificate(2, certificate(3, 2), 3, 2) != []


def test_quotient_checks_reject_bad_witnesses():
    header = ["mode", "horizon", "found", "l"]
    assert checks.check_witness(csv_text(header, [["suspension", 400, 1, 7]]), 400, False)
    assert checks.check_witness(csv_text(header, [["suspension", 200, 1, 201]]), 200, True)
    dense = csv_text(["found", "k", "s", "p"], [[1, 1, 3, 40]])
    assert any("s*beta" in p for p in checks.check_dense(dense, Fraction(1, 2), 0.3, 3, 4, 300))
    orbit = csv_text(["k", "t", "r", "w", "component"], [[0, 0.2, 0.1, 0, 0], [1, 0.2, 0.7, 1, 0]])
    assert checks.check_orbit(orbit, Fraction(1, 10), Fraction(3, 5), 1) == [
        "final winding 1 != floor(r0 + n beta) = 0"]


# ---------------------------------------------------------------------------
# inputs and tracer
# ---------------------------------------------------------------------------

def test_inputs_depend_only_on_the_seed(tmp_path):
    for name, build in workloads.WORKLOADS.items():
        texts = []
        for attempt in ("a", "b"):
            run_dir = tmp_path / f"{name}-{attempt}"
            run_dir.mkdir()
            ops = build(random.Random(f"{name}:7"), FIXTURES, run_dir)
            texts.append(([op.argv for op in ops],
                          {p.name: p.read_text() for p in sorted(run_dir.iterdir())}))
        assert texts[0] == texts[1]


def test_tracer_survives_removed_names_and_spans_carry_parents(tmp_path):
    pkg = "perfbench_fake"
    cli = types.ModuleType(f"{pkg}.cli")
    annulus = types.ModuleType(f"{pkg}.annulus")

    def pl_eval(xs, ys, x):
        return x

    def hak_verify(stages):
        return sum(annulus.pl_eval(None, None, s) for s in stages)

    def cmd_hak_verify(args):
        return cli.hak_verify(args)

    annulus.pl_eval, annulus.hak_verify = pl_eval, hak_verify
    cli.hak_verify, cli.cmd_hak_verify = hak_verify, cmd_hak_verify
    cli.HANDLERS = {"hak-verify": cmd_hak_verify}
    modules = {pkg: types.ModuleType(pkg), cli.__name__: cli, annulus.__name__: annulus}
    sys.modules.update(modules)
    try:
        t = tracer.Tracer()
        t.install(package=pkg)  # suspension, kernels, cantor, chains... are absent
        assert cli.HANDLERS["hak-verify"]([1, 2, 3]) == 6
    finally:
        for name in modules:
            del sys.modules[name]
    names = {s["name"]: s for s in t.spans}
    assert names["annulus.hak_verify"]["parent"] == names["cli.hak_verify"]["id"]
    t.dump(str(tmp_path / "trace.json"))
    metrics = tracer.layer_metrics([json.loads((tmp_path / "trace.json").read_text())])
    assert metrics["annulus.pl_eval_calls"] == 3
    assert metrics["annulus.pl_eval_points"] == 3
    assert metrics["kernels.select_calls"] == 0 and metrics["kernels.select_s"] == 0
    assert metrics["cli.hak_verify_s"] >= metrics["annulus.hak_verify_s"] > 0


def test_benchmark_json_names_every_measured_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layer = {m["name"] for m in spec["per_layer"]}
    assert layer == set(tracer.LAYER_FIELDS) | {
        "suspension.class_yield", "chains.preimages_per_word", "trace.overhead_s"}
    assert {m["name"] for m in spec["end_to_end"]} == {"wall_s", "cpu_s", "peak_rss_mb", "setup_s"}
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
