"""Benchmark of the `pseudosusp` CLI on four seeded workloads.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A run generates the workload's inputs from the seed, then repeats rounds of
the workload's command list, one fresh process per command, until S seconds
have passed.  Every command's exit code and artifact are checked, and every
artifact must be byte-identical to the first round's.  With --trace 0 the
last line of stdout carries the end-to-end metrics; with --trace 1 it carries
the per-layer metrics of traced rounds, which alternate with untraced ones so
that the tracing overhead is measured too.  End-to-end times are
scaled to a fixed reference speed of the machine, gauged before each round
by timing `reference.py`.  A result file with the run's details, unscaled
figures included, goes to .perfbench_runs/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
import tracer
from workloads import WORKLOADS, Op

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
FIXTURES = SRC / "pseudosusp" / "fixtures"
OUT = ROOT / ".perfbench_runs"
LAUNCH = HERE / "launch.py"
REFERENCE = HERE / "reference.py"
OP_TIMEOUT_S = 150
# The reference speed: the one at which `reference.py` runs in this many
# seconds, about its time on the machine the README's figures come from.
REFERENCE_S = 0.3


@dataclass
class Proc:
    rc: int
    wall: float
    cpu: float
    rss_mb: float
    setup: float
    stdout: str
    failed: bool = False


@dataclass
class Round:
    traced: bool
    reference: float  # wall seconds of `reference.py`, run just before the round
    procs: list[Proc] = field(default_factory=list)
    traces: list[dict] = field(default_factory=list)
    words: int = 0

    @property
    def wall(self) -> float:
        return sum(p.wall for p in self.procs)


# Every launch compiles the package from source, whatever the caller's
# environment, so that each one is the same cold start.  One OpenBLAS thread:
# the program's only BLAS call is a 2x2 product, and an idle thread pool
# charges 0 or about 0.12 s of spinning to each process by chance.
ENV = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONDONTWRITEBYTECODE": "1",
       "OPENBLAS_NUM_THREADS": "1"}


def time_reference(cwd: Path) -> float:
    start = time.monotonic()
    subprocess.run([sys.executable, str(REFERENCE)], cwd=cwd, env=ENV, check=True,
                   timeout=OP_TIMEOUT_S)
    return time.monotonic() - start


def launch(argv: list[str], cwd: Path, trace_file: str) -> Proc:
    """Run one command to its end and measure it with the child's rusage."""
    ready = cwd / "ready.json"
    ready.unlink(missing_ok=True)
    with open(cwd / "stdout.txt", "wb") as out, open(cwd / "stderr.txt", "wb") as err:
        start = time.monotonic()
        proc = subprocess.Popen([sys.executable, str(LAUNCH), str(ready), trace_file, *argv],
                                cwd=cwd, env=ENV, stdout=out, stderr=err)
        timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.monotonic() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    # a process that dies before the CLI is ready has no set-up time of its own
    setup = float(ready.read_text(encoding="utf-8")) - start if ready.exists() else wall
    return Proc(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                usage.ru_maxrss / 1024.0, setup,
                (cwd / "stdout.txt").read_text(encoding="utf-8", errors="replace"))


def judge(op: Op, rc: int, stdout: str, stderr: str, data: bytes,
          digests: dict[str, str]) -> tuple[list[str], list[str]]:
    """Every problem of one operation, and those of them that its known
    fault (if any) does not explain."""
    problems = []
    if rc != op.expected_rc:
        problems.append(f"exit {rc}, expected {op.expected_rc}: {stderr.strip()[-300:]}")
    try:
        problems += op.check(rc, stdout, data.decode("utf-8"))
    except (ValueError, KeyError, IndexError, TypeError, UnicodeDecodeError) as exc:
        problems.append(f"check raised {exc!r}")
    digest = hashlib.sha256(data).hexdigest()
    if digests.setdefault(op.name, digest) != digest:
        problems.append("artifact differs from the first round's")
    unexpected = [p for p in problems if not (op.fault and p.startswith(op.fault))]
    return problems, unexpected


def run_round(ops: list[Op], run_dir: Path, traced: bool, digests: dict[str, str],
              failures: list[str], index: int) -> Round:
    rnd = Round(traced, time_reference(run_dir))
    for op in ops:
        artifact = run_dir / f"{op.name}.csv"
        artifact.unlink(missing_ok=True)
        trace_file = run_dir / f"{op.name}.trace.json"
        proc = launch(op.argv + ["--out", artifact.name], run_dir,
                      str(trace_file) if traced else "-")
        rnd.procs.append(proc)
        data = artifact.read_bytes() if artifact.exists() else b""
        stderr = (run_dir / "stderr.txt").read_text(encoding="utf-8", errors="replace")
        problems, unexpected = judge(op, proc.rc, proc.stdout, stderr, data, digests)
        if op.argv[0] == "horseshoe" and op.expected_rc == 0:
            rnd.words += len(checks.read_csv(data.decode("utf-8", errors="replace")))
        if traced:
            rnd.traces.append(json.loads(trace_file.read_text(encoding="utf-8"))
                              if trace_file.exists() else {"spans": [], "hot": []})
        proc.failed = bool(problems)
        failures.extend(f"round {index} {op.name}: {p}" for p in unexpected)
        if len(unexpected) < len(problems) and index == 0:
            print(f"perfbench: known fault on {op.name}: {op.fault}", file=sys.stderr)
    return rnd


def end_to_end(rounds: list[Round], scaled: bool = True) -> dict[str, float]:
    """Per-command medians over the rounds, summed over the command list, so
    that a stall in one process moves the figure by at most that command's
    share.  `setup_s` is the median cold start over every launch.

    Scaled, each process's times are multiplied by REFERENCE_S over its
    round's reference time: this machine's speed drifts by up to a third
    over minutes, and the program's times drift with the reference's."""
    def timed(r: Round) -> list[tuple[float, Proc]]:
        k = REFERENCE_S / r.reference if scaled else 1.0
        return [(k, p) for p in r.procs]

    per_op = list(zip(*(timed(r) for r in rounds)))
    return {
        "wall_s": sum(statistics.median(k * p.wall for k, p in op) for op in per_op),
        "cpu_s": sum(statistics.median(k * p.cpu for k, p in op) for op in per_op),
        "peak_rss_mb": max(statistics.median(p.rss_mb for _, p in op) for op in per_op),
        "setup_s": statistics.median(k * p.setup for op in per_op for k, p in op),
    }


def per_layer(rounds: list[Round], failures: list[str]) -> dict[str, float]:
    traced = [r for r in rounds if r.traced]
    plain = [r for r in rounds if not r.traced]
    each = []
    for r in traced:
        m = tracer.layer_metrics(r.traces)
        m["suspension.class_yield"] = (m["suspension.classes"] / m["suspension.samples"]
                                       if m["suspension.samples"] else 0.0)
        m["chains.preimages_per_word"] = (m["chains.preimages_calls"] / r.words
                                          if r.words else 0.0)
        each.append(m)
    out = {}
    for name in each[0]:
        values = [m[name] for m in each]
        if name.endswith("_s"):
            out[name] = statistics.median(values)
        else:
            out[name] = values[0]
            if any(v != values[0] for v in values):
                failures.append(f"traced count {name} differs between rounds: {values}")
    out["trace.overhead_s"] = (end_to_end(traced, scaled=False)["wall_s"]
                               - end_to_end(plain, scaled=False)["wall_s"])
    return out


def commit() -> str | None:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=20)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "pseudosusp" / "cli.py").is_file():
        print(f"perfbench: no pseudosusp sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    run_dir = OUT / f"{args.workload}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    failures: list[str] = []
    digests: dict[str, str] = {}
    rounds: list[Round] = []
    try:
        ops = WORKLOADS[args.workload](random.Random(f"{args.workload}:{args.seed}"),
                                       FIXTURES, run_dir)
        start = time.monotonic()
        while True:
            traced = bool(args.trace) and len(rounds) % 2 == 1
            rounds.append(run_round(ops, run_dir, traced, digests, failures, len(rounds)))
            if time.monotonic() - start >= args.seconds and (not args.trace or len(rounds) >= 2):
                break
        measured = per_layer(rounds, failures) if args.trace else end_to_end(rounds)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    attempted = sum(len(r.procs) for r in rounds)
    failed = sum(p.failed for r in rounds for p in r.procs)
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted}
    result = {"correct": not failures, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    details = {
        **result,
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "failures": failures,
        "commands": [op.argv for op in ops],
        "unscaled": end_to_end(rounds, scaled=False),
        "rounds": [{"traced": r.traced, "reference_s": r.reference, "wall_s": r.wall,
                    "procs": [{"rc": p.rc, "failed": p.failed, "wall_s": p.wall, "cpu_s": p.cpu,
                               "rss_mb": p.rss_mb, "setup_s": p.setup} for p in r.procs]}
                   for r in rounds],
        "spans": {op.name: t["spans"]
                  for op, t in zip(ops, next((r.traces for r in rounds if r.traced), []))},
        "environment": {
            "python": platform.python_version(), "numpy": np.__version__,
            "cpu_count": os.cpu_count(),
            "numba_importable": importlib.util.find_spec("numba") is not None,
            "commit": commit(),
        },
    }
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    (OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(details, indent=1), encoding="utf-8")
    for line in failures:
        print(f"perfbench: {line}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
