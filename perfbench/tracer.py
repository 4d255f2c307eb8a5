"""Layer tracing for one `pseudosusp` command, installed from outside the program.

The tracer replaces functions of `pseudosusp.*` modules with timing wrappers
before the command runs.  A function is rebound wherever a program module
holds it (a module attribute or a value of a module-level dict, such as the
CLI's handler table); a method is patched on its class.  Entry points and
per-command calls get one span each, with their parent span; the hot inner
calls are aggregated per parent span into a call count and a total time.

A name that the program no longer has is skipped, so its metrics read 0.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import sys
import time

SPAN = "span"
HOT = "hot"


def _points(args: dict, result) -> dict:
    return {"points": int(getattr(args["x"], "size", 1))}


def _result_bytes(args: dict, result) -> dict:
    return {"bytes": int(result.nbytes)}


def _argument_bytes(args: dict, result) -> dict:
    return {"bytes": sum(int(v.nbytes) for v in args.values() if hasattr(v, "nbytes"))}


def _entropy_counts(args: dict, result) -> dict:
    return {"samples": int(args["budget"]), "classes": round(math.exp(result * args["n"]))}


# (module, function or Class.method, record name, kind, extra counts)
POINTS = [
    ("cli", "cmd_suspend_entropy", "cli.suspend_entropy", SPAN, None),
    ("cli", "cmd_hak_verify", "cli.hak_verify", SPAN, None),
    ("cli", "cmd_horseshoe", "cli.horseshoe", SPAN, None),
    ("cli", "cmd_mixing_witness", "cli.mixing_witness", SPAN, None),
    ("cli", "cmd_dense_orbit", "cli.dense_orbit", SPAN, None),
    ("cli", "cmd_suspend_orbit", "cli.suspend_orbit", SPAN, None),
    ("cli", "_write_csv", "cli.write", SPAN, None),
    ("config", "load_config", "config.load", SPAN, None),
    ("config", "build_map", "config.load", SPAN, None),
    ("config", "build_cantor", "config.load", SPAN, None),
    ("config", "build_stages", "config.load", SPAN, None),
    ("config", "build_plmap", "config.load", SPAN, None),
    ("config", "build_interval_chain", "config.load", SPAN, None),
    ("annulus", "hak_verify", "annulus.hak_verify", SPAN, None),
    ("annulus", "LiftedAnnulusMap.apply", "annulus.apply", HOT, None),
    ("annulus", "pl_eval", "annulus.pl_eval", HOT, _points),
    ("suspension", "entropy_separated", "suspension.entropy", SPAN, _entropy_counts),
    ("suspension", "entropy_spanning", "suspension.entropy", SPAN, _entropy_counts),
    ("suspension", "_variation_windows", "suspension.window_build", SPAN, _result_bytes),
    ("suspension", "weak_mixing_witness", "suspension.search", SPAN, None),
    ("suspension", "dense_orbit_check", "suspension.search", SPAN, None),
    ("suspension", "step", "suspension.step", HOT, None),
    ("suspension", "quotient_distance", "suspension.distance", HOT, None),
    ("kernels", "greedy_bowen_select", "kernels.select", SPAN, _argument_bytes),
    ("cantor", "shift_power", "cantor.shift_power", HOT, None),
    ("cantor", "cantor_metric", "cantor.metric", HOT, None),
    ("cantor", "random_point", "cantor.random_point", SPAN, None),
    ("chains", "horseshoe_extract", "chains.horseshoe", SPAN, None),
    ("chains", "stretch_check", "chains.stretch", SPAN, None),
    ("chains", "PLMap.iterate", "chains.iterate", SPAN, None),
    ("chains", "PLMap.image", "chains.image", HOT, None),
    ("chains", "PLMap.preimages", "chains.preimages", HOT, None),
]


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.hot: dict[tuple, dict] = {}
        self._stack: list[list] = []  # [enclosing span id, seconds in children]

    def install(self, package: str = "pseudosusp") -> None:
        for module, attr, record, kind, extra in POINTS:
            try:
                mod = importlib.import_module(f"{package}.{module}")
            except ImportError:
                continue
            cls_name, _, fn_name = attr.rpartition(".")
            owner = getattr(mod, cls_name, None) if cls_name else mod
            fn = getattr(owner, fn_name, None)
            if not callable(fn):
                continue
            wrapped = self._wrap(fn, record, kind, extra)
            if cls_name:
                setattr(owner, fn_name, wrapped)
            else:
                _rebind(package, fn, wrapped)

    def _wrap(self, fn, record: str, kind: str, extra):
        tracer = self
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = tracer._stack[-1][0] if tracer._stack else None
            span_id = None
            if kind == SPAN:
                span_id = len(tracer.spans)
                tracer.spans.append({})
            frame = [span_id if kind == SPAN else parent, 0.0]
            tracer._stack.append(frame)
            start = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                total = end - start
                if tracer._stack:
                    tracer._stack[-1][1] += total
                counts = {}
                if extra is not None and result is not None:
                    try:
                        counts = extra(signature.bind(*args, **kwargs).arguments, result)
                    except (AttributeError, KeyError, TypeError, ValueError, OverflowError):
                        counts = {}
                entry = {"calls": 1, "total": total, "self": total - frame[1], **counts}
                if kind == SPAN:
                    tracer.spans[span_id] = {"id": span_id, "name": record, "parent": parent,
                                             "start": start, "end": end, **entry}
                else:
                    agg = tracer.hot.setdefault((parent, record), dict.fromkeys(entry, 0))
                    for key, value in entry.items():
                        agg[key] = agg.get(key, 0) + value
        return wrapper

    def dump(self, path: str) -> None:
        hot = [{"parent": parent, "name": name, **agg}
               for (parent, name), agg in self.hot.items()]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "hot": hot}, fh)


def _rebind(package: str, fn, wrapped) -> None:
    for name, mod in list(sys.modules.items()):
        if name != package and not name.startswith(package + "."):
            continue
        for key, value in list(vars(mod).items()):
            if value is fn:
                setattr(mod, key, wrapped)
            elif isinstance(value, dict):
                for dkey, dvalue in list(value.items()):
                    if dvalue is fn:
                        value[dkey] = wrapped


def totals(traces: list[dict]) -> dict[str, dict[str, float]]:
    """Sum every record's fields by record name over the given trace dumps."""
    out: dict[str, dict[str, float]] = {}
    for trace in traces:
        for entry in trace["spans"] + trace["hot"]:
            agg = out.setdefault(entry["name"], {})
            for key in ("calls", "total", "self", "points", "bytes", "samples", "classes"):
                agg[key] = agg.get(key, 0) + entry.get(key, 0)
    return out


# per-layer metric -> (record name, field).  cli times are inclusive; every
# other time is self time, net of the wrapped calls made inside it.
LAYER_FIELDS = {
    "cli.suspend_entropy_s": ("cli.suspend_entropy", "total"),
    "cli.hak_verify_s": ("cli.hak_verify", "total"),
    "cli.horseshoe_s": ("cli.horseshoe", "total"),
    "cli.mixing_witness_s": ("cli.mixing_witness", "total"),
    "cli.dense_orbit_s": ("cli.dense_orbit", "total"),
    "cli.suspend_orbit_s": ("cli.suspend_orbit", "total"),
    "cli.write_s": ("cli.write", "self"),
    "config.load_s": ("config.load", "self"),
    "annulus.apply_calls": ("annulus.apply", "calls"),
    "annulus.apply_s": ("annulus.apply", "self"),
    "annulus.pl_eval_calls": ("annulus.pl_eval", "calls"),
    "annulus.pl_eval_points": ("annulus.pl_eval", "points"),
    "annulus.pl_eval_s": ("annulus.pl_eval", "self"),
    "annulus.hak_verify_s": ("annulus.hak_verify", "self"),
    "suspension.entropy_calls": ("suspension.entropy", "calls"),
    "suspension.entropy_s": ("suspension.entropy", "self"),
    "suspension.window_build_s": ("suspension.window_build", "self"),
    "suspension.window_bytes": ("suspension.window_build", "bytes"),
    "suspension.samples": ("suspension.entropy", "samples"),
    "suspension.classes": ("suspension.entropy", "classes"),
    "suspension.step_calls": ("suspension.step", "calls"),
    "suspension.step_s": ("suspension.step", "self"),
    "suspension.distance_calls": ("suspension.distance", "calls"),
    "suspension.distance_s": ("suspension.distance", "self"),
    "suspension.search_s": ("suspension.search", "self"),
    "kernels.select_calls": ("kernels.select", "calls"),
    "kernels.select_s": ("kernels.select", "self"),
    "kernels.input_bytes": ("kernels.select", "bytes"),
    "cantor.shift_power_calls": ("cantor.shift_power", "calls"),
    "cantor.shift_power_s": ("cantor.shift_power", "self"),
    "cantor.metric_calls": ("cantor.metric", "calls"),
    "cantor.metric_s": ("cantor.metric", "self"),
    "cantor.random_point_s": ("cantor.random_point", "self"),
    "chains.stretch_s": ("chains.stretch", "self"),
    "chains.iterate_s": ("chains.iterate", "self"),
    "chains.image_calls": ("chains.image", "calls"),
    "chains.image_s": ("chains.image", "self"),
    "chains.preimages_calls": ("chains.preimages", "calls"),
    "chains.preimages_s": ("chains.preimages", "self"),
}

def layer_metrics(traces: list[dict]) -> dict[str, float]:
    sums = totals(traces)
    return {metric: sums.get(record, {}).get(field, 0)
            for metric, (record, field) in LAYER_FIELDS.items()}
