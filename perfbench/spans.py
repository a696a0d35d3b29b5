"""Spans around the calls one thetastrata module makes into another,
recorded from outside the package.

`install` replaces every module-level binding of a traced function (the
defining module's own, each `from .x import f` copy and the package
re-export) with one wrapper per function, and returns a function that
puts the originals back. A span is [name, start_ns, end_ns, parent, op]:
calls are synchronous, so a span's children lie inside it and its self
time is its duration minus theirs.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict

MODULES = ("chars", "symplectic", "theta", "forms", "classify", "verify", "cli")


def _static(name):
    return lambda args, kwargs: name


def _vanishing_name(args, kwargs):
    point = args[0] if args else kwargs["point"]
    return "classify.vanishing_set" if point.genus == 4 else "classify.vanishing_set.block"


def _split_name(args, kwargs):
    k = args[1] if len(args) > 1 else kwargs["k"]
    return f"classify.detect_split.k{k}"


def _count_constants(rec, args, result):
    tv = next(iter(result.values()))
    g = next(iter(result)).genus
    n_eps = len({m.eps for m in result})
    rec.count("theta.calls", 1)
    rec.count("theta.radius_sum", tv.radius)
    rec.count("theta.box_points", n_eps * (2 * tv.radius + 1) ** g)


def _count_function(rec, args, result):
    rec.count("theta.calls", 1)
    rec.count("theta.radius_sum", result.radius)
    rec.count("theta.box_points", (2 * result.radius + 1) ** args[0].genus)


def _count_nodes(rec, args, result):
    rec.count("classify.split_nodes", result.nodes)


# (module, function) -> (span namer, result hook)
TRACED = {
    ("theta", "validate_siegel"): (_static("theta.validate_siegel"), None),
    ("theta", "even_theta_constants"): (_static("theta.even_theta_constants"), _count_constants),
    ("theta", "theta_constant"): (_static("theta.theta_constant"), None),
    ("theta", "theta_function"): (_static("theta.theta_function"), _count_function),
    ("theta", "siegel_action"): (_static("theta.siegel_action"), None),
    ("chars", "all_characteristics"): (_static("chars.all_characteristics"), None),
    ("forms", "evaluate_forms"): (_static("forms.evaluate_forms"), None),
    ("forms", "transformation_residual"): (_static("forms.transformation_residual"), None),
    ("classify", "classify"): (_static("classify.classify"), None),
    ("classify", "vanishing_set"): (_vanishing_name, None),
    ("classify", "detect_split"): (_split_name, _count_nodes),
    ("symplectic", "random_symplectic"): (_static("symplectic.random_symplectic"), None),
    ("symplectic", "affine_action"): (_static("symplectic.affine_action"), None),
    ("verify", "transformation_check"): (_static("verify.transformation_check"), None),
    ("cli", "run"): (_static("cli.run"), None),
}


class Recorder:
    """Spans and counts of a traced pass, kept in memory until written."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.op = None
        self._stack: list[int] = []

    def count(self, name: str, value: float):
        self.counts[name] += value

    def wrap(self, fn, namer, hook):
        def traced(*args, **kwargs):
            span = [namer(args, kwargs), 0, 0, self._stack[-1] if self._stack else None, self.op]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter_ns()
                self._stack.pop()
            if hook is not None:
                hook(self, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def write(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                     "parent": parent, "op": op}) + "\n")


def install(rec: Recorder):
    """Wrap every binding of the traced functions; returns the undo."""
    modules = [importlib.import_module("thetastrata")]
    modules += [importlib.import_module(f"thetastrata.{m}") for m in MODULES]
    wrappers = {}
    for (mod, name), (namer, hook) in TRACED.items():
        fn = getattr(importlib.import_module(f"thetastrata.{mod}"), name)
        wrappers[id(fn)] = rec.wrap(fn, namer, hook)
    undo = []
    for module in modules:
        for name, value in list(vars(module).items()):
            if id(value) in wrappers:
                undo.append((module, name, value))
                setattr(module, name, wrappers[id(value)])

    def restore():
        for module, name, value in undo:
            setattr(module, name, value)

    return restore


def self_times(spans: list[list]) -> tuple[dict, dict]:
    """Per-name self and total ns."""
    child_ns = [0] * len(spans)
    for name, start, end, parent, op in spans:
        if parent is not None:
            child_ns[parent] += end - start
    self_ns: dict[str, int] = defaultdict(int)
    total_ns: dict[str, int] = defaultdict(int)
    for i, (name, start, end, _, _) in enumerate(spans):
        self_ns[name] += end - start - child_ns[i]
        total_ns[name] += end - start
    return self_ns, total_ns


def span_faults(spans: list[list], windows: list[tuple[int, int]]) -> list[str]:
    """What is wrong with spans recorded over ops timed as windows
    [start_ns, end_ns]: a span outside its op's window, a child outside
    its parent or in another op, a negative self time, or root spans
    that add up to more than their op's wall time."""
    faults = []
    child_ns = [0] * len(spans)
    root_ns = [0] * len(windows)
    for i, (name, start, end, parent, op) in enumerate(spans):
        if not (op is not None and 0 <= op < len(windows)
                and windows[op][0] <= start <= end <= windows[op][1]):
            faults.append(f"span {i} ({name}) outside the window of op {op}")
        elif parent is None:
            root_ns[op] += end - start
        elif not (0 <= parent < i and spans[parent][4] == op
                  and spans[parent][1] <= start and end <= spans[parent][2]):
            faults.append(f"span {i} ({name}) outside its parent {parent}")
        else:
            child_ns[parent] += end - start
    for i, (name, start, end, _, _) in enumerate(spans):
        if end - start < child_ns[i]:
            faults.append(f"span {i} ({name}) has negative self time")
    for op, (start, end) in enumerate(windows):
        if root_ns[op] > end - start:
            faults.append(f"root spans of op {op} exceed its wall time")
    return faults


def layer_metrics(rec: Recorder, n_ops: int, traced_ns: int, untraced_ms: float) -> dict:
    """Per-operation layer figures from a traced pass of n_ops operations
    whose op wall times sum to traced_ns."""
    self_ns, total_ns = self_times(rec.spans)

    def ms(table, *names):
        return sum(table.get(n, 0) for n in names) / n_ops / 1e6

    kernel_s = (self_ns.get("theta.even_theta_constants", 0)
                + self_ns.get("theta.theta_function", 0)) / 1e9
    c = rec.counts
    return {
        "theta.certify_ms": (ms(self_ns, "theta.validate_siegel"), "ms"),
        "theta.radius_mean": (c["theta.radius_sum"] / c["theta.calls"] if c["theta.calls"] else 0.0,
                              "count"),
        "theta.box_points": (c["theta.box_points"] / n_ops, "count"),
        "theta.constants_ms": (ms(self_ns, "theta.even_theta_constants"), "ms"),
        "theta.box_points_per_s": (c["theta.box_points"] / kernel_s if kernel_s else 0.0, "1/s"),
        "theta.single_ms": (ms(self_ns, "theta.theta_constant", "theta.theta_function"), "ms"),
        "theta.action_ms": (ms(self_ns, "theta.siegel_action"), "ms"),
        "chars.enumerate_ms": (ms(total_ns, "chars.all_characteristics"), "ms"),
        "forms.evaluate_ms": (ms(self_ns, "forms.evaluate_forms"), "ms"),
        "forms.residual_ms": (ms(self_ns, "forms.transformation_residual"), "ms"),
        "classify.vanishing_ms": (ms(self_ns, "classify.vanishing_set"), "ms"),
        "classify.blocks_ms": (ms(total_ns, "classify.vanishing_set.block"), "ms"),
        "classify.split_k1_ms": (ms(total_ns, "classify.detect_split.k1"), "ms"),
        "classify.split_k2_ms": (ms(total_ns, "classify.detect_split.k2"), "ms"),
        "classify.split_nodes": (c["classify.split_nodes"] / n_ops, "count"),
        "classify.self_ms": (ms(self_ns, "classify.classify"), "ms"),
        "symplectic.word_ms": (ms(total_ns, "symplectic.random_symplectic"), "ms"),
        "symplectic.action_ms": (ms(total_ns, "symplectic.affine_action"), "ms"),
        "verify.self_ms": (ms(self_ns, "verify.transformation_check"), "ms"),
        "cli.self_ms": (ms(self_ns, "cli.run"), "ms"),
        "trace.overhead_ms": (traced_ns / n_ops / 1e6 - untraced_ms, "ms"),
    }
