"""Spans around the program's public entry points, and the per-layer counters
derived from them.

``install`` replaces each public function listed in ``TARGETS`` by a wrapper
that records a span (name, start, end, parent span, operation id, exception
type) and rebinds every name under which an already imported ``fibrato``
module holds the original, so that ``fibrato.datum.even_resolve`` and the
CLI's ``table`` are traced as their callers see them.  Spans stay in memory;
``write_spans`` saves them when the pass ends.  Nothing inside the program
changes.

For three entry points the wrapper also keeps the arguments and the result
(the resolution trace, the datum, the audit report) so that work counts can
be read from them after the pass, outside every timed span.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict

TARGETS = {
    "fibrato.germs": ("parse_germ", "even_resolve"),
    "fibrato.oracle": ("binomial_oracle",),
    "fibrato.datum": ("invariants",),
    "fibrato.fibration": ("audit",),
    "fibrato.hurwitz": ("is_compatible", "solve_source_genus",
                        "ramification_genus", "is_realizable"),
    "fibrato.bounds": ("table",),
    "fibrato.constructions": ("family", "genus2", "genus3", "odd_genus",
                              "even_genus", "mod4_0", "mod4_1", "mod6_1",
                              "beauville", "beauville_quartic", "best_known"),
}
KEEP_PAYLOAD = {"germs.even_resolve", "datum.invariants", "fibration.audit"}

# span fields
NAME, START, END, PARENT, OP, ERROR, PAYLOAD = range(7)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        keep = name in KEEP_PAYLOAD
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1, tracer.op, None, None]
            if keep:
                span[PAYLOAD] = (args, None)
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                span[END] = clock()
                span[ERROR] = type(exc).__name__
                raise
            finally:
                stack.pop()
            span[END] = clock()
            if keep:
                span[PAYLOAD] = (args, out)
            return out

        return traced


def install(tracer: Tracer) -> None:
    """Wrap every target and rebind it in every loaded ``fibrato`` module."""
    originals = {}
    for mod_name, names in TARGETS.items():
        module = importlib.import_module(mod_name)
        layer = mod_name.split(".")[1]
        for name in names:
            fn = getattr(module, name)
            originals[id(fn)] = tracer.wrap(f"{layer}.{name}", fn)
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "fibrato" and not mod_name.startswith("fibrato."):
            continue
        for attr, value in list(vars(module).items()):
            wrapper = originals.get(id(value))
            if wrapper is not None:
                setattr(module, attr, wrapper)


def write_spans(tracer: Tracer, path) -> None:
    with open(path, "w", encoding="utf-8") as out:
        for idx, s in enumerate(tracer.spans):
            out.write(json.dumps({"id": idx, "parent": s[PARENT], "op": s[OP],
                                  "name": s[NAME], "start_ns": s[START],
                                  "end_ns": s[END], "error": s[ERROR]}) + "\n")


# ---------------------------------------------------------------------------
# counters

# Counters that combine across processes by max instead of by sum.
MAX_COUNTERS = {"germs.max_depth"}


def is_time(key: str) -> bool:
    return key.endswith(("_s", ".s"))


def scaled(counters: dict, factor: float) -> dict:
    return {k: v * factor if is_time(k) else v for k, v in counters.items()}


def counters(tracer: Tracer, op_scale: list[float] | None = None) -> dict:
    """Additive work and time counters of one process's spans.  With
    `op_scale`, each span's duration is multiplied by its operation's factor
    (see yardstick.py)."""
    spans = tracer.spans

    def seconds(s) -> float:
        factor = op_scale[s[OP]] if op_scale is not None and 0 <= s[OP] < len(op_scale) else 1
        return (s[END] - s[START]) / 1e9 * factor

    c: dict = defaultdict(float)
    child_s = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child_s[s[PARENT]] += seconds(s)
    distinct = set()
    c["germs.max_depth"] = 0
    for idx, s in enumerate(spans):
        name, dur = s[NAME], seconds(s)
        layer = name.split(".")[0]
        parent = spans[s[PARENT]][NAME] if s[PARENT] >= 0 else ""
        outermost = parent.split(".")[0] != layer
        c["trace.spans"] += 1
        if name == "germs.parse_germ":
            c["germs.parse_calls"] += 1
            c["germs.parse_s"] += dur
        elif name == "germs.even_resolve":
            c["germs.resolve_calls"] += 1
            c["germs.resolve_s"] += dur
            if parent == "datum.invariants":
                c["datum.resolutions"] += 1
            args, trace = s[PAYLOAD]
            distinct.add(args[0])
            if trace is not None:
                _trace_counts(c, trace)
        elif name == "oracle.binomial_oracle":
            c["oracle.calls"] += 1
            c["oracle.s"] += dur
        elif name == "datum.invariants":
            c["datum.invariants_calls"] += 1
            c["datum.invariants_s"] += dur
            c["datum.self_s"] += dur - child_s[idx]
            datum = s[PAYLOAD][0][0]
            c["datum.germ_entries"] += sum(len(f.germs) for f in datum.critical_fibers)
        elif name == "fibration.audit":
            c["fibration.audit_calls"] += 1
            c["fibration.audit_s"] += dur
            report = s[PAYLOAD][1]
            if report is not None:
                c["fibration.checks_failed"] += sum(
                    1 for ch in report.checks if ch.status == "fail")
                c["fibration.checks_skipped"] += sum(
                    1 for ch in report.checks if ch.status == "skipped")
        elif layer == "hurwitz" and outermost:
            c["hurwitz.calls"] += 1
            c["hurwitz.s"] += dur
        elif name == "bounds.table":
            c["bounds.table_calls"] += 1
            c["bounds.table_s"] += dur
        elif name == "constructions.best_known":
            c["constructions.best_known_calls"] += 1
            c["constructions.best_known_s"] += dur
        elif layer == "constructions" and outermost:
            c["constructions.family_calls"] += 1
            c["constructions.family_s"] += dur
    c["germs.resolve_distinct"] = len(distinct)
    return dict(c)


def _trace_counts(c, trace) -> None:
    blowups = labelled = 0
    depth = 0
    for pt in trace.points:
        depth = max(depth, pt.depth)
        if pt.germ is not None:
            blowups += 1
            if pt.classification != "NonNegligibleInterior":
                labelled += 1
    c["germs.blowups"] += blowups
    c["germs.labelled_points"] += labelled
    if trace.points:
        c["germs.labelled_x_depth"] += labelled * (depth + 1)
        c["germs.max_depth"] = max(c["germs.max_depth"], depth)


def merge(total: dict, part: dict) -> None:
    for key, value in part.items():
        if key in MAX_COUNTERS:
            total[key] = max(total.get(key, 0), value)
        else:
            total[key] = total.get(key, 0) + value
