"""Spans around cnotline's stage-level functions, recorded from outside.

install() wraps the public stage functions of each cnotline module and
rebinds every module-level name that refers to one of them, in every
loaded cnotline module, so a call made through `from .f2 import rank`
records a span as well as one made through `f2.rank`.  Spans nest under
the `cli.main` span of their op.  Nothing under src/ changes.

A span is the list [id, parent_id, op_id, name, start, end, facts].
Self time is a span's duration minus the durations of its child spans.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# Stage-level public functions per module.  Per-gate helpers (up, down,
# Gate, BitVector methods) are left alone: a span per gate would cost
# more than the work it times.  render is not a measured layer.
TRACED = {
    "cli": ("main",),
    "f2": ("inverse", "dual_functional", "lex_min_coset", "rank", "blocks",
           "parse_matrix_text"),
    "circuit": ("schedule", "inverse", "concat", "metrics", "circuit_to_text",
                "parse_circuit_text", "apply", "crossing_counts"),
    "constructions": ("permutation_circuit", "odd_even_network",
                      "fired_comparators"),
    "glsynth": ("synthesize", "northwest_basis", "clearing_circuit",
                "triangular_reduction_circuit"),
    "bounds": ("matrix_lower_bounds", "cut_lower_bound"),
    "search": ("max_depth", "distance"),
}


def _circuit_facts(args, result) -> dict:
    return {"gates": result.size, "depth": result.depth, "n": result.n}


def _search_facts(args, result) -> dict:
    return {"visited": result.visited_count}


FACTS = {
    "circuit.schedule": _circuit_facts,
    "glsynth.clearing_circuit": _circuit_facts,
    "glsynth.triangular_reduction_circuit": _circuit_facts,
    "search.max_depth": _search_facts,
    "search.distance": _search_facts,
}


class Recorder:
    """Holds the spans of one process in memory."""

    def __init__(self) -> None:
        self.spans: list = []
        self.op = None
        self._stack: list = []

    def wrap(self, name: str, fn, facts=None, name_of=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [len(spans), stack[-1] if stack else None, self.op,
                    name_of(args) if name_of else name, clock(), None, None]
            spans.append(span)
            stack.append(span[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                span[5] = clock()
                stack.pop()
            if facts is not None:
                span[6] = facts(args, result)
            return result

        return traced


def install(recorder: Recorder) -> None:
    """Wrap TRACED in the loaded cnotline package and rebind every alias."""
    pkg = {name: mod for name, mod in sys.modules.items()
           if name == "cnotline" or name.startswith("cnotline.")}
    dense_limit = getattr(pkg["cnotline.search"], "DENSE_LIMIT", 5)

    def distance_name(args) -> str:
        return "search.distance." + ("dense" if args[0] <= dense_limit else "sparse")

    swap = {}
    for mod_name, names in TRACED.items():
        mod = pkg[f"cnotline.{mod_name}"]
        for fn_name in names:
            orig = getattr(mod, fn_name)
            span_name = f"{mod_name}.{fn_name}"
            swap[id(orig)] = (orig, recorder.wrap(
                span_name, orig, FACTS.get(span_name),
                distance_name if span_name == "search.distance" else None,
            ))
    for mod in pkg.values():
        for attr, value in list(vars(mod).items()):
            hit = swap.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(mod, attr, hit[1])


def self_times(spans: list) -> dict:
    """Span id -> duration minus the durations of its direct children."""
    out = {s[0]: s[5] - s[4] for s in spans}
    for s in spans:
        if s[1] is not None:
            out[s[1]] -= s[5] - s[4]
    return out


def layer_totals(spans: list) -> dict:
    """Per span name: calls, inclusive seconds `s` and `self_s`.

    `s` counts only spans with no ancestor of the same name, so a
    function nested in itself is not timed twice.
    """
    by_id = {s[0]: s for s in spans}
    selfs = self_times(spans)
    totals: dict = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    for s in spans:
        t = totals[s[3]]
        t["calls"] += 1
        t["self_s"] += selfs[s[0]]
        up = s[1]
        while up is not None and by_id[up][3] != s[3]:
            up = by_id[up][1]
        if up is None:
            t["s"] += s[5] - s[4]
    return totals
