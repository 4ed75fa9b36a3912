"""Spans around calls into hskolem's public functions, kept in memory.

A span is (name, start, end, parent, call id, facts).  The benchmark opens
one root span per workload call; the library functions below are wrapped
where their callers look them up, so calls the library makes internally
(survey_nk2 -> search_nk2, construct_nk2_21 -> verify_pair_system ->
verify_labeling) become child spans.  Wrappers record nothing outside a
root span, so the benchmark's own output checks never show up as work.
"""

from __future__ import annotations

import time

# (module, attribute, span name).  The first part of a span name is its layer.
PATCHES = (
    ("search", "search_nk2", "search.nk2"),
    ("search", "search_skolem", "search.seq"),
    ("search", "search_hooked_skolem", "search.seq"),
    ("search", "search_hooked_sequence", "search.seq"),
    ("search", "search_graph", "search.graph"),
    ("search", "survey_nk2", "search.survey"),
    ("search", "nk2_parity_feasible", "conditions.nk2_parity_feasible"),
    ("search", "size_necessary", "conditions.size_necessary"),
    ("construct", "construct_nk2_21", "construct.nk2_21"),
    ("construct", "base_cases", "construct.generate"),
    ("construct", "even_family_labels", "construct.generate"),
    ("construct", "odd_family_labels", "construct.generate"),
    ("construct", "verify_pair_system", "verify.pair_system"),
    ("verify", "pair_system_labeling", "core.convert"),
    ("verify", "verify_labeling", "verify.certify"),
    ("verify", "verify_sequence", "verify.sequence"),
    ("core", "pair_system_to_json", "core.io"),
    ("core", "pair_system_from_json", "core.io"),
    ("core", "format_pairs", "core.io"),
    ("core", "parse_pairs", "core.io"),
    ("core", "pairs_to_sequence", "core.to_sequence"),
)

LAYERS = ("search", "construct", "core", "verify", "conditions", "cli")


def _facts(name, result, args) -> dict | None:
    """Counts read off a call's result: search nodes and solutions, verify
    verdicts, bytes through core.io and CLI exit codes."""
    stats = getattr(result, "stats", None)
    if stats is not None:
        if result.count is not None:
            found = result.count
        else:
            found = len(result.solutions) or int(result.exists)
        return {"nodes": stats.nodes_expanded, "solutions": found}
    if name.startswith("verify."):
        return {"invalid": int(not result.valid)}
    if name == "core.io":
        text = result if isinstance(result, str) else args[0]
        return {"bytes": len(text)}
    code = getattr(result, "returncode", None)
    if code is not None:
        return {"exit": code}
    return None


class Tracer:
    def __init__(self, hskolem):
        self._h = hskolem
        self._saved: list = []
        self._stack: list[int] = []
        self._call_id: int | None = None
        self.spans: list[list] = []

    def _wrap(self, fn, name):
        def traced(*args, **kwargs):
            if self._call_id is None:
                return fn(*args, **kwargs)
            return self._span(name, fn, args, kwargs)

        return traced

    def _span(self, name, fn, args, kwargs):
        span = [name, time.perf_counter(), None, self._stack[-1] if self._stack else None,
                self._call_id, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()
        span[5] = _facts(name, result, args)
        return result

    def install(self) -> None:
        for module, attr, name in PATCHES:
            mod = getattr(self._h, module)
            fn = getattr(mod, attr)
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(fn, name))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    def root(self, name: str, call_id: int, fn):
        """Run one workload call inside a root span; return its result."""
        self._call_id = call_id
        try:
            return self._span(name, fn, (), {})
        finally:
            self._call_id = None

    def take(self) -> list[list]:
        spans, self.spans = self.spans, []
        return spans


def summarize(spans, factors) -> dict:
    """Per span name: calls, total and self seconds, and summed facts.
    Self time is a span's duration minus the time its child spans cover.
    Each span's times are multiplied by factors[its call id], which puts
    them at reference speed (speed.py)."""
    child = [0.0] * len(spans)
    for name, start, end, parent, call_id, _ in spans:
        if parent is not None:
            child[parent] += (end - start) * factors[call_id]
    out: dict = {}
    for i, (name, start, end, _, call_id, facts) in enumerate(spans):
        row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        duration = (end - start) * factors[call_id]
        row["calls"] += 1
        row["total_s"] += duration
        row["self_s"] += duration - child[i]
        for key, value in (facts or {}).items():
            row[key] = row.get(key, 0) + value
    return out
