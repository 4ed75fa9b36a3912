"""Certification of labelings and Skolem-type sequences.

Checks report violations rather than raising; every violated condition is
enumerated (capped) with a stable condition id, so reports are usable as
golden-test text.  Only this module builds a VerifyReport: its violations
alone.  One body certifies labelings, fed by two derivations of its inputs:
verify_labeling takes a graph's labels and induced edge labels,
verify_pair_system an nK2 pair system's values and differences.  One
certifier, verify_sequence, serves every sequence kind by its tag; the
(k, d)-free odd/even census is partition_census's alone.
"""

from __future__ import annotations

from collections import Counter

from .core import (
    Graph,
    PairSystem,
    SequenceForm,
    VertexLabeling,
    _Record,
    _set,
    edge_target_set,
    induced_edge_labels,
    pair_system_labeling,  # not called here: perfbench/tracing.py patches it in this module
    sequence_shape,
    target_label_set,
)

# Stable condition ids used in report text.
VERTEX_LABEL_SET = "vertex_label_set"
EDGE_LABEL_SET = "edge_label_set"
EDGE_LABEL_REPEAT = "edge_label_repeat"
HOOK_POSITION = "hook_position"
MULTIPLICITY = "multiplicity"
DISTANCE = "distance"
SUM_IDENTITY = "sum_identity"

MAX_VIOLATIONS = 32


class PartitionCensus(_Record):
    """Sizes of the odd/even label classes and the edges between them."""

    def __init__(self, odd_count: int, even_count: int, cross_edges: int):
        _set(self, "odd_count", odd_count)
        _set(self, "even_count", even_count)
        _set(self, "cross_edges", cross_edges)


class VerifyReport(_Record):
    """Pass/fail certification with every violated condition enumerated,
    up to the first MAX_VIOLATIONS."""

    def __init__(self, violations: tuple[tuple[str, str], ...]):
        _set(self, "violations", tuple(violations[:MAX_VIOLATIONS]))

    @property
    def valid(self) -> bool:
        return not self.violations

    def to_text(self) -> str:
        if self.valid:
            return "VALID"
        return "\n".join(f"VIOLATION {cid}: {detail}" for cid, detail in self.violations)


def partition_census(g: Graph, f: VertexLabeling) -> PartitionCensus:
    # An edge crosses the odd/even label classes exactly when its label is odd.
    odd = len([x for x in f.labels if x & 1])
    cross = len([x for x in induced_edge_labels(g, f) if x & 1])
    return PartitionCensus(odd, len(f.labels) - odd, cross)


def _certify(labels, edge_labels, k: int, d: int) -> VerifyReport:
    """The one certifier body: labels against {1..p-1, p+1}, p = len(labels),
    edge labels against the progression k, k+d, ..."""
    p, violations = len(labels), []
    distinct, target = set(labels), target_label_set(p)
    if len(distinct) != p:
        for lab, cnt in sorted(Counter(labels).items()):
            if cnt > 1:
                violations.append((VERTEX_LABEL_SET, f"label {lab} used {cnt} times"))
    for lab in sorted(distinct - target):
        violations.append((VERTEX_LABEL_SET, f"label {lab} not in {{1..{p - 1}, {p + 1}}}"))
    for lab in sorted(target - distinct):
        violations.append((VERTEX_LABEL_SET, f"label {lab} missing"))

    q = len(edge_labels)
    induced, targets = set(edge_labels), set(edge_target_set(k, d, q))
    if len(induced) != q:
        for lab, cnt in sorted(Counter(edge_labels).items()):
            if cnt > 1:
                violations.append((EDGE_LABEL_REPEAT, f"edge label {lab} induced {cnt} times"))
    for lab in sorted(induced - targets):
        violations.append((EDGE_LABEL_SET, f"edge label {lab} outside target progression"))
    for lab in sorted(targets - induced):
        violations.append((EDGE_LABEL_SET, f"edge label {lab} never induced"))

    return VerifyReport(violations)


def verify_labeling(g: Graph, f: VertexLabeling, k: int, d: int) -> VerifyReport:
    """Certify f as a (k,d)-hooked Skolem graceful labeling of g: the shared
    body on f's labels and the edge labels they induce on g."""
    return _certify(f.labels, induced_edge_labels(g, f), k, d)


def verify_pair_system(ps: PairSystem, k: int, d: int) -> VerifyReport:
    """Certify ps as a (k,d)-hooked Skolem graceful labeling of nK2, pair i
    on edge i: the shared body on the pair values and differences, with no
    Graph built."""
    return _certify(ps.values(), ps.differences(), k, d)


def verify_sequence(s: SequenceForm) -> VerifyReport:
    """Certify s as a sequence of its own kind tag and least value s.d:
    the hook, multiplicity and distance conditions, in that order."""
    violations = []
    length = len(s.entries)
    hooks = s.hook_positions()
    m = length // 2
    want_length, hook, least = sequence_shape(s.kind, m, s.d)

    # Hook/shape conditions come first so report text is deterministic.
    if hook is None:
        if length != want_length:
            violations.append((HOOK_POSITION, f"length {length} is not 2m"))
        if hooks:
            violations.append((HOOK_POSITION, f"unexpected hook at positions {hooks}"))
    else:
        if length != want_length or length < 3:
            violations.append((HOOK_POSITION, f"length {length} is not 2m+1"))
        if hooks != [hook]:
            violations.append(
                (HOOK_POSITION, f"hook at positions {hooks}, expected [{hook}]")
            )

    pos = s.value_positions()
    values = range(least, least + m)
    for v in sorted(set(pos) - set(values)):
        violations.append((MULTIPLICITY, f"value {v} outside value set"))
    for v in values:
        where = pos.get(v, [])
        if len(where) != 2:
            violations.append((MULTIPLICITY, f"value {v} appears {len(where)} times"))
    for v in values:
        where = pos.get(v, [])
        if len(where) == 2 and where[1] - where[0] != v:
            violations.append(
                (DISTANCE, f"value {v} at positions {where[0]},{where[1]}: "
                           f"distance {where[1] - where[0]}")
            )
    return VerifyReport(violations)


def check_sum_identity(ps: PairSystem, k: int, d: int) -> VerifyReport:
    """Check the two counting identities any valid nK2 labeling satisfies:
    sum(b-a) = nk + n(n-1)d/2 and sum(a+b) = 2n^2 + n + 1."""
    n = ps.n
    violations = []
    if set(ps.values()) != target_label_set(2 * n):
        violations.append(
            (VERTEX_LABEL_SET,
             f"pair values are not {{1..{2 * n - 1}, {2 * n + 1}}}; "
             "identity check not meaningful")
        )
    sum_diff = sum(ps.differences())
    expected_diff = sum(edge_target_set(k, d, n))
    if sum_diff != expected_diff:
        violations.append(
            (SUM_IDENTITY, f"sum of differences {sum_diff} != {expected_diff}")
        )
    sum_all = sum(ps.values())
    expected_all = 2 * n * n + n + 1
    if sum_all != expected_all:
        violations.append(
            (SUM_IDENTITY, f"sum of labels {sum_all} != {expected_all}")
        )
    return VerifyReport(violations)
