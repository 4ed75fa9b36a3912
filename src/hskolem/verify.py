"""Certification of labelings and Skolem-type sequences.

Checks report violations rather than raising; every violated condition is
enumerated (capped) with a stable condition id, so reports are usable as
golden-test text.  Only this module builds a VerifyReport: verify_labeling
certifies any graph, verify_pair_system an nK2 pair system straight from its
pairs, and one certifier, verify_sequence, every sequence kind by its tag.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .core import (
    Graph,
    PairSystem,
    SequenceForm,
    ShapeMismatch,
    VertexLabeling,
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


@dataclass(frozen=True)
class PartitionCensus:
    """Sizes of the odd/even label classes and the edges between them."""

    odd_count: int
    even_count: int
    cross_edges: int


@dataclass(frozen=True)
class VerifyReport:
    """Pass/fail certification with every violated condition enumerated."""

    violations: tuple[tuple[str, str], ...]
    census: PartitionCensus | None = None

    @property
    def valid(self) -> bool:
        return not self.violations

    def to_text(self) -> str:
        if self.valid:
            return "VALID"
        return "\n".join(f"VIOLATION {cid}: {detail}" for cid, detail in self.violations)


def _report(violations, census=None) -> VerifyReport:
    return VerifyReport(tuple(violations[:MAX_VIOLATIONS]), census)


def partition_census(g: Graph, f: VertexLabeling) -> PartitionCensus:
    if len(f.labels) != g.p:
        raise ShapeMismatch(f"{len(f.labels)} labels for {g.p} vertices")
    odd = sum(1 for x in f.labels if x % 2 == 1)
    cross = sum(
        1 for u, v in g.edges if (f.labels[u - 1] + f.labels[v - 1]) % 2 == 1
    )
    return PartitionCensus(odd, g.p - odd, cross)


def verify_labeling(g: Graph, f: VertexLabeling, k: int, d: int) -> VerifyReport:
    """Certify f as a (k,d)-hooked Skolem graceful labeling of g."""
    if len(f.labels) != g.p:
        raise ShapeMismatch(f"{len(f.labels)} labels for {g.p} vertices")
    violations = []

    target = target_label_set(g.p)
    label_counts = Counter(f.labels)
    for lab, cnt in sorted(label_counts.items()):
        if cnt > 1:
            violations.append(
                (VERTEX_LABEL_SET, f"label {lab} used {cnt} times")
            )
    for lab in sorted(set(f.labels) - target):
        violations.append((VERTEX_LABEL_SET, f"label {lab} not in {{1..{g.p - 1}, {g.p + 1}}}"))
    for lab in sorted(target - set(f.labels)):
        violations.append((VERTEX_LABEL_SET, f"label {lab} missing"))

    edge_labels = induced_edge_labels(g, f)
    targets = set(edge_target_set(k, d, g.q))
    for lab, cnt in sorted(Counter(edge_labels).items()):
        if cnt > 1:
            violations.append((EDGE_LABEL_REPEAT, f"edge label {lab} induced {cnt} times"))
    for lab in sorted(set(edge_labels) - targets):
        violations.append((EDGE_LABEL_SET, f"edge label {lab} outside target progression"))
    for lab in sorted(targets - set(edge_labels)):
        violations.append((EDGE_LABEL_SET, f"edge label {lab} never induced"))

    return _report(violations, partition_census(g, f))


def verify_pair_system(ps: PairSystem, k: int, d: int) -> VerifyReport:
    """Certify ps as a (k,d)-hooked Skolem graceful labeling of nK2, pair i
    on edge i.  It certifies the pairs directly, with the ids, texts and
    order of verify_labeling, which serves general graphs.  PairSystem
    values are distinct, so no label can repeat."""
    n = ps.n
    violations = []

    values = ps.values()
    labels, target = set(values), target_label_set(2 * n)
    for lab in sorted(labels - target):
        violations.append((VERTEX_LABEL_SET, f"label {lab} not in {{1..{2 * n - 1}, {2 * n + 1}}}"))
    for lab in sorted(target - labels):
        violations.append((VERTEX_LABEL_SET, f"label {lab} missing"))

    diffs = ps.differences()
    induced, targets = set(diffs), set(edge_target_set(k, d, n))
    if len(induced) != n:
        for lab, cnt in sorted(Counter(diffs).items()):
            if cnt > 1:
                violations.append((EDGE_LABEL_REPEAT, f"edge label {lab} induced {cnt} times"))
    for lab in sorted(induced - targets):
        violations.append((EDGE_LABEL_SET, f"edge label {lab} outside target progression"))
    for lab in sorted(targets - induced):
        violations.append((EDGE_LABEL_SET, f"edge label {lab} never induced"))

    # An edge crosses the odd/even classes exactly when its difference is odd.
    odd = len([x for x in values if x & 1])
    cross = len([x for x in diffs if x & 1])
    return _report(violations, PartitionCensus(odd, 2 * n - odd, cross))


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
    return _report(violations)


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
    expected_diff = n * k + n * (n - 1) * d // 2
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
    return _report(violations)
