"""Domain types for hooked Skolem graceful labelings and Skolem-type sequences.

A pair system is the labeling of nK2 written as n disjoint pairs (a_i, b_i)
with a_i < b_i.  A Skolem-type sequence is the same object read positionally:
the value b - a occupies positions a and b, and hooked variants leave one
unused slot (the hook) at position 2m.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum

# Input bound for constructors and searches; keeps every label far below 2**63.
MAX_ORDER = 10**6


class DomainError(ValueError):
    """Base class for structural errors raised by this package."""


class DegenerateOrder(DomainError):
    """Hooked label set {1..p-1, p+1} is ill-defined for p < 2."""


class ShapeMismatch(DomainError):
    """Labeling length does not match the graph's vertex count."""


class PositionSetMismatch(DomainError):
    """Pair values do not form the position set required by a sequence kind."""


class MultiplicityError(DomainError):
    """A sequence value appears a number of times other than two."""


class ParseError(DomainError):
    """Malformed sequence or pair-system text."""


class _Hook:
    __slots__ = ()

    def __repr__(self) -> str:
        return "HOOK"


#: Sentinel for the unused slot of a hooked sequence.
HOOK = _Hook()


class SequenceKind(Enum):
    SKOLEM = "skolem"
    HOOKED_SKOLEM = "hooked_skolem"
    HOOKED = "hooked"


@dataclass(frozen=True)
class Graph:
    """Finite undirected graph without loops; vertices are 1..p."""

    p: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.p < 1:
            raise DomainError(f"vertex count must be positive, got {self.p}")
        normalized = []
        for u, v in self.edges:
            if u == v:
                raise DomainError(f"loop at vertex {u}")
            if not (1 <= u <= self.p and 1 <= v <= self.p):
                raise DomainError(f"edge ({u},{v}) outside 1..{self.p}")
            normalized.append((min(u, v), max(u, v)))
        if len(set(normalized)) != len(normalized):
            raise DomainError("duplicate edge")
        object.__setattr__(self, "edges", tuple(normalized))

    @property
    def q(self) -> int:
        return len(self.edges)


@dataclass(frozen=True)
class TargetParams:
    """Arithmetic-progression edge-label target {k, k+d, ..., k+(q-1)d}."""

    k: int
    d: int
    q: int

    def __post_init__(self):
        if self.k < 1 or self.d < 1:
            raise DomainError("k and d must be positive")
        if self.q < 0:
            raise DomainError("q must be non-negative")

    def targets(self) -> list[int]:
        return edge_target_set(self.k, self.d, self.q)


@dataclass(frozen=True)
class VertexLabeling:
    """labels[v-1] is the label of vertex v."""

    labels: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))


@dataclass(frozen=True)
class PairSystem:
    """n disjoint label pairs (a_i, b_i), stored canonically with a < b.

    raw_pairs optionally keeps the pre-normalization orientation so the
    source convention of a construction can be inspected; it never takes
    part in equality.
    """

    pairs: tuple[tuple[int, int], ...]
    raw_pairs: tuple[tuple[int, int], ...] | None = field(default=None, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "pairs", tuple(tuple(p) for p in self.pairs))
        for a, b in self.pairs:
            if a >= b:
                raise DomainError(f"pair ({a},{b}) must have a < b")
        values = self.values()
        if len(set(values)) != len(values):
            raise DomainError("pair values must be distinct")

    @property
    def n(self) -> int:
        return len(self.pairs)

    def values(self) -> list[int]:
        return [x for pair in self.pairs for x in pair]

    def differences(self) -> list[int]:
        return [b - a for a, b in self.pairs]


@dataclass(frozen=True)
class SequenceForm:
    """Position-indexed Skolem-type sequence; entries hold ints or HOOK.

    Purely structural container: multiplicity and distance conditions are
    the verify module's job, so malformed content is representable.
    """

    kind: SequenceKind
    entries: tuple
    d: int = 1

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))
        if not self.entries:
            raise DomainError("empty sequence")

    @property
    def order(self) -> int:
        return len(self.entries) // 2

    def value_positions(self) -> dict[int, list[int]]:
        """1-based positions of each integer value."""
        pos: dict[int, list[int]] = {}
        for i, x in enumerate(self.entries, start=1):
            if x is not HOOK:
                pos.setdefault(x, []).append(i)
        return pos

    def hook_positions(self) -> list[int]:
        return [i for i, x in enumerate(self.entries, start=1) if x is HOOK]


@dataclass(frozen=True)
class VerifyReport:
    """Pass/fail certification with every violated condition enumerated."""

    violations: tuple[tuple[str, str], ...]
    census: "object | None" = None  # verify.PartitionCensus when available

    @property
    def valid(self) -> bool:
        return not self.violations

    def to_text(self) -> str:
        if self.valid:
            return "VALID"
        return "\n".join(f"VIOLATION {cid}: {detail}" for cid, detail in self.violations)


def target_label_set(p: int) -> set[int]:
    """Hooked vertex-label set {1, ..., p-1, p+1}."""
    if p < 2:
        raise DegenerateOrder(f"hooked label set needs p >= 2, got {p}")
    return set(range(1, p)) | {p + 1}


def edge_target_set(k: int, d: int, q: int) -> list[int]:
    """Ascending arithmetic progression [k, k+d, ..., k+(q-1)d]."""
    if k < 1 or d < 1:
        raise DomainError("k and d must be positive")
    if q < 0:
        raise DomainError("q must be non-negative")
    return [k + i * d for i in range(q)]


def induced_edge_labels(g: Graph, f: VertexLabeling) -> list[int]:
    """Multiset |f(u)-f(v)| over the edges, in edge order."""
    if len(f.labels) != g.p:
        raise ShapeMismatch(f"{len(f.labels)} labels for {g.p} vertices")
    return [abs(f.labels[u - 1] - f.labels[v - 1]) for u, v in g.edges]


def nk2_graph(n: int) -> Graph:
    """nK2: components are edges (1,2), (3,4), ..., (2n-1, 2n)."""
    if n < 1:
        raise DomainError("n must be positive")
    return Graph(2 * n, tuple((2 * i - 1, 2 * i) for i in range(1, n + 1)))


def pair_system_labeling(ps: PairSystem) -> tuple[Graph, VertexLabeling]:
    """Read a pair system as the nK2 labeling f(u_i)=a_i, f(v_i)=b_i."""
    labels = []
    for a, b in ps.pairs:
        labels.extend((a, b))
    return nk2_graph(ps.n), VertexLabeling(tuple(labels))


def _required_positions(kind: SequenceKind, m: int) -> set[int]:
    if kind is SequenceKind.SKOLEM:
        return set(range(1, 2 * m + 1))
    return set(range(1, 2 * m)) | {2 * m + 1}


def pairs_to_sequence(ps: PairSystem, kind: SequenceKind, d: int = 1) -> SequenceForm:
    """Place value b-a at positions a and b; hooked kinds hook position 2m."""
    m = ps.n
    required = _required_positions(kind, m)
    if set(ps.values()) != required:
        raise PositionSetMismatch(
            f"pair values {sorted(ps.values())} != positions {sorted(required)}"
        )
    length = 2 * m if kind is SequenceKind.SKOLEM else 2 * m + 1
    entries: list = [None] * length
    for a, b in ps.pairs:
        entries[a - 1] = entries[b - 1] = b - a
    if kind is not SequenceKind.SKOLEM:
        entries[2 * m - 1] = HOOK
    return SequenceForm(kind, tuple(entries), d=d if kind is SequenceKind.HOOKED else 1)


def sequence_to_pairs(s: SequenceForm) -> PairSystem:
    """Extract the two positions of each value; pairs sorted by value."""
    pos = s.value_positions()
    for value, where in pos.items():
        if len(where) != 2:
            raise MultiplicityError(f"value {value} appears {len(where)} times")
    pairs = tuple(tuple(pos[v]) for v in sorted(pos))
    return PairSystem(pairs)


def format_sequence(s: SequenceForm) -> str:
    return " ".join("*" if x is HOOK else str(x) for x in s.entries)


def _infer_kind(entries: tuple, d: int | None) -> tuple[SequenceKind, int]:
    has_hook = any(x is HOOK for x in entries)
    values = [x for x in entries if x is not HOOK]
    if not has_hook:
        return SequenceKind.SKOLEM, 1
    if d is not None:
        return (SequenceKind.HOOKED, d) if d != 1 else (SequenceKind.HOOKED_SKOLEM, 1)
    vmin = min(values) if values else 1
    if vmin == 1:
        return SequenceKind.HOOKED_SKOLEM, 1
    return SequenceKind.HOOKED, vmin


def parse_sequence(
    text: str, kind: SequenceKind | None = None, d: int | None = None
) -> SequenceForm:
    """Parse space-separated tokens, or a compact digit string when every
    value is a single digit.  "*" and "0" both denote the hook."""
    tokens = text.split()
    if not tokens:
        raise ParseError("empty sequence text")
    if len(tokens) == 1 and len(tokens[0]) > 1:
        tokens = list(tokens[0])  # compact form
    entries: list = []
    for tok in tokens:
        if tok == "*":
            entries.append(HOOK)
        elif tok.isdigit():
            value = int(tok)
            entries.append(HOOK if value == 0 else value)
        else:
            raise ParseError(f"bad token {tok!r}")
    if kind is None:
        kind, d_inferred = _infer_kind(tuple(entries), d)
        d = d_inferred
    elif d is None:
        d = _infer_kind(tuple(entries), None)[1] if kind is SequenceKind.HOOKED else 1
    return SequenceForm(kind, tuple(entries), d=d if kind is SequenceKind.HOOKED else 1)


def format_pairs(ps: PairSystem) -> str:
    return " ".join(f"{a}-{b}" for a, b in ps.pairs)


def parse_pairs(text: str) -> PairSystem:
    """Inline pair text "a-b a-b ..."."""
    pairs = []
    for tok in text.split():
        parts = tok.split("-")
        if len(parts) != 2 or not all(p.isdigit() for p in parts):
            raise ParseError(f"bad pair token {tok!r}")
        a, b = int(parts[0]), int(parts[1])
        pairs.append((min(a, b), max(a, b)))
    if not pairs:
        raise ParseError("empty pair text")
    return PairSystem(tuple(pairs))


def pair_system_to_json(ps: PairSystem, k: int, d: int) -> str:
    record = {"n": ps.n, "k": k, "d": d, "pairs": [list(p) for p in ps.pairs]}
    return json.dumps(record)


def _json_int(value) -> int:
    # bool is an int subclass, and int() would silently truncate a float.
    if type(value) is not int:
        raise ParseError(f"{value!r} is not an integer")
    return value


def pair_system_from_json(text: str) -> tuple[PairSystem, int, int]:
    try:
        record = json.loads(text)
        n, k, d = (_json_int(record[key]) for key in ("n", "k", "d"))
        pairs = tuple((_json_int(a), _json_int(b)) for a, b in record["pairs"])
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad pair-system record: {exc}") from exc
    if k < 1 or d < 1:
        raise ParseError(f"record needs positive k and d, got k={k}, d={d}")
    ps = PairSystem(pairs)
    if ps.n != n:
        raise ParseError(f"record says n={n} but has {ps.n} pairs")
    return ps, k, d
