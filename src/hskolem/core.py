"""Domain types for hooked Skolem graceful labelings and Skolem-type sequences.

A pair system is the labeling of nK2 written as n disjoint pairs (a_i, b_i)
with a_i < b_i.  A Skolem-type sequence is the same object read positionally:
the value b - a occupies positions a and b, and hooked variants leave one
unused slot (the hook) at position 2m.  This module owns the types and
every text format; certification and its VerifyReport live in verify.
"""

from __future__ import annotations

from enum import Enum

# Input bound for the constructor and the survey's --n-max; keeps every label
# far below 2**63.  Searches check their own bounds and the recursion limit.
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
    __reduce__ = __repr__  # pickled by name, so a copy is HOOK itself


#: Sentinel for the unused slot of a hooked sequence.
HOOK = _Hook()


class SequenceKind(Enum):
    SKOLEM = "skolem"
    HOOKED_SKOLEM = "hooked_skolem"
    HOOKED = "hooked"


# Module-level aliases: each SequenceKind.X access goes through the enum
# metaclass and costs several times a global lookup.
_SKOLEM = SequenceKind.SKOLEM
_HOOKED_SKOLEM = SequenceKind.HOOKED_SKOLEM
_HOOKED = SequenceKind.HOOKED
# How a frozen record's __init__ sets a field: writing through __dict__
# would add a dict to each instance and slow every later read of its fields.
_set = object.__setattr__


class _Record:
    """Equality, hash and repr Name(field=value, ...) over the fields: the
    __init__ parameters in order.  Assignment and deletion raise unless the
    subclass says frozen=False, which also makes it unhashable."""

    def __init_subclass__(cls, frozen: bool = True):
        code = cls.__init__.__code__
        cls.__match_args__ = code.co_varnames[1:code.co_argcount]
        if not frozen:
            cls.__setattr__, cls.__delattr__, cls.__hash__ = _set, object.__delattr__, None

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__match_args__])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        body = ", ".join(f"{k}={v!r}" for k, v in zip(self.__match_args__, self._values()))
        return f"{self.__class__.__qualname__}({body})"

    def __setattr__(self, name, *value):
        raise AttributeError(f"{self.__class__.__name__} is frozen: cannot set {name!r}")
    __delattr__ = __setattr__


class Graph(_Record):
    """Finite undirected graph without loops; vertices are 1..p."""

    def __init__(self, p: int, edges: tuple[tuple[int, int], ...]):
        if p < 1:
            raise DomainError(f"vertex count must be positive, got {p}")
        normalized = []
        for u, v in edges:
            if u == v:
                raise DomainError(f"loop at vertex {u}")
            if not (1 <= u <= p and 1 <= v <= p):
                raise DomainError(f"edge ({u},{v}) outside 1..{p}")
            normalized.append((min(u, v), max(u, v)))
        if len(set(normalized)) != len(normalized):
            raise DomainError("duplicate edge")
        _set(self, "p", p)
        _set(self, "edges", tuple(normalized))

    @property
    def q(self) -> int:
        return len(self.edges)


class VertexLabeling(_Record):
    """labels[v-1] is the label of vertex v."""

    def __init__(self, labels):
        _set(self, "labels", tuple(labels))


class PairSystem(_Record):
    """n >= 1 disjoint label pairs (a_i, b_i), each with a < b; the readers
    of every format build it as given and leave these rules to it."""

    def __init__(self, pairs):
        _set(self, "pairs", tuple(tuple(p) for p in pairs))
        if not self.pairs:
            raise DomainError("a pair system needs at least one pair")
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


class SequenceForm(_Record):
    """Position-indexed Skolem-type sequence; entries hold ints or HOOK.

    Purely structural container: multiplicity and distance conditions are
    the verify module's job, so malformed content is representable.
    """

    def __init__(self, kind: SequenceKind, entries, d: int = 1):
        _set(self, "kind", kind)
        _set(self, "entries", tuple(entries))
        _set(self, "d", d)
        if not self.entries:
            raise DomainError("empty sequence")

    def value_positions(self) -> dict[int, list[int]]:
        """1-based positions of each integer value."""
        pos: dict[int, list[int]] = {}
        for i, x in enumerate(self.entries, start=1):
            if x is not HOOK:
                pos.setdefault(x, []).append(i)
        return pos

    def hook_positions(self) -> list[int]:
        return [i for i, x in enumerate(self.entries, start=1) if x is HOOK]


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
    return nk2_graph(ps.n), VertexLabeling(ps.values())


def sequence_shape(kind: SequenceKind, m: int, d: int = 1) -> tuple[int, int | None, int]:
    """(length, hook, least) of a sequence of order m: it fills positions
    1..length except the 1-based hook position (None for Skolem sequences)
    with the values least..least+m-1.  least is d for hooked sequences and
    1 for both Skolem kinds."""
    if kind is _SKOLEM:
        return 2 * m, None, 1
    if kind is _HOOKED_SKOLEM:
        return 2 * m + 1, 2 * m, 1
    if kind is not _HOOKED:
        raise DomainError(f"kind must be a SequenceKind, got {_quote(kind)}")
    if d < 1:
        raise DomainError(f"d must be positive, got {d}")
    return 2 * m + 1, 2 * m, d


def _placed(pairs, length: int) -> list:
    """The positional sequence format: value b-a at positions a and b of a
    list of the given length, every other position a hook."""
    entries: list = [HOOK] * length
    for a, b in pairs:
        entries[a - 1] = entries[b - 1] = b - a
    return entries


def pairs_to_sequence(ps: PairSystem, kind: SequenceKind, d: int = 1) -> SequenceForm:
    """Place value b-a at positions a and b; hooked kinds hook position 2m."""
    length, hook, least = sequence_shape(kind, ps.n, d)
    required, values = set(range(1, length + 1)) - {hook}, set(ps.values())
    if values != required:
        missing, extra = sorted(required - values), sorted(values - required)
        raise PositionSetMismatch(
            f"pair values are not the sequence positions: {len(missing)} missing "
            f"{_quote(missing[:5])}, {len(extra)} extra {_quote(extra[:5])}")
    return SequenceForm(kind, _placed(ps.pairs, length), d=least)


def sequence_to_pairs(s: SequenceForm) -> PairSystem:
    """Extract the two positions of each value; pairs sorted by value."""
    pos = s.value_positions()
    for value, where in pos.items():
        if len(where) != 2:
            raise MultiplicityError(f"value {value} appears {len(where)} times")
    pairs = tuple(tuple(pos[v]) for v in sorted(pos))
    return PairSystem(pairs)


def _quote(value) -> str:
    """repr(value), cut after 40 characters: a reader's error message stays
    short however long the bad token.  Only raising paths call it."""
    text = repr(value)
    return text if len(text) <= 40 else text[:40] + "..."


def _ascii_int(tok: str) -> int:
    # int() also reads "٤", "４" and "1_0", and isdigit alone accepts "²"
    if not (tok.isascii() and tok.isdigit()):
        raise ParseError(f"bad integer {_quote(tok)}")
    try:
        return int(tok)
    except ValueError as exc:  # more digits than int() will read
        raise ParseError(f"bad integer {_quote(tok)}: too many digits") from exc


def format_sequence(s: SequenceForm) -> str:
    return " ".join("*" if x is HOOK else str(x) for x in s.entries)


def parse_sequence(
    text: str, kind: SequenceKind | None = None, d: int | None = None
) -> SequenceForm:
    """Parse space-separated tokens, where "*" and "0" both denote the hook,
    or one compact string of the digits 1-9 and "*".  d defaults to the
    least value of a hooked sequence; kind defaults to Skolem without a
    hook, else to hooked Skolem when d is 1 and to hooked otherwise."""
    tokens = text.split()
    if not tokens:
        raise ParseError("empty sequence text")
    if len(tokens) == 1 and len(tokens[0]) > 1:
        compact = tokens[0]
        if "0" in compact:
            raise ParseError(f"compact sequence {_quote(compact)} holds 0; write the hook as *")
        tokens = list(compact)  # one token per character, checked below
    values = [0 if tok == "*" else _ascii_int(tok) for tok in tokens]
    entries = [HOOK if value == 0 else value for value in values]
    hooked = any(x is HOOK for x in entries)
    if d is None:  # a hooked sequence's least value
        d = min((x for x in entries if x is not HOOK), default=1) if hooked else 1
    if kind is None:
        if not hooked:
            kind = SequenceKind.SKOLEM
        else:
            kind = SequenceKind.HOOKED_SKOLEM if d == 1 else SequenceKind.HOOKED
    least = sequence_shape(kind, len(entries) // 2, d)[2]
    return SequenceForm(kind, tuple(entries), d=least)


def format_pairs(ps: PairSystem) -> str:
    return " ".join(f"{a}-{b}" for a, b in ps.pairs)


def parse_pairs(text: str) -> PairSystem:
    """Inline pair text "a-b a-b ...", each pair smaller label first."""
    pairs = []
    for tok in text.split():
        parts = tok.split("-")
        if len(parts) != 2:
            raise ParseError(f"bad pair token {_quote(tok)}")
        pairs.append((_ascii_int(parts[0]), _ascii_int(parts[1])))
    return PairSystem(tuple(pairs))


def load_edge_list(text: str) -> Graph:
    """First line "p <int>", then one "u v" edge per line (1-based), in
    ASCII digits."""
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines or not lines[0].startswith("p "):
        raise ParseError('edge-list file must start with "p <int>"')
    try:
        _, p = lines[0].split()
        p = _ascii_int(p)
        edges = []
        for ln in lines[1:]:
            u, v = ln.split()
            edges.append((_ascii_int(u), _ascii_int(v)))
    except ValueError as exc:  # a ParseError from _ascii_int, or a bad split
        raise ParseError(f"bad edge-list line: {exc}") from exc
    if p < 2:
        raise ParseError(f"the hooked label set needs p >= 2, got p {p}")
    return Graph(p, tuple(edges))


def pair_system_to_json(ps: PairSystem, k: int, d: int) -> str:
    import json  # here, not at the top: only JSON I/O pays for its import
    record = {"n": ps.n, "k": k, "d": d, "pairs": [list(p) for p in ps.pairs]}
    return json.dumps(record)


def _json_int(value) -> int:
    # bool is an int subclass, and int() would silently truncate a float.
    if type(value) is not int:
        raise ParseError(f"{_quote(value)} is not an integer")
    return value


def pair_system_from_json(text: str) -> tuple[PairSystem, int, int]:
    import json
    try:
        record = json.loads(text)
        n, k, d = (_json_int(record[key]) for key in ("n", "k", "d"))
        pairs = tuple((_json_int(a), _json_int(b)) for a, b in record["pairs"])
    except (KeyError, TypeError, ValueError, RecursionError) as exc:
        raise ParseError(f"bad pair-system record: {exc}") from exc
    if k < 1 or d < 1:
        raise ParseError(f"record needs positive k and d, got k={k}, d={d}")
    ps = PairSystem(pairs)
    if ps.n != n:
        raise ParseError(f"record says n={n} but has {ps.n} pairs")
    return ps, k, d
