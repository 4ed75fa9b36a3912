"""Exhaustive backtracking search for labelings and Skolem-type sequences.

nK2 pair systems, Skolem, hooked Skolem and hooked sequences are one
problem: partition a set of positions into pairs whose differences are a
given set.  One pair-partition engine solves all four on a (free-position
bitmask, unused-difference bitmask) state: search_nk2 builds the masks of a
pair system, and search_sequence those of every sequence kind from
core.sequence_shape.  The engine pairs the lowest free position a with
a + r for each unused difference r in ascending order, so solutions come
out in a fixed canonical order:

* nK2 pair systems: pairs are emitted sorted by smaller element, and
  solution lists compare lexicographically.
* sequences: entry tuples in lexicographic order (leftmost empty slot filled
  first, values ascending).

One walker serves all four modes.  Only first and enumerate keep a trail,
a chain of the pairs made so far that each leaf flattens into a solution.

A second engine labels the vertices of a general graph in order 1..p on a
bitmask state of its own: free labels, unused target differences, and their
mirror (bit p+1-e for each unused difference e).  A vertex's candidate
labels are the free labels at an unused difference from every earlier
neighbour's label, minus the midpoint of any two of those labels, which
would repeat a difference.  Candidates are tried in ascending order, so
label vectors come out in lexicographic order.  In count and exists mode,
at each vertex that no edge spans (no earlier vertex has a neighbour at or
after it), the subtree depends on the free labels and unused differences
alone, so the engine memoizes its node and solution counts.

Both engines count and stop alike.  nodes_expanded counts each state a
walker enters, pruned states and leaves included; a memo hit counts its
cached subtree, so the figure is the size of the plain tree however much
work the memo saves, and the parallel merge adds the root, which no root
task enters.  The leaf that brings the solution count to the mode's stop
(1 for exists and first, the limit for enumerate, none for count) raises a
private _Stop, which the engine's solve function catches.

One driver, _search, runs both engines.  With jobs > 1 it splits the
choices at the root across worker processes and merges the per-root results
in root order, so existence, counts, the first solution, and enumeration
order are identical to serial execution.  With no root to split (a pruned
pair root, or a graph whose count or exists memo root tasks would rebuild)
it makes the serial call.  In count mode nodes_expanded is the same for
every jobs value; in exists, first and enumerate it may differ, because
each root task stops on its own.
"""

from __future__ import annotations

import os
import sys

from .conditions import nk2_parity_feasible, size_necessary
from .core import (
    DomainError,
    Graph,
    PairSystem,
    SequenceForm,
    SequenceKind,
    VertexLabeling,
    _placed,
    _Record,
    _set,
    edge_target_set,
    sequence_shape,
    target_label_set,
)

DEFAULT_NK2_BOUND = 10
DEFAULT_GRAPH_BOUND = 16
DEFAULT_SEQUENCE_BOUND = 12
# The graph engine's memo stops inserting at this many entries (about 130
# bytes each); lookups go on, and counts and node totals stay exact.
GRAPH_MEMO_ENTRIES = 1 << 19

MODES = ("exists", "first", "count", "enumerate")
ProcessPoolExecutor = None  # bound on first parallel use: a slow import


class BoundExceeded(DomainError):
    """Input exceeds the exhaustive-search bound; pass force=True to override."""


class _Stop(Exception):
    """Raised at the leaf that brings the solution count to the stop."""


class ContradictionDetected(RuntimeError):
    """Search found a solution where a necessary condition says none can
    exist; signals an implementation bug."""


class SearchStats(_Record, frozen=False):
    """nodes_expanded is the size of the plain search tree, by the node
    rule in the module docstring."""

    def __init__(self, nodes_expanded: int = 0):
        self.nodes_expanded = nodes_expanded


class SearchOutcome(_Record, frozen=False):
    def __init__(self, exists: bool, count: int | None, solutions: list, stats: SearchStats):
        self.exists, self.count, self.solutions, self.stats = exists, count, solutions, stats


def _stop_for(mode: str, limit: int | None, jobs: int) -> tuple[int | None, bool]:
    """(stop, keep): stop after this many solutions (None: exhaust), and
    whether to keep the solutions or only count them."""
    if mode not in MODES:
        raise DomainError(f"mode must be one of {MODES}, got {mode!r}")
    if limit is not None and limit < 1:
        raise DomainError(f"limit must be positive, got {limit}")
    if jobs < 1:
        raise DomainError(f"jobs must be positive, got {jobs}")
    if mode == "exists":
        return 1, False
    if mode == "first":
        return 1, True
    if mode == "enumerate":
        return limit, True
    return None, False  # count: exhaust


def _check_order(name: str, order: int, bound: int, force: bool) -> None:
    """Refuse an order above the search bound unless forced, and any order
    the engines cannot reach: they recurse once per pair or per vertex."""
    if order > bound and not force:
        raise BoundExceeded(f"{name}={order} exceeds bound {bound}")
    if order >= sys.getrecursionlimit():
        raise DomainError("instance too large for the search's recursion depth")


def _worker_count(jobs: int, tasks: int) -> int:
    return min(jobs, tasks, os.cpu_count() or 1)


def _search(solve, args, roots, mode, limit, jobs, wrap) -> SearchOutcome:
    """solve((*args, stop, keep, root)) returns (solutions found, solutions
    kept, nodes); it keeps [] when keep is off.  roots may be lazy: the
    serial call, with root None, never reads it."""
    stop, keep = _stop_for(mode, limit, jobs)
    tasks = [(*args, stop, keep, root) for root in roots] if jobs > 1 else ()
    if tasks:
        global ProcessPoolExecutor
        if ProcessPoolExecutor is None:
            from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=_worker_count(jobs, len(tasks))) as pool:
            counts, parts, task_nodes = zip(*pool.map(solve, tasks))
        count = sum(counts)
        nodes = 1 + sum(task_nodes)  # the root, which no task enters
        sols = [sol for part in parts for sol in part][:stop]
    else:
        count, sols, nodes = solve((*args, stop, keep, None))
    if sols:
        sols = [wrap(sol) for sol in sols]
    return SearchOutcome(count > 0, count if mode == "count" else None, sols,
                         SearchStats(nodes))


# ---------------------------------------------------------------------------
# pair partitions: nK2 labelings and Skolem-type sequences
# ---------------------------------------------------------------------------

def _pair_walk(free, diffs, path, counter, stop) -> None:
    # counter is [nodes, solutions].  path is None or a chain of
    # (parent, a, bit) links ending in (out,); a leaf appends its flat
    # (a1, b1, a2, b2, ...) to out: a third of nested pairs' memory.
    counter[0] += 1
    if not free:
        counter[1] += 1
        if path:
            flat = []
            while len(path) == 3:
                path, a, bit = path
                flat += (a + bit.bit_length() - 1, a)
            path[0].append(tuple(flat[::-1]))
        if counter[1] == stop:
            raise _Stop
        return
    low = free & -free
    a = low.bit_length() - 1
    # highest unused difference > highest free position - a
    if diffs.bit_length() > free.bit_length() - a:
        return
    rest = free ^ low
    cand = (rest >> a) & diffs
    while cand:
        bit = cand & -cand
        cand ^= bit
        _pair_walk(rest ^ (bit << a), diffs ^ bit, path and (path, a, bit),
                   counter, stop)


def _pair_roots(free: int, diffs: int):
    """Differences that can pair the lowest free position, ascending; none
    when the root state fails the prune test."""
    a = (free & -free).bit_length() - 1
    if diffs.bit_length() > free.bit_length() - a:
        return
    cand = ((free & (free - 1)) >> a) & diffs
    while cand:
        bit = cand & -cand
        cand ^= bit
        yield bit.bit_length() - 1


def _pair_solve(args):
    free, diffs, stop, keep, root = args
    out: list = []
    path = (out,) if keep else None
    if root is not None:
        a = (free & -free).bit_length() - 1
        free ^= (1 << a) | (1 << (a + root))
        diffs ^= 1 << root
        path = path and (path, a, 1 << root)
    counter = [0, 0]  # nodes, solutions
    try:
        _pair_walk(free, diffs, path, counter, stop)
    except _Stop:
        pass
    return counter[1], out, counter[0]


def search_nk2(
    n: int, k: int, d: int, mode: str = "exists", limit: int | None = None,
    jobs: int = 1, *, force: bool = False,
) -> SearchOutcome:
    """Exhaustive search for (k,d)-hooked Skolem graceful labelings of nK2."""
    if n < 1 or k < 1 or d < 1:
        raise DomainError("n, k, d must be positive")
    _check_order("n", n, DEFAULT_NK2_BOUND, force)
    free = ((1 << 2 * n) - 2) | (1 << (2 * n + 1))  # {1..2n-1, 2n+1}
    diffs = sum(1 << diff for diff in edge_target_set(k, d, n))
    return _search(_pair_solve, (free, diffs), _pair_roots(free, diffs), mode,
                   limit, jobs, lambda flat: PairSystem(zip(flat[::2], flat[1::2])))


def search_sequence(
    kind: SequenceKind, m: int, d: int = 1, mode: str = "exists",
    limit: int | None = None, jobs: int = 1, *, force: bool = False,
) -> SearchOutcome:
    """Sequences of the given kind and order m; d, the least value of a
    hooked sequence, is ignored for the Skolem kinds."""
    length, hook, least = sequence_shape(kind, m, d)
    if m < 1:
        raise DomainError("order must be positive")
    _check_order("m", m, DEFAULT_SEQUENCE_BOUND, force)

    def wrap(flat):  # the search guarantees the position set: no check here
        return SequenceForm(kind, _placed(zip(flat[::2], flat[1::2]), length), d=least)

    free = (1 << (length + 1)) - 2  # positions 1..length
    if hook is not None:
        free ^= 1 << hook
    values = ((1 << m) - 1) << least
    return _search(_pair_solve, (free, values), _pair_roots(free, values), mode,
                   limit, jobs, wrap)


def search_skolem(
    m: int, mode: str = "exists", limit: int | None = None, jobs: int = 1,
    *, force: bool = False,
) -> SearchOutcome:
    """Skolem sequences of order m (reversals count as distinct)."""
    return search_sequence(SequenceKind.SKOLEM, m, 1, mode, limit, jobs, force=force)


def search_hooked_skolem(
    m: int, mode: str = "exists", limit: int | None = None, jobs: int = 1,
    *, force: bool = False,
) -> SearchOutcome:
    """Hooked Skolem sequences of order m (hook fixed at position 2m)."""
    return search_sequence(SequenceKind.HOOKED_SKOLEM, m, 1, mode, limit, jobs, force=force)


def search_hooked_sequence(
    d: int, m: int, mode: str = "exists", limit: int | None = None, jobs: int = 1,
    *, force: bool = False,
) -> SearchOutcome:
    """Hooked sequences with difference set {d, ..., d+m-1}."""
    return search_sequence(SequenceKind.HOOKED, m, d, mode, limit, jobs, force=force)


# ---------------------------------------------------------------------------
# general graphs
# ---------------------------------------------------------------------------

def _graph_rec(v, free, unused, rev, labels, prev, w, out, stop, counter, memos) -> None:
    # labels[u] is the label of vertex u < v; prev[v] lists v's earlier
    # neighbours.  free masks the unused labels, unused the unused target
    # differences e, and rev holds bit w - e for each of them, so that
    # rev >> (w - L) has bit L - e set.  memos[v] is the memo when no edge
    # joins a vertex below v to one at or above it, else None: the subtree
    # then depends on (free, unused) alone, and the memo maps that state to
    # the subtree's (nodes, solutions) once it has been walked in full: a
    # _Stop raised below passes the store.
    memo = memos[v]
    if memo is not None:
        key = free << w | unused
        hit = memo.get(key)
        if hit is not None:
            counter[0] += hit[0]
            counter[1] += hit[1]
            return
        nodes0, sols0 = counter
    counter[0] += 1
    if v == len(labels):
        counter[1] += 1
        if out is not None:
            out.append(tuple(labels))
        if counter[1] == stop:
            raise _Stop
        return
    nbrs = prev[v]
    cand = free
    for u in nbrs:
        lab = labels[u]
        cand &= (unused << lab) | (rev >> (w - lab))
    if len(nbrs) > 1:
        # the midpoint of two neighbour labels gives two equal differences
        for i, u in enumerate(nbrs):
            for t in nbrs[:i]:
                s = labels[u] + labels[t]
                if not s & 1:
                    cand &= ~(1 << (s >> 1))
    while cand:
        bit = cand & -cand
        cand ^= bit
        x = bit.bit_length() - 1
        labels[v] = x
        used = rused = 0
        for u in nbrs:
            e = abs(x - labels[u])
            used |= 1 << e
            rused |= 1 << (w - e)
        _graph_rec(v + 1, free ^ bit, unused ^ used, rev ^ rused,
                   labels, prev, w, out, stop, counter, memos)
    if memo is not None and len(memo) < GRAPH_MEMO_ENTRIES:
        memo[key] = (counter[0] - nodes0, counter[1] - sols0)


def _graph_solve(args):
    p, edges, k, d, memo_at, stop, keep, first_label = args
    w = p + 1
    # A difference above p joins no two labels of {1..p-1, p+1}; dropping
    # it keeps w - e, the shift that builds rev, non-negative.
    targets = [e for e in edge_target_set(k, d, len(edges)) if e <= p]
    unused = sum(1 << e for e in targets)
    rev = sum(1 << (w - e) for e in targets)
    free = sum(1 << lab for lab in target_label_set(p))
    prev = [[] for _ in range(p)]
    for u, v in edges:  # 1-based in Graph, with u < v
        prev[v - 1].append(u - 1)
    # One memo serves every vertex in memo_at, and only in count and exists:
    # a stored subtree yields no labels.
    memo = None if keep else {}
    memos = [memo if at else None for at in memo_at] + [None]
    labels = [0] * p
    counter = [0, 0]  # nodes, solutions
    out: list = []
    v = 0
    if first_label is not None:
        labels[0] = first_label
        free ^= 1 << first_label
        v = 1
    try:
        _graph_rec(v, free, unused, rev, labels, prev, w, out if keep else None,
                   stop, counter, memos)
    except _Stop:
        pass
    return counter[1], out, counter[0]


def search_graph(
    g: Graph, k: int, d: int, mode: str = "exists", limit: int | None = None,
    jobs: int = 1, *, force: bool = False,
) -> SearchOutcome:
    """Exhaustive search for (k,d)-hooked Skolem graceful labelings of g."""
    if k < 1 or d < 1:
        raise DomainError("k, d must be positive")
    _check_order("p", g.p, DEFAULT_GRAPH_BOUND, force)
    if not size_necessary(g.p, g.q):
        return _search(lambda args: (0, [], 0), (), (), mode, limit, jobs, VertexLabeling)
    # memo_at[x]: no edge spans vertex x (0-based), so the count and exists
    # memo works there.  Root tasks would each rebuild that memo, so a graph
    # with a memo vertex other than 0 runs serially in those modes.
    memo_at = [True] * g.p
    for u, v in g.edges:  # 1-based, with u < v: the edge spans u..v-1
        memo_at[u:v] = [False] * (v - u)
    serial = mode in ("count", "exists") and any(memo_at[1:])
    roots = () if serial else sorted(target_label_set(g.p))
    return _search(_graph_solve, (g.p, g.edges, k, d, memo_at), roots, mode, limit,
                   jobs, VertexLabeling)


# ---------------------------------------------------------------------------
# survey
# ---------------------------------------------------------------------------

class SurveyRow(_Record):
    def __init__(self, n: int, parity_feasible: bool, exists: bool | None):
        _set(self, "n", n)
        _set(self, "parity_feasible", parity_feasible)
        _set(self, "exists", exists)


def survey_nk2(
    ns, k: int, d: int, search_up_to: int = 0, *, force: bool = False,
) -> list[SurveyRow]:
    """One row per n: the parity predicate and, within search_up_to, the
    verdict of a serial exhaustive search (else None).  A negative
    search_up_to, or one past the bound or the recursion depth, raises before
    any search; a search that contradicts the predicate raises ContradictionDetected."""
    if search_up_to < 0:
        raise DomainError(f"search_up_to must be non-negative, got {search_up_to}")
    _check_order("search_up_to", search_up_to, DEFAULT_NK2_BOUND, force)
    rows = []
    for n in ns:
        feasible = nk2_parity_feasible(n, k, d)
        exists = None
        if n <= search_up_to:
            exists = search_nk2(n, k, d, "exists", force=force).exists
            if exists and not feasible:
                raise ContradictionDetected(
                    f"search found a labeling for n={n}, k={k}, d={d} "
                    "but the parity predicate rules it out"
                )
        rows.append(SurveyRow(n, feasible, exists))
    return rows
