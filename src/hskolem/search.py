"""Exhaustive backtracking search for labelings and Skolem-type sequences.

nK2 pair systems, Skolem, hooked Skolem and hooked sequences are one
problem: partition a set of positions into pairs whose differences are a
given set.  search_nk2 builds the position and difference bitmasks of a
pair system, and search_sequence those of every sequence kind from
core.sequence_shape; one pair-partition engine then solves all four.  It
pairs the lowest free position a with a + r for each unused difference r
in ascending order, so solutions come out in a fixed canonical order:

* nK2 pair systems: pairs are emitted sorted by smaller element, and
  solution lists compare lexicographically.
* sequences: entry tuples in lexicographic order (leftmost empty slot filled
  first, values ascending).

The walker's masks are shifted to a: bit j of f is the free position
a + j + 1 and bit j of diffs the unused difference j + 1.  So a state's
candidates are f & diffs, which its parent passes down, and a state whose
highest unused difference exceeds its span, diffs.bit_length() >
f.bit_length(), is pruned: its parent tests the child and never enters
it.  One walker serves all four modes.  Only first and enumerate keep a
trail, a chain of (bit, shift) links that each leaf turns back into its
pairs.  A call of MERGED_COUNT_PAIRS (9) pairs or more that walks the whole
tree, a count or one that Skolem's parity rule refutes, takes the same
steps one depth at a time, expanding each distinct state once for all the
paths that reach it; past MEMO_ENTRIES states in the depth being built, a
new state is walked at once, so that cap bounds the memory.

A second engine labels the vertices of a general graph in order 1..p on a
bitmask state of its own: free labels, unused target differences, and their
mirror (bit p+1-e for each unused difference e).  A vertex's candidate
labels are the free labels at an unused difference from every earlier
neighbour's label; one whose differences to two of those labels are equal
is skipped, never entered.  Candidates are tried in ascending order, so
label vectors come out in lexicographic order.  In count and exists mode,
at each vertex that no edge spans (no earlier vertex has a neighbour at or
after it), the subtree depends on the free labels and unused differences
alone, so the engine memoizes its node and solution counts.

Both engines count and stop alike.  Every state reached counts once in
nodes_expanded: an entered state on entry, leaves included, and a pruned
pair state by its parent.  A memo hit counts its cached subtree, and a
merged pair state counts once per path that reaches it, so the figure is
the size of the plain tree however much work the memo or the merge saves.
Every root task enters the root, and the parallel merge counts it once.
The leaf that brings the solution count to the mode's stop (1 for exists
and first, the limit for enumerate, none for count) raises a private
_Stop, which the engine's solve function catches.

One driver, _search, runs both engines on a bit mask of the root's
choices.  With two or more choices, a stop of none or 1, and two or more
workers allowed by jobs and by the CPUs this process may run on, each
choice is one root task on a worker process.  Results merge whole in root
order up to the task where the serial walk stops; so the outcome,
nodes_expanded included, is the serial walk's for every jobs value.
Otherwise _search makes the serial call, as for enumerate with a limit
above 1 and for a merged pair walk, whose root tasks would merge states
only within themselves; a pruned pair root is answered without a walk, and
a graph whose count or exists memo root tasks would rebuild passes no
choices.
"""

from __future__ import annotations

import os
import sys
from collections import defaultdict

from .conditions import nk2_parity_feasible, size_necessary
from .core import (
    MODES,
    BoundExceeded,
    ContradictionDetected,
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
# The graph memo (about 130 bytes an entry) and a merged pair walk's depth
# being built (about 72 bytes a state; two depths live at once) stop
# inserting at this many entries; lookups go on, and results stay exact.
MEMO_ENTRIES = 1 << 19
MERGED_COUNT_PAIRS = 9  # a whole-tree pair walk with this many pairs or more merges states
_TOO_DEEP = "instance too large for the search's recursion depth"

ProcessPoolExecutor = None  # bound on first parallel use: a slow import


class _Stop(Exception):
    """Raised at the leaf that brings the solution count to the stop."""


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
        raise DomainError(_TOO_DEEP)


def _worker_count(jobs: int, tasks: int) -> int:
    # Capped at the CPUs this process may run on: os.process_cpu_count's rule.
    if hasattr(os, "sched_getaffinity"):
        return min(jobs, tasks, len(os.sched_getaffinity(0)))
    return min(jobs, tasks, os.cpu_count() or 1)


def _search(solve, args, root, mode, limit, jobs, wrap) -> SearchOutcome:
    """solve((*args, stop, keep, choices)) walks from the root through the
    choices, the mask root or one bit of it, and returns (solutions found,
    the solutions if keep, nodes), the root included; the pool takes it whole.
    A RecursionError here or in a worker becomes _check_order's DomainError."""
    stop, keep = _stop_for(mode, limit, jobs)
    # A stop above 1 can cut a task after earlier tasks' solutions: walk serially.
    workers = _worker_count(jobs, root.bit_count()) if jobs > 1 and stop in (None, 1) else 1
    try:
        if workers > 1:  # one task per choice, merged in root order
            global ProcessPoolExecutor
            if ProcessPoolExecutor is None:
                from concurrent.futures import ProcessPoolExecutor
            tasks = [(*args, stop, keep, 1 << i)
                     for i in range(root.bit_length()) if root >> i & 1]
            count, sols, nodes = 0, [], 1  # every task enters the root
            with ProcessPoolExecutor(max_workers=workers) as pool:
                for found, kept, task_nodes in pool.map(solve, tasks):
                    count += found
                    sols += kept
                    nodes += task_nodes - 1
                    if count == stop:
                        break  # closes the map: tasks not yet started are cancelled
        else:
            count, sols, nodes = solve((*args, stop, keep, root))
    except RecursionError as exc:
        raise DomainError(_TOO_DEEP) from exc
    if sols:  # a comprehension over none still costs a call
        sols = [wrap(sol) for sol in sols]
    return SearchOutcome(count > 0, count if mode == "count" else None, sols,
                         SearchStats(nodes))


# ---------------------------------------------------------------------------
# pair partitions: nK2 labelings and Skolem-type sequences
# ---------------------------------------------------------------------------

def _pair_walk(f, diffs, cand, path, counter, stop) -> None:
    # (f, diffs) is the shifted state of the module docstring, and passes
    # the prune test: the parent counts a pruned child and never enters it.
    # cand is the candidates to try: f & diffs, or a root task's one bit.
    # f == 0 is a leaf: the free positions number twice the unused differences.
    # counter is [nodes, solutions].  path is None or a chain of (parent,
    # bit, shift) links, shift the step from a to the child's lowest free
    # position, ending in (out, a) at the root; a leaf appends its flat
    # (a1, b1, a2, b2, ...) to out: a third of nested pairs' memory.
    counter[0] += 1
    if not f:
        counter[1] += 1
        if path:
            flat, a = [], 0  # positions less the last pair's smaller one
            while len(path) == 3:
                path, bit, shift = path
                a -= shift
                flat += (a + bit.bit_length(), a)
            out, a0 = path  # map, not a comprehension: no closure cells per call
            out.append(tuple(map((a0 - a).__add__, reversed(flat))))
        if counter[1] == stop:
            raise _Stop
        return
    while cand:
        bit = cand & -cand
        cand ^= bit
        g = f ^ bit
        shift = (g & -g).bit_length()
        g >>= shift
        rest = diffs ^ bit
        if rest.bit_length() > g.bit_length():  # the prune test
            counter[0] += 1
            continue
        _pair_walk(g, rest, g & rest, path and (path, bit, shift), counter, stop)


def _pair_solve(args):
    f, diffs, a0, stop, keep, cand = args
    out: list = []
    counter = [0, 0]  # nodes, solutions
    try:
        _pair_walk(f, diffs, cand, (out, a0) if keep else None, counter, stop)
    except _Stop:
        pass
    return counter[1], out, counter[0]


def _pair_count(args):
    # The walk's count, one depth at a time: level maps diffs to {f: ways},
    # ways the number of root paths that reach the state (f, diffs), which
    # is expanded once and counts ways times.  Always the whole root.
    f, diffs = args[:2]
    nodes = sols = 0
    level = {diffs: {f: 1}}
    while level:
        nxt, held = defaultdict(dict), 0
        for diffs, row in level.items():
            for f, ways in row.items():
                nodes += ways
                if not f:
                    sols += ways
                cand = f & diffs
                while cand:  # the walker's candidate, shift and prune steps
                    bit = cand & -cand
                    cand ^= bit
                    g = f ^ bit
                    g >>= (g & -g).bit_length()
                    rest = diffs ^ bit
                    if rest.bit_length() > g.bit_length():
                        nodes += ways
                        continue
                    to = nxt[rest]
                    if g in to:
                        to[g] += ways
                    elif held < MEMO_ENTRIES:
                        to[g] = ways
                        held += 1
                    else:  # the level is full: walk the new state at once
                        found, _, walked = _pair_solve((g, rest, 0, None, False, g & rest))
                        nodes += ways * walked
                        sols += ways * found
        level = nxt
    return sols, [], nodes


def _pair_search(free, diffs, mode, limit, jobs, wrap) -> SearchOutcome:
    """Search from absolute masks (bit r: position or difference r)."""
    shift = (free & -free).bit_length()
    f, diffs = free >> shift, diffs >> 1
    if diffs.bit_length() > f.bit_length():  # the prune test: the root is the one node
        return _search(lambda args: (0, [], 1), (), 0, mode, limit, jobs, wrap)
    big = diffs.bit_count() >= MERGED_COUNT_PAIRS  # tested first: small calls skip parity
    if big and (mode == "count" or _parity_refutes(free, diffs)):
        # One serial call; min keeps a bad jobs value for _stop_for to refuse.
        out = _search(_pair_count, (f, diffs), f & diffs, mode, limit, min(jobs, 1), wrap)
        if out.exists and mode != "count":
            raise ContradictionDetected("search found a partition that the parity rule refutes")
        return out
    return _search(_pair_solve, (f, diffs, shift - 1), f & diffs, mode, limit, jobs, wrap)


def _parity_refutes(free, diffs) -> bool:
    # Skolem's parity rule: a pair (a, a + r) sums to r mod 2, so a partition
    # needs an even number of odd positions and odd differences together.
    # It picks the route only: _pair_search raises if a refuted walk finds
    # a solution.  free is absolute and diffs shifted: bit 2i of free >> 1
    # and of diffs is position or difference 2i + 1.
    even_bits = ((1 << 2 * free.bit_length()) - 1) // 3
    return bool(((free >> 1 ^ diffs) & even_bits).bit_count() & 1)


def search_nk2(
    n: int, k: int, d: int, mode: str = "exists", limit: int | None = None,
    jobs: int = 1, *, force: bool = False,
) -> SearchOutcome:
    """Exhaustive search for (k,d)-hooked Skolem graceful labelings of nK2."""
    if n < 1 or k < 1 or d < 1:
        raise DomainError("n, k, d must be positive")
    _check_order("n", n, DEFAULT_NK2_BOUND, force)
    free = ((1 << 2 * n) - 2) | (1 << (2 * n + 1))  # {1..2n-1, 2n+1}
    targets = edge_target_set(k, d, n)  # one past the span 2n: the root prunes either way
    diffs = sum(1 << e for e in targets) if targets[-1] <= 2 * n else 1 << (2 * n + 1)
    return _pair_search(free, diffs, mode, limit, jobs,
                        lambda flat: PairSystem(zip(flat[::2], flat[1::2])))


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
    values = ((1 << m) - 1) << min(least, length)  # past the span: pruned either way
    return _pair_search(free, values, mode, limit, jobs, wrap)


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
    degree = len(nbrs)
    cand = free
    for u in nbrs:
        lab = labels[u]
        cand &= (unused << lab) | (rev >> (w - lab))
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
        if degree > 1 and used.bit_count() < degree:  # a repeated difference
            continue
        _graph_rec(v + 1, free ^ bit, unused ^ used, rev ^ rused,
                   labels, prev, w, out, stop, counter, memos)
    if memo is not None and len(memo) < MEMO_ENTRIES:
        memo[key] = (counter[0] - nodes0, counter[1] - sols0)


def _graph_solve(args):
    p, edges, k, d, memo_at, stop, keep, root = args
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
    if root.bit_count() == 1:  # a root task: vertex 0 takes the one label
        labels[0] = root.bit_length() - 1
        free ^= root
        counter[0] = v = 1  # the root
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
        return _search(lambda args: (0, [], 0), (), 0, mode, limit, jobs, VertexLabeling)
    # memo_at[x]: no edge spans vertex x (0-based), so the count and exists
    # memo works there.  Root tasks would each rebuild that memo, so a graph
    # with a memo vertex other than 0 passes no root choices in those modes.
    memo_at = [True] * g.p
    for u, v in g.edges:  # 1-based, with u < v: the edge spans u..v-1
        memo_at[u:v] = [False] * (v - u)
    serial = mode in ("count", "exists") and any(memo_at[1:])
    root = 0 if serial else sum(1 << lab for lab in target_label_set(g.p))
    return _search(_graph_solve, (g.p, g.edges, k, d, memo_at), root, mode, limit,
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
