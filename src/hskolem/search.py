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

A second engine labels the vertices of a general graph one by one and emits
label vectors in lexicographic order.

With jobs > 1 the choices at the root are split across worker processes
and the per-root results are merged back in root order, so existence,
counts, the first solution, and enumeration order are identical to serial
execution; only node statistics may differ.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from .conditions import nk2_parity_feasible, size_necessary
from .core import (
    HOOK,
    DomainError,
    Graph,
    PairSystem,
    SequenceForm,
    SequenceKind,
    VertexLabeling,
    edge_target_set,
    sequence_shape,
    target_label_set,
)

DEFAULT_NK2_BOUND = 10
DEFAULT_GRAPH_BOUND = 16
DEFAULT_SEQUENCE_BOUND = 12

MODES = ("exists", "first", "count", "enumerate")


class BoundExceeded(DomainError):
    """Input exceeds the exhaustive-search bound; pass force=True to override."""


class ContradictionDetected(RuntimeError):
    """Search found a solution where a necessary condition says none can
    exist; signals an implementation bug."""


@dataclass
class SearchStats:
    nodes_expanded: int = 0
    elapsed: float = 0.0


@dataclass
class SearchOutcome:
    exists: bool
    count: int | None
    solutions: list
    stats: SearchStats


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


def _outcome(mode: str, found, nodes: int, t0: float, wrap) -> SearchOutcome:
    """found is the solution list, or the number of solutions when the
    search only counted them."""
    stats = SearchStats(nodes, time.perf_counter() - t0)
    if isinstance(found, int):
        count, sols = found, []
    else:
        count, sols = len(found), [wrap(s) for s in found]
    return SearchOutcome(count > 0, count if mode == "count" else None, sols, stats)


def _worker_count(jobs: int, tasks: int) -> int:
    return min(jobs, tasks, os.cpu_count() or 1)


def _run_roots(solve, args, roots, jobs, stop):
    """Run solve(args + (None,)) serially, or solve(args + (root,)) for each
    root choice across worker processes, merged in root order.  solve
    returns (solution list, or solution count when it keeps none; nodes).
    roots may be lazy: the serial path never reads it."""
    if jobs == 1:
        return solve((*args, None))
    tasks = [(*args, root) for root in roots]
    if not tasks:
        return [], 0
    with ProcessPoolExecutor(max_workers=_worker_count(jobs, len(tasks))) as pool:
        results = list(pool.map(solve, tasks))
    nodes = sum(part_nodes for _, part_nodes in results)
    if isinstance(results[0][0], int):
        return sum(part for part, _ in results), nodes
    sols = [sol for part, _ in results for sol in part]
    return sols[:stop], nodes


# ---------------------------------------------------------------------------
# pair partitions: nK2 labelings and Skolem-type sequences
# ---------------------------------------------------------------------------

def _pair_rec(free, diffs, acc, out, stop, prune, counter) -> bool:
    # counter is [nodes, solutions]; out is None when solutions are only
    # counted.  acc is flat (a1, b1, a2, b2, ...): a flat tuple of small ints
    # takes a third of the memory of nested pairs.
    counter[0] += 1
    if not free:
        counter[1] += 1
        if out is not None:
            out.append(tuple(acc))
        return counter[1] == stop
    low = free & -free
    a = low.bit_length() - 1
    # highest unused difference > highest free position - a
    if prune and diffs.bit_length() > free.bit_length() - a:
        return False
    rest = free ^ low
    cand = (rest >> a) & diffs
    while cand:
        bit = cand & -cand
        cand ^= bit
        acc += (a, a + bit.bit_length() - 1)
        done = _pair_rec(rest ^ (bit << a), diffs ^ bit, acc, out, stop, prune, counter)
        del acc[-2:]
        if done:
            return True
    return False


def _pair_roots(free: int, diffs: int):
    """Differences that can pair the lowest free position, ascending."""
    a = (free & -free).bit_length() - 1
    cand = ((free & (free - 1)) >> a) & diffs
    while cand:
        bit = cand & -cand
        cand ^= bit
        yield bit.bit_length() - 1


def _pair_solve(args):
    free, diffs, stop, keep, prune, root = args
    acc: list = []
    if root is not None:
        a = (free & -free).bit_length() - 1
        free ^= (1 << a) | (1 << (a + root))
        diffs ^= 1 << root
        acc += (a, a + root)
    counter = [0, 0]
    out = [] if keep else None
    _pair_rec(free, diffs, acc, out, stop, prune, counter)
    return (out if keep else counter[1]), counter[0]


def _search_pairs(free, diffs, mode, limit, jobs, prune, wrap) -> SearchOutcome:
    t0 = time.perf_counter()
    stop, keep = _stop_for(mode, limit, jobs)
    found, nodes = _run_roots(_pair_solve, (free, diffs, stop, keep, prune),
                              _pair_roots(free, diffs), jobs, stop)
    return _outcome(mode, found, nodes, t0, wrap)


def search_nk2(
    n: int,
    k: int,
    d: int,
    mode: str = "exists",
    limit: int | None = None,
    jobs: int = 1,
    prune: bool = True,
    bound: int = DEFAULT_NK2_BOUND,
    force: bool = False,
) -> SearchOutcome:
    """Exhaustive search for (k,d)-hooked Skolem graceful labelings of nK2."""
    if n < 1 or k < 1 or d < 1:
        raise DomainError("n, k, d must be positive")
    if n > bound and not force:
        raise BoundExceeded(f"n={n} exceeds bound {bound}")
    free = ((1 << 2 * n) - 2) | (1 << (2 * n + 1))  # {1..2n-1, 2n+1}
    diffs = sum(1 << diff for diff in edge_target_set(k, d, n))
    return _search_pairs(free, diffs, mode, limit, jobs, prune,
                         lambda flat: PairSystem(zip(flat[::2], flat[1::2])))


def search_sequence(
    kind: SequenceKind, m: int, d: int = 1, mode: str = "exists",
    limit: int | None = None, jobs: int = 1, prune: bool = True,
    bound: int = DEFAULT_SEQUENCE_BOUND, force: bool = False,
) -> SearchOutcome:
    """Sequences of the given kind and order m; d, the least value of a
    hooked sequence, is ignored for the Skolem kinds."""
    length, hook, least = sequence_shape(kind, m, d)
    if m < 1:
        raise DomainError("order must be positive")
    if m > bound and not force:
        raise BoundExceeded(f"m={m} exceeds bound {bound}")

    def wrap(flat):
        entries = [HOOK] * (length + 1)  # 1-based: slot 0 is dropped
        for a, b in zip(flat[::2], flat[1::2]):
            entries[a] = entries[b] = b - a
        return SequenceForm(kind, entries[1:], d=least)

    free = (1 << (length + 1)) - 2  # positions 1..length
    if hook is not None:
        free ^= 1 << hook
    values = ((1 << m) - 1) << least
    return _search_pairs(free, values, mode, limit, jobs, prune, wrap)


def search_skolem(
    m: int, mode: str = "exists", limit: int | None = None, jobs: int = 1,
    prune: bool = True, bound: int = DEFAULT_SEQUENCE_BOUND, force: bool = False,
) -> SearchOutcome:
    """Skolem sequences of order m (reversals count as distinct)."""
    return search_sequence(SequenceKind.SKOLEM, m, 1, mode, limit, jobs, prune, bound, force)


def search_hooked_skolem(
    m: int, mode: str = "exists", limit: int | None = None, jobs: int = 1,
    prune: bool = True, bound: int = DEFAULT_SEQUENCE_BOUND, force: bool = False,
) -> SearchOutcome:
    """Hooked Skolem sequences of order m (hook fixed at position 2m)."""
    return search_sequence(SequenceKind.HOOKED_SKOLEM, m, 1, mode, limit, jobs, prune,
                           bound, force)


def search_hooked_sequence(
    d: int, m: int, mode: str = "exists", limit: int | None = None, jobs: int = 1,
    prune: bool = True, bound: int = DEFAULT_SEQUENCE_BOUND, force: bool = False,
) -> SearchOutcome:
    """Hooked sequences with difference set {d, ..., d+m-1}."""
    return search_sequence(SequenceKind.HOOKED, m, d, mode, limit, jobs, prune, bound, force)


# ---------------------------------------------------------------------------
# general graphs
# ---------------------------------------------------------------------------

def _graph_solve(args):
    p, edges, k, d, stop, keep, first_label = args
    labels = sorted(target_label_set(p))
    targets = set(edge_target_set(k, d, len(edges)))
    prev = [[] for _ in range(p)]
    for u, v in edges:  # 1-based in Graph
        hi, lo = max(u, v) - 1, min(u, v) - 1
        prev[hi].append(lo)
    counter = [0, 0]  # nodes, solutions
    out = [] if keep else None
    assignment = [0] * p
    used: set = set()
    used_edge: set = set()

    def rec(v):
        counter[0] += 1
        if v == p:
            counter[1] += 1
            if out is not None:
                out.append(tuple(assignment))
            return counter[1] == stop
        done = False
        for lab in labels:
            if lab in used:
                continue
            new_edges = []
            ok = True
            for u in prev[v]:
                e = abs(lab - assignment[u])
                if e not in targets or e in used_edge or e in new_edges:
                    ok = False
                    break
                new_edges.append(e)
            if not ok:
                continue
            assignment[v] = lab
            used.add(lab)
            used_edge.update(new_edges)
            done = rec(v + 1)
            used_edge.difference_update(new_edges)
            used.remove(lab)
            assignment[v] = 0
            if done:
                break
        return done

    if first_label is None:
        rec(0)
    else:
        assignment[0] = first_label
        used.add(first_label)
        rec(1)
    return (out if keep else counter[1]), counter[0]


def search_graph(
    g: Graph,
    k: int,
    d: int,
    mode: str = "exists",
    limit: int | None = None,
    jobs: int = 1,
    bound: int = DEFAULT_GRAPH_BOUND,
    force: bool = False,
) -> SearchOutcome:
    """Exhaustive search for (k,d)-hooked Skolem graceful labelings of g."""
    if k < 1 or d < 1:
        raise DomainError("k, d must be positive")
    if g.p > bound and not force:
        raise BoundExceeded(f"p={g.p} exceeds bound {bound}")
    t0 = time.perf_counter()
    stop, keep = _stop_for(mode, limit, jobs)
    if not size_necessary(g.p, g.q):
        return _outcome(mode, 0, 0, t0, VertexLabeling)
    found, nodes = _run_roots(_graph_solve, (g.p, g.edges, k, d, stop, keep),
                              sorted(target_label_set(g.p)), jobs, stop)
    return _outcome(mode, found, nodes, t0, VertexLabeling)


# ---------------------------------------------------------------------------
# survey
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SurveyRow:
    n: int
    parity_feasible: bool
    exists: bool | None  # None when the search column was skipped


def survey_nk2(
    ns,
    k: int,
    d: int,
    search_up_to: int = 0,
    jobs: int = 1,
    bound: int = DEFAULT_NK2_BOUND,
    force: bool = False,
) -> list[SurveyRow]:
    """One row per n: the parity predicate and, within search_up_to, the
    exhaustive verdict.  A positive search with a negative predicate is an
    implementation bug and raises ContradictionDetected."""
    rows = []
    for n in ns:
        feasible = nk2_parity_feasible(n, k, d)
        exists = None
        if n <= search_up_to:
            exists = search_nk2(n, k, d, "exists", jobs=jobs,
                                bound=bound, force=force).exists
            if exists and not feasible:
                raise ContradictionDetected(
                    f"search found a labeling for n={n}, k={k}, d={d} "
                    "but the parity predicate rules it out"
                )
        rows.append(SurveyRow(n, feasible, exists))
    return rows
