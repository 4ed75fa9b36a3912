import hashlib
import inspect
import random
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from itertools import combinations
from math import factorial

import pytest

from hskolem import (
    HOOK,
    BoundExceeded,
    ContradictionDetected,
    DomainError,
    Graph,
    PairSystem,
    SequenceKind,
    expected_cross_edges,
    hooked_sequence_necessary,
    nk2_graph,
    nk2_parity_feasible,
    pair_system_labeling,
    pairs_to_sequence,
    partition_census,
    search_graph,
    search_hooked_sequence,
    search_hooked_skolem,
    search_nk2,
    search_sequence,
    search_skolem,
    survey_nk2,
    verify_labeling,
    verify_pair_system,
    verify_sequence,
)
from hskolem import search

from oracles import (
    graph_labelings_brute,
    graph_tree_nodes,
    nk2_solutions_brute,
    pair_partition_count,
    pair_tree_nodes,
    sequence_solutions_brute,
)


def no_pool(*args, **kwargs):
    raise AssertionError("pool started")


@pytest.fixture
def lazy_pool(monkeypatch):
    """Two usable CPUs and, in place of the process pool, a stand-in whose
    map is the builtin lazy map: a root task runs only when the merge reads
    its result, in root order.  Returns the root bit of each task run."""
    ran = []

    class LazyPool:
        def __init__(self, max_workers):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, solve, tasks):
            def run(task):
                ran.append(task[-1])
                return solve(task)
            return map(run, tasks)

    monkeypatch.setattr(search.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(search, "ProcessPoolExecutor", LazyPool)
    return ran


def pool_every_pair_walk(monkeypatch):
    """Make every pair walk big and let the parity rule refute none, so that
    each one but a count hands its root tasks to the pool: a small walk
    makes the serial call at every jobs value."""
    monkeypatch.setattr(search, "MERGED_COUNT_PAIRS", 1)
    monkeypatch.setattr(search, "_parity_refutes", lambda free, diffs: False)


def outcome(out):
    return out.exists, out.count, out.solutions, out.stats.nodes_expanded


def entries_as_ints(s):
    return tuple(0 if x is HOOK else x for x in s.entries)


class TestNk2:
    def test_unique_n2(self):
        out = search_nk2(2, 2, 1, "enumerate")
        assert [ps.pairs for ps in out.solutions] == [((1, 3), (2, 5))]

    def test_first_n2(self):
        assert search_nk2(2, 2, 1, "first").solutions[0].pairs == ((1, 3), (2, 5))

    def test_no_solution_n3(self):
        assert not search_nk2(3, 2, 1, "exists").exists

    def test_count_n1(self):
        assert search_nk2(1, 2, 1, "count").count == 1

    def test_n4_infeasible_for_all_small_kd(self):
        for k in range(1, 5):
            for d in range(1, 5):
                assert not search_nk2(4, k, d, "exists").exists

    def test_agrees_with_brute_force(self):
        for n in range(1, 5):
            for k in range(1, 4):
                for d in range(1, 4):
                    found = [ps.pairs for ps in
                             search_nk2(n, k, d, "enumerate").solutions]
                    assert found == nk2_solutions_brute(n, k, d)

    def test_solutions_verify(self):
        for ps in search_nk2(6, 2, 1, "enumerate").solutions:
            assert verify_pair_system(ps, 2, 1).valid

    def test_enumerate_limit(self):
        out = search_nk2(6, 2, 1, "enumerate", limit=3)
        assert len(out.solutions) == 3

    def test_bound(self):
        with pytest.raises(BoundExceeded):
            search_nk2(11, 2, 1)
        assert search_nk2(11, 2, 1, force=True).stats.nodes_expanded > 0

    def test_force_is_keyword_only(self):
        # A seventh positional argument must not land on force and lift
        # the bound.
        with pytest.raises(TypeError):
            search_nk2(11, 2, 1, "exists", None, 1, True)
        for fn in (search_nk2, search_sequence, search_skolem, search_hooked_skolem,
                   search_hooked_sequence, search_graph, survey_nk2):
            params = inspect.signature(fn).parameters
            assert params["force"].kind is inspect.Parameter.KEYWORD_ONLY, fn
            assert "prune" not in params and "bound" not in params, fn

    def test_node_count_pinned(self):
        assert search_nk2(10, 2, 1, "count").stats.nodes_expanded == 227932

    def test_same_as_hooked_sequence_search(self):
        # A (k,1) labeling of nK2 and a hooked sequence with differences
        # k..k+n-1 are the same pair partition of {1..2n-1, 2n+1}, walked
        # on the same masks: answers, node totals and solutions agree.
        runs = [("exists", None), ("first", None), ("count", None),
                ("enumerate", None), ("enumerate", 3)]
        for n in range(1, 10):
            for k in range(1, 5):
                for mode, limit in runs:
                    labelings = search_nk2(n, k, 1, mode, limit)
                    sequences = search_sequence(SequenceKind.HOOKED, n, k, mode, limit)
                    assert ((labelings.exists, labelings.count,
                             labelings.stats.nodes_expanded)
                            == (sequences.exists, sequences.count,
                                sequences.stats.nodes_expanded)), (n, k, mode, limit)
                    assert ([pairs_to_sequence(ps, SequenceKind.HOOKED, d=k)
                             for ps in labelings.solutions]
                            == sequences.solutions), (n, k, mode, limit)

    @pytest.mark.parametrize("mode", search.MODES)
    def test_difference_past_the_span(self, mode):
        # The largest difference, 2n + 1 or more, fails the root's prune
        # test however large it is: a huge k or d answers as an instance
        # just past the span does, with the root as the one node.
        def key(out):
            return out.exists, out.count, out.solutions, out.stats.nodes_expanded

        for n in (1, 3, 6):
            past = key(search_nk2(n, n + 2, 1, mode))  # differences n+2..2n+1
            assert past[3] == 1
            for k, d in [(10**20, 1), (1, 10**20), (10**9, 10**9)]:
                assert key(search_nk2(n, k, d, mode, jobs=2)) == past, (n, k, d)
        past = key(search_sequence(SequenceKind.HOOKED, 4, 6, mode))  # values 6..9
        assert past[3] == 1
        for d in (10**9, 10**20):
            assert key(search_sequence(SequenceKind.HOOKED, 4, d, mode)) == past, d

    def test_difference_past_the_span_builds_no_big_mask(self):
        # A mask with bit k set takes k / 8 bytes: 1.25 MB at k = 10**7.
        tracemalloc.start()
        try:
            search_nk2(3, 10**7, 1, "count")
            search_nk2(3, 1, 10**7, "count")
            search_sequence(SequenceKind.HOOKED, 4, 10**7, "count")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    def test_pruning_keeps_every_solution(self):
        # The prune rule is always on; the by-value oracle shares none of it.
        for n, k, d in [(6, 2, 1), (7, 2, 1), (5, 1, 1), (6, 1, 2)]:
            found = [ps.pairs for ps in search_nk2(n, k, d, "enumerate").solutions]
            assert found == nk2_solutions_brute(n, k, d), (n, k, d)


class TestSkolem:
    def test_count_small_orders(self):
        assert search_skolem(1, "count").count == 1
        assert search_skolem(2, "count").count == 0
        assert search_skolem(3, "count").count == 0

    def test_order4_exists(self):
        assert search_skolem(4, "exists").exists
        witness = tuple(
            entries_as_ints(s) for s in search_skolem(4, "enumerate").solutions)
        assert (1, 1, 3, 4, 2, 3, 2, 4) in witness

    def test_agrees_with_brute_force(self):
        for m in range(1, 6):
            found = {entries_as_ints(s)
                     for s in search_skolem(m, "enumerate").solutions}
            assert found == sequence_solutions_brute(2 * m, range(1, m + 1))


class TestHookedSkolem:
    def test_counts(self):
        assert search_hooked_skolem(1, "count").count == 0
        assert search_hooked_skolem(2, "count").count == 1

    def test_unique_order2(self):
        sols = search_hooked_skolem(2, "enumerate").solutions
        assert [entries_as_ints(s) for s in sols] == [(1, 1, 2, 0, 2)]

    def test_order4_does_not_exist(self):
        assert not search_hooked_skolem(4, "exists").exists

    def test_agrees_with_brute_force(self):
        for m in range(1, 6):
            found = {entries_as_ints(s)
                     for s in search_hooked_skolem(m, "enumerate").solutions}
            assert found == sequence_solutions_brute(
                2 * m + 1, range(1, m + 1), hook_index=2 * m - 1)

    def test_solutions_verify(self):
        for s in search_hooked_skolem(6, "enumerate", limit=10).solutions:
            assert verify_sequence(s).valid


class TestHookedSequence:
    def test_paper_case_exists(self):
        assert search_hooked_sequence(3, 6, "exists").exists

    def test_infeasible_case(self):
        assert not search_hooked_sequence(4, 3, "exists").exists

    def test_d1_coincides_with_hooked_skolem(self):
        for m in range(1, 6):
            a = search_hooked_sequence(1, m, "count").count
            b = search_hooked_skolem(m, "count").count
            assert a == b

    def test_agrees_with_brute_force(self):
        for d in range(1, 4):
            for m in range(1, 5):
                found = {entries_as_ints(s) for s in
                         search_hooked_sequence(d, m, "enumerate").solutions}
                assert found == sequence_solutions_brute(
                    2 * m + 1, range(d, d + m), hook_index=2 * m - 1)

    def test_existence_implies_necessary_condition(self):
        for d in range(1, 5):
            for m in range(1, 9):
                if search_hooked_sequence(d, m, "exists").exists:
                    assert hooked_sequence_necessary(d, m)


class TestSearchSequence:
    @pytest.mark.parametrize("mode", ["exists", "first", "count", "enumerate"])
    def test_same_as_public_wrappers(self, mode):
        def key(out):
            return out.exists, out.count, out.solutions, out.stats.nodes_expanded

        for m in range(1, 7):
            for d in (1, 2, 3):  # d is ignored for the Skolem kinds
                assert (key(search_sequence(SequenceKind.SKOLEM, m, d, mode))
                        == key(search_skolem(m, mode)))
                assert (key(search_sequence(SequenceKind.HOOKED_SKOLEM, m, d, mode))
                        == key(search_hooked_skolem(m, mode)))
                assert (key(search_sequence(SequenceKind.HOOKED, m, d, mode))
                        == key(search_hooked_sequence(d, m, mode)))

    @pytest.mark.parametrize("kind", ["skolem", "hooked_skolem", "hooked"])
    def test_kind_not_a_sequence_kind_rejected(self, kind):
        with pytest.raises(DomainError):
            search_sequence(kind, 4, mode="first")


class TestPairNodesPinned:
    # nodes_expanded in every mode.  All four modes run one pair walker over
    # one tree; first and enumerate stop after the leaf that brings the
    # solution count to the stop, as exists does after the first.
    @pytest.mark.parametrize("run, nodes", [
        (partial(search_nk2, 10, 2, 1, "exists"), 1495),
        (partial(search_nk2, 9, 2, 1, "exists"), 490),
        (partial(search_nk2, 9, 1, 1, "exists"), 44013),
        (partial(search_skolem, 9, "exists"), 258),
        (partial(search_hooked_skolem, 10, "exists"), 491),
        (partial(search_skolem, 9, "count"), 42808),
        (partial(search_hooked_skolem, 9, "count"), 44013),
        # Skolem m = 10 has no solution, so each mode walks the whole tree.
        (partial(search_sequence, SequenceKind.SKOLEM, 10, 1, "exists"), 244129),
        (partial(search_sequence, SequenceKind.SKOLEM, 10, 1, "first"), 244129),
        (partial(search_sequence, SequenceKind.SKOLEM, 10, 1, "enumerate", 2), 244129),
    ], ids=["nk2-10-2-1", "nk2-9-2-1", "nk2-9-1-1", "skolem-9", "hooked-skolem-10",
            "skolem-9-count", "hooked-skolem-9-count", "skolem-10-exists",
            "skolem-10-first", "skolem-10-enumerate-2"])
    def test_nodes(self, run, nodes):
        assert run().stats.nodes_expanded == nodes

    @pytest.mark.parametrize("run, first, three", [
        (partial(search_nk2, 10, 2, 1), 1495, 1586),
        (partial(search_nk2, 9, 2, 1), 490, 526),
        (partial(search_nk2, 9, 1, 1), 44013, 44013),
        (partial(search_skolem, 9), 258, 271),
        (partial(search_hooked_skolem, 10), 491, 527),
    ], ids=["nk2-10-2-1", "nk2-9-2-1", "nk2-9-1-1", "skolem-9", "hooked-skolem-10"])
    def test_nodes_first_and_enumerate(self, run, first, three):
        assert run("first").stats.nodes_expanded == first
        assert run("enumerate", 3).stats.nodes_expanded == three

    def test_nk2_count(self):
        assert search_nk2(10, 2, 1, "count").count == 6824


def pair_instances():
    for n in range(1, 9):
        for k in range(1, 4):
            for d in range(1, 4):
                yield f"nk2 {n} {k} {d}", partial(search_nk2, n, k, d)
    for kind in SequenceKind:
        for m in range(1, 9):
            for d in (1, 2, 3) if kind is SequenceKind.HOOKED else (1,):
                yield f"{kind.value} {m} {d}", partial(search_sequence, kind, m, d)


class TestCountAgreesWithEnumerate:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_count_and_exists(self, monkeypatch, lazy_pool, jobs):
        if jobs == 2:  # root tasks in this process, merged lazily
            pool_every_pair_walk(monkeypatch)
        for name, run in pair_instances():
            count = run("count", jobs=jobs)
            exists = run("exists", jobs=jobs)
            listed = run("enumerate", jobs=jobs).solutions
            assert count.count == len(listed), name
            assert exists.exists == (count.count > 0), name
            if count.count == 0:
                assert (exists.stats.nodes_expanded
                        == count.stats.nodes_expanded), name
        assert bool(lazy_pool) == (jobs == 2)


class TestPairEnumeratePinned:
    # One SHA-256 over every pair instance's enumerate output, in order, and
    # its nodes_expanded: a change to the walker's state or trail must keep
    # both.  The digest was taken from the absolute-mask walker.
    DIGEST = "759a0283fecfa9d185fa30b01066e77301f0f80ebfd7bafcfccf19a9c7841d9c"

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_digest(self, monkeypatch, lazy_pool, jobs):
        if jobs == 2:  # root tasks in this process, merged lazily
            pool_every_pair_walk(monkeypatch)
        digest = hashlib.sha256()
        for name, run in pair_instances():
            out = run("enumerate", jobs=jobs)
            sols = [sol.pairs if isinstance(sol, PairSystem) else entries_as_ints(sol)
                    for sol in out.solutions]
            digest.update(f"{name} {out.stats.nodes_expanded} {sols}\n".encode())
        assert digest.hexdigest() == self.DIGEST
        assert bool(lazy_pool) == (jobs == 2)


class TestCountKeepsAnInteger:
    def test_memory_peak(self):
        tracemalloc.start()
        try:
            out = search_skolem(8, "count")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.count == 504 and out.solutions == []
        assert peak < 16 * 1024

    def test_graph_count_across_jobs(self):
        g = Graph(4, ((1, 2), (3, 4)))
        serial = search_graph(g, 2, 1, "count")
        assert serial.count > 0
        assert search_graph(g, 2, 1, "count", jobs=3).count == serial.count


class TestGraph:
    def test_path_k1(self):
        g = Graph(3, ((1, 2), (2, 3)))
        out = search_graph(g, 1, 1, "first")
        assert out.exists
        assert out.solutions[0].labels == (1, 2, 4)

    def test_path_k2(self):
        g = Graph(3, ((1, 2), (2, 3)))
        assert search_graph(g, 2, 1, "exists").exists

    def test_triangle_has_a_labeling(self):
        # q = p: the three differences of (1, 2, 4) are 1, 2, 3.
        g = Graph(3, ((1, 2), (2, 3), (1, 3)))
        out = search_graph(g, 1, 1, "first")
        assert out.solutions[0].labels == (1, 2, 4)
        assert verify_labeling(g, out.solutions[0], 1, 1).valid
        assert search_graph(g, 1, 1, "count").count == 6

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_k4_fails_size_condition(self, monkeypatch, jobs):
        monkeypatch.setattr(search, "ProcessPoolExecutor", no_pool)
        g = Graph(4, tuple(combinations(range(1, 5), 2)))  # q = 6 > p = 4
        out = search_graph(g, 1, 1, "exists", jobs=jobs)
        assert not out.exists
        assert out.stats.nodes_expanded == 0

    def test_nk2_as_graph_agrees(self):
        g, _ = pair_system_labeling(
            search_nk2(3, 1, 1, "first").solutions[0])
        assert search_graph(g, 1, 1, "count").count > 0

    def test_one_vertex_is_domain_error(self):
        with pytest.raises(DomainError):
            search_graph(Graph(1, ()), 1, 1)

    def test_bound(self):
        g = Graph(17, tuple((i, i + 1) for i in range(1, 17)))
        with pytest.raises(BoundExceeded):
            search_graph(g, 1, 1)

    def test_solutions_satisfy_census(self):
        g = Graph(4, ((1, 2), (3, 4)))
        for f in search_graph(g, 2, 1, "enumerate").solutions:
            c = partition_census(g, f)
            assert c.cross_edges == expected_cross_edges(2, 1, g.q)


# Small graphs for the brute-force check.  The triangle, the 4-cycle and the
# star give a vertex two or three earlier neighbours, where a midpoint label
# would repeat a difference.
SMALL_GRAPHS = {
    "edgeless3": Graph(3, ()),
    "K3": Graph(3, ((1, 2), (1, 3), (2, 3))),
    "C4": Graph(4, ((1, 2), (2, 3), (3, 4), (1, 4))),
    "paw": Graph(4, ((1, 2), (1, 3), (2, 3), (3, 4))),
    "K2+K1": Graph(3, ((1, 2),)),
    "2K2+K1": Graph(5, ((1, 2), (3, 4))),
    "path4+2K1": Graph(6, ((1, 2), (2, 3), (3, 4))),
    "triangle+K1": Graph(4, ((1, 2), (2, 3), (1, 3))),
    "C4+pendant+K1": Graph(6, ((1, 2), (2, 3), (3, 4), (1, 4), (4, 5))),
    "star, centre last": Graph(5, ((1, 5), (2, 5), (3, 5), (4, 5))),
    "triangle+path+K2": Graph(7, ((1, 2), (1, 3), (2, 3), (3, 4), (4, 5), (6, 7))),
    "path7": Graph(7, tuple((i, i + 1) for i in range(1, 7))),
}


class TestGraphAgainstBruteForce:
    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("name", sorted(SMALL_GRAPHS))
    def test_enumerate(self, name, jobs):
        g = SMALL_GRAPHS[name]
        total = 0
        for k in range(1, 4):
            for d in range(1, 4):
                found = [f.labels for f in
                         search_graph(g, k, d, "enumerate", jobs=jobs).solutions]
                assert found == graph_labelings_brute(g.p, g.edges, k, d)
                total += len(found)
        assert total > 0

    def test_every_edge_set_up_to_p4(self):
        cases = 0
        for p in range(2, 5):
            pairs = list(combinations(range(1, p + 1), 2))
            for mask in range(1 << len(pairs)):
                edges = tuple(e for i, e in enumerate(pairs) if mask >> i & 1)
                g = Graph(p, edges)
                for k in range(1, 4):
                    for d in range(1, 4):
                        found = [f.labels for f in
                                 search_graph(g, k, d, "enumerate").solutions]
                        assert found == graph_labelings_brute(p, edges, k, d), (p, edges, k, d)
                        cases += 1
        assert cases == 666

    def test_nodes_are_the_plain_tree(self):
        # Where a vertex has two or more earlier neighbours, a label at
        # equal differences from two of them is skipped, never entered.
        graphs = list(SMALL_GRAPHS.values())
        for p in range(2, 6):
            pairs = list(combinations(range(1, p + 1), 2))
            graphs += [Graph(p, edges) for q in range(p + 1)
                       for edges in combinations(pairs, q)]
        assert len(graphs) * 9 == 6453
        for g in graphs:
            for k in range(1, 4):
                for d in range(1, 4):
                    assert (search_graph(g, k, d, "count").stats.nodes_expanded
                            == graph_tree_nodes(g.p, g.edges, k, d)), (g, k, d)


class TestStopIsAPrefix:
    # first and enumerate with a limit stop early on the same walk that
    # enumerate finishes, so their solutions are a prefix of its list.
    @staticmethod
    def check(name, run, jobs):
        listed = run("enumerate", jobs=jobs).solutions
        assert run("first", jobs=jobs).solutions == listed[:1], name
        assert run("enumerate", 3, jobs=jobs).solutions == listed[:3], name

    def test_pair_instances(self):
        for name, run in pair_instances():
            self.check(name, run, 1)

    def test_pair_instances_parallel(self):
        for name, run in pair_instances():
            if max(x for x in run.args if isinstance(x, int)) <= 6:  # n, m <= 6
                self.check(name, run, 2)

    def test_small_graphs(self):
        for name, g in sorted(SMALL_GRAPHS.items()):
            for k in (1, 2):
                for d in (1, 2):
                    self.check(f"{name} {k} {d}", partial(search_graph, g, k, d), 1)


class TestGraphTreePinned:
    def test_5k2_21(self):
        out = search_graph(nk2_graph(5), 2, 1, "count")
        assert (out.count, out.stats.nodes_expanded) == (23040, 290607)

    def test_path9_11(self):
        out = search_graph(Graph(9, tuple((i, i + 1) for i in range(1, 9))), 1, 1, "count")
        assert (out.count, out.stats.nodes_expanded) == (228, 28946)

    def test_nk2_graph_counts_every_vertex_order(self):
        # Each pair system gives 2^n * n! labelings of the graph nK2: swap
        # the ends of an edge, or permute the edges.
        for n in range(1, 5):
            for k in range(1, 4):
                for d in range(1, 4):
                    assert (search_graph(nk2_graph(n), k, d, "count").count
                            == search_nk2(n, k, d, "count").count * 2**n * factorial(n))

    def test_nk2_graph_counts_every_vertex_order_to_n6(self):
        for n in (5, 6):
            for k in (1, 2):
                for d in (1, 2):
                    assert (search_graph(nk2_graph(n), k, d, "count").count
                            == search_nk2(n, k, d, "count").count * 2**n * factorial(n))

    def test_6k2_21(self):
        out = search_graph(nk2_graph(6), 2, 1, "count")
        assert (out.count, out.stats.nodes_expanded) == (829440, 13786267)


def memo_graphs():
    # Disconnected graphs with components numbered one after another and
    # interleaved, where an edge spans a vertex of another component, then
    # random graphs with q <= p - 1 edges.
    yield "2K2 interleaved", Graph(4, ((1, 3), (2, 4)))
    yield "3K2 interleaved", Graph(6, ((1, 4), (2, 5), (3, 6)))
    yield "3K2", Graph(6, ((1, 2), (3, 4), (5, 6)))
    yield "K2+P3 interleaved", Graph(5, ((1, 3), (2, 4), (4, 5)))
    yield "P3+K1+P3", Graph(7, ((1, 2), (2, 3), (5, 6), (6, 7)))
    yield "K1+P4 interleaved+K2", Graph(7, ((2, 4), (3, 5), (4, 5), (6, 7)))
    rng = random.Random(6)
    for i in range(12):
        p = rng.randint(2, 7)
        pairs = [(u, v) for u in range(1, p + 1) for v in range(u + 1, p + 1)]
        yield f"random {i}", Graph(p, tuple(rng.sample(pairs, rng.randint(0, p - 1))))


class TestGraphMemo:
    # count and exists memoize subtrees below the vertices that no edge
    # spans; a hit credits the cached subtree's nodes, so nodes_expanded
    # stays the size of the plain tree.
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_nodes_are_the_plain_tree(self, jobs):
        # Every root task enters the root, and the parallel merge counts it once.
        for name, g in memo_graphs():
            for k in (1, 2):
                for d in (1, 2):
                    count = search_graph(g, k, d, "count", jobs=jobs)
                    assert (count.stats.nodes_expanded
                            == graph_tree_nodes(g.p, g.edges, k, d)), (name, k, d)
                    assert count.count == len(graph_labelings_brute(g.p, g.edges, k, d))
                    if count.count == 0:
                        exists = search_graph(g, k, d, "exists", jobs=jobs)
                        assert (exists.stats.nodes_expanded
                                == count.stats.nodes_expanded), (name, k, d)

    def test_exists_nodes_do_not_depend_on_the_memo(self, monkeypatch):
        # exists stops inside a subtree, which the memo must not store.
        runs = [(g, k, d) for _, g in memo_graphs() for k in (1, 2) for d in (1, 2)]
        found = [(run, search_graph(*run, "exists")) for run in runs]
        found = [(run, out.stats.nodes_expanded) for run, out in found if out.exists]
        assert len(found) == 53
        monkeypatch.setattr(search, "MEMO_ENTRIES", 0)
        for run, nodes in found:
            assert search_graph(*run, "exists").stats.nodes_expanded == nodes, run

    @pytest.mark.parametrize("cap", [0, 3])
    def test_capped_memo_stays_exact(self, monkeypatch, cap):
        # 6K2 (2,2) rather than (2,1): a capped (2,1) run walks most of the
        # 13.8 M-node plain tree.
        runs = [(nk2_graph(5), 2, 1), (nk2_graph(6), 2, 2)]

        def key(out):
            return out.count, out.stats.nodes_expanded

        full = [key(search_graph(g, k, d, "count")) for g, k, d in runs]
        monkeypatch.setattr(search, "MEMO_ENTRIES", cap)
        assert [key(search_graph(g, k, d, "count")) for g, k, d in runs] == full
        assert full == [(23040, 290607), (0, 1244567)]

    def test_memo_graph_runs_serially_under_jobs(self, monkeypatch):
        # Root tasks would each rebuild the memo that the serial walk shares.
        monkeypatch.setattr(search, "ProcessPoolExecutor", no_pool)
        out = search_graph(nk2_graph(6), 2, 1, "count", jobs=2)
        assert (out.count, out.stats.nodes_expanded) == (829440, 13786267)

    def test_graph_without_memo_vertex_splits_roots(self, monkeypatch):
        # In a path every vertex but the first is spanned by an edge.  Two
        # usable CPUs, so that the root tasks go to a pool on any host.
        monkeypatch.setattr(search.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(search, "ProcessPoolExecutor", no_pool)
        path9 = Graph(9, tuple((i, i + 1) for i in range(1, 9)))
        with pytest.raises(AssertionError, match="pool started"):
            search_graph(path9, 1, 1, "count", jobs=2)

    def test_memory_peak_6k2(self):
        tracemalloc.start()
        try:
            out = search_graph(nk2_graph(6), 2, 1, "count")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.count == 829440
        assert peak < 1024 * 1024


class TestDeterminismAndParallel:
    def test_enumerate_identical_across_jobs(self):
        serial = search_nk2(6, 2, 1, "enumerate")
        parallel = search_nk2(6, 2, 1, "enumerate", jobs=4)
        assert ([ps.pairs for ps in serial.solutions]
                == [ps.pairs for ps in parallel.solutions])

    def test_first_identical_across_jobs(self):
        for n, k, d in [(2, 2, 1), (5, 2, 1), (6, 2, 1), (6, 1, 1), (7, 1, 1)]:
            a = search_nk2(n, k, d, "first")
            b = search_nk2(n, k, d, "first", jobs=4)
            assert [s.pairs for s in a.solutions] == [s.pairs for s in b.solutions]

    def test_sequence_counts_across_jobs(self):
        assert (search_skolem(5, "count").count
                == search_skolem(5, "count", jobs=4).count)
        assert (search_hooked_skolem(6, "count").count
                == search_hooked_skolem(6, "count", jobs=4).count)

    def test_hooked_sequence_identical_across_jobs(self):
        for mode in ("first", "enumerate"):
            serial = search_hooked_sequence(3, 6, mode)
            parallel = search_hooked_sequence(3, 6, mode, jobs=2)
            assert serial.solutions and parallel.solutions == serial.solutions

    def test_graph_across_jobs(self):
        g = Graph(4, ((1, 2), (3, 4)))
        a = search_graph(g, 2, 1, "enumerate")
        b = search_graph(g, 2, 1, "enumerate", jobs=3)
        assert [f.labels for f in a.solutions] == [f.labels for f in b.solutions]


class TestNodesAcrossJobs:
    # In every mode the outcome, nodes_expanded included, is the serial
    # walk's for every jobs value: every root task enters the root and the
    # parallel merge counts it once, taking each task whole up to the task
    # where the serial walk stops.  Only stops of none and 1 go to the
    # pool; enumerate with a limit above 1 makes the serial call, and a
    # pair root that fails the prune test is answered with no walk.  A
    # pair walk reaches the pool only with MERGED_COUNT_PAIRS pairs or more
    # and when it is not merged (a count, or refuted by the parity rule).
    # TestGraphMemo checks the graph engine's count against its oracle for
    # both jobs values.
    @pytest.mark.parametrize("mode, limit", [
        ("exists", None), ("first", None), ("count", None),
        ("enumerate", None), ("enumerate", 1), ("enumerate", 3),
    ], ids=["exists", "first", "count", "enumerate", "enumerate-1", "enumerate-3"])
    def test_pair_instances(self, monkeypatch, lazy_pool, mode, limit):
        # Two usable CPUs and root tasks in this process, merged lazily.
        serial = [outcome(run(mode, limit)) for _, run in pair_instances()]
        pool_every_pair_walk(monkeypatch)
        for (name, run), out in zip(pair_instances(), serial):
            assert outcome(run(mode, limit, jobs=2)) == out, name
        assert bool(lazy_pool) == (mode != "count" and limit in (None, 1))

    def test_only_big_walks_that_are_not_merged_reach_the_pool(self, monkeypatch, lazy_pool):
        # Two usable CPUs, and a pool that raises if started: every small
        # walk, in every mode, and the merged nK2 (10,2,1) count and Skolem
        # m = 11 first, which the parity rule refutes, make the serial call.
        pool = search.ProcessPoolExecutor
        monkeypatch.setattr(search, "ProcessPoolExecutor", no_pool)
        calls = [(name, run, mode) for name, run, _, _ in pair_trees() for mode in search.MODES]
        calls += [("nk2 10 2 1", partial(search_nk2, 10, 2, 1), "count"),
                  ("skolem 11", partial(search_skolem, 11), "first")]
        for name, run, mode in calls:
            assert outcome(run(mode, jobs=2)) == outcome(run(mode)), (name, mode)
        monkeypatch.setattr(search, "ProcessPoolExecutor", pool)
        search_skolem(12, "first", jobs=2)  # big and not merged
        assert lazy_pool

    def test_pinned_trees(self):
        assert search_nk2(10, 2, 1, "count", jobs=2).stats.nodes_expanded == 227932
        assert search_graph(nk2_graph(4), 2, 1, "count", jobs=2).stats.nodes_expanded == 7781
        skolem12 = partial(search_sequence, SequenceKind.SKOLEM, 12, 1)
        for jobs in (1, 2):
            assert search_nk2(10, 2, 1, "first", jobs=jobs).stats.nodes_expanded == 1495
            assert (search_nk2(10, 2, 1, "enumerate", 1000, jobs=jobs).stats.nodes_expanded
                    == 47696)
            assert skolem12("first", jobs=jobs).stats.nodes_expanded == 3708
            assert skolem12("enumerate", 1000, jobs=jobs).stats.nodes_expanded == 59354

    def test_no_task_runs_after_the_answer(self, lazy_pool):
        out = search_sequence(SequenceKind.SKOLEM, 12, 1, "first", jobs=2)
        value = out.solutions[0].entries[0]  # the root pairs position 1 with 1 + value
        assert lazy_pool == [1 << i for i in range(value)]
        assert out.stats.nodes_expanded == 3708

    def test_a_limit_above_one_walks_serially(self, monkeypatch):
        # Two usable CPUs, and a pool that raises if started.
        monkeypatch.setattr(search.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(search, "ProcessPoolExecutor", no_pool)
        for run in (partial(search_nk2, 10, 2, 1, "enumerate"),
                    partial(search_sequence, SequenceKind.SKOLEM, 12, 1, "enumerate")):
            for limit in (2, 3, 1000):
                assert outcome(run(limit, jobs=2)) == outcome(run(limit))

    def test_each_task_is_walked_once(self, monkeypatch, lazy_pool):
        # Each call as (root bit, stop): one per task run, in root order,
        # with the mode's own stop; no task is walked again.
        calls = []
        solve = search._pair_solve

        def record(args):
            calls.append((args[-1], args[-3]))
            found, kept, nodes = solve(args)
            assert all(type(sol) is tuple and all(type(x) is int for x in sol)
                       for sol in kept)  # flat solutions, with no node tag
            return found, kept, nodes

        nk2 = partial(search_nk2, 10, 2, 1)
        skolem12 = partial(search_sequence, SequenceKind.SKOLEM, 12, 1)
        cases = [(run, mode, limit) for run in (nk2, skolem12)
                 for mode, limit in (("first", None), ("exists", None), ("enumerate", 1))]
        cases.append((nk2, "enumerate", None))  # no stop: every task runs
        monkeypatch.setattr(search, "_pair_solve", record)
        for run, mode, limit in cases:
            serial = outcome(run(mode, limit))  # one call, on the whole root
            calls.clear()
            lazy_pool.clear()
            assert outcome(run(mode, limit, jobs=2)) == serial
            stop = limit if mode == "enumerate" else 1
            assert calls == [(bit, stop) for bit in lazy_pool]
            assert lazy_pool == sorted(lazy_pool) and all(bit.bit_count() == 1 for bit in lazy_pool)
        assert lazy_pool == [1 << i for i in range(1, 11)]  # the ten root tasks of nK2 (10,2,1)

    def test_pruned_root_starts_no_pool(self, monkeypatch):
        monkeypatch.setattr(search, "ProcessPoolExecutor", no_pool)
        monkeypatch.setattr(search, "_pair_walk", no_pool)  # answered with no walk
        for jobs in (1, 2):
            out = search_nk2(8, 1, 3, "count", jobs=jobs)
            assert (out.count, out.stats.nodes_expanded) == (0, 1)

    @pytest.mark.parametrize("run", [
        partial(search_hooked_sequence, 2, 1),
        partial(search_hooked_sequence, 2, 2),
        partial(search_hooked_sequence, 3, 2),
        partial(search_nk2, 2, 2, 1),
    ], ids=["hooked-2-1", "hooked-2-2", "hooked-3-2", "nk2-2-2-1"])
    def test_one_root_choice_starts_no_pool(self, monkeypatch, run):
        # A root with one choice makes one task, which walks the serial tree.
        serial = outcome(run("enumerate"))
        monkeypatch.setattr(search.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(search, "ProcessPoolExecutor", no_pool)
        pool_every_pair_walk(monkeypatch)
        assert outcome(run("enumerate", jobs=2)) == serial
        assert serial[3] > 1  # a walk, not a pruned root


class TestOneUsableCpu:
    # On one usable CPU jobs > 1 makes the serial call and starts no pool;
    # the pool path, run on threads here, merges to the same outcome.  The
    # pair instances are made big, so that all but a count reach the pool.
    @pytest.mark.parametrize("mode", search.MODES)
    @pytest.mark.parametrize("run", [
        partial(search_nk2, 7, 2, 1),
        partial(search_skolem, 8),
        partial(search_graph, Graph(9, tuple((i, i + 1) for i in range(1, 9))), 1, 1),
    ], ids=["nk2-7-2-1", "skolem-8", "path9-1-1"])
    def test_runs_the_serial_walk(self, monkeypatch, run, mode):
        serial = outcome(run(mode))
        pool_every_pair_walk(monkeypatch)
        monkeypatch.setattr(search.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(search, "ProcessPoolExecutor", ThreadPoolExecutor)
        pooled = outcome(run(mode, jobs=2))
        monkeypatch.setattr(search.os, "sched_getaffinity", lambda pid: {0})
        monkeypatch.setattr(search, "ProcessPoolExecutor", no_pool)
        assert outcome(run(mode, jobs=2)) == pooled == serial
        assert pooled[3] > 1


def pair_trees():
    # Each pair instance with its position and difference sets, built here
    # from the definitions rather than from the package's masks.
    for n in range(1, 8):
        for k in range(1, 4):
            for d in range(1, 4):
                yield (f"nk2 {n} {k} {d}", partial(search_nk2, n, k, d),
                       set(range(1, 2 * n)) | {2 * n + 1}, {k + i * d for i in range(n)})
    for m in range(1, 8):
        hooked = set(range(1, 2 * m)) | {2 * m + 1}
        values = set(range(1, m + 1))
        yield f"skolem {m}", partial(search_skolem, m), set(range(1, 2 * m + 1)), values
        yield f"hooked_skolem {m}", partial(search_hooked_skolem, m), hooked, values
        for d in range(1, 4):
            yield (f"hooked {m} {d}", partial(search_hooked_sequence, d, m), hooked,
                   set(range(d, d + m)))


class TestPairTreeOracle:
    # count-mode nodes_expanded is the size of the plain tree, for every
    # jobs value: every state reached counts once.
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_count_nodes_are_the_plain_tree(self, jobs):
        checked = 0
        for name, run, free, diffs in pair_trees():
            assert (run("count", jobs=jobs).stats.nodes_expanded
                    == pair_tree_nodes(free, diffs)), name
            checked += 1
        assert checked == 98

    def test_count_is_the_pair_partition_count(self):
        # Godfrey's formula counts the partitions with no search at all.
        nonzero = 0
        for name, run, free, diffs in pair_trees():
            count = pair_partition_count(free, diffs)
            assert run("count").count == count, name
            nonzero += count > 0
        assert nonzero == 30  # of the 98 instances


class TestMergedCount:
    # A count of MERGED_COUNT_PAIRS pairs or more expands each distinct
    # state once, one depth at a time, and makes one serial call at every
    # jobs value; its count and nodes_expanded are the plain tree's.
    @pytest.mark.parametrize("cap", [search.MEMO_ENTRIES, 3, 100],
                             ids=["uncapped", "cap-3", "cap-100"])
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_pair_trees(self, monkeypatch, jobs, cap):
        # Every instance merges, with two usable CPUs and a pool that raises
        # if started.  A full level walks each new state at once; at a cap
        # of 100 some such states are reached by more than one path.  Each
        # time, the depth being built and its child map hold at most the cap.
        walked = []
        walk = search._pair_walk

        def record(*args):
            if sys._getframe(1).f_code is search._pair_solve.__code__:  # walked at once
                depth = sys._getframe(2).f_locals  # _pair_count's
                assert len(depth["norm"]) <= cap
                assert depth["held"] + len(depth["to"]) <= cap
                walked.append(args[:2])
            walk(*args)

        monkeypatch.setattr(search.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(search, "ProcessPoolExecutor", no_pool)
        monkeypatch.setattr(search, "MERGED_COUNT_PAIRS", 1)
        monkeypatch.setattr(search, "MEMO_ENTRIES", cap)
        monkeypatch.setattr(search, "_pair_walk", record)
        for name, run, free, diffs in pair_trees():
            out = run("count", jobs=jobs)
            assert ((out.count, out.stats.nodes_expanded)
                    == (pair_partition_count(free, diffs), pair_tree_nodes(free, diffs))), name
        assert bool(walked) == (cap in (3, 100))

    def test_nk2_10_merges_without_the_walker(self, monkeypatch):
        monkeypatch.setattr(search, "_pair_walk", no_pool)
        for jobs in (1, 2):
            out = search_nk2(10, 2, 1, "count", jobs=jobs)
            assert (out.count, out.stats.nodes_expanded) == (6824, 227932)

    @pytest.mark.parametrize("cap, bound", [
        # 1.12 MB measured with Pythons 3.10 to 3.13 (1.69-1.77 MB before
        # each depth shared one int per child state): about 40 bytes a state.
        (search.MEMO_ENTRIES, 1.4 * 1024 * 1024),
        # A depth holds at most the cap: 0.16 MB measured with Pythons 3.10
        # to 3.13; a depth that let the children of 1000 states in, up to
        # ten times as many, peaked at 0.29 MB.
        (1000, 230 * 1024),
    ], ids=["shipped-cap", "cap-1000"])
    def test_memory_peak_nk2_10(self, monkeypatch, cap, bound):
        monkeypatch.setattr(search, "MEMO_ENTRIES", cap)
        tracemalloc.start()
        try:
            out = search_nk2(10, 2, 1, "count")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (out.count, out.stats.nodes_expanded) == (6824, 227932)
        assert peak < bound

    @pytest.mark.parametrize("run", [
        partial(search_nk2, 9, 1, 1), partial(search_nk2, 9, 3, 1),
        partial(search_nk2, 10, 2, 1), partial(search_nk2, 10, 1, 2),
        partial(search_sequence, SequenceKind.SKOLEM, 9, 1),
        partial(search_sequence, SequenceKind.SKOLEM, 10, 1),
        partial(search_sequence, SequenceKind.HOOKED_SKOLEM, 9, 1),
        partial(search_sequence, SequenceKind.HOOKED, 10, 2),
        partial(search_sequence, SequenceKind.HOOKED, 9, 3),
    ], ids=["nk2-9-1-1", "nk2-9-3-1", "nk2-10-2-1", "nk2-10-1-2", "skolem-9",
            "skolem-10", "hooked_skolem-9", "hooked-2-10", "hooked-3-9"])
    def test_shipped_threshold_is_the_plain_walk(self, monkeypatch, run):
        # Counts at the shipped MERGED_COUNT_PAIRS, whose depths hold rows of
        # many states, and the refuted walks among them: every instance here
        # without a solution is one the parity rule refutes.  A cap of 1000
        # states fills the larger depths, so that the walk-at-once branch
        # runs inside wide blocks, on states that many paths reach.
        modes = [("count", None), ("exists", None), ("first", None), ("enumerate", 3)]
        shipped = search.MERGED_COUNT_PAIRS
        monkeypatch.setattr(search, "MERGED_COUNT_PAIRS", 10**9)
        plain = [outcome(run(mode, limit)) for mode, limit in modes]
        monkeypatch.setattr(search, "MERGED_COUNT_PAIRS", shipped)
        merged = []
        count = search._pair_count
        monkeypatch.setattr(search, "_pair_count", lambda args: merged.append(args) or count(args))
        assert [outcome(run(mode, limit)) for mode, limit in modes] == plain
        assert len(merged) == (1 if plain[1][0] else 4)
        monkeypatch.setattr(search, "MEMO_ENTRIES", 1000)
        assert outcome(run("count")) == plain[0]


def parity_refuted(free, diffs):
    # The package's rule on its masks: free absolute, diffs shifted by one.
    return search._parity_refutes(sum(1 << p for p in free), sum(1 << e - 1 for e in diffs))


class TestParityRefutedWalk:
    # An exists, first or enumerate call of MERGED_COUNT_PAIRS pairs or
    # more that Skolem's parity rule refutes has no solution to stop at, so
    # it walks the merged tree of a count: one serial call at every jobs
    # value, with the plain walk's outcome.
    def test_refutes_no_instance_with_a_solution(self):
        refuted = 0
        for name, run, free, diffs in pair_trees():
            if parity_refuted(free, diffs):
                assert pair_partition_count(free, diffs) == 0, name
                refuted += 1
            if name.startswith("nk2"):
                n, k, d = map(int, name.split()[1:])
                assert parity_refuted(free, diffs) != nk2_parity_feasible(n, k, d), name
        assert refuted == 51  # of the 98 instances, 68 of them without a solution

    @pytest.mark.parametrize("mode, limit", [("exists", None), ("first", None), ("enumerate", 3)],
                             ids=["exists", "first", "enumerate-3"])
    def test_merged_walk_is_the_plain_walk(self, monkeypatch, mode, limit):
        refuted = [run for _, run, free, diffs in pair_trees() if parity_refuted(free, diffs)]
        monkeypatch.setattr(search, "MERGED_COUNT_PAIRS", 10**9)
        plain = [outcome(run(mode, limit)) for run in refuted]
        # Every refuted instance merges, with two usable CPUs and a pool and
        # a walker that raise if started.
        monkeypatch.setattr(search.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(search, "ProcessPoolExecutor", no_pool)
        monkeypatch.setattr(search, "MERGED_COUNT_PAIRS", 1)
        monkeypatch.setattr(search, "_pair_walk", no_pool)
        for jobs in (1, 2):
            assert [outcome(run(mode, limit, jobs=jobs)) for run in refuted] == plain
        assert not any(out[0] for out in plain) and max(out[3] for out in plain) > 1

    @pytest.mark.parametrize("mode", ["exists", "first", "enumerate"])
    def test_a_refuted_solution_raises(self, monkeypatch, mode):
        # The engine, not the rule, has the last word: nK2 (9,2,1) has
        # labelings, so a rule that refutes it is caught, never answered "none".
        monkeypatch.setattr(search, "_parity_refutes", lambda free, diffs: True)
        with pytest.raises(ContradictionDetected, match="parity rule"):
            search_nk2(9, 2, 1, mode)
        assert search_nk2(9, 2, 1, "count").count > 0  # a count never asks the rule


class TestPairWalkEntersNoPrunedState:
    # The walker applies the prune test to each child and counts a pruned
    # child without entering it.  The recursion goes through the module
    # global, so the wrapper sees every entered state; root tasks run in
    # this process, lazily in root order, so that it sees theirs too and
    # no task runs past the answer.  At jobs 2 every walk but a count, which
    # never reaches the pool, is made big so that its root tasks run.
    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("mode", search.MODES)
    @pytest.mark.parametrize("run", [
        partial(search_nk2, 7, 2, 1),
        partial(search_sequence, SequenceKind.SKOLEM, 8, 1),
    ], ids=["nk2-7-2-1", "skolem-8"])
    def test_entered_states_pass_the_prune_test(self, monkeypatch, lazy_pool, run, mode, jobs):
        entered = []
        walk = search._pair_walk

        def record(f, diffs, *rest):
            entered.append((f, diffs))
            walk(f, diffs, *rest)

        pooled = jobs == 2 and mode != "count"
        if pooled:
            pool_every_pair_walk(monkeypatch)
        monkeypatch.setattr(search, "_pair_walk", record)
        out = run(mode, jobs=jobs)
        assert [(f, diffs) for f, diffs in entered
                if diffs.bit_length() > f.bit_length()] == []
        assert 0 < len(entered) < out.stats.nodes_expanded
        assert bool(lazy_pool) == pooled


class TestSurvey:
    def test_21_pattern(self):
        rows = survey_nk2(range(1, 9), 2, 1, search_up_to=8)
        assert {r.n for r in rows if r.exists} == {1, 2, 5, 6}

    def test_11_pattern(self):
        rows = survey_nk2(range(1, 9), 1, 1, search_up_to=8)
        assert {r.n for r in rows if r.exists} == {2, 3, 6, 7}

    def test_parity_only_rows(self):
        rows = survey_nk2(range(1, 13), 2, 1)
        assert all(r.exists is None for r in rows)
        assert [r.n for r in rows if r.parity_feasible] == [1, 2, 5, 6, 9, 10]

    def test_existence_implies_parity(self):
        for k in range(1, 4):
            for d in range(1, 4):
                for row in survey_nk2(range(1, 7), k, d, search_up_to=6):
                    if row.exists:
                        assert nk2_parity_feasible(row.n, k, d)

    # survey_nk2 takes no jobs: each row's search is serial, whatever value
    # a caller tries to pass.
    @pytest.mark.parametrize("search_up_to", [0, 3])
    @pytest.mark.parametrize("jobs", [0, -2, 2])
    def test_rejects_jobs_below_one(self, jobs, search_up_to):
        with pytest.raises(TypeError):
            survey_nk2(range(1, 6), 2, 1, search_up_to=search_up_to, jobs=jobs)

    def test_rows_start_no_pool(self, monkeypatch):
        monkeypatch.setattr(search, "ProcessPoolExecutor", no_pool)
        rows = survey_nk2(range(1, 9), 2, 1, search_up_to=8)
        assert type(rows) is list
        assert [r.n for r in rows if r.exists] == [1, 2, 5, 6]

    @pytest.mark.parametrize("force", [False, True])
    @pytest.mark.parametrize("search_up_to", [-1, -3])
    def test_rejects_negative_search_up_to_before_any_row(self, search_up_to, force):
        ns = iter(range(1, 6))
        with pytest.raises(DomainError, match="non-negative"):
            survey_nk2(ns, 2, 1, search_up_to=search_up_to, force=force)
        assert next(ns) == 1  # no row was read


class TestArguments:
    @pytest.mark.parametrize("kwargs", [{"mode": "enumerate", "limit": 0},
                                        {"mode": "enumerate", "limit": -1},
                                        {"jobs": 0}, {"jobs": -2}])
    def test_rejects_limit_and_jobs_below_one(self, kwargs):
        with pytest.raises(DomainError):
            search_nk2(5, 2, 1, **kwargs)
        with pytest.raises(DomainError):
            search_skolem(4, **kwargs)
        with pytest.raises(DomainError):
            search_graph(Graph(4, ((1, 2), (3, 4))), 2, 1, **kwargs)

    # The engines recurse once per pair or vertex, so an order at the
    # recursion limit is refused before any mask is built.
    @pytest.mark.parametrize("call", [
        lambda n: search_nk2(n, 2, 1, force=True),
        lambda n: search_sequence(SequenceKind.SKOLEM, n, force=True),
        lambda n: search_graph(Graph(n, ()), 1, 1, force=True),
        lambda n: survey_nk2([1], 2, 1, search_up_to=n, force=True),
    ], ids=["nk2", "sequence", "graph", "survey"])
    def test_rejects_orders_beyond_the_recursion_depth(self, call):
        with pytest.raises(DomainError, match="recursion depth"):
            call(sys.getrecursionlimit())

    def test_a_walk_out_of_stack_below_the_limit_raises_the_same_error(self):
        # The order passes the check, but the caller's frames and the walk's
        # together overrun the stack: the search maps its RecursionError.
        with pytest.raises(DomainError, match="recursion depth"):
            search_graph(Graph(sys.getrecursionlimit() - 5, ()), 1, 1, "first", force=True)

    def test_worker_count_is_capped(self, monkeypatch):
        # At the CPUs this process may run on, not the CPUs of the host.
        monkeypatch.setattr(search.os, "sched_getaffinity", lambda pid: {0, 2, 5, 7},
                            raising=False)
        monkeypatch.setattr(search.os, "cpu_count", lambda: 64)
        assert search._worker_count(10**9, 7) == 4
        assert search._worker_count(10**9, 3) == 3
        assert search._worker_count(2, 7) == 2
        assert search._worker_count(10**9, 0) == 0
        # Where sched_getaffinity does not exist: os.cpu_count, else 1.
        monkeypatch.delattr(search.os, "sched_getaffinity")
        monkeypatch.setattr(search.os, "cpu_count", lambda: 4)
        assert search._worker_count(10**9, 7) == 4
        monkeypatch.setattr(search.os, "cpu_count", lambda: None)
        assert search._worker_count(10**9, 7) == 1
