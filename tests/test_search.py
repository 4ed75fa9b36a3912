import inspect
import random
import sys
import tracemalloc
from functools import partial
from itertools import combinations
from math import factorial

import pytest

from hskolem import (
    HOOK,
    BoundExceeded,
    DomainError,
    Graph,
    SequenceKind,
    expected_cross_edges,
    hooked_sequence_necessary,
    nk2_graph,
    nk2_parity_feasible,
    pair_system_labeling,
    partition_census,
    search_graph,
    search_hooked_sequence,
    search_hooked_skolem,
    search_nk2,
    search_sequence,
    search_skolem,
    sequence_to_pairs,
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
    pair_tree_nodes,
    sequence_solutions_brute,
)


def no_pool(*args, **kwargs):
    raise AssertionError("pool started")


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
        # k..k+n-1 are the same pair partition of {1..2n-1, 2n+1}.
        for n in range(1, 8):
            for k in range(1, 4):
                labelings = [ps.pairs for ps in
                             search_nk2(n, k, 1, "enumerate").solutions]
                sequences = [tuple(sorted(sequence_to_pairs(s).pairs)) for s in
                             search_hooked_sequence(k, n, "enumerate").solutions]
                assert labelings == sequences

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
    ], ids=["nk2-10-2-1", "nk2-9-2-1", "nk2-9-1-1", "skolem-9", "hooked-skolem-10",
            "skolem-9-count", "hooked-skolem-9-count"])
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
    def test_count_and_exists(self, jobs):
        for name, run in pair_instances():
            count = run("count", jobs=jobs)
            exists = run("exists", jobs=jobs)
            listed = run("enumerate", jobs=jobs).solutions
            assert count.count == len(listed), name
            assert exists.exists == (count.count > 0), name
            if count.count == 0:
                assert (exists.stats.nodes_expanded
                        == count.stats.nodes_expanded), name


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
        # The parallel merge counts the root, which no root task expands.
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
        monkeypatch.setattr(search, "GRAPH_MEMO_ENTRIES", 0)
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
        monkeypatch.setattr(search, "GRAPH_MEMO_ENTRIES", cap)
        assert [key(search_graph(g, k, d, "count")) for g, k, d in runs] == full
        assert full == [(23040, 290607), (0, 1244567)]

    def test_memo_graph_runs_serially_under_jobs(self, monkeypatch):
        # Root tasks would each rebuild the memo that the serial walk shares.
        monkeypatch.setattr(search, "ProcessPoolExecutor", no_pool)
        out = search_graph(nk2_graph(6), 2, 1, "count", jobs=2)
        assert (out.count, out.stats.nodes_expanded) == (829440, 13786267)

    def test_graph_without_memo_vertex_splits_roots(self, monkeypatch):
        # In a path every vertex but the first is spanned by an edge.
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


class TestCountNodesAcrossJobs:
    # In count mode nodes_expanded is the whole tree for every jobs value:
    # the parallel merge counts the root, which no root task expands, and a
    # pair root that fails the prune test yields no root tasks at all.
    # TestGraphMemo checks the graph engine's count against its oracle for
    # both jobs values.
    def test_pair_instances(self):
        for name, run in pair_instances():
            serial = run("count")
            parallel = run("count", jobs=2)
            assert ((parallel.count, parallel.stats.nodes_expanded)
                    == (serial.count, serial.stats.nodes_expanded)), name

    def test_pinned_trees(self):
        assert search_nk2(10, 2, 1, "count", jobs=2).stats.nodes_expanded == 227932
        assert search_graph(nk2_graph(4), 2, 1, "count", jobs=2).stats.nodes_expanded == 7781

    def test_pruned_root_starts_no_pool(self, monkeypatch):
        monkeypatch.setattr(search, "ProcessPoolExecutor", no_pool)
        for jobs in (1, 2):
            out = search_nk2(8, 1, 3, "count", jobs=jobs)
            assert (out.count, out.stats.nodes_expanded) == (0, 1)


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
    # jobs value: the walker counts each state it enters, and the parallel
    # merge the root.
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_count_nodes_are_the_plain_tree(self, jobs):
        checked = 0
        for name, run, free, diffs in pair_trees():
            assert (run("count", jobs=jobs).stats.nodes_expanded
                    == pair_tree_nodes(free, diffs)), name
            checked += 1
        assert checked == 98


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

    def test_worker_count_is_capped(self, monkeypatch):
        monkeypatch.setattr(search.os, "cpu_count", lambda: 4)
        assert search._worker_count(10**9, 7) == 4
        assert search._worker_count(10**9, 3) == 3
        assert search._worker_count(2, 7) == 2
        assert search._worker_count(10**9, 0) == 0
        monkeypatch.setattr(search.os, "cpu_count", lambda: None)
        assert search._worker_count(10**9, 7) == 1
