import tracemalloc

import pytest

from hskolem import (
    HOOK,
    BoundExceeded,
    DomainError,
    Graph,
    SequenceKind,
    expected_cross_edges,
    hooked_sequence_necessary,
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
    verify_pair_system,
    verify_sequence,
)
from hskolem import search

from oracles import nk2_solutions_brute, sequence_solutions_brute


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

    def test_pruning_monotone(self):
        for n, k, d in [(6, 2, 1), (7, 2, 1), (5, 1, 1), (6, 1, 2)]:
            pruned = search_nk2(n, k, d, "count", prune=True)
            plain = search_nk2(n, k, d, "count", prune=False)
            assert pruned.count == plain.count
            assert pruned.stats.nodes_expanded <= plain.stats.nodes_expanded


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

    def test_triangle_fails_size_condition(self):
        g = Graph(3, ((1, 2), (2, 3), (1, 3)))
        out = search_graph(g, 1, 1, "exists")
        assert not out.exists
        assert out.stats.nodes_expanded == 0

    def test_nk2_as_graph_agrees(self):
        g, _ = pair_system_labeling(
            search_nk2(3, 1, 1, "first").solutions[0])
        assert search_graph(g, 1, 1, "count").count > 0

    def test_bound(self):
        g = Graph(17, tuple((i, i + 1) for i in range(1, 17)))
        with pytest.raises(BoundExceeded):
            search_graph(g, 1, 1)

    def test_solutions_satisfy_census(self):
        g = Graph(4, ((1, 2), (3, 4)))
        for f in search_graph(g, 2, 1, "enumerate").solutions:
            c = partition_census(g, f)
            assert c.cross_edges == expected_cross_edges(2, 1, g.q)


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

    def test_worker_count_is_capped(self, monkeypatch):
        monkeypatch.setattr(search.os, "cpu_count", lambda: 4)
        assert search._worker_count(10**9, 7) == 4
        assert search._worker_count(10**9, 3) == 3
        assert search._worker_count(2, 7) == 2
        assert search._worker_count(10**9, 0) == 0
        monkeypatch.setattr(search.os, "cpu_count", lambda: None)
        assert search._worker_count(10**9, 7) == 1

    def test_no_roots_starts_no_pool(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("pool started")

        monkeypatch.setattr(search, "ProcessPoolExecutor", no_pool)
        assert search._run_roots(None, (), [], 10**9, None) == ([], 0)
