"""Acceptance suite: one test per release criterion, zero tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion.
"""

import io
from contextlib import redirect_stdout

import pytest

from hskolem import (
    base_cases,
    check_sum_identity,
    cli,
    construct_nk2_21,
    expected_cross_edges,
    nk2_parity_feasible,
    pair_system_labeling,
    parse_sequence,
    partition_census,
    hooked_sequence_necessary,
    search_hooked_sequence,
    search_hooked_skolem,
    search_nk2,
    search_skolem,
    verify_pair_system,
    verify_sequence,
    SequenceKind,
)

FIGURE_PAIRS = {
    1: ((1, 3),),
    2: ((1, 3), (2, 5)),
    5: ((1, 4), (2, 6), (3, 8), (5, 11), (7, 9)),
    6: ((1, 8), (2, 7), (3, 6), (4, 10), (5, 9), (11, 13)),
    10: ((1, 3), (2, 6), (4, 9), (5, 15), (7, 14), (8, 17),
         (10, 21), (11, 19), (12, 18), (13, 16)),
}


def _passed(n, name):
    print(f"ACCEPTANCE {n} ({name}): PASS")


@pytest.fixture(scope="module")
def constructed_up_to_1000():
    return {n: construct_nk2_21(n)
            for n in range(1, 1001) if n % 4 in (1, 2)}


@pytest.fixture(scope="module")
def nk2_21_enumerations():
    return {n: search_nk2(n, 2, 1, "enumerate").solutions
            for n in range(1, 11)}


@pytest.fixture(scope="module")
def nk2_grid_enumerations():
    grid = {}
    for n in range(1, 7):
        for k in range(1, 4):
            for d in range(1, 4):
                grid[(n, k, d)] = search_nk2(n, k, d, "enumerate").solutions
    return grid


def test_criterion_1_figure_reproduction():
    for n, pairs in FIGURE_PAIRS.items():
        assert construct_nk2_21(n).pairs == pairs
    assert {n: ps.pairs for n, ps in base_cases().items()} == FIGURE_PAIRS
    _passed(1, "figure reproduction")


def test_criterion_2_constructor_certified_to_1000(constructed_up_to_1000):
    assert len(constructed_up_to_1000) == 500
    for ps in constructed_up_to_1000.values():
        assert verify_pair_system(ps, 2, 1).valid
    _passed(2, "constructor certified for n <= 1000")


def test_criterion_3_iff_at_desk_scale(nk2_21_enumerations):
    exists = {n for n, sols in nk2_21_enumerations.items() if sols}
    assert exists == {1, 2, 5, 6, 9, 10}
    _passed(3, "(2,1) iff pattern for n = 1..10")


def test_criterion_4_parity_soundness(nk2_grid_enumerations):
    for (n, k, d), sols in nk2_grid_enumerations.items():
        if sols:
            assert nk2_parity_feasible(n, k, d)
    for k in range(1, 5):
        for d in range(1, 5):
            assert not search_nk2(4, k, d, "exists").exists
    _passed(4, "parity necessary condition sound on grid; 4K2 impossible")


def test_criterion_5_census(constructed_up_to_1000, nk2_21_enumerations,
                            nk2_grid_enumerations):
    def check(ps, k, d):
        g, f = pair_system_labeling(ps)
        assert partition_census(g, f).cross_edges == expected_cross_edges(k, d, ps.n)

    for sols in nk2_21_enumerations.values():
        for ps in sols:
            check(ps, 2, 1)
    for (n, k, d), sols in nk2_grid_enumerations.items():
        for ps in sols:
            check(ps, k, d)
    for ps in constructed_up_to_1000.values():
        check(ps, 2, 1)
    _passed(5, "cross-edge census on every witness")


def test_criterion_6_skolem_existence_pattern():
    pattern = [search_skolem(m, "exists").exists for m in range(1, 10)]
    assert pattern == [True, False, False, True, True,
                       False, False, True, True]
    _passed(6, "Skolem existence pattern m = 1..9")


def test_criterion_7_hooked_skolem_existence_pattern():
    pattern = [search_hooked_skolem(m, "exists").exists for m in range(1, 10)]
    assert pattern == [False, True, True, False, False,
                       True, True, False, False]
    _passed(7, "hooked Skolem existence pattern m = 1..9")


def test_criterion_8_hooked_sequence_soundness():
    for d in range(1, 5):
        for m in range(1, 9):
            if search_hooked_sequence(d, m, "exists").exists:
                assert hooked_sequence_necessary(d, m)
    assert search_hooked_sequence(3, 6, "exists").exists
    for text in ("4 8 5 7 4 3 6 5 3 8 7 * 6", "6 4 7 5 8 4 6 3 5 7 3 * 8"):
        s = parse_sequence(text, kind=SequenceKind.HOOKED, d=3)
        assert verify_sequence(s).valid
    _passed(8, "hooked-sequence necessary condition sound; d=3, m=6 witnesses")


def test_criterion_9_parallel_determinism():
    def run(jobs):
        out = io.StringIO()
        with redirect_stdout(out):
            for n in range(1, 11):
                assert cli.main(["search", "nk2", "--n", str(n), "--k", "2",
                                 "--d", "1", "--mode", "exists",
                                 "--jobs", jobs]) == 0
            for kind in ("skolem", "hooked-skolem"):
                for m in range(1, 10):
                    assert cli.main(["search", "sequence", "--kind", kind,
                                     "--m", str(m), "--mode", "exists",
                                     "--jobs", jobs]) == 0
        return out.getvalue()

    assert run("1") == run("8")
    _passed(9, "byte-identical output for --jobs 1 and --jobs 8")


def test_criterion_10_sum_identity(constructed_up_to_1000, nk2_21_enumerations):
    for ps in constructed_up_to_1000.values():
        assert check_sum_identity(ps, 2, 1).valid
    for sols in nk2_21_enumerations.values():
        for ps in sols:
            assert check_sum_identity(ps, 2, 1).valid
    _passed(10, "corrected sum identity on every witness")
