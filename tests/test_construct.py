import pytest

from hskolem import construct
from hskolem import (
    ContradictionDetected,
    DomainError,
    NotGraceful,
    PairSystem,
    base_cases,
    construct_nk2_21,
    even_family_labels,
    nk2_parity_feasible,
    odd_family_labels,
    verify_pair_system,
)
from oracles import _even_a, _even_b, _odd_a, _odd_b

R4_EXPECTED = ((1, 3), (2, 8), (4, 13), (5, 12), (6, 10), (7, 21), (9, 20),
               (11, 24), (14, 29), (15, 27), (16, 26), (17, 25), (18, 23),
               (19, 22))
R3_EXPECTED = ((1, 8), (2, 7), (3, 11), (4, 6), (5, 14), (9, 19), (10, 16),
               (12, 15), (13, 17))


class TestBaseCases:
    def test_table_orders(self):
        assert sorted(base_cases()) == [1, 2, 5, 6, 10]

    def test_2k2(self):
        assert base_cases()[2].pairs == ((1, 3), (2, 5))

    def test_5k2(self):
        assert base_cases()[5].pairs == ((1, 4), (2, 6), (3, 8), (5, 11), (7, 9))

    def test_10k2(self):
        assert base_cases()[10].pairs == (
            (1, 3), (2, 6), (4, 9), (5, 15), (7, 14), (8, 17),
            (10, 21), (11, 19), (12, 18), (13, 16))

    def test_all_certified(self):
        for ps in base_cases().values():
            assert verify_pair_system(ps, 2, 1).valid


class TestEvenFamily:
    def test_r4_full_output(self):
        assert even_family_labels(4).pairs == R4_EXPECTED

    def test_r4_branch_i_equals_2r(self):
        # i = 2r = 8 draws a from (3n+2)/4 = 11 and b from (7n-2)/4 = 24
        assert even_family_labels(4).pairs[7] == (11, 24)

    def test_r5_a_branch_tail(self):
        ps = even_family_labels(5)  # n = 18, tail a_i = (n-4)/2 + i = 7 + i
        for i in range(11, 19):
            assert ps.pairs[i - 1][0] == 7 + i

    def test_differences_r4(self):
        assert sorted(even_family_labels(4).differences()) == list(range(2, 16))

    def test_starts_at_r4(self):
        with pytest.raises(DomainError, match="even family starts at r=4, got r=3"):
            even_family_labels(3)

    def test_raw_orientation(self):
        for r in range(4, 12):
            assert all(b > a for a, b in even_family_labels(r).pairs)


class TestOddFamily:
    def test_r3_full_output(self):
        assert odd_family_labels(3).pairs == R3_EXPECTED

    def test_r3_branch_i_equals_n(self):
        assert odd_family_labels(3).pairs[8][1] == 17  # b = n-1+i at i=n

    def test_r3_branch_i_equals_2r(self):
        assert odd_family_labels(3).pairs[5][1] == 19  # b = 2n+1 at i=2r

    def test_label_set_r3(self):
        values = sorted(odd_family_labels(3).values())
        assert values == list(range(1, 18)) + [19]

    def test_starts_at_r3(self):
        with pytest.raises(DomainError, match="odd family starts at r=3, got r=2"):
            odd_family_labels(2)

    def test_raw_orientation(self):
        for r in range(3, 12):
            assert all(b > a for a, b in odd_family_labels(r).pairs)


class TestConstruct:
    def test_fig1_6k2(self):
        assert construct_nk2_21(6).pairs == (
            (1, 8), (2, 7), (3, 6), (4, 10), (5, 9), (11, 13))

    def test_not_graceful(self):
        # At (k, d) = (2, 1) the parity predicate is exact: NotGraceful
        # exactly where it fails, and the sweep below constructs the rest.
        for n in range(1, 201):
            if not nk2_parity_feasible(n, 2, 1):
                with pytest.raises(NotGraceful):
                    construct_nk2_21(n)

    def test_n14_uses_even_family(self):
        assert construct_nk2_21(14).pairs == R4_EXPECTED

    def test_n10_comes_from_table_not_family(self):
        assert construct_nk2_21(10) == base_cases()[10]
        with pytest.raises(DomainError, match="even family starts at r=4, got r=3"):
            even_family_labels(3)

    def test_certification_sweep(self):
        for n in range(1, 201):
            if nk2_parity_feasible(n, 2, 1):
                ps = construct_nk2_21(n)
                assert verify_pair_system(ps, 2, 1).valid

    def test_differences_and_hooked_label_set(self):
        for n in (9, 13, 14, 18, 401, 402):
            ps = construct_nk2_21(n)
            assert sorted(ps.differences()) == list(range(2, n + 2))
            values = ps.values()
            assert values.count(2 * n + 1) == 1
            assert 2 * n not in values

    def test_family_boundaries(self):
        # table below the family starts, families from n=9 / n=14 up
        assert construct_nk2_21(9).pairs == R3_EXPECTED
        assert construct_nk2_21(13) == odd_family_labels(4)
        assert construct_nk2_21(18) == even_family_labels(5)


class TestDamagedFamilyOutput:
    # Swap the larger labels of the first two pairs, as a transcription slip
    # in a formula branch would; certification must catch it.
    @pytest.mark.parametrize("n, generator", [(14, "even_family_labels"),
                                              (13, "odd_family_labels")])
    def test_raises_construction_bug(self, monkeypatch, n, generator):
        family = getattr(construct, generator)

        def damaged(r):
            (a1, b1), (a2, b2), *rest = family(r).pairs
            return PairSystem(((a1, b2), (a2, b1), *rest))

        monkeypatch.setattr(construct, generator, damaged)
        with pytest.raises(ContradictionDetected, match=f"n={n} failed certification:\nVIOLATION"):
            construct_nk2_21(n)


class TestFamiliesMatchThePerIndexFormulas:
    # The families build each label list from spans; the oracles evaluate
    # the paper's formulas one index at a time, for every r <= 300 and one
    # large r.
    def test_even(self):
        for r in [*range(4, 301), 25_000]:
            n = 4 * r - 2
            expected = tuple((_even_a(i, n, r), _even_b(i, n, r)) for i in range(1, n + 1))
            assert even_family_labels(r).pairs == expected, r

    def test_odd(self):
        for r in [*range(3, 301), 25_000]:
            n = 4 * r - 3
            expected = tuple((_odd_a(i, n, r), _odd_b(i, n, r)) for i in range(1, n + 1))
            assert odd_family_labels(r).pairs == expected, r
