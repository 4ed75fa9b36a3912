import pytest

from hskolem import (
    DomainError,
    edge_target_set,
    expected_cross_edges,
    hooked_sequence_necessary,
    nk2_parity_feasible,
    size_necessary,
)

from oracles import hooked_sequence_table


class TestSizeNecessary:
    def test_2k2(self):
        assert size_necessary(4, 2)

    def test_triangle(self):
        # K3 has the (1,1) labeling (1, 2, 4): q = p is allowed.
        assert size_necessary(3, 3)

    def test_k4(self):
        assert not size_necessary(4, 6)

    def test_k2(self):
        assert size_necessary(2, 1)


class TestExpectedCrossEdges:
    def test_both_odd(self):
        assert expected_cross_edges(1, 1, 5) == 3

    def test_k_even_d_odd(self):
        assert expected_cross_edges(2, 1, 6) == 3

    def test_k_odd_d_even(self):
        assert expected_cross_edges(1, 2, 7) == 7

    def test_both_even_is_zero(self):
        assert expected_cross_edges(2, 4, 3) == 0

    @pytest.mark.parametrize("k, d, q", [(0, 1, 3), (-3, 2, 4), (1, 0, 2), (1, 1, -1)])
    def test_rejects_k_or_d_below_one_and_negative_q(self, k, d, q):
        with pytest.raises(DomainError, match="need k, d >= 1, q >= 0"):
            expected_cross_edges(k, d, q)

    def test_matches_literal_odd_count(self):
        for k in range(1, 13):
            for d in range(1, 13):
                for q in range(0, 120):
                    literal = sum(1 for t in edge_target_set(k, d, q) if t % 2)
                    assert expected_cross_edges(k, d, q) == literal


def _case_form(n, k, d):
    """Theorem-style case statement, re-derived independently."""
    if n % 4 == 1:
        return k % 2 == 0
    if n % 4 == 2:
        return d % 2 == 1
    if n % 4 == 3:
        return k % 2 == d % 2
    return False


class TestNk2ParityFeasible:
    @pytest.mark.parametrize("n,k,d,expected", [
        (5, 3, 1, False),   # n=1 (mod 4): k must be even
        (6, 2, 2, False),   # n=2 (mod 4): d must be odd
        (7, 2, 1, False),   # n=3 (mod 4): k,d same parity
        (7, 1, 1, True),
        (7, 2, 2, True),
        (4, 1, 1, False),   # n=0 (mod 4): never feasible
        (2, 2, 1, True),
    ])
    def test_examples(self, n, k, d, expected):
        assert nk2_parity_feasible(n, k, d) is expected

    def test_case_form_agrees_with_parity_form(self):
        for n in range(1, 51):
            for k in range(1, 51):
                for d in range(1, 51):
                    assert nk2_parity_feasible(n, k, d) == _case_form(n, k, d)


class TestHookedSequenceNecessary:
    def test_paper_example(self):
        assert hooked_sequence_necessary(3, 6)

    def test_quadratic_bound(self):
        assert not hooked_sequence_necessary(4, 3)  # 3(4-8)+2 = -10 < 0

    def test_residue_d_odd(self):
        assert not hooked_sequence_necessary(1, 5)  # 5 = 1 (mod 4), d odd

    def test_residue_d_even(self):
        assert hooked_sequence_necessary(2, 5)
        assert not hooked_sequence_necessary(2, 4)

    def test_agrees_with_the_mod_4_table(self):
        # A hooked sequence is a (d,1) labeling of mK2, so the nK2 parity
        # test gives Simpson's mod-4 condition.
        for d in range(1, 60):
            for m in range(1, 400):
                assert hooked_sequence_necessary(d, m) == hooked_sequence_table(d, m), (d, m)

    @pytest.mark.parametrize("d, m", [(0, 3), (3, 0), (-1, -1)])
    def test_rejects_d_or_m_below_one(self, d, m):
        with pytest.raises(DomainError, match="d, m must be positive"):
            hooked_sequence_necessary(d, m)
