import hashlib
import itertools
import random

import pytest
from hypothesis import given, strategies as st

import hskolem
from hskolem import core, verify
from hskolem import (
    HOOK,
    DegenerateOrder,
    DomainError,
    Graph,
    PairSystem,
    SequenceForm,
    SequenceKind,
    ShapeMismatch,
    VertexLabeling,
    check_sum_identity,
    construct_nk2_21,
    nk2_graph,
    nk2_parity_feasible,
    parse_sequence,
    partition_census,
    search_hooked_skolem,
    verify_labeling,
    verify_pair_system,
    verify_sequence,
)

FIG2_5K2 = PairSystem(((1, 4), (2, 6), (3, 8), (5, 11), (7, 9)))
FIG1_6K2 = PairSystem(((1, 8), (2, 7), (3, 6), (4, 10), (5, 9), (11, 13)))
FIG1_10K2 = PairSystem(((1, 3), (2, 6), (4, 9), (5, 15), (7, 14), (8, 17),
                        (10, 21), (11, 19), (12, 18), (13, 16)))


def seq(text, kind, d=1):
    return parse_sequence(text, kind=kind, d=d)


class TestVerifyLabeling:
    def test_fig2_5k2_valid(self):
        assert verify_pair_system(FIG2_5K2, 2, 1).valid

    def test_fig1_10k2_valid(self):
        assert verify_pair_system(FIG1_10K2, 2, 1).valid

    def test_invalid_2k2(self):
        report = verify_pair_system(PairSystem(((1, 3), (2, 4))), 2, 1)
        assert not report.valid
        ids = {cid for cid, _ in report.violations}
        assert "vertex_label_set" in ids
        assert "edge_label_repeat" in ids

    def test_report_text(self):
        assert verify_pair_system(FIG1_6K2, 2, 1).to_text() == "VALID"

    def test_star_with_repeated_labels(self):
        # K_{1,3}, centre 1: every violation text, vertex repeats first.
        star = Graph(4, ((1, 2), (1, 3), (1, 4)))
        report = verify_labeling(star, VertexLabeling((5, 1, 1, 7)), 1, 1)
        assert report.to_text() == "\n".join([
            "VIOLATION vertex_label_set: label 1 used 2 times",
            "VIOLATION vertex_label_set: label 7 not in {1..3, 5}",
            "VIOLATION vertex_label_set: label 2 missing",
            "VIOLATION vertex_label_set: label 3 missing",
            "VIOLATION edge_label_repeat: edge label 4 induced 2 times",
            "VIOLATION edge_label_set: edge label 4 outside target progression",
            "VIOLATION edge_label_set: edge label 1 never induced",
            "VIOLATION edge_label_set: edge label 3 never induced",
        ])

    def test_wrong_length_on_one_vertex_is_a_shape_mismatch(self):
        # p = 1 has no hooked label set, but the shape is checked first.
        g = Graph(1, ())
        with pytest.raises(ShapeMismatch):
            verify_labeling(g, VertexLabeling((1, 2)), 2, 1)
        with pytest.raises(DegenerateOrder):
            verify_labeling(g, VertexLabeling((1,)), 2, 1)


class TestVerifySkolem:
    def test_order1(self):
        assert verify_sequence(seq("1 1", SequenceKind.SKOLEM)).valid

    def test_order4(self):
        # membership confirmed against the brute-force oracle in test_search
        assert verify_sequence(
            seq("1 1 3 4 2 3 2 4", SequenceKind.SKOLEM)).valid

    def test_distance_violation(self):
        report = verify_sequence(seq("1 2 1 2", SequenceKind.SKOLEM))
        assert not report.valid
        assert report.violations[0][0] == "distance"


class TestVerifyHookedSkolem:
    def test_order2(self):
        assert verify_sequence(
            seq("1 1 2 0 2", SequenceKind.HOOKED_SKOLEM)).valid

    def test_order1_impossible(self):
        assert not verify_sequence(
            seq("1 1 0", SequenceKind.HOOKED_SKOLEM)).valid
        assert not verify_sequence(
            seq("1 0 1", SequenceKind.HOOKED_SKOLEM)).valid

    def test_paper_hooked_is_not_hooked_skolem(self):
        report = verify_sequence(
            seq("4 8 5 7 4 3 6 5 3 8 7 * 6", SequenceKind.HOOKED_SKOLEM))
        assert not report.valid
        assert any(cid == "multiplicity" for cid, _ in report.violations)


class TestVerifyHooked:
    def test_first_paper_example(self):
        assert verify_sequence(
            seq("4 8 5 7 4 3 6 5 3 8 7 * 6", SequenceKind.HOOKED, 3)).valid

    def test_second_paper_example(self):
        assert verify_sequence(
            seq("6 4 7 5 8 4 6 3 5 7 3 * 8", SequenceKind.HOOKED, 3)).valid

    def test_hook_must_sit_at_2m(self):
        report = verify_sequence(
            seq("4 8 5 7 4 3 6 5 3 8 7 6 *", SequenceKind.HOOKED, 3))
        assert not report.valid
        assert report.violations[0][0] == "hook_position"

    def test_hook_check_precedes_multiplicity(self):
        report = verify_sequence(
            seq("1 1 * 2 2", SequenceKind.HOOKED_SKOLEM))
        assert not report.valid
        assert report.violations[0][0] == "hook_position"


class TestHookedDBelowOne:
    def test_rejected(self):
        s = SequenceForm(SequenceKind.HOOKED, (1, 1, 2, HOOK, 2), d=0)
        with pytest.raises(DomainError):
            verify_sequence(s)


class TestKindNotASequenceKind:
    @pytest.mark.parametrize("kind", ["skolem", "hooked_skolem", "hooked"])
    def test_rejected(self, kind):
        with pytest.raises(DomainError):
            verify_sequence(SequenceForm(kind, (1, 1, 2, HOOK, 2)))


class TestHookedD1CoincidesWithHookedSkolem:
    def test_on_search_output(self):
        for m in range(1, 5):
            for s in search_hooked_skolem(m, "enumerate").solutions:
                as_hooked = SequenceForm(SequenceKind.HOOKED, s.entries, d=1)
                assert verify_sequence(as_hooked).valid

    @given(st.integers(1, 3), st.data())
    def test_on_random_fillings(self, m, data):
        length = 2 * m + 1
        entries = []
        for i in range(length):
            x = data.draw(st.integers(0, m), label=f"slot{i}")
            entries.append(x if x else None)
        from hskolem import HOOK
        entries = tuple(HOOK if e is None else e for e in entries)
        s = SequenceForm(SequenceKind.HOOKED_SKOLEM, entries)
        hooked = SequenceForm(SequenceKind.HOOKED, entries, d=1)
        assert (verify_sequence(s).valid
                == verify_sequence(hooked).valid)


class TestPartitionCensus:
    def test_2k2(self):
        g, f = nk2_graph(2), VertexLabeling((1, 3, 2, 5))
        assert partition_census(g, f) == partition_census(g, f)
        c = partition_census(g, f)
        assert (c.odd_count, c.even_count, c.cross_edges) == (3, 1, 1)

    def test_k2(self):
        c = partition_census(nk2_graph(1), VertexLabeling((1, 3)))
        assert (c.odd_count, c.even_count, c.cross_edges) == (2, 0, 0)

    def test_fig1_6k2(self):
        # direct parity count over the six pairs: (1,8),(2,7),(4,10) are mixed
        g, f = nk2_graph(6), VertexLabeling((1, 8, 2, 7, 3, 6, 4, 10, 5, 9, 11, 13))
        c = partition_census(g, f)
        assert (c.odd_count, c.even_count, c.cross_edges) == (7, 5, 3)

    def test_attached_to_labeling_report(self):
        report = verify_pair_system(FIG1_6K2, 2, 1)
        assert report.census.cross_edges == 3

    def test_path_labeling_report(self):
        # path 1-2-3-4 labeled 5, 2, 3, 1: edge labels 3, 1, 2, two of them odd
        g, f = Graph(4, ((1, 2), (2, 3), (3, 4))), VertexLabeling((5, 2, 3, 1))
        report = verify_labeling(g, f, 1, 1)
        assert report.valid and report.census == partition_census(g, f)
        c = report.census
        assert (c.odd_count, c.even_count, c.cross_edges) == (3, 1, 2)


class TestSumIdentity:
    def test_n2(self):
        assert check_sum_identity(PairSystem(((1, 3), (2, 5))), 2, 1).valid

    def test_n1(self):
        assert check_sum_identity(PairSystem(((1, 3),)), 2, 1).valid

    def test_fig2_5k2(self):
        assert check_sum_identity(FIG2_5K2, 2, 1).valid

    def test_wrong_k_fails(self):
        report = check_sum_identity(PairSystem(((1, 3), (2, 5))), 3, 1)
        assert not report.valid
        assert any(cid == "sum_identity" for cid, _ in report.violations)

    def test_non_label_set_flagged(self):
        report = check_sum_identity(PairSystem(((1, 2), (3, 4))), 1, 1)
        assert any(cid == "vertex_label_set" for cid, _ in report.violations)

    @pytest.mark.parametrize("k, d", [(2, -1), (2, 0), (0, 1), (-1, 2)])
    def test_k_or_d_below_one_raises(self, k, d):
        with pytest.raises(DomainError):
            check_sum_identity(PairSystem(((1, 3),)), k, d)


class TestLengthShapes:
    def test_skolem_rejects_odd_length(self):
        s = SequenceForm(SequenceKind.SKOLEM, (1, 1, 2))
        assert not verify_sequence(s).valid

    def test_hooked_rejects_even_length(self):
        from hskolem import HOOK
        s = SequenceForm(SequenceKind.HOOKED_SKOLEM, (1, 1, HOOK, 2))
        assert not verify_sequence(s).valid


class TestOneSequenceCertifier:
    def test_kind_and_d_come_from_the_form(self):
        entries = parse_sequence("4 8 5 7 4 3 6 5 3 8 7 * 6").entries
        assert verify_sequence(SequenceForm(SequenceKind.HOOKED, entries, d=3)).valid
        report = verify_sequence(SequenceForm(SequenceKind.HOOKED, entries, d=2))
        assert ("multiplicity", "value 2 appears 0 times") in report.violations
        report = verify_sequence(SequenceForm(SequenceKind.HOOKED_SKOLEM, entries, d=3))
        assert ("multiplicity", "value 1 appears 0 times") in report.violations

    def test_no_per_kind_wrappers(self):
        for name in ("verify_skolem_sequence", "verify_hooked_skolem_sequence",
                     "verify_hooked_sequence", "_verify_sequence"):
            assert not hasattr(hskolem, name) and not hasattr(verify, name)

    def test_report_type_lives_in_verify(self):
        assert hskolem.VerifyReport is verify.VerifyReport
        assert not hasattr(core, "VerifyReport")
        assert isinstance(verify_pair_system(FIG1_6K2, 2, 1).census, verify.PartitionCensus)


def _swapped(ps, i, j):
    """ps with its i-th and j-th labels (in values() order) exchanged."""
    values, pairs = ps.values(), list(ps.pairs)
    values[i], values[j] = values[j], values[i]
    for t in (i // 2, j // 2):
        pairs[t] = tuple(sorted(values[2 * t:2 * t + 2]))
    return PairSystem(tuple(pairs))


def _sweep_cases():
    """(ps, k, d): every construct output for n <= 40 under each k <= 4,
    d <= 3 and, at (2, 1), with every swap of two labels across pairs; then
    seeded random distinct-value systems, some on the hooked label set and
    some reaching past it on both sides."""
    for n in range(1, 41):
        if not nk2_parity_feasible(n, 2, 1):
            continue
        ps = construct_nk2_21(n)
        for k, d in itertools.product(range(1, 5), range(1, 4)):
            yield ps, k, d
        for i, j in itertools.combinations(range(2 * n), 2):
            if i // 2 != j // 2:
                yield _swapped(ps, i, j), 2, 1
    rng = random.Random(14)
    for trial in range(2000):
        n = rng.randint(1, 9)
        if trial % 2:
            labels = sorted(core.target_label_set(2 * n))
            rng.shuffle(labels)
        else:
            labels = rng.sample(range(-2, 2 * n + 5), 2 * n)
        pairs = tuple(tuple(sorted(labels[t:t + 2])) for t in range(0, 2 * n, 2))
        yield PairSystem(pairs), rng.randint(1, 4), rng.randint(1, 3)


class TestDirectPairSystemCertifier:
    # Both certifiers call one body, so comparing them checks only that a
    # pair system's values and differences are derived as the graph path's
    # labels and induced edge labels are.  The independent guard is the
    # SHA-256 over every report text of the sweep, each followed by a blank
    # line, with the case counts: both were pinned while the two certifiers
    # were separate code.
    SWEEP_SHA256 = "f58324a4058dc248b94bdc45235ea67a6d5de079ce6cd22aa982876485fac00b"

    def test_matches_the_graph_certifier(self):
        digest, cases, invalid = hashlib.sha256(), 0, 0
        for ps, k, d in _sweep_cases():
            direct = verify_pair_system(ps, k, d)
            graph = verify_labeling(*core.pair_system_labeling(ps), k, d)
            text = direct.to_text()
            assert (text, direct.census) == (graph.to_text(), graph.census), (ps, k, d)
            digest.update(text.encode() + b"\n\n")
            cases += 1
            invalid += not direct.valid
        assert (cases, invalid) == (21960, 21904)
        assert digest.hexdigest() == self.SWEEP_SHA256

    @pytest.mark.parametrize("k, d", [(0, 1), (2, 0)])
    def test_non_positive_k_or_d_raises_like_the_graph_certifier(self, k, d):
        with pytest.raises(DomainError):
            verify_labeling(*core.pair_system_labeling(FIG2_5K2), k, d)
        with pytest.raises(DomainError):
            verify_pair_system(FIG2_5K2, k, d)
