import random

import pytest
from hypothesis import assume, given, strategies as st

from hskolem import (
    HOOK,
    DomainError,
    Graph,
    PairSystem,
    SequenceForm,
    SequenceKind,
    VertexLabeling,
    construct_nk2_21,
    edge_target_set,
    format_pairs,
    format_sequence,
    induced_edge_labels,
    nk2_graph,
    pair_system_from_json,
    pair_system_to_json,
    pairs_to_sequence,
    parse_pairs,
    parse_sequence,
    sequence_shape,
    sequence_to_pairs,
    target_label_set,
)
from hskolem import core
from oracles import pair_system_from_json_per_pair, parse_pairs_per_token, position_set_message

HOOKED_EXAMPLE = "4 8 5 7 4 3 6 5 3 8 7 * 6"


class TestTargetLabelSet:
    def test_k2(self):
        assert target_label_set(2) == {1, 3}

    def test_6k2(self):
        assert target_label_set(12) == set(range(1, 12)) | {13}

    def test_p3(self):
        assert target_label_set(3) == {1, 2, 4}

    def test_degenerate(self):
        with pytest.raises(DomainError, match="hooked label set needs p >= 2, got 1"):
            target_label_set(1)

    @given(st.integers(min_value=2, max_value=500))
    def test_shape(self, p):
        labels = target_label_set(p)
        assert len(labels) == p
        assert p not in labels
        assert max(labels) == p + 1


class TestEdgeTargetSet:
    def test_fig1_6k2(self):
        assert edge_target_set(2, 1, 6) == [2, 3, 4, 5, 6, 7]

    def test_single(self):
        assert edge_target_set(1, 1, 1) == [1]

    def test_general(self):
        assert edge_target_set(3, 2, 4) == [3, 5, 7, 9]

    def test_empty(self):
        assert edge_target_set(5, 2, 0) == []

    @given(st.integers(1, 50), st.integers(1, 50), st.integers(1, 60))
    def test_progression(self, k, d, q):
        ts = edge_target_set(k, d, q)
        assert len(ts) == q
        assert all(b - a == d for a, b in zip(ts, ts[1:]))


class TestInducedEdgeLabels:
    def test_2k2(self):
        g, f = nk2_graph(2), VertexLabeling((1, 3, 2, 5))
        assert sorted(induced_edge_labels(g, f)) == [2, 3]

    def test_k2(self):
        assert induced_edge_labels(nk2_graph(1), VertexLabeling((1, 3))) == [2]

    def test_path(self):
        g = Graph(3, ((1, 2), (2, 3)))
        assert sorted(induced_edge_labels(g, VertexLabeling((1, 2, 4)))) == [1, 2]

    def test_shape_mismatch(self):
        with pytest.raises(DomainError, match="2 labels for 4 vertices"):
            induced_edge_labels(nk2_graph(2), VertexLabeling((1, 2)))


class TestGraph:
    def test_rejects_loop(self):
        with pytest.raises(Exception):
            Graph(2, ((1, 1),))

    def test_rejects_duplicate(self):
        with pytest.raises(Exception):
            Graph(2, ((1, 2), (2, 1)))

    def test_isolated_vertices_allowed(self):
        assert Graph(4, ((1, 2),)).q == 1


class TestPairSystem:
    @pytest.mark.parametrize("pairs", [(), ((3, 1),)], ids=["empty", "reversed"])
    def test_rejects_empty_or_reversed(self, pairs):
        with pytest.raises(DomainError):
            PairSystem(pairs)

    @pytest.mark.parametrize("text", ["3-1", "1-3 5-2", "  "])
    def test_pair_text_is_read_as_written(self, text):
        # parse_pairs only tokenizes: a reversed pair or no pair at all
        # fails in PairSystem, as it does when read from JSON.
        with pytest.raises(DomainError):
            parse_pairs(text)

    def test_deep_json_is_a_parse_error(self):
        with pytest.raises(DomainError, match="bad pair-system record: maximum recursion"):
            pair_system_from_json("[" * 100000)


class TestConversions:
    def test_paper_hooked_pairs_to_sequence(self):
        ps = PairSystem(((1, 5), (2, 10), (3, 8), (4, 11), (6, 9), (7, 13)))
        s = pairs_to_sequence(ps, SequenceKind.HOOKED, d=3)
        assert format_sequence(s) == HOOKED_EXAMPLE

    def test_hooked_skolem_order2(self):
        s = pairs_to_sequence(PairSystem(((1, 2), (3, 5))),
                              SequenceKind.HOOKED_SKOLEM)
        assert format_sequence(s) == "1 1 2 * 2"

    def test_skolem_order1(self):
        s = pairs_to_sequence(PairSystem(((1, 2),)), SequenceKind.SKOLEM)
        assert format_sequence(s) == "1 1"

    def test_position_set_mismatch(self):
        with pytest.raises(DomainError, match="pair values are not the sequence positions"):
            pairs_to_sequence(PairSystem(((1, 3), (2, 4))),
                              SequenceKind.HOOKED_SKOLEM)

    def test_position_set_mismatch_message_is_short(self):
        # 2n+1 in place of 2n, as in every (2,1) construction read as Skolem
        n = 5000
        ps = PairSystem(tuple((i, i + n) for i in range(1, n)) + ((n, 2 * n + 1),))
        with pytest.raises(DomainError) as info:
            pairs_to_sequence(ps, SequenceKind.SKOLEM)
        assert str(info.value) == (
            "pair values are not the sequence positions: 1 missing [10000], 1 extra [10001]")
        with pytest.raises(DomainError) as info:
            pairs_to_sequence(PairSystem(tuple((i, i + n) for i in range(n + 1, 2 * n + 1))),
                              SequenceKind.SKOLEM)
        assert str(info.value) == (
            "pair values are not the sequence positions: 5000 missing "
            "[1, 2, 3, 4, 5], 5000 extra [10001, 10002, 10003, 10004, 10005]")

    def test_sequence_to_pairs_simple(self):
        s = parse_sequence("1 1 2 0 2", kind=SequenceKind.HOOKED_SKOLEM)
        assert sequence_to_pairs(s).pairs == ((1, 2), (3, 5))

    def test_sequence_to_pairs_paper_example(self):
        s = parse_sequence(HOOKED_EXAMPLE, kind=SequenceKind.HOOKED, d=3)
        # sorted by value 3,4,5,6,7,8
        assert sequence_to_pairs(s).pairs == (
            (6, 9), (1, 5), (3, 8), (7, 13), (4, 11), (2, 10))

    def test_distance_violations_are_not_structural(self):
        s = parse_sequence("1 2 1 2", kind=SequenceKind.SKOLEM)
        assert sequence_to_pairs(s).pairs == ((1, 3), (2, 4))

    def test_multiplicity_error(self):
        s = SequenceForm(SequenceKind.SKOLEM, (1, 1, 1, 2))
        with pytest.raises(DomainError, match="value 1 appears 3 times"):
            sequence_to_pairs(s)


class TestSequenceShape:
    def test_pinned(self):
        assert sequence_shape(SequenceKind.SKOLEM, 3) == (6, None, 1)
        assert sequence_shape(SequenceKind.HOOKED_SKOLEM, 3) == (7, 6, 1)
        assert sequence_shape(SequenceKind.HOOKED, 3, 2) == (7, 6, 2)
        assert sequence_shape(SequenceKind.SKOLEM, 3, 0) == (6, None, 1)

    @pytest.mark.parametrize("kind", [SequenceKind.HOOKED_SKOLEM, SequenceKind.HOOKED])
    def test_hooked_positions_are_the_label_set(self, kind):
        for m in range(1, 9):
            length, hook, _ = sequence_shape(kind, m)
            assert set(range(1, length + 1)) - {hook} == target_label_set(2 * m)

    def test_hooked_rejects_d_below_one(self):
        with pytest.raises(DomainError):
            sequence_shape(SequenceKind.HOOKED, 3, 0)
        with pytest.raises(DomainError):
            pairs_to_sequence(PairSystem(((1, 3), (2, 5))), SequenceKind.HOOKED, d=0)
        with pytest.raises(DomainError):
            parse_sequence("1 1 2 * 2", kind=SequenceKind.HOOKED, d=0)

    @pytest.mark.parametrize("kind", ["skolem", "hooked_skolem", "hooked"])
    def test_kind_not_a_sequence_kind_rejected(self, kind):
        with pytest.raises(DomainError):
            sequence_shape(kind, 3)
        with pytest.raises(DomainError):
            pairs_to_sequence(PairSystem(((1, 3), (2, 5))), kind)
        with pytest.raises(DomainError):
            parse_sequence("1 1 2 * 2", kind=kind)


class TestParseFormat:
    def test_compact_paper_string(self):
        s = parse_sequence("48574365387*6")
        assert len(s.entries) == 13
        assert s.entries[11] is HOOK
        assert s.kind is SequenceKind.HOOKED and s.d == 3

    def test_second_compact_paper_string(self):
        s = parse_sequence("64758463573*8")
        assert len(s.entries) == 13
        assert s.entries[11] is HOOK

    def test_tokens(self):
        s = parse_sequence("1 1 2 0 2")
        assert len(s.entries) == 5
        assert s.entries[3] is HOOK

    def test_zero_is_hook(self):
        assert parse_sequence("1 1 2 0 2") == parse_sequence("1 1 2 * 2")

    def test_bad_token(self):
        with pytest.raises(DomainError, match="bad integer 'x'"):
            parse_sequence("1 x 1")

    @pytest.mark.parametrize("text", ["10", "11202"])
    def test_compact_zero_is_rejected(self, text):
        with pytest.raises(DomainError, match=r"holds 0; write the hook as \*"):
            parse_sequence(text)

    def test_empty(self):
        with pytest.raises(DomainError, match="empty sequence text"):
            parse_sequence("   ")

    @pytest.mark.parametrize("text", ["1 \u00b2", "1 \u0663", "\uff11 1"])
    def test_non_ascii_digit_is_rejected(self, text):
        # superscript two, Arabic-Indic three, fullwidth one
        with pytest.raises(DomainError, match="bad integer"):
            parse_sequence(text)

    @pytest.mark.parametrize("text", ["1-\u00b2 3-5", "\u0661-3"])
    def test_non_ascii_pair_digit_is_rejected(self, text):
        with pytest.raises(DomainError, match="bad integer"):
            parse_pairs(text)

    @pytest.mark.parametrize("record", [
        '{"n": 1, "k": 2, "d": 1, "pairs": [[1.9, 3.2]]}',
        '{"n": 1, "k": true, "d": 1, "pairs": [[1, 3]]}',
        '{"n": 1, "k": 2, "d": 1, "pairs": [[1, "3"]]}',
        '{"n": 1.0, "k": 2, "d": 1, "pairs": [[1, 3]]}',
        '{"n": 1, "k": 0, "d": 1, "pairs": [[1, 3]]}',
        '{"n": 1, "k": 2, "d": -1, "pairs": [[1, 3]]}',
    ])
    def test_json_rejects_bad_values(self, record):
        with pytest.raises(DomainError, match=r"^(bad pair-system record: .* is not an integer"
                                              r"|record needs positive k and d)"):
            pair_system_from_json(record)


@st.composite
def pair_systems(draw):
    m = draw(st.integers(min_value=1, max_value=6))
    kind = draw(st.sampled_from(list(SequenceKind)))
    if kind is SequenceKind.SKOLEM:
        positions = list(range(1, 2 * m + 1))
    else:
        positions = list(range(1, 2 * m)) + [2 * m + 1]
    perm = draw(st.permutations(positions))
    pairs = sorted((min(a, b), max(a, b)) for a, b in zip(perm[::2], perm[1::2]))
    # structural validity: each value occupies exactly two slots
    assume(len({b - a for a, b in pairs}) == len(pairs))
    d = draw(st.integers(min_value=1, max_value=4)) if kind is SequenceKind.HOOKED else 1
    return PairSystem(tuple(pairs)), kind, d


class TestRoundTrips:
    @given(pair_systems())
    def test_pairs_sequence_pairs(self, case):
        ps, kind, d = case
        s = pairs_to_sequence(ps, kind, d=d)
        back = sequence_to_pairs(s)
        assert set(back.pairs) == set(ps.pairs)
        assert pairs_to_sequence(back, kind, d=d) == s

    @given(pair_systems())
    def test_parse_format(self, case):
        ps, kind, d = case
        s = pairs_to_sequence(ps, kind, d=d)
        assert parse_sequence(format_sequence(s), kind=kind, d=d) == s

    @given(pair_systems())
    def test_json_round_trip(self, case):
        ps, _, d = case
        text = pair_system_to_json(ps, 2, d)
        back, k, d_back = pair_system_from_json(text)
        assert back == ps and k == 2 and d_back == d

    def test_pair_text_round_trip(self):
        ps = PairSystem(((1, 3), (2, 5)))
        assert parse_pairs(format_pairs(ps)) == ps


def _outcome(reader, text):
    """What a reader returns, or the type and message of what it raises."""
    try:
        return reader(text)
    except Exception as exc:  # compared as (type, message)
        return type(exc), str(exc)


# 4301 digits: one more than int() reads from text by default.
TOO_LONG = "1" + "0" * 4300
SEPARATORS = (" ", "  ", "\t", "\n", " \r\n", "\x1c", "　", "\xa0", "\x85", "\u2028", "\x0b",
              "\x1f")
ODD_TOKENS = ("1-2-3", "-1-2", "1--2", "12", "1-", "-2", "-", "٤-5", "1-４",
              "1_0-20", "+1-3", "1-²", "a-b", f"{TOO_LONG}-{TOO_LONG}1",
              f"{10**4299}-{10**4299 + 1}")


def _pair_texts(rng):
    yield from ("", " \x1c ", "1-3", "01-003", "3-1", "1-3 1-3", *ODD_TOKENS)
    for _ in range(600):
        n = rng.randint(1, 8)
        labels = rng.sample(range(0, 2 * n + 4), 2 * n)
        tokens = []
        for i in range(n):
            a, b = labels[2 * i], labels[2 * i + 1]
            if rng.random() < 0.9:
                a, b = min(a, b), max(a, b)
            tokens.append(f"{a:0{rng.choice((1, 1, 3))}d}-{b}")
        if rng.random() < 0.3:
            tokens[rng.randrange(n)] = rng.choice(ODD_TOKENS)
        if rng.random() < 0.1:
            tokens.append(rng.choice(tokens))
        seps = [rng.choice(SEPARATORS) for _ in range(len(tokens) + 1)]
        yield "".join(sep + tok for sep, tok in zip(seps, tokens)) + rng.choice(("", seps[-1]))


BAD_PAIRS = ("true", "[1, true]", "[false, 3]", "[1.0, 3]", "[1, 3.5]", '["1", 3]', '"13"',
             "[1, 3, 5]", "[1]", "[]", '{"a": 1, "b": 3}', "null", "7", "[[1], [3]]",
             f"[1, {TOO_LONG}]", "[01, 3]", "[1, -3]")
BAD_RECORDS = ('"pairs": 5', '"pairs": "13"', '"pairs": {"1": 3}', '"pairs": null',
               '"pairs": []', '"pairs": [[1, 3]], "n": 2', '"k": 0', '"d": true', '"n": 1.0')


def _json_texts(rng):
    yield from ("", "[]", "{}", "null", '{"n": 1, "k": 2, "d": 1}',
                '{"n": 1, "k": 2, "d": 1, "pairs": [[1, 3]]}', "[" * 100_000)
    for _ in range(600):
        n = rng.randint(1, 6)
        labels = rng.sample(range(1, 2 * n + 3), 2 * n)
        pairs = [f"[{min(labels[i:i + 2])}, {max(labels[i:i + 2])}]" for i in range(0, 2 * n, 2)]
        fields = {"n": str(n), "k": str(rng.randint(1, 3)), "d": str(rng.randint(1, 3))}
        if rng.random() < 0.4:
            pairs[rng.randrange(n)] = rng.choice(BAD_PAIRS)
        fields["pairs"] = "[" + ", ".join(pairs) + "]"
        text = "{" + ", ".join(f'"{key}": {value}' for key, value in fields.items())
        if rng.random() < 0.2:
            text += ", " + rng.choice(BAD_RECORDS)  # a repeated key: the last one counts
        yield text + "}"


def _refused_by(error_type, message):
    """The error type, and which check refused the text: the reader's own
    ("bad ...", "record ...") or a PairSystem rule."""
    if message.startswith(("bad ", "record ")):
        return error_type, "reader"
    if message.endswith(("must have a < b", "must be distinct", "needs at least one pair")):
        return error_type, "PairSystem"
    return error_type, message


class TestReadersMatchThePerTokenReaders:
    def test_parse_pairs(self):
        seen = set()
        for text in _pair_texts(random.Random(19)):
            got = _outcome(parse_pairs, text)
            assert got == _outcome(parse_pairs_per_token, text), text
            seen.add(PairSystem if isinstance(got, PairSystem) else _refused_by(*got))
        assert seen == {PairSystem, (DomainError, "reader"), (DomainError, "PairSystem")}

    def test_valid_pair_text_reads_no_token_alone(self, monkeypatch):
        def refuse(tok):
            raise AssertionError(f"valid pair text read token side {tok!r} alone")

        cases = {"01-003\t2-5\n": PairSystem(((1, 3), (2, 5)))}
        for ps in map(construct_nk2_21, (5, 1001)):
            cases[format_pairs(ps)] = ps
        monkeypatch.setattr(core, "_ascii_int", refuse)
        for text, ps in cases.items():
            assert parse_pairs(text) == ps

    def test_pair_system_from_json(self):
        seen = set()
        for text in _json_texts(random.Random(19)):
            got = _outcome(pair_system_from_json, text)
            assert got == _outcome(pair_system_from_json_per_pair, text), text
            seen.add(tuple if isinstance(got[0], PairSystem) else _refused_by(*got))
        assert seen == {tuple, (DomainError, "reader"), (DomainError, "PairSystem")}

    def test_position_set_check(self):
        rng, seen = random.Random(19), set()
        for trial in range(3000):
            kind = rng.choice(list(SequenceKind))
            n, d = rng.randint(1, 7), rng.randint(1, 3)
            length, hook, _ = sequence_shape(kind, n, d)
            positions = [i for i in range(1, length + 1) if i != hook]
            rng.shuffle(positions)
            damage = trial % 5
            if damage == 1:    # a value 0
                positions[0] = 0
            elif damage == 2:  # a value past the length
                positions[0] = length + rng.randint(1, 2)
            elif damage == 3 and hook is not None:  # the hook position used
                positions[0] = hook
            elif damage == 4 and n > 1:  # a pair missing
                positions = positions[:-2]
            ps = PairSystem(tuple(sorted(positions[i:i + 2])) for i in range(0, len(positions), 2))
            want = position_set_message(ps, kind, d)
            if want is None:
                hooks = pairs_to_sequence(ps, kind, d).entries.count(HOOK)
                assert hooks == (kind is not SequenceKind.SKOLEM)
            else:
                with pytest.raises(DomainError) as info:
                    pairs_to_sequence(ps, kind, d)
                assert str(info.value) == want
            seen.add((damage, want is None))
        assert seen == {(0, True), (1, False), (2, False), (3, False), (3, True),
                        (4, False), (4, True)}
