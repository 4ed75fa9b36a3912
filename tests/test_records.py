"""The nine value types behave as records: exact repr, value equality and
hash over the fields in order, keyword construction, no assignment to a
frozen type, and a pickle round trip."""

import pickle

import pytest

from hskolem import (
    HOOK,
    Graph,
    PairSystem,
    PartitionCensus,
    SearchOutcome,
    SearchStats,
    SequenceForm,
    SequenceKind,
    SurveyRow,
    VerifyReport,
    VertexLabeling,
)

CENSUS = PartitionCensus(odd_count=2, even_count=1, cross_edges=1)

# (instance, its exact repr, its field values in order)
RECORDS = [
    (Graph(3, ((2, 1), (2, 3))), "Graph(p=3, edges=((1, 2), (2, 3)))",
     (3, ((1, 2), (2, 3)))),
    (VertexLabeling([1, 4, 2]), "VertexLabeling(labels=(1, 4, 2))", ((1, 4, 2),)),
    (PairSystem([(1, 3), (2, 5)]), "PairSystem(pairs=((1, 3), (2, 5)))",
     (((1, 3), (2, 5)),)),
    (SequenceForm(kind=SequenceKind.HOOKED, entries=[2, 3, 2, 4, 3, HOOK, 4], d=2),
     "SequenceForm(kind=<SequenceKind.HOOKED: 'hooked'>, "
     "entries=(2, 3, 2, 4, 3, HOOK, 4), d=2)",
     (SequenceKind.HOOKED, (2, 3, 2, 4, 3, HOOK, 4), 2)),
    (CENSUS, "PartitionCensus(odd_count=2, even_count=1, cross_edges=1)", (2, 1, 1)),
    (VerifyReport(violations=()), "VerifyReport(violations=())", ((),)),
    (SearchStats(nodes_expanded=6), "SearchStats(nodes_expanded=6)", (6,)),
    (SearchOutcome(True, None, [PairSystem([(1, 3), (2, 5)])],
                   stats=SearchStats(nodes_expanded=6)),
     "SearchOutcome(exists=True, count=None, "
     "solutions=[PairSystem(pairs=((1, 3), (2, 5)))], "
     "stats=SearchStats(nodes_expanded=6))",
     (True, None, [PairSystem([(1, 3), (2, 5)])], SearchStats(6))),
    (SurveyRow(3, False, None), "SurveyRow(n=3, parity_feasible=False, exists=None)",
     (3, False, None)),
]
IDS = [type(record).__name__ for record, _, _ in RECORDS]
MUTABLE = (SearchStats, SearchOutcome)
FROZEN = [r for r in RECORDS if not isinstance(r[0], MUTABLE)]


def _copy(record, values):
    return type(record)(*values)


@pytest.mark.parametrize("record, text, values", RECORDS, ids=IDS)
def test_repr(record, text, values):
    assert repr(record) == text


def test_defaults_in_repr():
    assert repr(VerifyReport((("x", "y"),))) == (
        "VerifyReport(violations=(('x', 'y'),))")
    assert repr(SearchStats()) == "SearchStats(nodes_expanded=0)"
    assert repr(SequenceForm(SequenceKind.SKOLEM, (1, 1))) == (
        "SequenceForm(kind=<SequenceKind.SKOLEM: 'skolem'>, entries=(1, 1), d=1)")


@pytest.mark.parametrize("record, text, values", RECORDS, ids=IDS)
def test_equal_fields_give_equal_values(record, text, values):
    twin = _copy(record, values)
    assert twin is not record
    assert twin == record and not twin != record


@pytest.mark.parametrize("record, text, values", FROZEN,
                         ids=[type(r[0]).__name__ for r in FROZEN])
def test_hash_is_the_hash_of_the_field_tuple(record, text, values):
    assert hash(record) == hash(_copy(record, values)) == hash(values)


@pytest.mark.parametrize("cls", MUTABLE)
def test_mutable_types_are_unhashable(cls):
    record = next(r for r, _, _ in RECORDS if type(r) is cls)
    with pytest.raises(TypeError):
        hash(record)


def test_different_fields_differ():
    assert Graph(3, ((1, 2),)) != Graph(3, ((1, 3),))
    assert SequenceForm(SequenceKind.SKOLEM, (1, 1)) != SequenceForm(
        SequenceKind.SKOLEM, (1, 1), d=2)
    assert SearchStats(5) != SearchStats(6)


def test_different_types_never_compare_equal():
    for i, (a, _, a_values) in enumerate(RECORDS):
        assert a != a_values  # nor equal to their own field tuple
        for j, (b, _, _) in enumerate(RECORDS):
            assert (a == b) is (i == j)
    # the same field values under two types
    assert SearchStats(6) != SurveyRow(6, True, None)
    assert VertexLabeling((1, 3)) != PairSystem([(1, 3)]).values()


def test_keyword_construction():
    kind = SequenceKind.HOOKED
    assert SequenceForm(kind=kind, entries=(2, 2, HOOK), d=2) == SequenceForm(
        kind, (2, 2, HOOK), 2)
    assert Graph(p=2, edges=((1, 2),)) == Graph(2, ((1, 2),))
    assert VertexLabeling(labels=[1, 3]).labels == (1, 3)
    assert PairSystem(pairs=[(1, 3)]).pairs == ((1, 3),)
    assert VerifyReport(violations=[("x", "y")]).violations == (("x", "y"),)
    assert SurveyRow(n=1, parity_feasible=True, exists=True).exists is True
    outcome = SearchOutcome(exists=False, count=0, solutions=[],
                            stats=SearchStats(nodes_expanded=1))
    assert outcome.stats.nodes_expanded == 1


@pytest.mark.parametrize("record, text, values", FROZEN,
                         ids=[type(r[0]).__name__ for r in FROZEN])
def test_frozen_types_refuse_assignment(record, text, values):
    field = type(record).__match_args__[0]
    with pytest.raises(AttributeError):
        setattr(record, field, values[0])
    with pytest.raises(AttributeError):
        record.extra = 1
    with pytest.raises(AttributeError):
        delattr(record, field)
    assert repr(record) == text


def test_mutable_types_take_assignment():
    outcome = SearchOutcome(True, None, [], SearchStats())
    outcome.count = 3
    outcome.stats.nodes_expanded = 7
    assert repr(outcome) == ("SearchOutcome(exists=True, count=3, solutions=[], "
                             "stats=SearchStats(nodes_expanded=7))")


@pytest.mark.parametrize("record, text, values", RECORDS, ids=IDS)
def test_pickle_round_trip(record, text, values):
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(record, protocol))
        assert type(back) is type(record)
        assert back == record and repr(back) == text


def test_positional_match_pattern():
    match Graph(2, ((1, 2),)):
        case Graph(p, edges):
            assert (p, edges) == (2, ((1, 2),))
    match SearchStats(4):
        case SearchStats(nodes):
            assert nodes == 4


def test_hook_pickles_as_itself():
    form = SequenceForm(SequenceKind.HOOKED_SKOLEM, (2, 3, 2, HOOK, 3))
    back = pickle.loads(pickle.dumps(form))
    assert back.entries[3] is HOOK
    assert back.hook_positions() == [4] and sorted(back.value_positions()) == [2, 3]
