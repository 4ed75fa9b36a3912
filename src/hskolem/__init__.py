"""Hooked Skolem graceful labelings and Skolem-type sequences:
constructors, verifiers, necessary conditions, and an exhaustive
backtracking search oracle."""

from .conditions import (
    expected_cross_edges,
    hooked_sequence_necessary,
    nk2_parity_feasible,
    size_necessary,
)
from .construct import (
    ConstructionBug,
    NotGraceful,
    UseBaseCase,
    base_cases,
    construct_nk2_21,
    even_family_labels,
    odd_family_labels,
)
from .core import (
    HOOK,
    DegenerateOrder,
    DomainError,
    Graph,
    MultiplicityError,
    PairSystem,
    ParseError,
    PositionSetMismatch,
    SequenceForm,
    SequenceKind,
    ShapeMismatch,
    VertexLabeling,
    edge_target_set,
    format_pairs,
    format_sequence,
    induced_edge_labels,
    nk2_graph,
    pair_system_from_json,
    pair_system_labeling,
    pair_system_to_json,
    pairs_to_sequence,
    parse_pairs,
    parse_sequence,
    sequence_shape,
    sequence_to_pairs,
    target_label_set,
)
from .search import (
    BoundExceeded,
    ContradictionDetected,
    SearchOutcome,
    SearchStats,
    SurveyRow,
    search_graph,
    search_hooked_sequence,
    search_hooked_skolem,
    search_nk2,
    search_sequence,
    search_skolem,
    survey_nk2,
)
from .verify import (
    PartitionCensus,
    VerifyReport,
    check_sum_identity,
    partition_census,
    verify_labeling,
    verify_pair_system,
    verify_sequence,
)
