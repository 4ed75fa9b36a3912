"""Hooked Skolem graceful labelings and Skolem-type sequences:
constructors, verifiers, necessary conditions, and an exhaustive
backtracking search oracle.

Each name below, and each submodule, is imported from its home module on
first use, so `import hskolem` loads no submodule (PEP 562)."""

_EXPORTS = {
    "conditions": ("expected_cross_edges", "hooked_sequence_necessary",
                   "nk2_parity_feasible", "size_necessary"),
    "construct": ("base_cases", "construct_nk2_21", "even_family_labels",
                  "odd_family_labels"),
    "core": ("HOOK", "BoundExceeded", "ContradictionDetected", "DomainError", "Graph",
             "NotGraceful", "PairSystem", "SequenceForm", "SequenceKind", "VertexLabeling",
             "edge_target_set", "format_pairs", "format_sequence", "induced_edge_labels",
             "nk2_graph", "pair_system_from_json", "pair_system_labeling",
             "pair_system_to_json", "pairs_to_sequence", "parse_pairs", "parse_sequence",
             "sequence_shape", "sequence_to_pairs", "target_label_set"),
    "search": ("SearchOutcome", "SearchStats", "SurveyRow", "search_graph",
               "search_hooked_sequence", "search_hooked_skolem", "search_nk2",
               "search_sequence", "search_skolem", "survey_nk2"),
    "verify": ("PartitionCensus", "VerifyReport", "check_sum_identity", "partition_census",
               "verify_labeling", "verify_pair_system", "verify_sequence"),
}
__all__ = [name for names in _EXPORTS.values() for name in names]
_HOME = {name: module for module, names in _EXPORTS.items() for name in (module, *names)}


def __getattr__(name):
    """Import name's home module on first use and keep the value here."""
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = __import__(home, globals(), level=1)  # `from . import home`, seen by -X importtime
    value = globals()[name] = module if home == name else getattr(module, name)
    return value


def __dir__():
    return sorted({*globals(), *_HOME})
