"""Extremal edge counts, constructions and exact searches for patterns of
vertex-disjoint cliques, plus the partition-shifting engine behind the
four-block dichotomy and equitable-coloring utilities.

Importing the package loads no submodule: each public name loads its
module on first access (PEP 562), so a command pays only for what it runs.
"""

from importlib import import_module as _import_module

from ._version import __version__

# submodule -> the public names it defines
_EXPORTS = {
    "codec": ("from_graph6", "parse_graph_text", "to_graph6"),
    "constructions": ("ConstructionDescriptor", "build_family", "build_ref",
                      "claim_holds", "hub_join", "near_tight_witness",
                      "rigid_clique_union", "star_graph", "tight_family_a",
                      "tight_family_b", "turan_graph", "union_of_cliques"),
    "errors": ("PreconditionError", "SizeGuardError", "SoundnessAlarm"),
    "formulas": ("ConstructionRef", "FormulaQuery", "TuranValue", "binom2",
                 "dispatch_formula", "ex_2_cliques", "ex_3_cliques", "ex_4_cliques",
                 "ex_k_matchings", "ex_single_clique", "ex_tight_k_cliques",
                 "ex_two_distinct_cliques", "f3_min_edges", "hub_join_edges",
                 "turan_edges"),
    "graphs": ("Graph", "VertexSet", "clique_union_profile", "complement",
               "complete_graph", "components", "cross_edge_count", "disjoint_union",
               "empty_graph", "from_edge_list", "from_edge_list_text", "join",
               "to_edge_list_text"),
    "oracle": ("exhaustive_ex", "exhaustive_ex_sizes", "naive_disjoint_independent_sets",
               "naive_independent_sets"),
    "packing": ("EquitableColoring", "ExactColoringResult", "PackingWitness",
                "VerificationReport", "equitable_coloring", "equitable_coloring_exact",
                "find_clique_packing", "find_disjoint_independent_sets",
                "independence_number", "verify_equitable_coloring", "verify_witness"),
    "probes": ("DichotomyProbeReport", "ValueSweepReport", "ValueSweepRow",
               "probe_dichotomy", "probe_value_sweep", "random_bounded_graph"),
    "records": ("RECORD_VERSION", "ResultRecord"),
    "shifting": ("AuxDigraph", "EngineTrace", "Move", "PartitionState",
                 "StructureCertificate", "accessible_path", "build_aux_digraph",
                 "certify_k7_structure", "check_preconditions", "init_partition",
                 "propose_moves", "resolve", "solo_neighbor", "verify_certificate"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_HOME])


def __getattr__(name: str):
    # Looked up in the defining module on every access and never cached
    # here, so a name rebound there (say, by a tracing wrapper) is what
    # callers of the package see.
    module = _HOME.get(name)
    if module is not None:
        return getattr(_import_module(f"{__name__}.{module}"), name)
    if name in _EXPORTS:
        return _import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
