"""Evidential structures and exact rationalization of experimentation plans.

The package models partially ordered families of evidential states,
builds the canonical finite sample space on which those states become
events, recognizes experimentation trees inside a structure, and
decides, with exact rational arithmetic, whether a contingent plan can
be explained by a single probability-and-utility pair.

The namespace loads on demand (PEP 562): ``import evistruct`` imports
no module of the package, and the first use of any name in __all__, or
of one of the seven module names below, imports all seven and binds
every exported name, so that from then on the namespace is the one an
eager import block would give. Importing one module, evistruct.io say,
loads only that module and what it imports; the command-line front end
(evistruct.cli) relies on this to start on the modules its subcommand
runs.
"""
from __future__ import annotations

import importlib

# the exported names of each module, in the order the modules load
_EXPORTS: dict[str, tuple[str, ...]] = {
    "canonical": ("CANONICAL_CONDITION_IDS", "EMBEDDING_CONDITION_IDS",
                  "CanonicalError", "CanonicalSpace", "build_canonical",
                  "generated_field", "product_embedding", "verify_canonical",
                  "verify_embedding"),
    "feasibility": ("FeasibilityResult", "FeasibilityRow",
                    "FeasibilitySystem", "build_system",
                    "decide_rationalizable", "decide_system",
                    "verify_certificate", "verify_weighting"),
    "io": ("FIXTURES", "ParseError", "TreeBlock", "Workspace",
           "emit_fixtures", "format_rational", "format_workspace",
           "load_structure", "parse_rational", "parse_workspace"),
    "plans": ("ConditionalPreferenceRelation", "IsdReport", "Plan",
              "PlanError", "check_isd_plan", "check_isd_relation",
              "induced_relation"),
    "rationalize": ("ExplicitRepresentation", "Rationalization",
                    "RationalizationError", "SamplePoint", "avoiding_branch",
                    "construct_sceu", "verify_rationalization"),
    "structure": ("AXIOM_IDS", "ConditionReport", "ConditionVerdict",
                  "DerivedRelations", "EStructure", "RankTable",
                  "StructureError", "WitnessReport", "check_axioms",
                  "derive_relations", "rank", "rank_level_sets"),
    "trees": ("TREE_CONDITION_IDS", "Branch", "ExperimentationTree",
              "GraphReport", "PartitionSequence", "TreeError", "as_tree",
              "build_tree", "check_graph_tree", "check_tree",
              "decompose_field_element", "find_trees", "partitions"),
}

__all__ = [
    "AXIOM_IDS",
    "Branch",
    "CANONICAL_CONDITION_IDS",
    "CanonicalError",
    "CanonicalSpace",
    "ConditionReport",
    "ConditionVerdict",
    "ConditionalPreferenceRelation",
    "DerivedRelations",
    "EMBEDDING_CONDITION_IDS",
    "EStructure",
    "ExperimentationTree",
    "ExplicitRepresentation",
    "FIXTURES",
    "FeasibilityResult",
    "FeasibilityRow",
    "FeasibilitySystem",
    "GraphReport",
    "IsdReport",
    "ParseError",
    "PartitionSequence",
    "Plan",
    "PlanError",
    "RankTable",
    "Rationalization",
    "RationalizationError",
    "SamplePoint",
    "StructureError",
    "TREE_CONDITION_IDS",
    "TreeBlock",
    "TreeError",
    "WitnessReport",
    "Workspace",
    "as_tree",
    "avoiding_branch",
    "build_canonical",
    "build_system",
    "build_tree",
    "check_axioms",
    "check_graph_tree",
    "check_isd_plan",
    "check_isd_relation",
    "check_tree",
    "construct_sceu",
    "decide_rationalizable",
    "decide_system",
    "decompose_field_element",
    "derive_relations",
    "emit_fixtures",
    "find_trees",
    "format_rational",
    "format_workspace",
    "generated_field",
    "induced_relation",
    "load_structure",
    "parse_rational",
    "parse_workspace",
    "partitions",
    "product_embedding",
    "rank",
    "rank_level_sets",
    "verify_canonical",
    "verify_certificate",
    "verify_embedding",
    "verify_rationalization",
    "verify_weighting",
]

__version__ = "0.1.0"


def __getattr__(name: str):
    """Import every module and bind every exported name, on the first use
    of one of them or of a module's name; any other name is missing."""
    if name not in _EXPORTS and name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute "
                             f"{name!r}")
    namespace = globals()
    for stem, names in _EXPORTS.items():
        module = importlib.import_module(f"{__name__}.{stem}")
        namespace.update({n: getattr(module, n) for n in names})
    return namespace[name]


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_EXPORTS})
