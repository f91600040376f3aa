"""Evidential structures and exact rationalization of experimentation plans.

The package models partially ordered families of evidential states,
builds the canonical finite sample space on which those states become
events, recognizes experimentation trees inside a structure, and
decides, with exact rational arithmetic, whether a contingent plan can
be explained by a single probability-and-utility pair.

The namespace loads on demand (PEP 562): ``import evistruct`` imports
no module of the package, and the first use of any name in __all__ (the
one export list), or of a module name in _MODULES, imports all seven and
binds each name of __all__ from the module namespace holding it, so that
from then on the namespace is the one an eager import block would give.
Importing one module, evistruct.io say, loads only that module and what
it imports; the command-line front end (evistruct.cli) relies on this to
start on the modules its subcommand runs.
"""
from __future__ import annotations

import importlib

# the modules the namespace loads on first use, in this order
_MODULES = ("canonical", "feasibility", "io", "plans", "rationalize",
            "structure", "trees")

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
    "induced_relation",
    "parse_rational",
    "parse_workspace",
    "partitions",
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
    """Import every module and bind each name of __all__ from the module
    namespace holding it, on the first use of one of them or of a
    module's name; any other name is missing."""
    if name not in _MODULES and name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute "
                             f"{name!r}")
    found: dict[str, object] = {}  # a name two modules hold is one object
    for stem in _MODULES:
        found.update(vars(importlib.import_module(f"{__name__}.{stem}")))
    globals().update({n: found[n] for n in __all__})
    return globals()[name]


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_MODULES})
