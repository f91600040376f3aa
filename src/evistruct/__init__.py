"""Evidential structures and exact rationalization of experimentation plans.

The package models partially ordered families of evidential states,
builds the canonical finite sample space on which those states become
events, recognizes experimentation trees inside a structure, and
decides, with exact rational arithmetic, whether a contingent plan can
be explained by a single probability-and-utility pair.
"""
from __future__ import annotations

from .canonical import (CANONICAL_CONDITION_IDS, EMBEDDING_CONDITION_IDS,
                        CanonicalError, CanonicalSpace, build_canonical,
                        generated_field, product_embedding, verify_canonical,
                        verify_embedding)
from .feasibility import (FeasibilityResult, FeasibilityRow, FeasibilitySystem,
                          build_system, decide_rationalizable, decide_system,
                          verify_certificate, verify_weighting)
from .io import (FIXTURES, ParseError, TreeBlock, Workspace, emit_fixtures,
                 format_rational, format_workspace, load_structure,
                 parse_rational, parse_workspace)
from .plans import (ConditionalPreferenceRelation, IsdReport, Plan,
                    PlanError, check_isd_plan, check_isd_relation,
                    induced_relation)
from .rationalize import (ExplicitRepresentation, Rationalization,
                          RationalizationError, SamplePoint, avoiding_branch,
                          construct_sceu, verify_rationalization)
from .structure import (AXIOM_IDS, ConditionReport, ConditionVerdict,
                        DerivedRelations, EStructure, RankTable,
                        StructureError, WitnessReport, check_axioms,
                        derive_relations, rank, rank_level_sets)
from .trees import (TREE_CONDITION_IDS, Branch, ExperimentationTree,
                    GraphReport, PartitionSequence, TreeError, as_tree,
                    build_tree, check_graph_tree, check_tree,
                    decompose_field_element, find_trees, partitions)

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
