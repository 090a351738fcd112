"""Diagonal sets, inequality witnesses, and verification on finite digraphs."""

__version__ = "0.1.0"

from .graph import Graph, VertexSet, make_graph
from .upsets import UPSet, parse_upset
from .diagonals import (
    ChainReport,
    DiagonalSpec,
    Evidence,
    GraphAnalysis,
    InternalDisagreementError,
    Side,
    TheoremViolationError,
    Witness,
    default_spec_battery,
    distinct_out_count,
    validate_witness,
)
from .graphio import EdgeListError, emit_edge_list, gen_random, parse_edge_list

__all__ = [
    "ChainReport",
    "DiagonalSpec",
    "EdgeListError",
    "Evidence",
    "Graph",
    "GraphAnalysis",
    "InternalDisagreementError",
    "Side",
    "TheoremViolationError",
    "UPSet",
    "VertexSet",
    "Witness",
    "default_spec_battery",
    "distinct_out_count",
    "emit_edge_list",
    "gen_random",
    "make_graph",
    "parse_edge_list",
    "parse_upset",
    "validate_witness",
]
