"""Small 2-vertex strongly biconnected spanning subgraphs of directed graphs.

Connectivity predicates, dominator-based strong articulation points, three
approximation algorithms, a seeded instance generator, an exhaustive exact
solver for tiny instances, and a benchmark CLI.
"""

from .approx import (
    AlgoResult,
    AlgoTrace,
    RepairLoopStalled,
    algorithm1,
    algorithm2,
    algorithm3,
    minimal_2vcss,
)
from .connectivity import (
    b_articulation_points,
    is_2v_strongly_biconnected,
    is_2vertex_connected,
    is_strongly_biconnected,
    is_strongly_connected,
)
from .dominators import strong_articulation_points_fast
from .generator import GenConfig, generate
from .graph import DiGraph, Edge, GraphError, ParseError, build, parse, serialize
from .oracle import ExactResult, exact_min_2vsb, small_instance_suite

__version__ = "0.1.0"

__all__ = [
    "AlgoResult",
    "AlgoTrace",
    "DiGraph",
    "Edge",
    "ExactResult",
    "GenConfig",
    "GraphError",
    "ParseError",
    "RepairLoopStalled",
    "algorithm1",
    "algorithm2",
    "algorithm3",
    "b_articulation_points",
    "build",
    "exact_min_2vsb",
    "generate",
    "is_2v_strongly_biconnected",
    "is_2vertex_connected",
    "is_strongly_biconnected",
    "is_strongly_connected",
    "minimal_2vcss",
    "parse",
    "serialize",
    "small_instance_suite",
    "strong_articulation_points_fast",
]
