"""Shock graphs of 2D contour fragments.

Analytic medial-axis refinement: contour fragments decompose into point and
segment sources whose waves propagate simultaneously; shocks (wave
collisions) are traced along closed-form bisectors in time order, assembled
into an attributed directed graph, regularized by saliency pruning, and
exported as feature vectors.
"""
from .bisectors import make_bisectors
from .contours import (BoundaryElement, ContourFragment, check_no_crossings,
                       decompose, parse_scene_text, resample_polyline,
                       simplify_polyline, trace_binary_mask)
from .engine import run
from .errors import (DegenerateInputError, FeatureOverflowError,
                     InvalidInputError, NonterminationError, ResolutionError,
                     ShockGraphError, StructuralError)
from .export import parse_sgtext, to_graphml, to_sgtext, to_svg
from .features import FEATURE_LENGTH, graph_features
from .graph import ShockGraph, ShockLink, ShockNode, build_graph
from .regularize import augment_with_box, prune

__version__ = "0.1.0"

__all__ = [
    "BoundaryElement", "ContourFragment", "ShockGraph", "ShockLink",
    "ShockNode", "FEATURE_LENGTH",
    "simplify_polyline", "resample_polyline", "trace_binary_mask",
    "decompose", "check_no_crossings", "parse_scene_text", "make_bisectors",
    "run", "build_graph", "augment_with_box", "prune",
    "graph_features",
    "to_sgtext", "parse_sgtext", "to_graphml", "to_svg",
    "ShockGraphError", "InvalidInputError", "DegenerateInputError",
    "StructuralError", "NonterminationError", "FeatureOverflowError",
    "ResolutionError",
]
