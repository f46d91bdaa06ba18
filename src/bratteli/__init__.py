"""Exact-arithmetic toolkit for generalized Bratteli diagrams.

Subpackages cover the diagram families and windows (``core``), exact heights
and stochastic rows (``linalg``), inverse-limit vectors (``limits``),
tail-invariant measures (``measures``), measure extension tests
(``extension``), and adic transformations (``vershik``).
"""
from .core import (
    DiagramError,
    TruncationIncompleteError,
    build_diagram,
    build_subdiagram,
    vertex_window,
)
from .vershik import (
    DeepenPrefixError,
    ExtremalClass,
    MaximalPathError,
    MinimalPathError,
    OrderedDiagram,
    PascalPathDescriptor,
    PathRep,
    make_order,
    vershik_inverse,
    vershik_step,
)

__all__ = [
    "DiagramError",
    "TruncationIncompleteError",
    "build_diagram",
    "build_subdiagram",
    "vertex_window",
    "DeepenPrefixError",
    "ExtremalClass",
    "MaximalPathError",
    "MinimalPathError",
    "OrderedDiagram",
    "PascalPathDescriptor",
    "PathRep",
    "make_order",
    "vershik_inverse",
    "vershik_step",
]

__version__ = "0.1.0"
