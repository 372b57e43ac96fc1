"""Exact-arithmetic verification of geometric irrationality constructions.

Three overlapping-figure constructions (paired squares, a ring of six
hexagons, stacked rows of triangles) each turn a hypothetical rational
square root into an infinite descent.  This package rebuilds the figures
with exact rational coordinates, takes a complete coverage census, checks
every area identity, and cross-checks the geometry against the algebraic
descent maps.
"""

from .descent import (
    BadIndex,
    ChainResult,
    DescentFamily,
    DescentStep,
    FamilyKind,
    RangeCheckResult,
    defect_multiplier,
    descent_chain,
    descent_step,
    range_check,
)
from .exact_arith import RadicandMismatch, Surd
from .geometry import (
    Arrangement,
    BasisMismatch,
    CoverageCensus,
    DepthExceeded,
    LatticePolygon,
    ORTHOGONAL,
    OutOfWindow,
    TRIANGULAR,
    build_arrangement,
    census_to_descent,
    convex_intersection,
    coverage_census,
    verify_figure,
    window_inequalities,
)
from .number_theory import (
    SquareRadicand,
    convergents,
    square_density,
    square_triangular,
    squarefree_decompose,
)
from .render_report import cli_main, render_json, render_svg

__version__ = "0.1.0"

__all__ = [
    "Arrangement",
    "BadIndex",
    "BasisMismatch",
    "ChainResult",
    "CoverageCensus",
    "DepthExceeded",
    "DescentFamily",
    "DescentStep",
    "FamilyKind",
    "LatticePolygon",
    "ORTHOGONAL",
    "OutOfWindow",
    "RadicandMismatch",
    "RangeCheckResult",
    "SquareRadicand",
    "Surd",
    "TRIANGULAR",
    "build_arrangement",
    "census_to_descent",
    "cli_main",
    "convergents",
    "convex_intersection",
    "coverage_census",
    "defect_multiplier",
    "descent_chain",
    "descent_step",
    "range_check",
    "render_json",
    "render_svg",
    "square_density",
    "square_triangular",
    "squarefree_decompose",
    "verify_figure",
    "window_inequalities",
]
