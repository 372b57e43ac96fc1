"""Corner-list polygons for the tests' Fraction references.

LatticePolygon is built from its bounds only; the references reason about
corners.  corner_polygon takes a corner list and corner_points gives one
back, as LatticePoint records.
"""

from fractions import Fraction
from math import lcm
from typing import Iterable, NamedTuple

from irrgeo.geometry import LatticePolygon, _alcove


class LatticePoint(NamedTuple):
    u: Fraction
    v: Fraction


def corner_polygon(vertices: Iterable, basis: str) -> LatticePolygon:
    """The polygon whose corners are vertices, counter-clockwise in any
    rotation; ValueError for a list that is not exactly the corners of its
    bounds on u, v and u + v, or for an unknown basis."""
    pts = [(Fraction(u), Fraction(v)) for u, v in vertices]
    if len(pts) < 3:
        raise ValueError(f"need at least 3 vertices, got {len(pts)}")
    den = lcm(*(x.denominator for p in pts for x in p))
    ints = [(u.numerator * (den // u.denominator), v.numerator * (den // v.denominator)) for u, v in pts]
    us, vs = [x for x, _ in ints], [y for _, y in ints]
    ws = [x + y for x, y in ints]
    poly = _alcove(basis, den, min(us), max(us), min(vs), max(vs), min(ws), max(ws))
    start = ints.index(min(ints))
    if poly.den != den or tuple(ints[start:] + ints[:start]) != poly.ints:
        raise ValueError("vertices must be the corners of their bounds on u, v and u + v, counter-clockwise")
    return poly


def corner_points(poly: LatticePolygon) -> tuple[LatticePoint, ...]:
    """poly's vertices as LatticePoint records."""
    return tuple(LatticePoint(u, v) for u, v in poly.vertices)
