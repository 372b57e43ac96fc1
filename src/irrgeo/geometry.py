"""Exact planar reconstruction of the overlap figures.

Polygons live on one of two rational lattices: an orthogonal one for the
square figure and a 60-degree one (axes (1,0) and (1/2, sqrt(3)/2)) for
the hexagon and triangle figures.  Lattice coordinates stay rational, so
intersections, areas, and the full coverage census are exact; converting
a lattice area to a true area only ever multiplies by 1 or sqrt(3)/2 and
is never needed inside an identity.

Every polygon carries its coordinates as integers over one least common
denominator (den and ints), and all geometry reads those integers:
convexity, areas, bounds, containment, edge lengths, equality and
intersection.  Fractions are only the public face: vertices turns the
integers back into Fractions when it is first read.

Every polygon the figures draw, and every overlap of two of them, has
edges along (1, 0), (0, 1) and (1, -1) only: it is an alcoved polygon,
exactly the set cut out by its bounds on u, v and u + v.  The figure
builders and the intersection both make one from its bounds with
_alcove, which keeps the bounds.  Two of them intersect by taking the
larger lower and the smaller upper bounds; convex_intersection refuses
any other polygon.  The census reads the bounds too: to find the pairs
worth clipping, to check containment, and for each area in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, isqrt, lcm
from typing import Callable, Iterable, NamedTuple, Optional

from .descent import DescentFamily, FamilyKind
from .number_theory import is_perfect_square

ORTHOGONAL = "orthogonal"
TRIANGULAR = "triangular"


class OutOfWindow(ValueError):
    """Pair outside the window where a figure can be assembled.

    inequality names the violated constraint.
    """

    def __init__(self, inequality: str, a: int, b: int):
        self.inequality = inequality
        super().__init__(f"pair ({a}, {b}) violates {inequality}")


class BasisMismatch(ValueError):
    """Polygons on different lattices combined."""


class DepthExceeded(ValueError):
    """Four smalls share interior points; no figure here does that."""


class MismatchReport(Exception):
    """A figure failed one or more identity checks; .report has them all."""

    def __init__(self, report: "FigureReport"):
        self.report = report
        bad = [c.name for c in report.checks if not c.passed]
        super().__init__(f"identity checks failed: {', '.join(bad)}")


class LatticePoint(NamedTuple):
    u: Fraction
    v: Fraction


_IntPoint = tuple[int, int]


def _times(x: Fraction, den: int) -> int:
    """x * den, for a den that x's denominator divides."""
    return x.numerator * (den // x.denominator)


def _sq_length(basis: str, du, dv):
    """Squared Euclidean length of the lattice vector (du, dv)."""
    if basis == ORTHOGONAL:
        return du * du + dv * dv
    return du * du + du * dv + dv * dv


@dataclass(frozen=True, init=False)
class LatticePolygon:
    """Strictly convex counter-clockwise polygon in lattice coordinates.

    den is the least common denominator of the coordinates and ints the
    vertices times den, starting at the lexicographically smallest point.
    Both are canonical, so structural equality is equality of point sets.
    vertices gives the same points as Fractions.
    """

    basis: str
    den: int
    ints: tuple[_IntPoint, ...]

    def __init__(self, vertices: Iterable, basis: str) -> None:
        pts = [(Fraction(u), Fraction(v)) for u, v in vertices]
        den = lcm(*(x.denominator for p in pts for x in p))
        self._settle([(_times(u, den), _times(v, den)) for u, v in pts], den, basis)

    @classmethod
    def _of_ints(cls, ints: list[_IntPoint], den: int, basis: str) -> "LatticePolygon":
        """The polygon with vertices ints/den (den > 0), reduced to the
        least common denominator and validated like any other."""
        g = gcd(den, *(c for p in ints for c in p))
        poly = cls.__new__(cls)
        poly._settle([(x // g, y // g) for x, y in ints], den // g, basis)
        return poly

    def _settle(self, ints: list[_IntPoint], den: int, basis: str) -> None:
        if basis not in (ORTHOGONAL, TRIANGULAR):
            raise ValueError(f"unknown basis {basis!r}")
        if len(ints) < 3:
            raise ValueError(f"need at least 3 vertices, got {len(ints)}")
        edges = [(x1 - x0, y1 - y0) for (x0, y0), (x1, y1) in zip(ints[-1:] + ints[:-1], ints)]
        wraps = 0
        alcoved = True
        for (dx0, dy0), (dx1, dy1) in zip(edges[-1:] + edges[:-1], edges):
            if dx0 * dy1 - dy0 * dx1 <= 0:
                raise ValueError("vertices must be strictly convex counter-clockwise")
            # every turn is left and under a half turn, so the edge direction
            # crosses from below the u-axis to above it once per winding
            wraps += (dy0 < 0 or (dy0 == 0 and dx0 < 0)) and (dy1 > 0 or (dy1 == 0 and dx1 > 0))
            if dx1 * dy1 * (dx1 + dy1):
                alcoved = False
        if wraps != 1:
            raise ValueError(f"vertices must wind once around, not {wraps} times")
        start = ints.index(min(ints))
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "ints", tuple(ints[start:] + ints[:start]))
        # every edge runs along (1, 0), (0, 1) or (1, -1)
        object.__setattr__(self, "_alcoved", alcoved)

    @cached_property
    def vertices(self) -> tuple[LatticePoint, ...]:
        den = self.den
        return tuple(LatticePoint(Fraction(x, den), Fraction(y, den)) for x, y in self.ints)

    @property
    def lattice_area(self) -> Fraction:
        """The shoelace sum over the vertices."""
        pts = self.ints
        twice = sum(x0 * y1 - x1 * y0 for (x0, y0), (x1, y1) in zip(pts, pts[1:] + pts[:1]))
        return Fraction(twice, 2 * self.den * self.den)

    @cached_property
    def _bounds(self) -> tuple[int, int, int, int, int, int]:
        """The least and greatest u, v and u + v over the vertices, times
        den; _alcove stores them instead."""
        us = [x for x, _ in self.ints]
        vs = [y for _, y in self.ints]
        ws = [x + y for x, y in self.ints]
        return (min(us), max(us), min(vs), max(vs), min(ws), max(ws))

    def bbox(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        return tuple(Fraction(c, self.den) for c in self._bounds[:4])

    def _covers(self, points: list[_IntPoint], den: int) -> bool:
        """Closed containment of points/den; self.den divides den."""
        k = den // self.den
        corners = [(x * k, y * k) for x, y in self.ints]
        for (ax, ay), (bx, by) in zip(corners, corners[1:] + corners[:1]):
            ex, ey = bx - ax, by - ay
            if any(ex * (y - ay) - ey * (x - ax) < 0 for x, y in points):
                return False
        return True

    def contains_point(self, p: LatticePoint) -> bool:
        """Closed containment: boundary counts as inside."""
        u, v = Fraction(p.u), Fraction(p.v)
        den = lcm(self.den, u.denominator, v.denominator)
        return self._covers([(_times(u, den), _times(v, den))], den)

    def contains_polygon(self, other: "LatticePolygon") -> bool:
        if other.basis != self.basis:
            raise BasisMismatch(f"{self.basis} vs {other.basis}")
        den = lcm(self.den, other.den)
        k = den // other.den
        return self._covers([(x * k, y * k) for x, y in other.ints], den)

    def _sq(self, i: int, j: int) -> int:
        """den**2 times the squared length from vertex i to vertex j."""
        (x0, y0), (x1, y1) = self.ints[i], self.ints[j]
        return _sq_length(self.basis, x1 - x0, y1 - y0)

    def _edge_sqs(self) -> list[int]:
        """den**2 times each edge's squared length, edge i leaving vertex i."""
        k = len(self.ints)
        return [self._sq(i, (i + 1) % k) for i in range(k)]


def fraction_sqrt(x: Fraction) -> Fraction:
    """Exact square root of a rational, or ValueError if none exists."""
    if x < 0:
        raise ValueError(f"negative value {x}")
    num, den = x.numerator, x.denominator
    if not (is_perfect_square(num) and is_perfect_square(den)):
        raise ValueError(f"{x} is not a rational square")
    return Fraction(isqrt(num), isqrt(den))


def polygon_side(poly: LatticePolygon) -> Fraction:
    """Common side length of an equilateral polygon; ValueError otherwise."""
    d2 = poly.den * poly.den
    qs = set(poly._edge_sqs())
    if len(qs) != 1:
        raise ValueError(f"edges have unequal lengths: {sorted(Fraction(q, d2) for q in qs)}")
    return fraction_sqrt(Fraction(qs.pop(), d2))


def _side_sq(poly: LatticePolygon, side: Fraction) -> Optional[int]:
    """den**2 * side**2, or None when side*den is not an integer: a
    segment between two of poly's vertices has length side only if it is."""
    scaled = side * poly.den
    return scaled.numerator**2 if scaled.denominator == 1 else None


def _sides_are(poly: LatticePolygon, s2: Optional[int]) -> bool:
    """Every edge of poly squares to s2 over den**2."""
    return s2 is not None and all(q == s2 for q in poly._edge_sqs())


def _diag_sqs(poly: LatticePolygon) -> list[int]:
    return sorted((poly._sq(0, 2), poly._sq(1, 3)))


def is_equilateral_triangle(poly: LatticePolygon, side: Fraction) -> bool:
    if len(poly.ints) != 3 or poly.basis != TRIANGULAR:
        return False
    return _sides_are(poly, _side_sq(poly, side))


def is_square(poly: LatticePolygon, side: Fraction) -> bool:
    if len(poly.ints) != 4 or poly.basis != ORTHOGONAL:
        return False
    s2 = _side_sq(poly, side)
    return _sides_are(poly, s2) and _diag_sqs(poly) == [2 * s2, 2 * s2]


def is_unit_rhombus(poly: LatticePolygon, side: Fraction) -> bool:
    """60-degree rhombus: four equal sides, diagonals side and side*sqrt(3)."""
    if len(poly.ints) != 4 or poly.basis != TRIANGULAR:
        return False
    s2 = _side_sq(poly, side)
    return _sides_are(poly, s2) and _diag_sqs(poly) == [s2, 3 * s2]


def _twice_area(lu: int, hu: int, lv: int, hv: int, lw: int, hw: int) -> int:
    """Twice the lattice area, times den**2, of the alcoved polygon with
    these tight bounds: its u, v box less the two corners that u + v cuts."""
    return 2 * (hu - lu) * (hv - lv) - (lw - lu - lv) ** 2 - (hu + hv - hw) ** 2


def _alcove(basis: str, den: int, lu: int, hu: int, lv: int, hv: int, lw: int, hw: int) -> LatticePolygon:
    """The alcoved polygon lu <= u <= hu, lv <= v <= hv, lw <= u + v <= hw,
    all over den; every bound must be tight and the area positive.  The
    bounds, reduced with den, are kept as the polygon's _bounds."""
    g = gcd(den, lu, hu, lv, hv, lw, hw)
    den, lu, hu, lv, hv, lw, hw = den // g, lu // g, hu // g, lv // g, hv // g, lw // g, hw // g
    # counter-clockwise from the bottom edge, where each bound line meets the next
    corners = [(lw - lv, lv), (hu, lv), (hu, hw - hu), (hw - hv, hv), (lu, hv), (lu, lw - lu)]
    poly = LatticePolygon.__new__(LatticePolygon)
    poly._settle([c for c, before in zip(corners, corners[-1:] + corners[:-1]) if c != before], den, basis)
    object.__setattr__(poly, "_bounds", (lu, hu, lv, hv, lw, hw))
    return poly


def convex_intersection(p: LatticePolygon, q: LatticePolygon) -> Optional[LatticePolygon]:
    """Exact intersection of two alcoved polygons; None if its area is zero.

    Both bound vectors are scaled to the least common multiple of the
    denominators, each lower bound raised and each upper bound lowered to
    the other polygon's; ValueError if either polygon is not alcoved.
    """
    if p.basis != q.basis:
        raise BasisMismatch(f"{p.basis} vs {q.basis}")
    if not (p._alcoved and q._alcoved):
        raise ValueError("only polygons with edges along (1, 0), (0, 1) and (1, -1) intersect")
    plu, phu, plv, phv, plw, phw = p._bounds
    qlu, qhu, qlv, qhv, qlw, qhw = q._bounds
    den = p.den
    if q.den != den:
        den = lcm(den, q.den)
        k = den // p.den
        plu, phu, plv, phv, plw, phw = plu * k, phu * k, plv * k, phv * k, plw * k, phw * k
        k = den // q.den
        qlu, qhu, qlv, qhv, qlw, qhw = qlu * k, qhu * k, qlv * k, qhv * k, qlw * k, qhw * k
    lu, hu = max(plu, qlu), min(phu, qhu)
    lv, hv = max(plv, qlv), min(phv, qhv)
    lw, hw = max(plw, qlw), min(phw, qhw)
    # three difference constraints: each tight bound is the direct one or
    # the path through the third
    lu, hu, lv, hv, lw, hw = (
        max(lu, lw - hv), min(hu, hw - lv),
        max(lv, lw - hu), min(hv, hw - lu),
        max(lw, lu + lv), min(hw, hu + hv),
    )
    if not (lu < hu and lv < hv and lw < hw):
        return None
    return _alcove(p.basis, den, lu, hu, lv, hv, lw, hw)


@dataclass(frozen=True)
class Arrangement:
    """One big figure with its family of small copies placed inside it.

    The big figure and every small must be alcoved, so containment is six
    bound comparisons.
    """

    big: LatticePolygon
    smalls: tuple[LatticePolygon, ...]
    family: DescentFamily
    a: int
    b: int

    def __post_init__(self) -> None:
        big = self.big
        if not big._alcoved:
            raise ValueError("the big figure has edges off (1, 0), (0, 1) and (1, -1)")
        lu, hu, lv, hv, lw, hw = big._bounds
        for i, s in enumerate(self.smalls):
            if s.basis != big.basis:
                raise BasisMismatch(f"small {i} on {s.basis}, big on {big.basis}")
            if not s._alcoved:
                raise ValueError(f"small {i} has edges off (1, 0), (0, 1) and (1, -1)")
            slu, shu, slv, shv, slw, shw = s._bounds
            k, m = s.den, big.den  # compare s's bounds times m with big's times k
            if not (
                lu * k <= slu * m and shu * m <= hu * k
                and lv * k <= slv * m and shv * m <= hv * k
                and lw * k <= slw * m and shw * m <= hw * k
            ):
                raise ValueError(f"small {i} is not inside the big figure")


_Shapes = tuple[LatticePolygon, tuple[LatticePolygon, ...]]


def _squares(a: int, b: int) -> _Shapes:
    """Big a-square with two b-squares in opposite corners."""

    def square(low: int, side: int) -> LatticePolygon:
        high = low + side
        return _alcove(ORTHOGONAL, 1, low, high, low, high, 2 * low, 2 * high)

    return square(0, a), (square(0, b), square(a - b, b))


_HEX_DIRS = ((1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1))


def _hexagons(a: int, b: int) -> _Shapes:
    """Big a-hexagon ringed by six b-hexagons.

    Small i is centered at (a-b) times vertex direction i, so it touches
    big vertex i exactly; neighbouring smalls overlap in a rhombus.
    """

    def hexagon(cu: int, cv: int, r: int) -> LatticePolygon:
        return _alcove(TRIANGULAR, 1, cu - r, cu + r, cv - r, cv + r, cu + cv - r, cu + cv + r)

    return hexagon(0, 0, a), tuple(hexagon((a - b) * du, (a - b) * dv, b) for du, dv in _HEX_DIRS)


def _triangle_rows(n: int, a: int, b: int) -> _Shapes:
    """Big a-triangle holding n rows of b-triangles.

    Row i (from the top, 1-based) holds i smalls; consecutive rows and
    neighbours within a row overlap in triangles of side t = (nb-a)/(n-1).
    Coordinates are over n - 1, where the row pitch (a-b)/(n-1) is a - b.
    """
    den, pitch = n - 1, a - b

    def triangle(u: int, v: int, side: int) -> LatticePolygon:
        return _alcove(TRIANGULAR, den, u, u + side, v, v + side, u + v, u + v + side)

    smalls = tuple(
        triangle((j - 1) * pitch, (n - i) * pitch, b * den)
        for i in range(1, n + 1)
        for j in range(1, i + 1)
    )
    return triangle(0, 0, a * den), smalls


@dataclass(frozen=True)
class _Figure:
    """What one family's figure fixes beyond its radicand N.

    window holds (name, ka, kb) for ka*a > kb*b, then for ka*a < kb*b.
    sides(a, b) gives the overlap side t and the blank side s; next_pair
    reads the smaller pair off (t, s) without the descent map's forms.
    Lattice areas per side squared: big_unit for the big figure and each
    small, overlap_unit for one overlap, blank_unit for the whole blank.
    So the big figure has area big_unit*a**2, the N smalls
    big_unit*N*b**2, and the two differ by -big_unit*(a**2 - N*b**2).
    """

    window: tuple[tuple[str, int, int], tuple[str, int, int]]
    build: Callable[[int, int], _Shapes]
    overlap_shape: Callable[[LatticePolygon, Fraction], bool]
    doubly_count: int
    triple_count: int
    big_unit: Fraction
    overlap_unit: Fraction
    blank_unit: Fraction
    sides: Callable[[Fraction, Fraction], tuple[Fraction, Fraction]]
    next_pair: Callable[[Fraction, Fraction], tuple[Fraction, Fraction]]


_SQUARES = _Figure(
    window=(("a > b", 1, 1), ("a < 2b", 1, 2)),
    build=_squares,
    overlap_shape=is_square,
    doubly_count=1,
    triple_count=0,
    big_unit=Fraction(1),
    overlap_unit=Fraction(1),
    blank_unit=Fraction(2),
    sides=lambda a, b: (2 * b - a, a - b),
    next_pair=lambda t, s: (t, s),
)

_HEXAGONS = _Figure(
    window=(("a > 2b", 1, 2), ("a < 3b", 1, 3)),
    build=_hexagons,
    overlap_shape=is_unit_rhombus,
    doubly_count=6,
    triple_count=0,
    big_unit=Fraction(3),
    overlap_unit=Fraction(1),
    blank_unit=Fraction(9),
    sides=lambda a, b: (3 * b - a, a - 2 * b),
    next_pair=lambda t, s: (3 * s, t),
)


def _triangle_figure(n: int) -> _Figure:
    def sides(a: Fraction, b: Fraction) -> tuple[Fraction, Fraction]:
        t = (n * b - a) / (n - 1)
        return t, b - 2 * t

    if n % 2 == 0:
        next_pair = lambda t, s: (Fraction(n, 2) * (n - 1) * s, (n - 1) * t)
    else:
        next_pair = lambda t, s: (Fraction(n + 1, 2) * (n - 1) * t, (n - 1) * s / 2)
    return _Figure(
        window=(("2a > (n+1)b", 2, n + 1), ("a < nb", 1, n)),
        build=lambda a, b: _triangle_rows(n, a, b),
        overlap_shape=is_equilateral_triangle,
        doubly_count=3 * (n - 1),
        triple_count=(n - 2) * (n - 1) // 2,
        big_unit=Fraction(1, 2),
        overlap_unit=Fraction(1, 2),
        blank_unit=Fraction(n * (n - 1), 4),
        sides=sides,
        next_pair=next_pair,
    )


# kind -> n -> figure; n is the triangular row count and None otherwise
_FIGURES = {
    FamilyKind.SQRT2: lambda n: _SQUARES,
    FamilyKind.HEX6: lambda n: _HEXAGONS,
    FamilyKind.TRIANGULAR: _triangle_figure,
}


def _figure(family: DescentFamily) -> _Figure:
    return _FIGURES[family.kind](family.n)


@dataclass(frozen=True)
class WindowInequality:
    name: str
    ok: bool


def window_inequalities(family: DescentFamily, a: int, b: int) -> tuple[WindowInequality, ...]:
    """The strict inequalities a pair must satisfy for the family's figure."""
    (low, low_a, low_b), (high, high_a, high_b) = _figure(family).window
    return (
        WindowInequality(low, low_a * a > low_b * b),
        WindowInequality(high, high_a * a < high_b * b),
    )


def _require_window(family: DescentFamily, a: int, b: int) -> None:
    if a < 1 or b < 1:
        raise OutOfWindow("a, b > 0", a, b)
    for ineq in window_inequalities(family, a, b):
        if not ineq.ok:
            raise OutOfWindow(ineq.name, a, b)


def build_arrangement(family: DescentFamily, a: int, b: int) -> Arrangement:
    """The family's figure for the pair; OutOfWindow outside its window."""
    _require_window(family, a, b)
    big, smalls = _figure(family).build(a, b)
    return Arrangement(big=big, smalls=smalls, family=family, a=a, b=b)


@dataclass(frozen=True)
class CoverageCensus:
    """Complete exact accounting of how the smalls cover the big figure.

    All areas are lattice areas.  pair_keys/triple_keys index into smalls;
    regions are aligned with their keys.  Depth is capped at 3 by
    construction (DepthExceeded otherwise).  The distinct and doubly
    covered regions are deduplicated once, on first use.
    """

    big_area: Fraction
    total_small_area: Fraction
    union_area: Fraction
    blank_area: Fraction
    exactly2_area: Fraction
    exactly3_area: Fraction
    pair_keys: tuple[tuple[int, int], ...]
    pair_regions: tuple[LatticePolygon, ...]
    triple_keys: tuple[tuple[int, int, int], ...]
    triple_regions: tuple[LatticePolygon, ...]
    max_depth: int

    @property
    def excess_area(self) -> Fraction:
        return self.total_small_area - self.union_area

    @cached_property
    def distinct_pair_regions(self) -> tuple[LatticePolygon, ...]:
        return tuple(dict.fromkeys(self.pair_regions))

    @cached_property
    def distinct_triple_regions(self) -> tuple[LatticePolygon, ...]:
        return tuple(dict.fromkeys(self.triple_regions))

    @cached_property
    def doubly_covered_regions(self) -> tuple[LatticePolygon, ...]:
        triples = set(self.distinct_triple_regions)
        return tuple(r for r in self.distinct_pair_regions if r not in triples)


def _area_of_bounds(polys: Iterable[LatticePolygon]) -> Fraction:
    """Total lattice area of alcoved polygons, read off their bounds and
    summed in integers over one common denominator."""
    polys = list(polys)
    den = lcm(*(p.den for p in polys))
    return Fraction(sum(_twice_area(*p._bounds) * (den // p.den) ** 2 for p in polys), 2 * den * den)


def coverage_census(arr: Arrangement) -> CoverageCensus:
    """Intersect all smalls pairwise and triple-wise, then apply
    inclusion-exclusion.

    Candidate pairs come from a sweep over the smalls sorted by lower u
    bound, kept when their u and v ranges overlap; they are clipped in
    lexicographic order.  Triples (i, j, m) are clipped for the common
    neighbours m > j of i and j in the overlap graph.  Depth 4 is asserted
    impossible: every candidate quadruple whose sub-triples are all
    present is clipped and must come out empty.
    """
    smalls = arr.smalls
    den = lcm(*(s.den for s in smalls))
    boxes = [tuple(c * (den // s.den) for c in s._bounds[:4]) for s in smalls]
    k = len(smalls)

    order = sorted(range(k), key=lambda i: boxes[i][0])
    candidates = []
    for x, i in enumerate(order):
        _, hu, lv, hv = boxes[i]
        for y in range(x + 1, k):
            j = order[y]
            lu_j, _, lv_j, hv_j = boxes[j]
            if lu_j >= hu:
                break
            if lv < hv_j and lv_j < hv:
                candidates.append((i, j) if i < j else (j, i))
    candidates.sort()

    pairs: dict[tuple[int, int], LatticePolygon] = {}
    above: list[set[int]] = [set() for _ in range(k)]  # j > i overlapping small i
    for i, j in candidates:
        region = convex_intersection(smalls[i], smalls[j])
        if region is not None:
            pairs[(i, j)] = region
            above[i].add(j)

    triples: dict[tuple[int, int, int], LatticePolygon] = {}
    for (i, j), region in pairs.items():
        for m in sorted(above[i] & above[j]):
            deep = convex_intersection(region, smalls[m])
            if deep is not None:
                triples[(i, j, m)] = deep

    for (i, j, m), region in triples.items():
        for w in sorted(above[i] & above[j] & above[m]):
            if (i, j, w) in triples and (i, m, w) in triples and (j, m, w) in triples:
                if convex_intersection(region, smalls[w]) is not None:
                    raise DepthExceeded(f"smalls {i}, {j}, {m}, {w} share interior points")

    big_area = arr.big.lattice_area
    total_small = _area_of_bounds(smalls)
    pair_sum = _area_of_bounds(pairs.values())
    triple_sum = _area_of_bounds(triples.values())
    union = total_small - pair_sum + triple_sum
    blank = big_area - union
    exactly3 = triple_sum
    exactly2 = pair_sum - 3 * triple_sum
    if blank < 0 or exactly2 < 0:
        raise AssertionError(f"negative census area: blank {blank}, exactly2 {exactly2}")
    max_depth = 3 if triples else (2 if pairs else 1)
    return CoverageCensus(
        big_area=big_area,
        total_small_area=total_small,
        union_area=union,
        blank_area=blank,
        exactly2_area=exactly2,
        exactly3_area=exactly3,
        pair_keys=tuple(pairs),
        pair_regions=tuple(pairs.values()),
        triple_keys=tuple(triples),
        triple_regions=tuple(triples.values()),
        max_depth=max_depth,
    )


@dataclass(frozen=True)
class IdentityCheck:
    name: str
    lhs: str
    rhs: str
    passed: bool


@dataclass(frozen=True)
class FigureReport:
    family_label: str
    n: int | None
    a: int
    b: int
    checks: tuple[IdentityCheck, ...]

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.checks)


def _check(name: str, lhs, rhs) -> IdentityCheck:
    return IdentityCheck(name=name, lhs=str(lhs), rhs=str(rhs), passed=lhs == rhs)


def verify_figure(arr: Arrangement, census: CoverageCensus) -> FigureReport:
    """Compare every measured census quantity against its closed form.

    Returns the full check list on success; raises MismatchReport (with
    the same report attached) if anything disagrees.
    """
    fig = _figure(arr.family)
    t, s = fig.sides(Fraction(arr.a), Fraction(arr.b))
    pair_set = set(census.distinct_pair_regions)
    overlaps = census.distinct_pair_regions + tuple(
        r for r in census.distinct_triple_regions if r not in pair_set
    )
    sides_ok = sum(1 for r in overlaps if _sides_are(r, _side_sq(r, t)))
    shape_ok = sum(1 for r in overlaps if fig.overlap_shape(r, t))
    big_n = arr.family.radicand
    balance = -fig.big_unit * (arr.a * arr.a - big_n * arr.b * arr.b)
    exactly2 = fig.overlap_unit * fig.doubly_count * t * t
    exactly3 = fig.overlap_unit * fig.triple_count * t * t

    checks = (
        _check("small_count", len(arr.smalls), big_n),
        _check("doubly_region_count", len(census.doubly_covered_regions), fig.doubly_count),
        _check("triple_region_count", len(census.distinct_triple_regions), fig.triple_count),
        _check("overlap_sides_equal_t", sides_ok, len(overlaps)),
        _check("overlap_shapes", shape_ok, len(overlaps)),
        _check("big_area", census.big_area, fig.big_unit * arr.a * arr.a),
        _check("total_small_area", census.total_small_area, fig.big_unit * big_n * arr.b * arr.b),
        _check("exactly2_area", census.exactly2_area, exactly2),
        _check("exactly3_area", census.exactly3_area, exactly3),
        _check("excess_area", census.excess_area, exactly2 + 2 * exactly3),
        _check("blank_area", census.blank_area, fig.blank_unit * s * s),
        _check("excess_minus_blank", census.excess_area - census.blank_area, balance),
        _check("raw_area_balance", census.total_small_area - census.big_area, balance),
        _check("max_depth", census.max_depth, 3 if fig.triple_count else 2),
    )
    report = FigureReport(
        family_label=arr.family.label, n=arr.family.n, a=arr.a, b=arr.b, checks=checks
    )
    if not report.all_pass:
        raise MismatchReport(report)
    return report


def census_to_descent(arr: Arrangement, census: CoverageCensus) -> tuple[int, int]:
    """Read the next descent pair off the measured figure alone.

    Overlap side t comes from an actual overlap region's edge length and
    blank side s from the exact square root of the blank area; the family
    then fixes how (t, s) scale into the next (a, b).  No algebraic map is
    consulted, so agreement with descent_step is a real cross-check.
    """
    if not census.pair_regions:
        raise ValueError("figure has no overlap regions to measure")
    fig = _figure(arr.family)
    t = polygon_side(census.distinct_pair_regions[0])
    s = fraction_sqrt(census.blank_area / fig.blank_unit)
    a_next, b_next = fig.next_pair(t, s)
    if a_next.denominator != 1 or b_next.denominator != 1:
        raise ValueError(f"measured pair ({a_next}, {b_next}) is not integral")
    return int(a_next), int(b_next)
