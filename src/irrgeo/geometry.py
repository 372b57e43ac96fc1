"""Exact planar reconstruction of the overlap figures.

Polygons live on one of two rational lattices: an orthogonal one for the
square figure and a 60-degree one (axes (1,0) and (1/2, sqrt(3)/2)) for
the hexagon and triangle figures.  Lattice coordinates stay rational, so
intersections, areas, and the full coverage census are exact; converting
a lattice area to a true area only ever multiplies by 1 or sqrt(3)/2 and
is never needed inside an identity.

A polygon is its bounds.  Every polygon the figures draw, and every
overlap of two of them, has edges along (1, 0), (0, 1) and (1, -1) only:
it is an alcoved polygon, exactly the set cut out by its bounds on u, v
and u + v.  LatticePolygon stores those six bounds as integers over one
denominator den, reduced by their common gcd and tight (each is attained),
in a NamedTuple, so tuple equality is equality of point sets.  Validity,
areas, edge lengths, the overlap shapes, containment and intersection are
integer comparisons and differences of the bounds, and so are the census's
area sums, over one denominator, and the figure table's forms; the corners
(ints, over den) are computed on each read, for drawing.  The one
constructor takes the bounds and checks them.  Two polygons intersect by
taking the larger lower and the smaller upper bounds; the census reads the
bounds to find the pairs worth clipping.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, isqrt, lcm
from typing import TYPE_CHECKING, Callable, Iterable, NamedTuple, Optional

from .descent import DescentFamily, FamilyKind
from .number_theory import _square_difference

if TYPE_CHECKING:
    from fractions import Fraction

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


_IntPoint = tuple[int, int]


class _Bounds(NamedTuple):
    """The fields of a LatticePolygon, which builds and reads them."""

    basis: str
    den: int
    lu: int
    hu: int
    lv: int
    hv: int
    lw: int
    hw: int


class LatticePolygon(_Bounds):
    """Alcoved polygon: lu <= u <= hu, lv <= v <= hv and lw <= u + v <= hw,
    every bound an integer over den.

    The bounds are reduced by their gcd with den and tight, so the record
    is canonical and tuple equality is equality of point sets.
    LatticePolygon(basis, den, lu, hu, lv, hv, lw, hw) checks the bounds
    as _alcove does, and copy and pickle rebuild through it.  ints (the
    corners times den) and vertices (the same as (u, v) Fraction pairs)
    run counter-clockwise from the lexicographically smallest corner.
    """

    __slots__ = ()

    def __new__(cls, basis: str, den: int, lu: int, hu: int, lv: int, hv: int, lw: int, hw: int) -> "LatticePolygon":
        return _alcove(basis, den, lu, hu, lv, hv, lw, hw)

    @property
    def ints(self) -> tuple[_IntPoint, ...]:
        _, _, lu, hu, lv, hv, lw, hw = self
        # where each bound line meets the next, from the smallest corner on,
        # consecutive repeats dropped
        corners = ((lu, lw - lu), (lw - lv, lv), (hu, lv), (hu, hw - hu), (hw - hv, hv), (lu, hv))
        return tuple(c for c, after in zip(corners, corners[1:] + corners[:1]) if c != after)

    @property
    def vertices(self) -> tuple[tuple[Fraction, Fraction], ...]:
        """The corners as Fractions; the program draws from ints, and only
        the benchmark's coordinate size count reads these, so only they
        import fractions."""
        from fractions import Fraction

        den = self.den
        return tuple((Fraction(x, den), Fraction(y, den)) for x, y in self.ints)

    def _edges(self) -> tuple[int, int, int, int, int, int]:
        """The u or v extents times den of the six edges, edge i leaving the
        i-th of the six corners ints reads, 0 where that corner repeats.
        Edges 0 and 3 run along (1, -1): as long as their extent on the
        60-degree lattice, sqrt(2) times it on the orthogonal one.  The
        others run along (1, 0) or (0, 1) and are as long as their extent."""
        _, _, lu, hu, lv, hv, lw, hw = self
        return (lw - lu - lv, hu + lv - lw, hw - hu - lv, hu + hv - hw, hw - hv - lu, hv + lu - lw)


def _ratio_str(num: int, den: int) -> str:
    """num/den, den > 0, as str of a Fraction writes it: reduced p/q, or p
    when q = 1."""
    g = gcd(num, den)
    return str(num // g) if g == den else f"{num // g}/{den // g}"


def _rational_sqrt(num: int, den: int) -> tuple[int, int]:
    """(p, q) in lowest terms with (p/q)**2 = num/den, den > 0; ValueError
    if num/den is not the square of a rational, as no negative one is."""
    g = gcd(num, den)
    p, q = isqrt(abs(num) // g), isqrt(den // g)
    if p * p * g != num or q * q * g != den:
        raise ValueError(f"{_ratio_str(num, den)} is not a rational square")
    return p, q


# An equilateral alcoved triangle or quadrilateral on the 60-degree lattice
# has edges in alternate, or in two opposite pairs of, the six directions:
# it is an equilateral triangle or a 60-degree rhombus.  On the orthogonal
# lattice an edge along (1, -1) is sqrt(2) times a rational, never side
# long, so an equilateral quadrilateral there is a square.
def _equilateral_corners(poly: LatticePolygon, t, q: int = 1) -> int:
    """poly's corner count if every edge is t/q long, else 0."""
    e, rest = divmod(t * poly.den, q)
    edges = poly._edges()
    corners = 6 - edges.count(0)
    if rest or not e or edges.count(e) != corners or poly.basis == ORTHOGONAL and (edges[0] or edges[3]):
        return 0
    return corners


def _side(poly: LatticePolygon) -> tuple[int, int]:
    """(e, d) in lowest terms with every edge of poly e/d long; ValueError
    otherwise.  Such a polygon has no sqrt(2) edge, so e/d is an extent."""
    e, den = max(poly._edges()), poly.den
    if not _equilateral_corners(poly, e, den):
        raise ValueError("the edges have unequal lengths")
    g = gcd(e, den)
    return e // g, den // g


def _alcove(basis: str, den: int, lu: int, hu: int, lv: int, hv: int, lw: int, hw: int) -> LatticePolygon:
    """The alcoved polygon lu <= u <= hu, lv <= v <= hv, lw <= u + v <= hw,
    all over den, reduced by the gcd; ValueError unless every bound is
    attained and every extent positive."""
    if basis not in (ORTHOGONAL, TRIANGULAR):
        raise ValueError(f"unknown basis {basis!r}")
    if not (lu < hu and lv < hv and lw < hw):
        raise ValueError("the polygon has no area")
    if not (
        lu + lv <= lw and hw <= hu + hv
        and lw - hv <= lu and hu <= hw - lv
        and lw - hu <= lv and hv <= hw - lu
    ):
        raise ValueError("a bound on u, v or u + v is not attained")
    g = gcd(den, lu, hu, lv, hv, lw, hw)
    if g != 1:
        den, lu, hu, lv, hv, lw, hw = den // g, lu // g, hu // g, lv // g, hv // g, lw // g, hw // g
    # LatticePolygon._make without its field count check: eight are given
    return tuple.__new__(LatticePolygon, (basis, den, lu, hu, lv, hv, lw, hw))


def convex_intersection(p: LatticePolygon, q: LatticePolygon) -> Optional[LatticePolygon]:
    """Exact intersection of two alcoved polygons; None if its area is zero.

    Both bound vectors are scaled to the least common multiple of the
    denominators when they differ, each lower bound raised and each upper
    bound lowered to the other polygon's, all by integer comparisons.
    """
    if p.basis != q.basis:
        raise BasisMismatch(f"{p.basis} vs {q.basis}")
    basis, den, lu, hu, lv, hv, lw, hw = p
    _, qden, qlu, qhu, qlv, qhv, qlw, qhw = q
    if qden != den:
        common = lcm(den, qden)
        k = common // den
        lu, hu, lv, hv, lw, hw = lu * k, hu * k, lv * k, hv * k, lw * k, hw * k
        k = common // qden
        qlu, qhu, qlv, qhv, qlw, qhw = qlu * k, qhu * k, qlv * k, qhv * k, qlw * k, qhw * k
        den = common
    lu = qlu if qlu > lu else lu
    hu = qhu if qhu < hu else hu
    lv = qlv if qlv > lv else lv
    hv = qhv if qhv < hv else hv
    lw = qlw if qlw > lw else lw
    hw = qhw if qhw < hw else hw
    # three difference constraints: each tight bound is the direct one or
    # the path through the third, every path read before any bound moves
    tlu, thu, tlv, thv, tlw, thw = lw - hv, hw - lv, lw - hu, hw - lu, lu + lv, hu + hv
    lu = tlu if tlu > lu else lu
    hu = thu if thu < hu else hu
    lv = tlv if tlv > lv else lv
    hv = thv if thv < hv else hv
    lw = tlw if tlw > lw else lw
    hw = thw if thw < hw else hw
    if not (lu < hu and lv < hv and lw < hw):
        return None
    return _alcove(basis, den, lu, hu, lv, hv, lw, hw)


class _ArrangementFields(NamedTuple):
    big: LatticePolygon
    smalls: tuple[LatticePolygon, ...]
    family: DescentFamily
    a: int
    b: int


class Arrangement(_ArrangementFields):
    """One big figure with its family of small copies placed inside it.

    Every polygon is alcoved, so containment is six bound comparisons;
    the constructor makes them for every small, _make and _replace do not.
    """

    __slots__ = ()

    def __new__(cls, big: LatticePolygon, smalls: tuple, family: DescentFamily, a: int, b: int) -> "Arrangement":
        _, _, lu, hu, lv, hv, lw, hw = big
        for i, s in enumerate(smalls):
            if s.basis != big.basis:
                raise BasisMismatch(f"small {i} on {s.basis}, big on {big.basis}")
            k, m = s.den, big.den  # compare s's bounds times m with big's times k
            if not (
                lu * k <= s.lu * m and s.hu * m <= hu * k
                and lv * k <= s.lv * m and s.hv * m <= hv * k
                and lw * k <= s.lw * m and s.hw * m <= hw * k
            ):
                raise ValueError(f"small {i} is not inside the big figure")
        return tuple.__new__(cls, (big, smalls, family, a, b))


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


class _Figure(NamedTuple):
    """What one family's figure fixes beyond its radicand N, in integers.

    window names the inequalities s > 0 and t > 0, in that order, as
    reports print them.  overlap_shape is every overlap's basis and corner
    count: with all sides equal, a square, a 60-degree rhombus or an
    equilateral triangle.  sides gives the overlap side t and the blank
    side s from (a, b), and next_pair the smaller pair from q*(t, s)
    without the descent map's forms, each as ((c, d), (e, f), q) for
    (c*x + d*y, e*x + f*y)/q.  Lattice areas per side squared, over
    unit_den: big_unit for the big figure and each small, overlap_unit for
    one overlap, blank_unit for the whole blank: the big figure has area
    big_unit*a**2/unit_den and the N smalls big_unit*N*b**2/unit_den.
    """

    window: tuple[str, str]
    build: Callable[[int, int], _Shapes]
    overlap_shape: tuple[str, int]
    doubly_count: int
    triple_count: int
    unit_den: int
    big_unit: int
    overlap_unit: int
    blank_unit: int
    sides: tuple[tuple[int, int], tuple[int, int], int]
    next_pair: tuple[tuple[int, int], tuple[int, int], int]


_SQUARES = _Figure(
    window=("a > b", "a < 2b"),
    build=_squares,
    overlap_shape=(ORTHOGONAL, 4),
    doubly_count=1,
    triple_count=0,
    unit_den=1,
    big_unit=1,
    overlap_unit=1,
    blank_unit=2,
    sides=((-1, 2), (1, -1), 1),  # t = 2b - a, s = a - b
    next_pair=((1, 0), (0, 1), 1),  # (t, s)
)

_HEXAGONS = _Figure(
    window=("a > 2b", "a < 3b"),
    build=_hexagons,
    overlap_shape=(TRIANGULAR, 4),
    doubly_count=6,
    triple_count=0,
    unit_den=1,
    big_unit=3,
    overlap_unit=1,
    blank_unit=9,
    sides=((-1, 3), (1, -2), 1),  # t = 3b - a, s = a - 2b
    next_pair=((0, 3), (1, 0), 1),  # (3s, t)
)


@lru_cache(maxsize=128)
def _triangle_figure(n: int) -> _Figure:
    return _Figure(
        window=("2a > (n+1)b", "a < nb"),
        build=lambda a, b: _triangle_rows(n, a, b),
        overlap_shape=(TRIANGULAR, 3),
        doubly_count=3 * (n - 1),
        triple_count=(n - 2) * (n - 1) // 2,
        unit_den=4,
        big_unit=2,
        overlap_unit=2,
        blank_unit=n * (n - 1),
        # t = (nb - a)/(n - 1), s = b - 2t = (2a - (n+1)b)/(n - 1)
        sides=((-1, n), (2, -(n + 1)), n - 1),
        # (n(n-1)s/2, (n-1)t) for even n, ((n+1)(n-1)t/2, (n-1)s/2) for odd n
        next_pair=((0, n // 2), (1, 0), 1) if n % 2 == 0 else ((n + 1, 0), (0, 1), 2),
    )


# kind -> n -> figure; n is the triangular row count and None otherwise
_FIGURES = {
    FamilyKind.SQRT2: lambda n: _SQUARES,
    FamilyKind.HEX6: lambda n: _HEXAGONS,
    FamilyKind.TRIANGULAR: _triangle_figure,
}


def _figure(family: DescentFamily) -> _Figure:
    return _FIGURES[family.kind](family.n)


def _balance(fig: _Figure) -> tuple[int, int, int]:
    """(a**2, a*b, b**2) of unit_den*q**2 times the excess less the blank, with
    (T, S) q times the sides; the areas balance when it is -big_unit*q**2*(1, 0, -N)."""
    (ta, tb), (sa, sb), _ = fig.sides
    excess = fig.overlap_unit * (fig.doubly_count + 2 * fig.triple_count)
    return _square_difference(excess, ta, tb, fig.blank_unit, sa, sb)


class WindowInequality(NamedTuple):
    name: str
    ok: bool


def window_inequalities(family: DescentFamily, a: int, b: int) -> tuple[WindowInequality, ...]:
    """The strict inequalities a pair must satisfy for the family's figure:
    the blank side s and then the overlap side t must be positive."""
    fig = _figure(family)
    (ta, tb), (sa, sb), _ = fig.sides
    return tuple(map(WindowInequality, fig.window, (sa * a + sb * b > 0, ta * a + tb * b > 0)))


def build_arrangement(family: DescentFamily, a: int, b: int) -> Arrangement:
    """The family's figure for the pair; OutOfWindow outside its window."""
    if a < 1 or b < 1:
        raise OutOfWindow("a, b > 0", a, b)
    for ineq in window_inequalities(family, a, b):
        if not ineq.ok:
            raise OutOfWindow(ineq.name, a, b)
    big, smalls = _figure(family).build(a, b)
    return Arrangement(big=big, smalls=smalls, family=family, a=a, b=b)


class CoverageCensus(NamedTuple):
    """Complete exact accounting of how the smalls cover the big figure.

    Each *_area is a lattice area times area_den, an integer: the areas
    are summed in integers over the one denominator area_den = 2*den**2.
    The pair and triple regions run in the order of their smalls' index
    pairs and triples.  Depth is capped at 3 by construction
    (DepthExceeded otherwise).  coverage_census dedups the regions once, in
    first-seen order; doubly_region_count counts the distinct pair regions
    that are no triple region.
    """

    big_area: int
    total_small_area: int
    union_area: int
    blank_area: int
    excess_area: int
    exactly2_area: int
    exactly3_area: int
    area_den: int
    pair_regions: tuple[LatticePolygon, ...]
    triple_regions: tuple[LatticePolygon, ...]
    max_depth: int
    distinct_pair_regions: tuple[LatticePolygon, ...]
    distinct_triple_regions: tuple[LatticePolygon, ...]
    doubly_region_count: int


def _twice_area(polys: Iterable[LatticePolygon], den: int) -> int:
    """Twice the total lattice area of alcoved polygons times den**2, read
    off their bounds; den is a multiple of every polygon's denominator.

    Twice a polygon's area times its own d**2 is its u, v box less the two
    corners that u + v cuts off:
    2(hu - lu)(hv - lv) - (lw - lu - lv)**2 - (hu + hv - hw)**2.
    So it depends only on d, the u and v extents and the legs of those two
    corners; it is computed once per distinct shape, times the number of
    polygons of that shape (a figure of many polygons has few shapes, and
    at large pairs each product is of thousands of bits).
    """
    shapes: dict[tuple[int, ...], int] = {}
    for _, d, lu, hu, lv, hv, lw, hw in polys:
        shape = (d, hu - lu, hv - lv, lw - lu - lv, hu + hv - hw)
        shapes[shape] = shapes.get(shape, 0) + 1
    return sum(
        count * (2 * eu * ev - low * low - high * high) * (den // d) ** 2
        for (d, eu, ev, low, high), count in shapes.items()
    )


def coverage_census(arr: Arrangement) -> CoverageCensus:
    """Intersect all smalls pairwise and triple-wise, then apply
    inclusion-exclusion.

    Candidate pairs come from a sweep over the smalls sorted by lower u
    bound, kept when their u, v and u + v ranges all overlap (two smalls
    whose ranges on one of the three meet in at most a point share no
    area); they are clipped in lexicographic order.  Triples (i, j, m) are
    clipped for the common neighbours m > j of i and j in the overlap
    graph.  Depth 4 is asserted impossible: every candidate quadruple whose
    sub-triples are all present is clipped and must come out empty.
    """
    smalls = arr.smalls
    den = lcm(*(s.den for s in smalls))
    boxes = []
    for _, d, lu, hu, lv, hv, lw, hw in smalls:
        scale = den // d
        boxes.append((lu * scale, hu * scale, lv * scale, hv * scale, lw * scale, hw * scale))
    k = len(smalls)

    order = sorted(range(k), key=lambda i: boxes[i][0])
    candidates = []
    for x, i in enumerate(order):
        _, hu, lv, hv, lw, hw = boxes[i]
        for j in order[x + 1:]:
            lu_j, _, lv_j, hv_j, lw_j, hw_j = boxes[j]
            if lu_j >= hu:
                break
            if lv < hv_j and lv_j < hv and lw < hw_j and lw_j < hw:
                candidates.append((i, j) if i < j else (j, i))
    candidates.sort()

    # above[i] holds the smalls j > i whose overlap with i has area, in
    # increasing order: a dict as an ordered set
    pairs: dict[tuple[int, int], LatticePolygon] = {}
    above: list[dict[int, None]] = [{} for _ in range(k)]
    for i, j in candidates:
        region = convex_intersection(smalls[i], smalls[j])
        if region is not None:
            pairs[(i, j)] = region
            above[i][j] = None

    triples: dict[tuple[int, int, int], LatticePolygon] = {}
    for (i, j), region in pairs.items():
        near = above[i]
        for m in above[j]:
            if m in near:
                deep = convex_intersection(region, smalls[m])
                if deep is not None:
                    triples[(i, j, m)] = deep

    for (i, j, m), region in triples.items():
        # (i, j, w) in triples puts w in above[i] and above[j] too
        for w in above[m]:
            if (i, j, w) in triples and (i, m, w) in triples and (j, m, w) in triples:
                if convex_intersection(region, smalls[w]) is not None:
                    raise DepthExceeded(f"smalls {i}, {j}, {m}, {w} share interior points")

    # every area over 2*den**2, as a pair's or triple's den divides its smalls' lcm
    den = lcm(arr.big.den, den)
    parts = (arr.big,), smalls, pairs.values(), triples.values()
    big, small, pair, triple = (_twice_area(polys, den) for polys in parts)
    union = small - pair + triple
    blank = big - union
    exactly2 = pair - 3 * triple
    area_den = 2 * den * den
    if blank < 0 or exactly2 < 0:
        raise AssertionError(f"negative census area over {area_den}: blank {blank}, exactly2 {exactly2}")
    max_depth = 3 if triples else (2 if pairs else 1)
    distinct_pairs = tuple(dict.fromkeys(pairs.values()))
    distinct_triples = dict.fromkeys(triples.values())  # an ordered set
    return CoverageCensus(
        big_area=big,
        total_small_area=small,
        union_area=union,
        blank_area=blank,
        excess_area=small - union,
        exactly2_area=exactly2,
        exactly3_area=triple,
        area_den=area_den,
        pair_regions=tuple(pairs.values()),
        triple_regions=tuple(triples.values()),
        max_depth=max_depth,
        distinct_pair_regions=distinct_pairs,
        distinct_triple_regions=tuple(distinct_triples),
        doubly_region_count=sum(1 for r in distinct_pairs if r not in distinct_triples),
    )


class IdentityCheck(NamedTuple):
    name: str
    lhs: str
    rhs: str
    passed: bool


def _check(name: str, lhs: int, rhs: int) -> IdentityCheck:
    return IdentityCheck(name=name, lhs=str(lhs), rhs=str(rhs), passed=lhs == rhs)


def _area_check(name: str, p: int, q: int, num: int, den: int) -> IdentityCheck:
    """p/q, a census area or the difference of two over area_den, against
    num/den, q and den > 0, by one integer cross-product."""
    return IdentityCheck(name, _ratio_str(p, q), _ratio_str(num, den), p * den == num * q)


def verify_figure(arr: Arrangement, census: CoverageCensus) -> tuple[IdentityCheck, ...]:
    """Compare every measured census quantity against its closed form,
    evaluated in integers and compared by integer cross-products.

    Returns every check, passed or failed; the figure verifies when all pass.
    """
    fig = _figure(arr.family)
    a, b, big_n = arr.a, arr.b, arr.family.radicand
    (ta, tb), (sa, sb), q = fig.sides
    t, s = ta * a + tb * b, sa * a + sb * b  # q times the sides
    pair_set = set(census.distinct_pair_regions)
    overlaps = census.distinct_pair_regions + tuple(
        r for r in census.distinct_triple_regions if r not in pair_set
    )
    corners = [_equilateral_corners(r, t, q) for r in overlaps]
    sides_ok = sum(1 for c in corners if c)
    basis, count = fig.overlap_shape
    shape_ok = sum(1 for r, c in zip(overlaps, corners) if c == count and r.basis == basis)
    unit, sides_den, area_den = fig.unit_den, fig.unit_den * q * q, census.area_den
    balance = -fig.big_unit * (a * a - big_n * b * b)  # over unit
    exactly2 = fig.overlap_unit * fig.doubly_count * t * t
    exactly3 = fig.overlap_unit * fig.triple_count * t * t
    return (
        _check("small_count", len(arr.smalls), big_n),
        _check("doubly_region_count", census.doubly_region_count, fig.doubly_count),
        _check("triple_region_count", len(census.distinct_triple_regions), fig.triple_count),
        _check("overlap_sides_equal_t", sides_ok, len(overlaps)),
        _check("overlap_shapes", shape_ok, len(overlaps)),
        _area_check("big_area", census.big_area, area_den, fig.big_unit * a * a, unit),
        _area_check("total_small_area", census.total_small_area, area_den, fig.big_unit * big_n * b * b, unit),
        _area_check("exactly2_area", census.exactly2_area, area_den, exactly2, sides_den),
        _area_check("exactly3_area", census.exactly3_area, area_den, exactly3, sides_den),
        _area_check("excess_area", census.excess_area, area_den, exactly2 + 2 * exactly3, sides_den),
        _area_check("blank_area", census.blank_area, area_den, fig.blank_unit * s * s, sides_den),
        _area_check("excess_minus_blank", census.excess_area - census.blank_area, area_den, balance, unit),
        _area_check("raw_area_balance", census.total_small_area - census.big_area, area_den, balance, unit),
        _check("max_depth", census.max_depth, 3 if fig.triple_count else 2),
    )


def census_to_descent(arr: Arrangement, census: CoverageCensus) -> tuple[int, int]:
    """Read the next descent pair off the measured figure alone.

    Overlap side t comes from an actual overlap region's edge length and
    blank side s from the exact square root of the blank area, in integers;
    the figure table then fixes how (q*t, q*s) give the next (a, b).  No
    algebraic map is consulted, so agreement with descent_step is a real check.
    """
    if not census.distinct_pair_regions:
        raise ValueError("figure has no overlap regions to measure")
    fig = _figure(arr.family)
    e, e_den = _side(census.distinct_pair_regions[0])  # t = e/e_den
    r, r_den = _rational_sqrt(census.blank_area * fig.unit_den, census.area_den * fig.blank_unit)  # s
    (ta, sa), (tb, sb), d = fig.next_pair
    # q*t and q*s over e_den*r_den, and the pair over d times that
    q = fig.sides[2]
    t, s, den = q * e * r_den, q * r * e_den, d * e_den * r_den
    a_next, b_next = ta * t + sa * s, tb * t + sb * s
    if a_next % den or b_next % den:
        raise ValueError(f"measured pair ({_ratio_str(a_next, den)}, {_ratio_str(b_next, den)}) is not integral")
    return a_next // den, b_next // den
