import copy
import functools
import itertools
import pickle
import random
import re
from fractions import Fraction
from math import isqrt, lcm

import pytest

import irrgeo.geometry as geometry
from _lattice import LatticePoint, corner_points, corner_polygon
from conftest import all_figure_families, area, eq1_holds, window_convergents
from irrgeo.descent import BadIndex, DescentFamily, FamilyKind, descent_step
from irrgeo.geometry import (
    Arrangement,
    BasisMismatch,
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
    _alcove,
    _equilateral_corners,
    _figure,
    _rational_sqrt,
    _side,
    _twice_area,
)
from irrgeo.number_theory import SquareRadicand


def square(x0, y0, side, basis=ORTHOGONAL) -> LatticePolygon:
    x0, y0, side = Fraction(x0), Fraction(y0), Fraction(side)
    return corner_polygon(
        (
            LatticePoint(x0, y0),
            LatticePoint(x0 + side, y0),
            LatticePoint(x0 + side, y0 + side),
            LatticePoint(x0, y0 + side),
        ),
        basis,
    )


def tri(x0, y0, side) -> LatticePolygon:
    x0, y0, side = Fraction(x0), Fraction(y0), Fraction(side)
    return corner_polygon(
        (
            LatticePoint(x0, y0),
            LatticePoint(x0 + side, y0),
            LatticePoint(x0, y0 + side),
        ),
        TRIANGULAR,
    )


def area_of(poly: LatticePolygon) -> Fraction:
    """poly's lattice area, from twice it over den**2."""
    return Fraction(_twice_area((poly,), poly.den), 2 * poly.den**2)


def side_of(poly: LatticePolygon) -> Fraction:
    """The common edge length of an equilateral poly; ValueError otherwise."""
    return Fraction(*_side(poly))


def test_calibration_unit_shapes():
    assert area_of(tri(0, 0, 1)) == Fraction(1, 2)
    assert area_of(tri(0, 0, 5)) == Fraction(25, 2)
    hexagon = build_arrangement(DescentFamily(FamilyKind.HEX6), 5, 2).smalls[0]
    assert area_of(hexagon) == 3 * 4  # side 2 hexagon
    assert area_of(square(0, 0, 3)) == 9
    assert side_of(tri(0, 0, 5)) == 5
    assert side_of(square(1, 2, 7)) == 7


def _sq_length(basis: str, du, dv):
    """Squared Euclidean length of the lattice vector (du, dv)."""
    if basis == ORTHOGONAL:
        return du * du + dv * dv
    return du * du + du * dv + dv * dv


def _edge_sqs(poly: LatticePolygon) -> list[int]:
    """poly's squared edge lengths times den**2 from its six extents: edges
    0 and 3 run along (1, -1), sqrt(2) times their extent on the orthogonal
    lattice (k = 2) and as long as it on the 60-degree one; a zero extent
    is a repeated corner, not an edge."""
    return [
        (2 if i % 3 == 0 and poly.basis == ORTHOGONAL else 1) * e * e
        for i, e in enumerate(poly._edges())
        if e
    ]


def test_edge_metric():
    p0 = LatticePoint(Fraction(0), Fraction(0))
    for basis, u, v, expected in (
        (TRIANGULAR, 1, 0, 1),
        (TRIANGULAR, 0, 1, 1),
        (TRIANGULAR, 1, -1, 1),
        (TRIANGULAR, 1, 1, 3),
        (ORTHOGONAL, 3, 4, 25),
    ):
        assert _sq_length(basis, u, v) == expected
        assert _ref_edge_sq(basis, p0, LatticePoint(Fraction(u), Fraction(v))) == expected
    # the edges read off the bounds, along all three directions on both
    # lattices: (1, -1) is sqrt(2) long on the orthogonal one
    for basis in (ORTHOGONAL, TRIANGULAR):
        for corners in (
            [(0, 0), (3, 0), (0, 3)],
            [(3, 0), (3, 3), (0, 3)],
            [(0, 0), (4, 0), (4, 1), (1, 4), (0, 4)],
            [(2, 0), (2, 2), (0, 4), (0, 2)],
        ):
            poly = corner_polygon(corners, basis)
            pts = poly.ints
            assert _edge_sqs(poly) == [
                _sq_length(basis, x1 - x0, y1 - y0) for (x0, y0), (x1, y1) in zip(pts, pts[1:] + pts[:1])
            ]


_TWICE_WOUND_HEXAGON = [(1, 0), (-1, 1), (0, -1), (0, 1), (-1, 0), (1, -1)]


def test_polygon_validation():
    with pytest.raises(ValueError):
        corner_polygon((LatticePoint(Fraction(0), Fraction(0)),), ORTHOGONAL)
    with pytest.raises(ValueError):  # collinear
        corner_polygon(
            (
                LatticePoint(Fraction(0), Fraction(0)),
                LatticePoint(Fraction(1), Fraction(0)),
                LatticePoint(Fraction(2), Fraction(0)),
            ),
            ORTHOGONAL,
        )
    with pytest.raises(ValueError):  # clockwise
        corner_polygon(
            (
                LatticePoint(Fraction(0), Fraction(0)),
                LatticePoint(Fraction(0), Fraction(1)),
                LatticePoint(Fraction(1), Fraction(0)),
            ),
            ORTHOGONAL,
        )
    with pytest.raises(ValueError):
        corner_polygon(tri(0, 0, 1).vertices, "polar")
    with pytest.raises(ValueError):
        corner_polygon(tri(0, 0, 1).vertices[:2], TRIANGULAR)
    # alternate corners of a hexagon: every turn is left, but the list
    # winds twice (its shoelace area would be 5/2); its bounds are those of
    # the hexagon, whose corners it lists in another order
    with pytest.raises(ValueError, match="corners of their bounds"):
        corner_polygon(_TWICE_WOUND_HEXAGON, TRIANGULAR)
    assert not _ref_is_convex([LatticePoint(Fraction(u), Fraction(v)) for u, v in _TWICE_WOUND_HEXAGON])
    # the same refusals over a denominator, where the bounds are reduced
    for den in (1, 6):
        for ints in (
            [(0, 0)],
            [(0, 0), (2, 0)],
            [(0, 0), (2, 0), (4, 0)],  # collinear
            [(0, 0), (0, 2), (2, 0)],  # clockwise
            [(0, 0), (2, 0), (2, 0), (0, 2)],  # repeated vertex
            [(0, 0), (2, 0), (2, 2), (4, 2), (0, 2)],  # reflex vertex
            [(0, 0), (4, 2), (2, 4)],  # edges off (1, 0), (0, 1) and (1, -1)
            _TWICE_WOUND_HEXAGON,
        ):
            for basis in (ORTHOGONAL, TRIANGULAR):
                with pytest.raises(ValueError):
                    corner_polygon([(Fraction(x, den), Fraction(y, den)) for x, y in ints], basis)
        with pytest.raises(ValueError, match="unknown basis"):
            corner_polygon([(0, 0), (Fraction(2, den), 0), (0, Fraction(2, den))], "polar")
    # the bounds constructor, public and as the builders call it: each case
    # breaks one inequality of the unit hexagon -1 <= u, v, u + v <= 1, so
    # each inequality is checked
    hexagon = [-1, 1, -1, 1, -1, 1]
    for build in (LatticePolygon, _alcove):
        assert build(TRIANGULAR, 6, *(6 * c for c in hexagon)) == _alcove(TRIANGULAR, 1, *hexagon)
        for i, c in ((4, -3), (5, 3), (0, -3), (1, 3), (2, -3), (3, 3)):
            bounds = hexagon[:i] + [c] + hexagon[i + 1 :]
            with pytest.raises(ValueError, match="not attained"):
                build(TRIANGULAR, 1, *bounds)
        for i in range(0, 6, 2):  # an extent of zero
            bounds = hexagon[:i] + [hexagon[i + 1]] + hexagon[i + 1 :]
            with pytest.raises(ValueError, match="no area"):
                build(TRIANGULAR, 1, *bounds)
        with pytest.raises(ValueError, match="unknown basis"):
            build("polar", 1, *hexagon)


def test_polygon_canonical_rotation():
    a = square(0, 0, 2)
    rotated = corner_polygon(a.vertices[2:] + a.vertices[:2], ORTHOGONAL)
    assert a == rotated
    assert a.vertices[0] == LatticePoint(Fraction(0), Fraction(0))


def test_intersection_squares():
    a = square(0, 0, 2)
    b = square(1, 1, 2)
    r = convex_intersection(a, b)
    assert r == square(1, 1, 1)
    assert convex_intersection(a, a) == a
    # edge contact and corner contact have zero area
    assert convex_intersection(a, square(2, 0, 2)) is None
    assert convex_intersection(a, square(2, 2, 2)) is None
    assert convex_intersection(a, square(5, 5, 1)) is None
    # nested
    inner = square(Fraction(1, 2), Fraction(1, 2), 1)
    assert convex_intersection(a, inner) == inner


def test_intersection_triangles():
    a = tri(0, 0, 4)
    b = tri(2, 0, 4)
    r = convex_intersection(a, b)
    assert r == tri(2, 0, 2)
    c = tri(0, 3, 4)
    r = convex_intersection(a, c)
    assert r == tri(0, 3, 1)


def test_intersection_hand_cases():
    cases = (
        # the larger lower bounds alone give u + v >= 0, but no point with
        # u >= 1 and v >= 0 lies below u + v = 1
        (tri(0, 0, 4), square(1, -1, 2, TRIANGULAR), ((1, 0), (3, 0), (3, 1), (1, 1))),
        # u + v <= 3 cuts the square's corner (2, 2) off: a pentagon
        (square(0, 0, 2, TRIANGULAR), tri(0, 0, 3), ((0, 0), (2, 0), (2, 1), (1, 2), (0, 2))),
    )
    for p, q, corners in cases:
        want = tuple(LatticePoint(Fraction(u), Fraction(v)) for u, v in corners)
        assert convex_intersection(p, q).vertices == want
        assert convex_intersection(q, p).vertices == want


def test_intersection_basis_mismatch():
    with pytest.raises(BasisMismatch):
        convex_intersection(square(0, 0, 1), tri(0, 0, 1))


def _random_convex(rng: random.Random, basis: str) -> LatticePolygon:
    kind = rng.choice(("square", "tri", "hexlike"))
    x = Fraction(rng.randint(-8, 8), rng.randint(1, 4))
    y = Fraction(rng.randint(-8, 8), rng.randint(1, 4))
    side = Fraction(rng.randint(1, 12), rng.randint(1, 3))
    if basis == ORTHOGONAL or kind == "square":
        return square(x, y, side, basis)
    if kind == "tri":
        return corner_polygon(
            (
                LatticePoint(x, y),
                LatticePoint(x + side, y),
                LatticePoint(x, y + side),
            ),
            basis,
        )
    pts = tuple(
        LatticePoint(x + side * du, y + side * dv)
        for du, dv in ((1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1))
    )
    return corner_polygon(pts, basis)


def test_intersection_commutative_and_monotone():
    rng = random.Random(17)
    for _ in range(150):
        basis = rng.choice((ORTHOGONAL, TRIANGULAR))
        a = _random_convex(rng, basis)
        b = _random_convex(rng, basis)
        r1 = convex_intersection(a, b)
        r2 = convex_intersection(b, a)
        assert r1 == r2
        if r1 is not None:
            for c in corner_points(r1):
                assert _ref_contains_point(corner_points(a), c) and _ref_contains_point(corner_points(b), c)
            assert area_of(r1) <= min(area_of(a), area_of(b))
            assert convex_intersection(r1, a) == r1
            assert convex_intersection(r1, b) == r1


# Reference clipper: general Sutherland-Hodgman and its tidy-up done
# directly on Fractions, as convex_intersection did before it intersected
# bounds on u, v and u + v.


def _ref_cross(ox, oy, ax, ay):
    return ox * ay - oy * ax


def _ref_tidy(points, basis):
    pts = []
    for p in points:
        if not pts or p != pts[-1]:
            pts.append(p)
    if len(pts) > 1 and pts[0] == pts[-1]:
        pts.pop()
    if len(pts) < 3:
        return None
    area2 = sum(
        (p.u * q.v - q.u * p.v for p, q in zip(pts, pts[1:] + pts[:1])), Fraction(0)
    )
    if area2 <= 0:
        return None
    changed = True
    while changed and len(pts) >= 3:
        changed = False
        for i in range(len(pts)):
            p0, p1, p2 = pts[i - 1], pts[i], pts[(i + 1) % len(pts)]
            if _ref_cross(p1.u - p0.u, p1.v - p0.v, p2.u - p1.u, p2.v - p1.v) == 0:
                pts.pop(i)
                changed = True
                break
    if len(pts) < 3:
        return None
    return corner_polygon(tuple(pts), basis)


def _ref_intersection(p, q):
    pts = list(corner_points(p))
    corners = corner_points(q)
    for a0, a1 in zip(corners, corners[1:] + corners[:1]):
        if not pts:
            break
        eu, ev = a1.u - a0.u, a1.v - a0.v
        sides = [_ref_cross(eu, ev, c.u - a0.u, c.v - a0.v) for c in pts]
        new = []
        for i in range(len(pts)):
            cur, s_cur = pts[i], sides[i]
            prev, s_prev = pts[i - 1], sides[i - 1]
            if (s_cur >= 0) != (s_prev >= 0):
                t = -s_prev / (s_cur - s_prev)
                new.append(
                    LatticePoint(prev.u + t * (cur.u - prev.u), prev.v + t * (cur.v - prev.v))
                )
            if s_cur >= 0:
                new.append(cur)
        pts = new
    return _ref_tidy(pts, p.basis)


def _oracle_frac(rng: random.Random, bits: int) -> Fraction:
    """A rational of size about 1 with numerator and denominator of up to bits bits."""
    den = rng.randrange(1, 2**bits + 1)
    return Fraction(rng.randrange(-2 * den, 2 * den + 1), den)


def _hull(points) -> tuple[LatticePoint, ...]:
    """Strictly convex counter-clockwise hull (monotone chain)."""
    pts = sorted(set(points))
    if len(pts) < 3:
        return tuple(pts)
    chain = []
    for seq in (pts, pts[::-1]):
        half = []
        for p in seq:
            while len(half) >= 2 and _ref_cross(
                half[-1].u - half[-2].u, half[-1].v - half[-2].v,
                p.u - half[-1].u, p.v - half[-1].v,
            ) <= 0:
                half.pop()
            half.append(p)
        chain += half[:-1]
    return tuple(chain)


def _oracle_hull(rng: random.Random, bits: int) -> tuple[LatticePoint, ...]:
    """The hull of three to nine random points: a strictly convex
    counter-clockwise list, with edges in any direction."""
    while True:
        pts = _hull(
            LatticePoint(_oracle_frac(rng, bits), _oracle_frac(rng, bits))
            for _ in range(rng.randint(3, 9))
        )
        if len(pts) >= 3:
            return pts


def _oracle_polygon(rng: random.Random, basis: str, bits: int) -> LatticePolygon:
    """A square, triangle or hexagon at a random place."""
    kind = rng.choice(("square", "triangle", "hexagon"))
    x, y = _oracle_frac(rng, bits), _oracle_frac(rng, bits)
    side = abs(_oracle_frac(rng, bits)) + Fraction(1, 2**bits)
    if kind == "square":
        return square(x, y, side, basis)
    if kind == "triangle":
        corners = ((0, 0), (1, 0), (0, 1))
    else:
        corners = ((1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1))
    return corner_polygon(
        tuple(LatticePoint(x + side * du, y + side * dv) for du, dv in corners), basis
    )


def _point_reflection(poly: LatticePolygon, cu: Fraction, cv: Fraction) -> LatticePolygon:
    return corner_polygon(
        tuple(LatticePoint(2 * cu - p.u, 2 * cv - p.v) for p in corner_points(poly)), poly.basis
    )


def _shift(corners, du, dv) -> tuple[LatticePoint, ...]:
    return tuple(LatticePoint(p.u + du, p.v + dv) for p in corners)


def _oracle_partner(rng: random.Random, p: LatticePolygon, bits: int) -> tuple[str, LatticePolygon]:
    """A second polygon in one of the relations the intersection must get
    right."""
    relation = rng.choice(
        ("overlap", "overlap", "identical", "disjoint", "nested", "shared_edge", "vertex_contact")
    )
    v = corner_points(p)
    i = rng.randrange(len(v))
    if relation == "identical":
        return relation, corner_polygon(v[i:] + v[:i], p.basis)
    if relation == "disjoint":
        u0, u1, _, _ = _ref_bbox(v)
        du, dv = u1 - u0 + abs(_oracle_frac(rng, bits)), _oracle_frac(rng, bits)
        return relation, corner_polygon(_shift(v, du, dv), p.basis)
    if relation == "nested":
        cu = sum((q.u for q in v), Fraction(0)) / len(v)
        cv = sum((q.v for q in v), Fraction(0)) / len(v)
        r = Fraction(rng.randrange(1, 2**bits), 2**bits + rng.randrange(1, 2**bits))
        return relation, corner_polygon(
            tuple(LatticePoint(cu + r * (q.u - cu), cv + r * (q.v - cv)) for q in v), p.basis
        )
    if relation == "shared_edge":
        a, b = v[i], v[(i + 1) % len(v)]
        return relation, _point_reflection(p, (a.u + b.u) / 2, (a.v + b.v) / 2)
    if relation == "vertex_contact":
        return relation, _point_reflection(p, v[i].u, v[i].v)
    return relation, _oracle_polygon(rng, p.basis, rng.choice((2, 8, 64, 200)))


def test_intersection_matches_fraction_reference_on_2000_pairs():
    rng = random.Random(20240601)
    hits: dict[str, int] = {}
    misses: dict[str, int] = {}
    for _ in range(2000):
        basis = rng.choice((ORTHOGONAL, TRIANGULAR))
        bits = rng.choice((2, 4, 8, 32, 64, 128, 200))
        p = _oracle_polygon(rng, basis, bits)
        relation, q = _oracle_partner(rng, p, bits)
        if rng.random() < 0.5:
            p, q = q, p
        expected = _ref_intersection(p, q)
        got = convex_intersection(p, q)
        assert got == expected, (relation, p, q)
        if got is not None:
            # a clip result is the canonical polygon of its own vertices
            again = corner_polygon(got.vertices, basis)
            assert got == again and hash(got) == hash(again), (relation, p, q)
        tally = misses if expected is None else hits
        tally[relation] = tally.get(relation, 0) + 1
    # every relation is exercised, and each gives the outcome it must
    assert set(hits) == {"overlap", "identical", "nested"}
    assert set(misses) == {"overlap", "disjoint", "shared_edge", "vertex_contact"}
    assert min(hits.values()) >= 100 and min(misses.values()) >= 100


def _is_alcoved(v) -> bool:
    return all((b.u - a.u) * (b.v - a.v) * (b.u - a.u + b.v - a.v) == 0 for a, b in zip(v, v[1:] + v[:1]))


def test_intersection_refuses_non_alcoved():
    # a polygon with an edge off (1, 0), (0, 1) and (1, -1) cannot be
    # built, so it never reaches convex_intersection
    rng = random.Random(7)
    refused = 0
    for _ in range(200):
        basis = rng.choice((ORTHOGONAL, TRIANGULAR))
        hull = _oracle_hull(rng, rng.choice((2, 8, 64)))
        if _is_alcoved(hull):
            continue
        with pytest.raises(ValueError, match="corners of their bounds"):
            corner_polygon(hull, basis)
        refused += 1
    assert refused >= 100


# Reference geometry: the Fraction formulas LatticePolygon computed with
# before it kept integer coordinates over one denominator.


def _ref_is_convex(pts) -> bool:
    """Every vertex lies strictly left of every edge it is not on: strictly
    convex, counter-clockwise and wound once (a list that winds twice puts
    some vertex right of some edge)."""
    k = len(pts)
    return k >= 3 and all(
        _ref_cross(b.u - a.u, b.v - a.v, c.u - a.u, c.v - a.v) > 0
        for i, (a, b) in enumerate(zip(pts, pts[1:] + pts[:1]))
        for j, c in enumerate(pts)
        if j not in (i, (i + 1) % k)
    )


def _ref_area(pts) -> Fraction:
    return sum((p.u * q.v - q.u * p.v for p, q in zip(pts, pts[1:] + pts[:1])), Fraction(0)) / 2


def _ref_bbox(pts):
    us = [p.u for p in pts]
    vs = [p.v for p in pts]
    return (min(us), max(us), min(vs), max(vs))


def _ref_contains_point(pts, p) -> bool:
    return all(
        _ref_cross(b.u - a.u, b.v - a.v, p.u - a.u, p.v - a.v) >= 0
        for a, b in zip(pts, pts[1:] + pts[:1])
    )


def _ref_edge_sq(basis, p, q) -> Fraction:
    du, dv = q.u - p.u, q.v - p.v
    if basis == ORTHOGONAL:
        return du * du + dv * dv
    return du * du + du * dv + dv * dv


def _meets_bounds(poly: LatticePolygon, c: LatticePoint) -> bool:
    u, v = c.u * poly.den, c.v * poly.den
    return poly.lu <= u <= poly.hu and poly.lv <= v <= poly.hv and poly.lw <= u + v <= poly.hw


def test_integer_core_matches_fraction_reference():
    rng = random.Random(20241018)
    inside = {True: 0, False: 0}
    for _ in range(600):
        basis = rng.choice((ORTHOGONAL, TRIANGULAR))
        bits = rng.choice((2, 4, 8, 32, 64, 128, 200))
        p = _oracle_polygon(rng, basis, bits)
        relation, q = _oracle_partner(rng, p, bits)
        for poly in (p, q):
            v = corner_points(poly)
            assert poly.den == lcm(*(x.denominator for pt in v for x in pt))
            assert area_of(poly) == _ref_area(v)
            d = poly.den
            assert tuple(Fraction(c, d) for c in (poly.lu, poly.hu, poly.lv, poly.hv)) == _ref_bbox(v)
            assert [Fraction(q, d * d) for q in _edge_sqs(poly)] == [
                _ref_edge_sq(basis, a, b) for a, b in zip(v, v[1:] + v[:1])
            ]
        pv = corner_points(p)
        # q lies in p exactly when clipping q to p leaves q
        expected = all(_ref_contains_point(pv, c) for c in corner_points(q))
        assert (convex_intersection(p, q) == q) == expected, (relation, p, q)
        inside[expected] += 1
        # the bounds are the point set: a point is in p exactly when it
        # meets them
        edge_mids = [
            LatticePoint((a.u + b.u) / 2, (a.v + b.v) / 2) for a, b in zip(pv, pv[1:] + pv[:1])
        ]
        near = [LatticePoint(_oracle_frac(rng, bits), _oracle_frac(rng, bits)) for _ in range(4)]
        for c in corner_points(q) + pv + tuple(edge_mids + near):
            assert _meets_bounds(p, c) == _ref_contains_point(pv, c), (p, c)
        # validation: a reversed or shuffled polygon is refused exactly
        # when the reference finds it not strictly convex or winding twice
        for pts in (pv[::-1], tuple(rng.sample(pv, len(pv)))):
            if _ref_is_convex(pts):
                corner_polygon(pts, basis)
            else:
                with pytest.raises(ValueError):
                    corner_polygon(pts, basis)
    assert min(inside.values()) >= 100


def test_one_point_set_is_one_polygon():
    rng = random.Random(11)
    for _ in range(400):
        basis = rng.choice((ORTHOGONAL, TRIANGULAR))
        bits = rng.choice((2, 8, 64, 200))
        p = _oracle_polygon(rng, basis, bits)
        v, k = p.vertices, rng.randrange(2, 2**bits + 2)
        i = rng.randrange(len(v))
        assert corner_polygon(v, basis).vertices == v
        scaled = [(x * k, y * k) for x, y in p.ints[i:] + p.ints[:i]]
        forms = (
            corner_polygon(v[i:] + v[:i], basis),
            corner_polygon([(Fraction(x, p.den * k), Fraction(y, p.den * k)) for x, y in scaled], basis),
        )
        for form in forms:
            assert form == p and hash(form) == hash(p) and form.vertices == v
        # with integer coordinates, plain ints give the same polygon
        whole = corner_polygon(p.ints[i:] + p.ints[:i], basis)
        as_fractions = corner_polygon([(Fraction(x), Fraction(y)) for x, y in p.ints], basis)
        assert whole == as_fractions and hash(whole) == hash(as_fractions) and whole.den == 1
        for again in (copy.copy(p), copy.deepcopy(p), pickle.loads(pickle.dumps(p))):
            assert type(again) is LatticePolygon and again == p


# Random alcoved polygons, drawn as closed walks: an alcoved polygon takes
# the six edge directions below in turn, each at most once.  Its corner
# list, area, edges and shape come from the walk and the Fraction
# references, not from any bounds.

_WALK = ((1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1))
# the edges with length: triangles pointing up and down, and the
# parallelograms (rhombi when equilateral) in three orientations
_WALK_SHAPES = {
    frozenset({0, 2, 4}): "triangle up",
    frozenset({1, 3, 5}): "triangle down",
    frozenset({0, 1, 3, 4}): "parallelogram (1, 0) (0, 1)",
    frozenset({1, 2, 4, 5}): "parallelogram (0, 1) (1, -1)",
    frozenset({0, 2, 3, 5}): "parallelogram (1, 0) (1, -1)",
}


def _random_walk(rng: random.Random, bits: int) -> tuple[str, Fraction, tuple[LatticePoint, ...]]:
    """A shape name, a length x and the corners of a random alcoved polygon
    in a random rotation.  Edges 0..3 are 0 or drawn, and edges 4 and 5
    close the walk; half the time every drawn edge is x long."""
    while True:
        x = abs(_oracle_frac(rng, bits)) + Fraction(1, 2**bits)
        equal = rng.random() < 0.5
        e = [rng.choice((0, x if equal else abs(_oracle_frac(rng, bits)) + 1)) for _ in range(4)]
        e += [e[0] + e[1] - e[3], e[2] + e[3] - e[0]]
        ways = frozenset(i for i in range(6) if e[i])
        if min(e) >= 0 and len(ways) >= 3:
            break
    corner = LatticePoint(_oracle_frac(rng, bits), _oracle_frac(rng, bits))
    corners = []
    for i in sorted(ways):
        corners.append(corner)
        du, dv = _WALK[i]
        corner = LatticePoint(corner.u + e[i] * du, corner.v + e[i] * dv)
    assert corner == corners[0]
    k = len(corners)
    name = _WALK_SHAPES.get(ways, {4: "trapezoid", 5: "pentagon", 6: "hexagon"}.get(k))
    i = rng.randrange(k)
    return name, x, tuple(corners[i:] + corners[:i])


def _ref_shape(basis, v, side, want: str, corners: int, diagonals) -> bool:
    """The shape predicates as they read Fraction edge lengths: basis and
    corner count, every edge side long, and the diagonals' squares as
    multiples of side**2 (None for a triangle)."""
    if basis != want or len(v) != corners:
        return False
    s2 = side * side
    if any(_ref_edge_sq(basis, a, b) != s2 for a, b in zip(v, v[1:] + v[:1])):
        return False
    return diagonals is None or sorted(
        (_ref_edge_sq(basis, v[0], v[2]), _ref_edge_sq(basis, v[1], v[3]))
    ) == [d * s2 for d in diagonals]


def _ref_side(basis, v):
    """The common edge length, or None if the edges differ or it is irrational."""
    sqs = {_ref_edge_sq(basis, a, b) for a, b in zip(v, v[1:] + v[:1])}
    if len(sqs) != 1:
        return None
    q = sqs.pop()
    num, den = isqrt(q.numerator), isqrt(q.denominator)
    return Fraction(num, den) if num * num == q.numerator and den * den == q.denominator else None


def test_random_alcoves_match_fraction_references():
    rng = random.Random(20261018)
    drawn: dict[tuple[str, str], int] = {}
    shaped = {"square": 0, "rhombus": 0, "triangle": 0}
    for _ in range(600):
        basis = rng.choice((ORTHOGONAL, TRIANGULAR))
        bits = rng.choice((2, 8, 64))
        name, x, corners = _random_walk(rng, bits)
        drawn[(basis, name)] = drawn.get((basis, name), 0) + 1
        p = corner_polygon(corners, basis)
        v = corner_points(p)
        start = corners.index(min(corners))
        assert v == corners[start:] + corners[:start], (basis, corners)
        assert area_of(p) == _ref_area(corners)
        d = p.den
        assert [Fraction(q, d * d) for q in _edge_sqs(p)] == [
            _ref_edge_sq(basis, a, b) for a, b in zip(v, v[1:] + v[:1])
        ]
        side = _ref_side(basis, v)
        if side is None:
            with pytest.raises(ValueError):
                _side(p)
        else:
            assert side_of(p) == side
        for s in {x, 2 * x, side or x / 2}:
            shape = (p.basis, _equilateral_corners(p, s))
            for ref, tally in (
                ((ORTHOGONAL, 4, (2, 2)), "square"),
                ((TRIANGULAR, 4, (1, 3)), "rhombus"),
                ((TRIANGULAR, 3, None), "triangle"),
            ):
                want = _ref_shape(basis, v, s, *ref)
                assert (shape == ref[:2]) == want, (tally, basis, corners, s)
                shaped[tally] += want
        for i in range(len(v)):
            q = corner_polygon(v[i:] + v[:i], basis)
            assert q == p and hash(q) == hash(p)
        # lists that are not the corners of their bounds, counter-clockwise
        i = rng.randrange(len(v))
        a, b = v[i], v[(i + 1) % len(v)]
        shuffled = list(v)
        while any(shuffled == list(v[j:] + v[:j]) for j in range(len(v))):
            rng.shuffle(shuffled)
        refused = [
            v[::-1],
            shuffled,
            v[: i + 1] + (v[i],) + v[i + 1 :],  # repeated vertex
            v[: i + 1] + (LatticePoint((a.u + b.u) / 2, (a.v + b.v) / 2),) + v[i + 1 :],  # collinear midpoint
            _TWICE_WOUND_HEXAGON,
        ]
        if len(v) == 6:
            refused.append(v[0::2] + v[1::2])  # alternate corners: winds twice
        hull = _oracle_hull(rng, bits)
        if not _is_alcoved(hull):
            refused.append(hull)
        for pts in refused:
            with pytest.raises(ValueError):
                corner_polygon(pts, basis)
    names = {"triangle up", "triangle down", "trapezoid", "pentagon", "hexagon"} | set(_WALK_SHAPES.values())
    assert set(drawn) == {(basis, name) for basis in (ORTHOGONAL, TRIANGULAR) for name in names}
    assert min(drawn.values()) >= 10, drawn
    assert min(shaped.values()) >= 10, shaped


def test_window_inequalities_names():
    fam = DescentFamily(FamilyKind.SQRT2)
    assert [w.name for w in window_inequalities(fam, 7, 5)] == ["a > b", "a < 2b"]
    assert all(w.ok for w in window_inequalities(fam, 7, 5))
    fam = DescentFamily(FamilyKind.HEX6)
    assert [w.name for w in window_inequalities(fam, 22, 9)] == ["a > 2b", "a < 3b"]
    fam = DescentFamily.triangular(5)
    assert [w.name for w in window_inequalities(fam, 27, 7)] == ["2a > (n+1)b", "a < nb"]


# every family with a figure: sqrt2, hex6 and triangular up to the CLI's n <= 64
_FIGURE_FAMILIES = [DescentFamily(FamilyKind.SQRT2), DescentFamily(FamilyKind.HEX6)] + [
    DescentFamily.triangular(n) for n in range(2, 65)
]


def test_window_is_where_descent_stays_positive():
    # the figure table's window and the map table's forms are written down
    # apart; a pair fits the figure exactly when the map sends it to a
    # positive pair
    for family in _FIGURE_FAMILIES:
        for b in range(1, 7):
            for a in range(1, 65 * b + 1):
                fits = all(w.ok for w in window_inequalities(family, a, b))
                assert fits == (min(descent_step(family, a, b).pair_out) >= 1), (family, a, b)


def _as_python(name: str) -> str:
    """A window name as a Python expression: "2a > (n+1)b" -> "2*a > (n+1)*b"."""
    return re.sub(r"(?<=[\dn)])(?=[abn(])", "*", name)


def _sign(x: int) -> int:
    return (x > 0) - (x < 0)


def test_window_is_the_signs_of_the_sides():
    # each window inequality is S > 0 (low) or T > 0 (high), with (T, S) the
    # figure's side forms, and its printed name says the same; checked on
    # the pairs where S or T is -1, 0 or 1 and on random pairs
    rng = random.Random(21)
    for family in _FIGURE_FAMILIES:
        fig = _figure(family)
        (ta, tb), (sa, sb), q = fig.sides
        assert q >= 1
        pairs = [(rng.randrange(1, 10**6), rng.randrange(1, 10**4)) for _ in range(200)]
        for b in range(1, 40):
            for ka, kb in ((ta, tb), (sa, sb)):
                # ka*a + kb*b is -1, 0 or 1 where a is near -kb*b/ka
                pairs += [(a, b) for a in range(max(1, -kb * b // ka - 2), -kb * b // ka + 3)]
        names = {"a": 0, "b": 0, "n": family.n}
        for a, b in pairs:
            t, s = ta * a + tb * b, sa * a + sb * b
            ineqs = window_inequalities(family, a, b)
            assert tuple(w.name for w in ineqs) == fig.window
            assert [w.ok for w in ineqs] == [s > 0, t > 0], (family, a, b)
            names.update(a=a, b=b)
            assert [eval(_as_python(w.name), names) for w in ineqs] == [s > 0, t > 0], (family, a, b)
        # in, out on either side, and on either edge (no pair is out on both)
        signs = {(_sign(ta * a + tb * b), _sign(sa * a + sb * b)) for a, b in pairs}
        assert {(1, 1), (1, -1), (-1, 1), (1, 0), (0, 1)} <= signs, family


def test_balance_is_the_area_identity():
    # excess less blank, as (a**2, a*b, b**2) coefficients, is the big figure
    # less the N smalls: -big_unit*q**2*(a**2 - N*b**2)
    families = [DescentFamily(FamilyKind.SQRT2), DescentFamily(FamilyKind.HEX6)] + [DescentFamily.triangular(n) for n in range(2, 201)]
    for family in families:
        fig, big_n = _figure(family), family.radicand
        q = fig.sides[2]
        assert geometry._balance(fig) == (-fig.big_unit * q * q, 0, fig.big_unit * q * q * big_n), family
    assert geometry._balance(_figure(DescentFamily(FamilyKind.SQRT2))) == (-1, 0, 2)
    assert geometry._balance(_figure(DescentFamily(FamilyKind.HEX6))) == (-3, 0, 18)


def test_balance_is_twice_n_minus_1_times_eq1():
    # Eq1's left side as the paper writes it, at the three points where a
    # form A*a**2 + B*a*b + C*b**2 takes the values A, C and A + B + C
    for n in range(2, 201):
        big_a, big_b, big_c = geometry._balance(_figure(DescentFamily.triangular(n)))
        for a, b in ((1, 0), (0, 1), (1, 1)):
            lhs = (n + 1) * (n * b - a) ** 2 - Fraction(n, 2) * (2 * a - (n + 1) * b) ** 2
            assert big_a * a * a + big_b * a * b + big_c * b * b == 2 * (n - 1) * lhs, (n, a, b)
        assert eq1_holds(n), n


@pytest.mark.parametrize(
    "field, change",
    [
        ("blank_unit", lambda v: v + 1),
        ("overlap_unit", lambda v: v + 1),
        ("doubly_count", lambda v: v - 1),
        ("triple_count", lambda v: v + 1),
        ("sides", lambda v: (v[0], (v[1][0], v[1][1] - 1), v[2])),
    ],
)
def test_verify_eq1_reads_the_figure_table(monkeypatch, field, change):
    # Eq1 is checked on the table's balance, so a wrong table entry must fail it
    def corrupt(n):
        fig = geometry._triangle_figure(n)
        return fig._replace(**{field: change(getattr(fig, field))})

    monkeypatch.setitem(geometry._FIGURES, FamilyKind.TRIANGULAR, corrupt)
    for n in range(2, 51):
        assert not eq1_holds(n), (field, n)


def test_build_tennenbaum():
    arr = build_arrangement(DescentFamily(FamilyKind.SQRT2), 7, 5)
    assert arr.big == square(0, 0, 7)
    assert arr.smalls == (square(0, 0, 5), square(2, 2, 5))
    # boundary a = 2b is out: the overlap square would vanish
    with pytest.raises(OutOfWindow) as exc:
        build_arrangement(DescentFamily(FamilyKind.SQRT2), 4, 2)
    assert exc.value.inequality == "a < 2b"
    with pytest.raises(OutOfWindow) as exc:
        build_arrangement(DescentFamily(FamilyKind.SQRT2), 2, 3)
    assert exc.value.inequality == "a > b"
    with pytest.raises(OutOfWindow):
        build_arrangement(DescentFamily(FamilyKind.SQRT2), 3, 3)


def test_build_rejects_nonpositive():
    for a, b in ((0, 1), (3, 0), (-7, -5)):
        with pytest.raises(OutOfWindow) as exc:
            build_arrangement(DescentFamily(FamilyKind.SQRT2), a, b)
        assert exc.value.inequality == "a, b > 0"


def test_build_hexagon6():
    arr = build_arrangement(DescentFamily(FamilyKind.HEX6), 5, 2)
    assert len(arr.smalls) == 6
    big_vertices = set(arr.big.vertices)
    for small in arr.smalls:
        shared = set(small.vertices) & big_vertices
        assert len(shared) == 1  # each small pins one big vertex
    with pytest.raises(OutOfWindow) as exc:
        build_arrangement(DescentFamily(FamilyKind.HEX6), 7, 2)
    assert exc.value.inequality == "a < 3b"
    with pytest.raises(OutOfWindow) as exc:
        build_arrangement(DescentFamily(FamilyKind.HEX6), 4, 2)
    assert exc.value.inequality == "a > 2b"


def test_build_triangular():
    arr = build_arrangement(DescentFamily.triangular(2), 7, 4)
    assert len(arr.smalls) == 3
    apex = LatticePoint(Fraction(0), Fraction(7))
    assert apex in arr.smalls[0].vertices
    arr = build_arrangement(DescentFamily.triangular(5), 27, 7)
    assert len(arr.smalls) == 15
    bottom = [s for s in arr.smalls if any(p.v == 0 for p in corner_points(s))]
    assert len(bottom) == 5
    with pytest.raises(OutOfWindow) as exc:
        build_arrangement(DescentFamily.triangular(3), 12, 4)
    assert exc.value.inequality == "a < nb"
    with pytest.raises(OutOfWindow) as exc:
        build_arrangement(DescentFamily.triangular(3), 8, 4)
    assert exc.value.inequality == "2a > (n+1)b"
    with pytest.raises(BadIndex):
        build_arrangement(DescentFamily.triangular(1), 3, 2)


# Reference builders: the figures' corners as the builders listed them
# before every polygon came from its integer bounds, as Fractions, each
# small a shifted copy of the first.

_REF_HEX_DIRS = ((1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1))


def _at(*points) -> tuple[LatticePoint, ...]:
    return tuple(LatticePoint(Fraction(u), Fraction(v)) for u, v in points)


def _ref_corners(family: DescentFamily, a: int, b: int):
    """The basis and the corner lists of the big figure and every small."""
    if family.kind is FamilyKind.SQRT2:
        low = _at((0, 0), (b, 0), (b, b), (0, b))
        return ORTHOGONAL, (_at((0, 0), (a, 0), (a, a), (0, a)), low, _shift(low, a - b, a - b))
    if family.kind is FamilyKind.HEX6:
        def hexagon(cu, cv, r):
            return _at(*((cu + r * du, cv + r * dv) for du, dv in _REF_HEX_DIRS))

        smalls = tuple(hexagon((a - b) * du, (a - b) * dv, b) for du, dv in _REF_HEX_DIRS)
        return TRIANGULAR, (hexagon(0, 0, a),) + smalls
    n = family.n
    pitch = Fraction(a - b, n - 1)
    small0 = _at((0, 0), (b, 0), (0, b))
    smalls = tuple(
        _shift(small0, (j - 1) * pitch, (a - b) - (i - 1) * pitch)
        for i in range(1, n + 1)
        for j in range(1, i + 1)
    )
    return TRIANGULAR, (_at((0, 0), (a, 0), (0, a)),) + smalls


def _random_window_pair(rng: random.Random, family: DescentFamily, bit_range=(2, 200)) -> tuple[int, int]:
    """A pair in the family's window whose b has a bit length drawn from bit_range."""
    lo, hi = bit_range
    while True:
        bits = rng.randint(lo, hi)
        b = rng.randrange(2 ** (bits - 1), 2**bits)
        a = rng.randrange(b, 65 * b)
        if all(w.ok for w in window_inequalities(family, a, b)):
            return a, b


def test_builders_match_fraction_reference():
    # five pairs for every n up to 24 and one for six n up to the CLI's 64;
    # five pairs at every n up to 64 would be 228k smalls, ten times as many
    rng = random.Random(9)
    for family in _FIGURE_FAMILIES:
        if (family.n or 0) <= 24:
            try:
                pairs = window_convergents(family, 2)
            except SquareRadicand:  # T_8 is a square and has no convergents
                pairs = []
            pairs += [_random_window_pair(rng, family) for _ in range(3)]
        elif family.n in (32, 41, 48, 57, 63, 64):
            pairs = [_random_window_pair(rng, family)]
        else:
            continue
        for a, b in pairs:
            big, smalls = _figure(family).build(a, b)
            basis, corner_lists = _ref_corners(family, a, b)
            assert len(smalls) + 1 == len(corner_lists), (family, a, b)
            for got, corners in zip((big,) + smalls, corner_lists):
                ref = corner_polygon(corners, basis)
                assert got == ref and hash(got) == hash(ref), (family, a, b, corners)
                # the same corners in the same order, from the smallest
                start = corners.index(min(corners))
                assert got.vertices == corners[start:] + corners[:start], (family, a, b, corners)


def test_arrangement_rejects_escapees():
    big = square(0, 0, 4)
    outside = square(3, 3, 2)
    with pytest.raises(ValueError):
        Arrangement(big=big, smalls=(outside,), family=DescentFamily(FamilyKind.SQRT2), a=4, b=2)


def test_arrangement_rejects_a_small_on_another_basis():
    big = square(0, 0, 4)
    with pytest.raises(BasisMismatch, match="small 1 on triangular, big on orthogonal"):
        Arrangement(big=big, smalls=(square(0, 0, 1), tri(0, 0, 1)), family=DescentFamily(FamilyKind.SQRT2), a=4, b=1)


def test_census_tennenbaum_7_5():
    arr = build_arrangement(DescentFamily(FamilyKind.SQRT2), 7, 5)
    census = coverage_census(arr)
    assert area(census, "big_area") == 49
    assert area(census, "total_small_area") == 50
    assert area(census, "union_area") == 41
    assert area(census, "blank_area") == 8
    assert area(census, "exactly2_area") == 9
    assert area(census, "exactly3_area") == 0
    assert area(census, "excess_area") == 9
    assert census.max_depth == 2
    assert len(census.distinct_pair_regions) == 1
    overlap = census.distinct_pair_regions[0]
    assert (overlap.basis, _equilateral_corners(overlap, Fraction(3))) == (ORTHOGONAL, 4)
    assert overlap == square(2, 2, 3)


def test_census_tennenbaum_3_2():
    arr = build_arrangement(DescentFamily(FamilyKind.SQRT2), 3, 2)
    census = coverage_census(arr)
    assert len(census.distinct_pair_regions) == 1
    assert side_of(census.distinct_pair_regions[0]) == 1
    assert area(census, "blank_area") == 2  # two unit blank squares


def test_census_hexagon6_5_2():
    arr = build_arrangement(DescentFamily(FamilyKind.HEX6), 5, 2)
    census = coverage_census(arr)
    assert area(census, "big_area") == 75
    assert area(census, "total_small_area") == 72
    assert area(census, "union_area") == 66
    assert area(census, "blank_area") == 9
    assert area(census, "exactly2_area") == 6
    assert area(census, "exactly3_area") == 0
    assert census.max_depth == 2
    assert len(census.distinct_pair_regions) == 6
    for region in census.distinct_pair_regions:
        assert (region.basis, _equilateral_corners(region, Fraction(1))) == (TRIANGULAR, 4)
    # only adjacent smalls meet: the pair regions are the clips of the
    # 6-cycle's edges, in the order their index pairs sort
    ring = ((0, 1), (0, 5), (1, 2), (2, 3), (3, 4), (4, 5))
    assert census.pair_regions == tuple(convex_intersection(arr.smalls[i], arr.smalls[j]) for i, j in ring)


def test_census_triangular_2_7_4():
    arr = build_arrangement(DescentFamily.triangular(2), 7, 4)
    census = coverage_census(arr)
    assert area(census, "big_area") == Fraction(49, 2)
    assert area(census, "total_small_area") == 24
    assert area(census, "exactly2_area") == Fraction(3, 2)
    assert area(census, "exactly3_area") == 0
    assert area(census, "blank_area") == 2
    assert census.max_depth == 2
    assert len(census.distinct_pair_regions) == 3
    for region in census.distinct_pair_regions:
        assert (region.basis, _equilateral_corners(region, Fraction(1))) == (TRIANGULAR, 3)


def test_census_triangular_3_5_2():
    arr = build_arrangement(DescentFamily.triangular(3), 5, 2)
    census = coverage_census(arr)
    t = Fraction(1, 2)
    assert area(census, "exactly2_area") == 6 * t * t / 2
    assert area(census, "exactly3_area") == 1 * t * t / 2
    assert area(census, "blank_area") == Fraction(3, 2)
    assert census.max_depth == 3
    assert census.doubly_region_count == 6
    assert len(census.distinct_triple_regions) == 1


def test_census_triangular_5_27_7():
    arr = build_arrangement(DescentFamily.triangular(5), 27, 7)
    census = coverage_census(arr)
    assert census.doubly_region_count == 12
    assert len(census.distinct_triple_regions) == 6
    assert area(census, "blank_area") == 45
    for region in census.distinct_pair_regions:
        assert side_of(region) == 2
    for region in census.distinct_triple_regions:
        assert (region.basis, _equilateral_corners(region, Fraction(2))) == (TRIANGULAR, 3)
    assert census.max_depth == 3


def test_depth_exceeded_on_artificial_stack():
    big = square(0, 0, 10)
    smalls = tuple(square(Fraction(i, 2), Fraction(i, 2), 3) for i in range(4))
    arr = Arrangement(big=big, smalls=smalls, family=DescentFamily(FamilyKind.SQRT2), a=10, b=3)
    with pytest.raises(DepthExceeded):
        coverage_census(arr)


def _stack() -> Arrangement:
    """Four squares over denominators 1 and 2, each pushed half a unit up
    and right of the last: smalls 0..3 share a point set of positive area."""
    smalls = tuple(square(Fraction(i, 2), Fraction(i, 2), 3) for i in range(4))
    return Arrangement(big=square(0, 0, 10), smalls=smalls, family=DescentFamily(FamilyKind.SQRT2), a=10, b=3)


def test_arrangement_containment_matches_contains_polygon():
    rng = random.Random(31)
    outcomes = {True: 0, False: 0}
    for _ in range(600):
        basis = rng.choice((ORTHOGONAL, TRIANGULAR))
        bits = rng.choice((2, 8, 64))
        big = _oracle_polygon(rng, basis, bits)
        _, small = _oracle_partner(rng, big, bits)
        inside = all(_ref_contains_point(corner_points(big), c) for c in corner_points(small))
        outcomes[inside] += 1
        try:
            Arrangement(big=big, smalls=(big, small), family=DescentFamily(FamilyKind.SQRT2), a=2, b=1)
        except ValueError as exc:
            assert not inside and str(exc) == "small 1 is not inside the big figure", (big, small)
        else:
            assert inside, (big, small)
    assert min(outcomes.values()) >= 150


def test_arrangement_refuses_non_alcoved():
    # a polygon with an edge off (1, 0), (0, 1) and (1, -1) cannot be
    # built, so no arrangement holds one
    for basis in (ORTHOGONAL, TRIANGULAR):
        with pytest.raises(ValueError, match="corners of their bounds"):
            corner_polygon([(0, 0), (4, 1), (1, 4)], basis)


# Reference census scan: every pair's u, v and u + v ranges tested, and
# every later small tried for each pair and each triple, as the census ran
# before it swept and took its triples from the overlap graph.


def _ref_bounds(poly: LatticePolygon) -> tuple[int, ...]:
    """The least and greatest u, v and u + v over the vertices, times den."""
    us, vs = [x for x, _ in poly.ints], [y for _, y in poly.ints]
    ws = [x + y for x, y in poly.ints]
    return (min(us), max(us), min(vs), max(vs), min(ws), max(ws))


def _ref_ranges_disjoint(b1, b2, lows=(0, 2, 4)) -> bool:
    """Whether the u, v or u + v ranges of two bound vectors (those whose
    lower bound is at an index in lows) meet in at most one value."""
    return any(b1[lo + 1] <= b2[lo] or b2[lo + 1] <= b1[lo] for lo in lows)


def _ref_boxes(smalls) -> list[tuple[int, ...]]:
    """Each small's _ref_bounds over the common denominator of all."""
    den = lcm(*(s.den for s in smalls))
    return [tuple(c * (den // s.den) for c in _ref_bounds(s)) for s in smalls]


def _ref_census_clips(smalls) -> list:
    """Every clip of the quadratic scan, in its order, as (the small indices
    intersected, the result); it stops after a depth-4 clip with area."""
    boxes = _ref_boxes(smalls)
    k = len(smalls)
    log = []
    pairs, triples = {}, {}
    for i in range(k):
        for j in range(i + 1, k):
            if not _ref_ranges_disjoint(boxes[i], boxes[j]):
                region = convex_intersection(smalls[i], smalls[j])
                log.append(((i, j), region))
                if region is not None:
                    pairs[(i, j)] = region
    for (i, j), region in pairs.items():
        for m in range(j + 1, k):
            if (i, m) in pairs and (j, m) in pairs:
                deep = convex_intersection(region, smalls[m])
                log.append(((i, j, m), deep))
                if deep is not None:
                    triples[(i, j, m)] = deep
    for (i, j, m), region in triples.items():
        for w in range(m + 1, k):
            if (i, j, w) in triples and (i, m, w) in triples and (j, m, w) in triples:
                deep = convex_intersection(region, smalls[w])
                log.append(((i, j, m, w), deep))
                if deep is not None:
                    return log
    return log


def _census_logging(arr: Arrangement, log: list):
    """coverage_census(arr), appending each of its convex_intersection calls
    to log as (the small indices intersected, the result)."""
    keys = {id(s): (i,) for i, s in enumerate(arr.smalls)}
    real = geometry.convex_intersection

    def clip(p, q):
        key = keys[id(p)] + keys[id(q)]
        region = real(p, q)
        log.append((key, region))  # keeps region alive, so its id stays its own
        if region is not None:
            keys[id(region)] = key
        return region

    geometry.convex_intersection = clip
    try:
        return coverage_census(arr)
    finally:
        geometry.convex_intersection = real


def _census_against_reference(arr: Arrangement):
    """The census of arr, or None if it found four smalls sharing area;
    either way it clipped what the reference scan clips, in its order, and
    kept the same regions, in order.  Every polygon's bounds are the ones
    its corners give, the bounds constructor and the corner list each give
    the polygon back, and its closed-form area is their shoelace area."""
    log: list = []
    try:
        census = _census_logging(arr, log)
    except DepthExceeded:
        census = None
    expected = _ref_census_clips(arr.smalls)
    assert log == expected
    if census is None:
        assert len(expected[-1][0]) == 4 and expected[-1][1] is not None
        return None
    hits = [(key, r) for key, r in expected if r is not None]
    assert census.pair_regions == tuple(r for key, r in hits if len(key) == 2)
    assert census.triple_regions == tuple(r for key, r in hits if len(key) == 3)
    for poly in arr.smalls + census.pair_regions + census.triple_regions:
        assert (poly.lu, poly.hu, poly.lv, poly.hv, poly.lw, poly.hw) == _ref_bounds(poly), poly
        assert LatticePolygon(*poly) == poly and corner_polygon(poly.vertices, poly.basis) == poly
        pts = poly.ints
        twice = sum(x0 * y1 - x1 * y0 for (x0, y0), (x1, y1) in zip(pts, pts[1:] + pts[:1]))
        assert area_of(poly) == Fraction(twice, 2 * poly.den**2), poly
    assert area(census, "total_small_area") == sum(area_of(s) for s in arr.smalls)
    pair_sum = sum(area_of(r) for r in census.pair_regions)
    triple_sum = sum(area_of(r) for r in census.triple_regions)
    assert area(census, "exactly3_area") == triple_sum
    assert area(census, "exactly2_area") == pair_sum - 3 * triple_sum
    assert area(census, "union_area") == area(census, "total_small_area") - pair_sum + triple_sum
    return census


_REFERENCE_FAMILIES = [DescentFamily(FamilyKind.SQRT2), DescentFamily(FamilyKind.HEX6)] + [
    DescentFamily.triangular(n) for n in range(2, 25)
]


@functools.cache
def _reference_figures() -> tuple[Arrangement, ...]:
    """Every family of _REFERENCE_FAMILIES at its first two window
    convergents and at two random window pairs, built once for every test
    that reads them."""
    rng = random.Random(23)
    figures = []
    for family in _REFERENCE_FAMILIES:
        try:
            pairs = window_convergents(family, 2)
        except SquareRadicand:  # T_8 is a square and has no convergents
            pairs = []
        pairs += [_random_window_pair(rng, family) for _ in range(2)]
        figures += [build_arrangement(family, a, b) for a, b in pairs]
    return tuple(figures)


def test_census_matches_all_pairs_reference_on_figures():
    figures = 0
    for arr in _reference_figures():
        census = _census_against_reference(arr)
        assert census is not None, (arr.family, arr.a, arr.b)
        figures += 1
    assert figures == 4 * len(_REFERENCE_FAMILIES) - 2
    # the artificial stack mixes denominators 1 and 2 and ends in DepthExceeded
    with pytest.raises(DepthExceeded, match="smalls 0, 1, 2, 3 share"):
        coverage_census(_stack())
    assert _census_against_reference(_stack()) is None


_SHAPE_CORNERS = {
    "square": ((0, 0), (1, 0), (1, 1), (0, 1)),
    "triangle": ((0, 0), (1, 0), (0, 1)),
    "hexagon": ((1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1)),
}


def _random_arrangement(rng: random.Random) -> Arrangement:
    """Three to twelve squares, triangles and hexagons on the half-integer
    grid inside a 12-square: unlike the figures, their bounds often touch
    and many smalls can meet in one triple."""
    basis = rng.choice((ORTHOGONAL, TRIANGULAR))
    big = square(0, 0, 12, basis)
    smalls: list[LatticePolygon] = []
    count = rng.randint(3, 12)
    while len(smalls) < count:
        den = rng.choice((1, 2))
        x, y = Fraction(rng.randrange(24 // den), den), Fraction(rng.randrange(24 // den), den)
        side = Fraction(rng.randint(1, 8 // den), den)
        corners = _SHAPE_CORNERS[rng.choice(tuple(_SHAPE_CORNERS))]
        poly = corner_polygon([(x + side * du, y + side * dv) for du, dv in corners], basis)
        if convex_intersection(big, poly) == poly:
            smalls.append(poly)
    return Arrangement(big=big, smalls=tuple(smalls), family=DescentFamily(FamilyKind.SQRT2), a=12, b=1)


@functools.cache
def _random_arrangements() -> tuple[Arrangement, ...]:
    """400 random arrangements, built once for every test that reads them."""
    rng = random.Random(29)
    return tuple(_random_arrangement(rng) for _ in range(400))


def test_census_matches_all_pairs_reference_on_random_arrangements():
    outcomes = {"depth 4": 0, "triples": 0, "pairs only": 0}
    for arr in _random_arrangements():
        census = _census_against_reference(arr)
        if census is None:
            outcomes["depth 4"] += 1
        else:
            outcomes["triples" if census.triple_regions else "pairs only"] += 1
    assert min(outcomes.values()) >= 40, outcomes


def test_range_test_rejects_only_empty_clips():
    # the reference scan, and so the census, skips every pair whose u, v
    # or u + v ranges meet in at most one value; each such pair must clip
    # to nothing, so that skipping it loses no overlap
    rejected = {"u or v": 0, "u + v only": 0}
    arrangements = itertools.chain(_reference_figures(), _random_arrangements(), [_stack()])
    for arr in arrangements:
        smalls = arr.smalls
        boxes = _ref_boxes(smalls)
        for i, j in itertools.combinations(range(len(smalls)), 2):
            if _ref_ranges_disjoint(boxes[i], boxes[j]):
                assert convex_intersection(smalls[i], smalls[j]) is None, (arr, i, j)
                by_uv = _ref_ranges_disjoint(boxes[i], boxes[j], (0, 2))
                rejected["u or v" if by_uv else "u + v only"] += 1
    assert min(rejected.values()) >= 1000, rejected


def _cell_depths(arr: Arrangement) -> list[int]:
    """The coverage depth of every unit cell of the big figure scaled by
    the common denominator: unit squares on the orthogonal lattice, the
    two lattice triangles of each unit rhombus on the 60-degree one.  A
    cell's depth is the number of smalls holding its centroid, each tested
    against every edge in integers; no centroid lies on an edge line."""
    polys = (arr.big,) + arr.smalls
    den = lcm(*(p.den for p in polys))
    # centroids of the cell at (x, y), over scale * den
    scale, offsets = (2, ((1, 1),)) if arr.big.basis == ORTHOGONAL else (3, ((1, 1), (2, 2)))

    def cells(poly):
        k = den // poly.den
        pts = [(x * k, y * k) for x, y in poly.ints]
        edges = [(ax * scale, ay * scale, bx - ax, by - ay) for (ax, ay), (bx, by) in zip(pts, pts[1:] + pts[:1])]
        xs, ys = [x for x, _ in pts], [y for _, y in pts]
        for x in range(min(xs), max(xs)):
            for y in range(min(ys), max(ys)):
                for ox, oy in offsets:
                    cx, cy = scale * x + ox, scale * y + oy
                    if all(ex * (cy - ay) - ey * (cx - ax) > 0 for ax, ay, ex, ey in edges):
                        yield (x, y, ox)

    depth = dict.fromkeys(cells(arr.big), 0)
    for small in arr.smalls:
        for cell in cells(small):
            depth[cell] += 1  # KeyError: a small reaches outside the big figure
    return list(depth.values())


def _small_window_pairs(family: DescentFamily, a_max: int) -> list[tuple[int, int]]:
    return [
        (a, b)
        for a in range(1, a_max + 1)
        for b in range(1, a)
        if all(w.ok for w in window_inequalities(family, a, b))
    ]


def test_census_matches_cell_count_oracle():
    rng = random.Random(41)
    families = [DescentFamily(FamilyKind.SQRT2), DescentFamily(FamilyKind.HEX6)] + [
        DescentFamily.triangular(n) for n in range(2, 7)
    ]
    for family in families:
        # scaled figures up to about 40 cells across the sides
        a_max = 40 if family.n is None else 80 // (family.n - 1)
        pairs = _small_window_pairs(family, a_max)
        for a, b in rng.sample(pairs, min(5, len(pairs))):
            arr = build_arrangement(family, a, b)
            census = coverage_census(arr)
            den = lcm(*(p.den for p in (arr.big,) + arr.smalls))
            cell = Fraction(1, den * den) if arr.big.basis == ORTHOGONAL else Fraction(1, 2 * den * den)
            depths = _cell_depths(arr)
            count = {d: depths.count(d) for d in range(5)}
            assert count[4] == 0 and max(depths) <= 3, (family, a, b)
            assert area(census, "blank_area") == count[0] * cell, (family, a, b)
            assert area(census, "exactly2_area") == count[2] * cell, (family, a, b)
            assert area(census, "exactly3_area") == count[3] * cell, (family, a, b)
            assert area(census, "union_area") == (len(depths) - count[0]) * cell, (family, a, b)
            assert census.max_depth == max(depths), (family, a, b)


def test_triangular_figures_verify_for_every_n_up_to_50():
    # the geometric twin of acceptance criterion 1: every figure the area
    # identity covers is built, censused, verified and read back
    rng = random.Random(50)
    for n in range(2, 51):
        family = DescentFamily.triangular(n)
        a, b = _random_window_pair(rng, family)
        arr = build_arrangement(family, a, b)
        census = coverage_census(arr)
        assert all(c.passed for c in verify_figure(arr, census))
        assert census_to_descent(arr, census) == descent_step(family, a, b).pair_out, (n, a, b)


def test_verify_figure_passes():
    for family in all_figure_families():
        p, q = window_convergents(family, 1)[0]
        arr = build_arrangement(family, p, q)
        census = coverage_census(arr)
        checks = verify_figure(arr, census)
        assert all(c.passed for c in checks)
        names = {c.name for c in checks}
        assert {"blank_area", "excess_minus_blank", "overlap_sides_equal_t"} <= names


# each census area field and the identity checks that read it
_CHECKS_READING = {
    "big_area": {"big_area", "raw_area_balance"},
    "total_small_area": {"total_small_area", "raw_area_balance"},
    "exactly2_area": {"exactly2_area"},
    "exactly3_area": {"exactly3_area"},
    "excess_area": {"excess_area", "excess_minus_blank"},
    "blank_area": {"blank_area", "excess_minus_blank"},
}


def test_verify_figure_mismatch():
    arr = build_arrangement(DescentFamily(FamilyKind.SQRT2), 7, 5)
    census = coverage_census(arr)
    corrupted = census._replace(blank_area=census.blank_area + census.area_den)
    failed = {c.name for c in verify_figure(arr, corrupted) if not c.passed}
    assert "blank_area" in failed
    assert "big_area" not in failed
    # verify_figure checks the areas the census reports, not areas of its
    # own: one area off by 1 (area_den over area_den) fails exactly the
    # checks that read it
    for family in all_figure_families():
        p, q = window_convergents(family, 1)[0]
        arr = build_arrangement(family, p, q)
        census = coverage_census(arr)
        for field, reading in _CHECKS_READING.items():
            corrupted = census._replace(**{field: getattr(census, field) + census.area_den})
            failed = {c.name for c in verify_figure(arr, corrupted) if not c.passed}
            assert failed == reading, (family, field, failed)


def _fraction_sides(arr: Arrangement, census) -> dict[str, tuple[Fraction, Fraction]]:
    """Each area check's two sides as Fractions: the census area, or the
    difference of two, and its closed form from the figure table."""
    fig = _figure(arr.family)
    a, b, big_n = arr.a, arr.b, arr.family.radicand
    (ta, tb), (sa, sb), q = fig.sides
    t, s = Fraction(ta * a + tb * b, q), Fraction(sa * a + sb * b, q)
    unit = Fraction(1, fig.unit_den)
    exactly2 = fig.overlap_unit * fig.doubly_count * t * t * unit
    exactly3 = fig.overlap_unit * fig.triple_count * t * t * unit
    balance = -fig.big_unit * (a * a - big_n * b * b) * unit
    return {
        "big_area": (area(census, "big_area"), fig.big_unit * a * a * unit),
        "total_small_area": (area(census, "total_small_area"), fig.big_unit * big_n * b * b * unit),
        "exactly2_area": (area(census, "exactly2_area"), exactly2),
        "exactly3_area": (area(census, "exactly3_area"), exactly3),
        "excess_area": (area(census, "excess_area"), exactly2 + 2 * exactly3),
        "blank_area": (area(census, "blank_area"), fig.blank_unit * s * s * unit),
        "excess_minus_blank": (area(census, "excess_area") - area(census, "blank_area"), balance),
        "raw_area_balance": (area(census, "total_small_area") - area(census, "big_area"), balance),
    }


def test_verify_figure_writes_and_compares_areas_as_fractions():
    # verify_figure compares areas by integer cross-products; each side must
    # read as str(Fraction) writes it and pass exactly when the Fractions
    # are equal, on every reference figure and with each area moved by 1
    seen = {"negative": 0, "integer": 0, "failed": 0}
    for arr in _reference_figures():
        census = coverage_census(arr)
        moved = [
            census._replace(**{f: getattr(census, f) + d * census.area_den}) for f in _CHECKS_READING for d in (1, -1)
        ]
        for c in [census] + moved:
            sides = _fraction_sides(arr, c)
            checks = [check for check in verify_figure(arr, c) if check.name in sides]
            assert len(checks) == len(sides)
            for check in checks:
                lhs, rhs = sides[check.name]
                assert check == (check.name, str(lhs), str(rhs), lhs == rhs), (arr.family, arr.a, arr.b)
                seen["negative"] += lhs < 0
                seen["integer"] += lhs.denominator == 1
                seen["failed"] += lhs != rhs
    assert min(seen.values()) >= 100, seen


def test_figure_table_matches_fraction_closed_forms():
    # the table's integer forms against the paper's closed forms, written
    # here in Fractions: the sides t and s, the unit areas and the next pair
    rng = random.Random(1016)
    families = [DescentFamily(FamilyKind.SQRT2), DescentFamily(FamilyKind.HEX6)] + [
        DescentFamily.triangular(n) for n in range(2, 65)
    ]
    for family in families:
        fig, n = _figure(family), family.n
        assert _figure(family) is fig  # built once per n
        (ta, tb), (sa, sb), q = fig.sides
        (c, d), (e, f), m = fig.next_pair
        units = tuple(Fraction(u, fig.unit_den) for u in (fig.big_unit, fig.overlap_unit, fig.blank_unit))
        for _ in range(4):
            a, b = _random_window_pair(rng, family, (8, 3400))
            if family.label == "sqrt2":
                t, s = Fraction(2 * b - a), Fraction(a - b)
                want_units = (1, 1, 2)
                want_next = (t, s)
            elif family.label == "hex6":
                t, s = Fraction(3 * b - a), Fraction(a - 2 * b)
                want_units = (3, 1, 9)
                want_next = (3 * s, t)
            else:
                t = Fraction(n * b - a, n - 1)
                s = b - 2 * t
                want_units = (Fraction(1, 2), Fraction(1, 2), Fraction(n * (n - 1), 4))
                if n % 2 == 0:
                    want_next = (Fraction(n, 2) * (n - 1) * s, (n - 1) * t)
                else:
                    want_next = (Fraction(n + 1, 2) * (n - 1) * t, (n - 1) * s / 2)
            big_t, big_s = ta * a + tb * b, sa * a + sb * b
            assert (Fraction(big_t, q), Fraction(big_s, q)) == (t, s), (family, a, b)
            assert units == want_units, family
            got_next = (Fraction(c * big_t + d * big_s, m), Fraction(e * big_t + f * big_s, m))
            assert got_next == want_next, (family, a, b)
            assert got_next == descent_step(family, a, b).pair_out, (family, a, b)


def test_census_to_descent_examples():
    arr = build_arrangement(DescentFamily(FamilyKind.SQRT2), 7, 5)
    assert census_to_descent(arr, coverage_census(arr)) == (3, 2)
    arr = build_arrangement(DescentFamily(FamilyKind.HEX6), 22, 9)
    assert census_to_descent(arr, coverage_census(arr)) == (12, 5)
    arr = build_arrangement(DescentFamily.triangular(3), 5, 2)
    assert census_to_descent(arr, coverage_census(arr)) == (2, 1)
    arr = build_arrangement(DescentFamily.triangular(4), 19, 6)
    assert census_to_descent(arr, coverage_census(arr)) == (16, 5)


def test_census_to_descent_needs_an_overlap():
    smalls = (square(0, 0, 3), square(5, 5, 3))
    arr = Arrangement(big=square(0, 0, 10), smalls=smalls, family=DescentFamily(FamilyKind.SQRT2), a=10, b=3)
    with pytest.raises(ValueError, match="no overlap regions to measure"):
        census_to_descent(arr, coverage_census(arr))


def test_census_to_descent_refuses_a_non_integral_pair():
    # the 7, 5 figure at half scale: t = 3/2 and s = 1
    arr = build_arrangement(DescentFamily(FamilyKind.SQRT2), 7, 5)
    half = lambda p: LatticePolygon(p.basis, 2 * p.den, *p[2:])
    arr = arr._replace(big=half(arr.big), smalls=tuple(map(half, arr.smalls)))
    with pytest.raises(ValueError, match=r"measured pair \(3/2, 1\) is not integral"):
        census_to_descent(arr, coverage_census(arr))


def test_census_matches_descent_on_50_convergents_per_family():
    for family in all_figure_families():
        for p, q in window_convergents(family, 50):
            arr = build_arrangement(family, p, q)
            census = coverage_census(arr)
            assert all(c.passed for c in verify_figure(arr, census))
            assert census_to_descent(arr, census) == descent_step(family, p, q).pair_out


def test_area_additivity():
    for family in all_figure_families():
        for p, q in window_convergents(family, 3):
            arr = build_arrangement(family, p, q)
            census = coverage_census(arr)
            assert census.big_area == census.union_area + census.blank_area
            assert census.total_small_area == census.union_area + census.excess_area


def test_rational_sqrt():
    assert _rational_sqrt(4, 9) == (2, 3)
    assert _rational_sqrt(0, 1) == (0, 1)
    assert _rational_sqrt(49, 1) == (7, 1)
    with pytest.raises(ValueError):
        _rational_sqrt(2, 1)
    with pytest.raises(ValueError):
        _rational_sqrt(-1, 1)
