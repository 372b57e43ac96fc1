import random
from fractions import Fraction
from math import gcd, isqrt

import pytest

from irrgeo.exact_arith import Surd
from irrgeo.number_theory import (
    SquareRadicand,
    convergents,
    factorize,
    is_perfect_square,
    square_density,
    square_triangular,
    squarefree_decompose,
    triangular,
)


def test_triangular_values():
    assert [triangular(n) for n in range(9)] == [0, 1, 3, 6, 10, 15, 21, 28, 36]
    assert triangular(8) == 36 and is_perfect_square(triangular(8))


def test_factorize():
    assert factorize(1) == {}
    assert factorize(2026) == {2: 1, 1013: 1}
    assert factorize(360) == {2: 3, 3: 2, 5: 1}
    with pytest.raises(ValueError):
        factorize(0)


def test_squarefree_examples():
    d = squarefree_decompose(8)
    assert (d.squarefree, d.root) == (2, 2)
    d = squarefree_decompose(36)
    assert (d.squarefree, d.root) == (1, 6)
    d = squarefree_decompose(1)
    assert (d.squarefree, d.root) == (1, 1)
    d = squarefree_decompose(12)
    assert (d.squarefree, d.root) == (3, 2)
    d = squarefree_decompose(1225)  # T_49
    assert (d.squarefree, d.root) == (1, 35)


def test_squarefree_random_property():
    rng = random.Random(3)
    for _ in range(2000):
        n = rng.randint(1, 10**6)
        d = squarefree_decompose(n)
        assert d.squarefree * d.root * d.root == n
        # no prime squared divides the squarefree part
        for p, e in factorize(d.squarefree).items():
            assert e == 1


def test_squarefree_exhaustive_to_1e5():
    # direct check: m * r * r == n and m has no square divisor > 1
    limit = 10**5
    squares = [k * k for k in range(2, isqrt(limit) + 1)]
    for n in range(1, limit + 1):
        d = squarefree_decompose(n)
        assert d.squarefree * d.root * d.root == n
        for s in squares:
            if s > d.squarefree:
                break
            assert d.squarefree % s != 0


def test_square_density():
    assert square_density(100) == (10, Fraction(10))
    assert square_density(1) == (1, Fraction(100))
    assert square_density(2) == (1, Fraction(50))
    assert square_density(10**6) == (1000, Fraction(1, 10))
    with pytest.raises(ValueError):
        square_density(0)


def test_convergents_sqrt2():
    got = convergents(2, 6)
    assert got == [(1, 1), (3, 2), (7, 5), (17, 12), (41, 29), (99, 70)]


def test_convergents_sqrt6():
    got = convergents(6, 6)
    assert got == [(2, 1), (5, 2), (22, 9), (49, 20), (218, 89), (485, 198)]


def test_convergents_other_radicands():
    assert convergents(3, 4) == [(1, 1), (2, 1), (5, 3), (7, 4)]
    assert convergents(10, 3) == [(3, 1), (19, 6), (117, 37)]
    assert convergents(15, 4) == [(3, 1), (4, 1), (27, 7), (31, 8)]
    assert convergents(21, 6) == [
        (4, 1), (5, 1), (9, 2), (23, 5), (32, 7), (55, 12),
    ]


def test_convergents_fields_and_count():
    convs = convergents(6, 4)
    # a convergent is the plain pair (p, q)
    assert convs == [(2, 1), (5, 2), (22, 9), (49, 20)]
    assert all(type(c) is tuple for c in convs)
    assert [p * p - 6 * q * q for p, q in convs] == [-2, 1, -2, 1]
    assert convergents(6, 0) == []
    assert len(convergents(6, 1)) == 1


def test_convergents_rejects_squares():
    for bad in (1, 4, 9, 36, 1225):
        with pytest.raises(SquareRadicand):
            convergents(bad, 3)


def test_convergent_invariants():
    for radicand in (2, 3, 5, 6, 10, 15, 21, 28):
        convs = convergents(radicand, 12)
        for p, q in convs:
            assert gcd(p, q) == 1
            # |p^2 - N q^2| <= 2 sqrt(N), exactly: defect^2 <= 4 N
            defect = p * p - radicand * q * q
            assert defect * defect <= 4 * radicand
        for (p0, q0), (p1, q1) in zip(convs, convs[1:]):
            det = p1 * q0 - p0 * q1
            assert det in (1, -1)
            assert q1 >= q0
        for (_, q0), (_, q1) in zip(convs[1:], convs[2:]):
            assert q1 > q0


def _dist_sq_cmp(p1: int, q1: int, p2: int, q2: int, radicand: int) -> int:
    """Exact sign of |q1*sqrt(N) - p1| - |q2*sqrt(N) - p2| via squared surds."""
    d1 = Surd(Fraction(q1 * q1 * radicand + p1 * p1), Fraction(-2 * p1 * q1), radicand)
    d2 = Surd(Fraction(q2 * q2 * radicand + p2 * p2), Fraction(-2 * p2 * q2), radicand)
    return (d1 - d2).sign()


def test_convergents_are_best_approximations_small():
    # every brute-force improvement in |q sqrt(N) - p| is a convergent
    for radicand in (2, 3, 6, 10):
        convs = convergents(radicand, 10)
        best = None
        found = []
        for q in range(1, 50):
            p_lo = isqrt(radicand * q * q)
            for p in (p_lo, p_lo + 1):
                if best is None or _dist_sq_cmp(p, q, *best, radicand) < 0:
                    best = (p, q)
                    found.append(best)
        assert all(pair in convs for pair in found)


def test_square_triangular_examples():
    assert square_triangular(300) == [0, 1, 8, 49, 288]
    assert square_triangular(0) == [0]
    assert square_triangular(1) == [0, 1]
    assert square_triangular(7) == [0, 1]
    assert square_triangular(8) == [0, 1, 8]


def test_square_triangular_brute_force():
    limit = 10**4
    brute = [n for n in range(limit + 1) if is_perfect_square(triangular(n))]
    assert square_triangular(limit) == brute
