import random
from decimal import Decimal, getcontext
from fractions import Fraction

import pytest

from irrgeo.exact_arith import RadicandMismatch, Surd
from irrgeo.number_theory import convergents

SQUAREFREE = [2, 3, 5, 6, 7, 10, 13, 15, 17, 21, 105]


def test_rational_round_trips():
    rng = random.Random(7)
    for _ in range(200):
        x = Fraction(rng.randint(-999, 999), rng.randint(1, 999))
        y = Fraction(rng.randint(-999, 999), rng.randint(1, 999))
        assert (x + y) - y == x
        if x != 0:
            assert (x * y) / x == y


def test_surd_sign_examples():
    assert Surd(3, -1, 6).sign() == 1
    assert Surd(2, -1, 6).sign() == -1
    assert Surd(0, 0, 6).sign() == 0
    assert Surd(0, 1, 2).sign() == 1
    assert Surd(0, -1, 2).sign() == -1
    # 49**2 = 2401 against 20**2 * 6 = 2400
    assert Surd(-49, 20, 6).sign() == -1
    assert Surd(49, -20, 6).sign() == 1


def test_surd_constructor_rejects_bad_radicand():
    for bad in (0, 1, -4, 8, 9, 12, 36):
        with pytest.raises(ValueError):
            Surd(1, 1, bad)


def test_surd_of_normalizes():
    assert Surd.of(0, 1, 8) == Surd(0, 2, 2)
    assert Surd.of(0, 1, 12) == Surd(0, 2, 3)
    four = Surd.of(1, 1, 9)
    assert (four.rat, four.coef) == (4, 0)
    six = Surd.of(0, 1, 36)
    assert (six.rat, six.coef) == (6, 0)
    assert Surd.of(1, 1, 18) == Surd(1, 3, 2)
    for value, want in (
        (Surd.of(5, -3, 12), (5, -6, 3)),
        (Surd.of(0, 1, 2), (0, 1, 2)),
        (Surd.of(1, 1, 9), (4, 0, 2)),  # a perfect square folds into rat
        (Surd.of(-7, 2, 36), (5, 0, 2)),
    ):
        assert tuple(value) == want
        assert (type(value.rat), type(value.coef)) == (int, int), value


def test_surd_arithmetic():
    x = Surd(2, -1, 6)
    y = Surd(2, 1, 6)
    total = x + y
    assert (total.rat, total.coef) == (4, 0)
    assert x - y == Surd(0, -2, 6)
    z = Surd(1, 1, 2)
    assert z + z == Surd(2, 2, 2)
    zero = z - z
    assert (zero.rat, zero.coef) == (0, 0)
    assert z + 2 == Surd(3, 1, 2)
    assert z - 1 == Surd(0, 1, 2)
    assert type((z - 1).rat) is int
    assert z - 3 == Surd(-2, 1, 2)
    assert -z == Surd(-1, -1, 2)
    # z - x is z + -x: a float or a string is refused as it is by +
    for bad in (0.1, "1/3"):
        with pytest.raises(TypeError):
            z + bad
        with pytest.raises(TypeError):
            z - bad


def test_surd_mixed_radicands():
    with pytest.raises(RadicandMismatch):
        Surd(0, 1, 2) + Surd(0, 1, 3)
    with pytest.raises(RadicandMismatch):
        Surd(0, 1, 2) - Surd(0, 1, 3)
    # rational-valued surds combine with anything
    assert Surd(5, 0, 2) + Surd(0, 1, 3) == Surd(5, 1, 3)
    assert Surd(5, 0, 2) - Surd(0, 1, 3) == Surd(5, -1, 3)


def test_surd_plus_rational_surd_keeps_its_radicand():
    # the right operand has coef 0, so the sum takes the left radicand
    assert Surd(1, 2, 3) + Surd(5, 0, 2) == Surd(6, 2, 3)
    assert Surd(1, 2, 3) - Surd(5, 0, 2) == Surd(-4, 2, 3)


def test_surd_of_rejects_nonpositive_radicand():
    for bad in (0, -3):
        with pytest.raises(ValueError, match=f"radicand must be positive, got {bad}"):
            Surd.of(1, 1, bad)


def test_surd_comparisons():
    # a Surd is a tuple, but it neither multiplies nor orders: products
    # would otherwise repeat the tuple and orderings compare its fields
    z, w = Surd(1, 1, 2), Surd(0, 3, 2)
    refused = (
        lambda: 2 * z, lambda: z * 2, lambda: z * w, lambda: 1 + z, lambda: 1 - z,
        lambda: z < w, lambda: z <= w, lambda: z > w, lambda: z >= w,
        lambda: z < 1, lambda: 1 < z,
    )
    for op in refused:
        with pytest.raises(TypeError):
            op()


def test_surd_sign_against_high_precision_oracle():
    getcontext().prec = 80
    rng = random.Random(20260821)
    for _ in range(1000):
        rat = rng.randint(-10**10, 10**10)
        coef = rng.randint(-10**10, 10**10)
        radicand = rng.choice(SQUAREFREE)
        x = Surd(rat, coef, radicand)
        approx = Decimal(rat) + Decimal(coef) * Decimal(radicand).sqrt()
        expected = 0 if rat == 0 and coef == 0 else (1 if approx > 0 else -1)
        assert x.sign() == expected


def _sign(x: Fraction) -> int:
    return (x > 0) - (x < 0)


def _fraction_sign(rat: Fraction, coef: Fraction, radicand: int) -> int:
    """The sign oracle in Fractions: rat + coef*sqrt(N) has the sign of
    rat or coef, whichever term is larger, judged by rat**2 against
    coef**2 * N; 0 only when both are 0."""
    if rat == 0 or coef == 0 or _sign(rat) == _sign(coef):
        return _sign(rat) or _sign(coef)
    return _sign(rat) if rat * rat > coef * coef * radicand else _sign(coef)


def test_surd_sign_matches_a_fraction_oracle_on_a_grid():
    squarefree = [n for n in range(2, 201) if all(n % (k * k) for k in range(2, 15))]
    rng = random.Random(2017)
    for radicand in squarefree:
        # near misses: p and q from the convergents p/q of sqrt(N), so
        # rat**2 and coef**2 * N differ by a small defect
        (p, q), (p2, q2) = convergents(radicand, 6)[-2:]
        mags = [0, 1, p, q, p2, q2] + [rng.randint(1, 10**6) for _ in range(3)]
        values = sorted({s * m for m in mags for s in (1, -1)})
        for rat in values:
            for coef in values:
                # a common positive scale keeps the sign and the near misses
                scale = rng.randint(1, 999)
                rat_s, coef_s = rat * scale, coef * scale
                assert Surd(rat_s, coef_s, radicand).sign() == _fraction_sign(Fraction(rat_s), Fraction(coef_s), radicand)


def test_surd_sign_matches_a_fraction_oracle_on_large_int_parts():
    # int parts up to 10**40: random ones, and near misses x = p, y = -q
    # from convergents p/q of sqrt(N), where x**2 - N*y**2 is small
    squarefree = [n for n in range(2, 201) if all(n % (k * k) for k in range(2, 15))]
    rng = random.Random(27)
    for radicand in squarefree:
        pairs = [(p, q) for p, q in convergents(radicand, 120) if p < 10**40][-4:]
        pairs += [(rng.randint(1, 10**40), rng.randint(1, 10**40)) for _ in range(4)]
        for p, q in pairs:
            for x, y in ((p, -q), (-p, q), (p, q), (-p, -q), (p, 0), (0, -q)):
                got = Surd(x, y, radicand)
                assert (type(got.rat), type(got.coef)) == (int, int)
                assert got.sign() == _fraction_sign(Fraction(x), Fraction(y), radicand), (x, y, radicand)


def test_surd_refuses_non_int_parts():
    # p and q are ints: bool, Fraction, float and str parts are refused by
    # both constructors, a perfect-square Surd.of included, where rat and
    # coef fold into one part; a Surd adds or subtracts only an int or a
    # Surd, and a bool is no int here either, though -True is the int -1
    calls = []
    for bad in (Fraction(1, 2), Fraction(3), 0.5, 1.0, "1", True, False):
        for make in (Surd, Surd.of):
            calls += [(make, bad, 1, 2), (make, 1, bad, 2)]
        calls += [(Surd.of, bad, 0, 9), (Surd.of, 0, bad, 9)]
    for make, *args in calls:
        with pytest.raises(TypeError):
            make(*args)
    for bad in (Fraction(1, 2), True):
        with pytest.raises(TypeError):
            Surd(1, 1, 2) + bad
        with pytest.raises(TypeError):
            Surd(1, 1, 2) - bad
