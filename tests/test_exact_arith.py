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
    assert Surd(Fraction(-7, 2), Fraction(10, 7), 6).sign() == -1


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
    assert Surd.of(Fraction(1, 2), Fraction(1, 3), 18) == Surd(Fraction(1, 2), 1, 2)


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
    assert z + Fraction(1, 2) == Surd(Fraction(3, 2), 1, 2)
    assert z - 1 == Surd(0, 1, 2)
    assert z - Fraction(1, 2) == Surd(Fraction(1, 2), 1, 2)
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

    def dec(fr: Fraction) -> Decimal:
        return Decimal(fr.numerator) / Decimal(fr.denominator)

    for _ in range(1000):
        rat = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**4))
        coef = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**4))
        radicand = rng.choice(SQUAREFREE)
        x = Surd(rat, coef, radicand)
        approx = dec(rat) + dec(coef) * Decimal(radicand).sqrt()
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
        # near misses: p/q from the convergents of sqrt(N), so rat**2 and
        # coef**2 * N differ by a small defect
        (p, q), (p2, q2) = convergents(radicand, 6)[-2:]
        mags = [Fraction(0), Fraction(1), Fraction(p, q), Fraction(p2, q2)]
        mags += [Fraction(rng.randint(1, 10**6), rng.randint(1, 10**4)) for _ in range(3)]
        values = sorted({s * m for m in mags for s in (1, -1)})
        for rat in values:
            for coef in values:
                # a common positive scale keeps the sign and varies both
                # denominators
                scale = Fraction(rng.randint(1, 999), rng.randint(1, 999))
                rat_s, coef_s = rat * scale, coef * scale
                assert Surd(rat_s, coef_s, radicand).sign() == _fraction_sign(rat_s, coef_s, radicand)


def test_surd_keeps_int_and_fraction_parts():
    # an int part stays an int, a Fraction part a Fraction; the record
    # still compares and hashes by value, as 3 == Fraction(3) does
    x, y = Surd(3, 1, 2), Surd(Fraction(3), Fraction(1), 2)
    assert x == y and hash(x) == hash(y)
    assert (type(x.rat), type(x.coef)) == (int, int)
    assert (type(y.rat), type(y.coef)) == (Fraction, Fraction)
    for value, want in (
        (Surd.of(5, -3, 12), (5, -6, 3)),
        (Surd.of(0, 1, 2), (0, 1, 2)),
        (Surd.of(1, 1, 9), (4, 0, 2)),  # a perfect square folds into rat
        (Surd.of(-7, 2, 36), (5, 0, 2)),
    ):
        assert tuple(value) == want
        assert (type(value.rat), type(value.coef)) == (int, int), value
    for value, want in (
        (Surd.of(Fraction(1, 2), Fraction(1, 3), 18), (Fraction(1, 2), Fraction(1), 2)),
        (Surd.of(Fraction(1, 2), Fraction(1, 3), 9), (Fraction(3, 2), 0, 2)),
    ):
        assert tuple(value) == want
        assert type(value.rat) is Fraction, value
    # any other number is read exactly as Fraction reads it
    assert tuple(Surd(0.5, "1/3", 2)) == (Fraction(1, 2), Fraction(1, 3), 2)
    assert tuple(Surd.of("1/3", 0.25, 8)) == (Fraction(1, 3), Fraction(1, 2), 2)
    assert type(Surd(True, 1, 2).rat) is Fraction


def test_surd_int_and_fraction_mixes_stay_exact():
    z = Surd(1, 1, 2)
    for total, want in (
        (z + Fraction(1, 3), (Fraction(4, 3), 1, 2)),
        (z - Fraction(1, 3), (Fraction(2, 3), 1, 2)),
        (z + Surd(Fraction(1, 2), Fraction(-2, 3), 2), (Fraction(3, 2), Fraction(1, 3), 2)),
        (z - Surd(Fraction(1, 2), Fraction(-2, 3), 2), (Fraction(1, 2), Fraction(5, 3), 2)),
        (Surd(Fraction(1, 3), 0, 2) + Surd(Fraction(2, 3), 2, 3), (1, 2, 3)),
        (z - 1, (0, 1, 2)),
    ):
        assert tuple(total) == want
    # Fraction arithmetic keeps its type even at a whole value; the text
    # of the two is the same ("1/1")
    whole = (Surd(Fraction(1, 3), 0, 2) + Surd(Fraction(2, 3), 2, 3)).rat
    assert type(whole) is Fraction and (whole.numerator, whole.denominator) == (1, 1)
    assert type((z - 1).rat) is int


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
