import itertools
import random
import time
from math import gcd, isqrt, prod

import pytest

from irrgeo import number_theory
from irrgeo.exact_arith import Surd
from irrgeo.number_theory import (
    SquareRadicand,
    convergents,
    factorize,
    square_density,
    square_triangular,
    squarefree_decompose,
    triangular,
)


def test_triangular_values():
    assert [triangular(n) for n in range(9)] == [0, 1, 3, 6, 10, 15, 21, 28, 36]
    assert triangular(8) == 36 == isqrt(triangular(8)) ** 2


def test_triangular_rejects_negative():
    with pytest.raises(ValueError, match="index must be nonnegative, got -1"):
        triangular(-1)


def test_factorize():
    assert factorize(1) == {}
    assert factorize(2026) == {2: 1, 1013: 1}
    assert factorize(360) == {2: 3, 3: 2, 5: 1}
    with pytest.raises(ValueError):
        factorize(0)


def _trial_factor(n: int) -> dict[int, int]:
    """The factorization oracle: plain trial division by 2 and every odd d."""
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _triangular_oracle(n: int) -> dict[int, int]:
    """T_n = n * (n + 1) / 2 from the trial factorizations of n and n + 1,
    which are coprime, so their exponents add and one 2 comes off."""
    out = _trial_factor(n)
    for p, e in _trial_factor(n + 1).items():
        out[p] = out.get(p, 0) + e
    out[2] -= 1
    return {p: out[p] for p in sorted(out) if out[p]}


def _assert_factors(n: int, expected: dict[int, int]) -> None:
    got = factorize(n)
    assert got == expected, n
    assert list(got) == sorted(got), n


def test_factorize_every_triangular_number_against_trial_division():
    for n in range(1, 20_001):
        _assert_factors(triangular(n), _triangular_oracle(n))
    rng = random.Random(25)
    for n in rng.sample(range(20_001, 100_001), 3000):
        _assert_factors(triangular(n), _triangular_oracle(n))


def test_factorize_numbers_past_the_small_primes():
    # psi_12, the least strong pseudoprime to the bases 2..37, must be split
    # (base 41 proves it composite); 3825123056546413051 is a strong
    # pseudoprime to the bases 2..23
    cases = {
        318665857834031151167461: {399165290221: 1, 798330580441: 1},
        3825123056546413051: {149491: 1, 747451: 1, 34233211: 1},
        1009**9: {1009: 9},
        (2**31 - 1) ** 2: {2**31 - 1: 2},
        1013**2 * 1019: {1013: 2, 1019: 1},
        2**5 * 3 * 5**2 * 997 * 1009**2 * 1013: {2: 5, 3: 1, 5: 2, 997: 1, 1009: 2, 1013: 1},
    }
    for n, expected in cases.items():
        assert all(_trial_factor(p) == {p: 1} for p in expected)
        _assert_factors(n, expected)
    primes = [p for p in range(1001, 1200) if _trial_factor(p) == {p: 1}]
    for i, p in enumerate(primes):
        for q in primes[i:]:
            _assert_factors(p * q, {p: 2} if p == q else {p: 1, q: 1})
    # 70 of these 200 have two prime factors above 1000
    rng = random.Random(2017)
    for _ in range(200):
        n = rng.randrange(1, 10**12)
        _assert_factors(n, _trial_factor(n))


def test_factorize_refuses_what_miller_rabin_cannot_prove():
    # psi_13 passes Miller-Rabin over every base 2..41, and 2**89 - 1 is a
    # Mersenne prime above psi_13; both are refused at once instead of
    # being trial-divided, naming the bound
    for n in (3317044064679887385961981, 2**89 - 1):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="psi_13 = 3317044064679887385961981"):
            factorize(n)
        assert time.perf_counter() - start < 1.0
    # a number above the bound still factors when every piece the test
    # cannot prove composite lies below it
    assert 1009**9 > 3317044064679887385961981
    assert factorize(1009**9) == {1009: 9}


def test_factorize_answers_or_refuses_in_bounded_time():
    # a square piece splits at its root, and an odd prime power piece at
    # its k-th root, where rho would need about 2**30 steps; a piece whose
    # least prime is above 2**60 (here two Mersenne primes) is refused once
    # rho has taken its step budget
    big = 2**61 - 1
    cases = (
        (5 * big**2, {5: 1, big: 2}),
        (big**2 * (2**31 - 1) ** 4, {2**31 - 1: 4, big: 2}),
        (big**3, {big: 3}),
        (big**5, {big: 5}),
        (big**3 * (2**31 - 1), {2**31 - 1: 1, big: 3}),
        (big * (2**89 - 1), None),
    )
    for n, expected in cases:
        start = time.perf_counter()
        if expected is None:
            with pytest.raises(ValueError, match="Pollard's rho found no divisor"):
                factorize(n)
        else:
            _assert_factors(n, expected)
        assert time.perf_counter() - start < 5.0, n


def test_factorize_spends_one_rho_budget_per_call():
    # rho's step budget is one per factorize call, not one per split: this
    # 503-bit product of 15 primes from 2**33..2**34 took 4.5 s when each of
    # its 14 splits could spend a whole budget; it is now answered or
    # refused in bounded time
    rng = random.Random(7)
    primes = []
    while len(primes) < 15:
        p = rng.randrange(2**33, 2**34) | 1
        if factorize(p) == {p: 1}:
            primes.append(p)
    n = prod(primes)
    assert n.bit_length() == 503
    start = time.perf_counter()
    try:
        assert factorize(n) == {p: primes.count(p) for p in sorted(primes)}
    except ValueError as error:
        assert "Pollard's rho found no divisor" in str(error)
    assert time.perf_counter() - start < 1.5


def test_factorize_refuses_512_bits_and_more_at_once():
    # Miller-Rabin alone took 2-3 s on 1009**997 and did not end on
    # (2**61 - 1)**997; the bit cap refuses both, and Surd.of, which
    # factors its radicand, inherits the refusal
    calls = (
        lambda: factorize(1009**997),
        lambda: factorize((2**61 - 1) ** 997),
        lambda: factorize(2**511),
        lambda: Surd.of(0, 1, 1009**997),
    )
    for call in calls:
        start = time.perf_counter()
        with pytest.raises(ValueError, match="factorize takes fewer than 512 bits"):
            call()
        assert time.perf_counter() - start < 1.0
    assert factorize(2**510) == {2: 510}


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
    assert square_density(100) == 10
    assert square_density(1) == 1
    assert square_density(2) == 1
    assert square_density(10**6) == 1000
    assert square_density(10**12 - 1) == 999999
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


def test_convergents_rejects_negative_count():
    with pytest.raises(ValueError, match="count must be nonnegative, got -1"):
        convergents(6, -1)


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
    d1 = Surd(q1 * q1 * radicand + p1 * p1, -2 * p1 * q1, radicand)
    d2 = Surd(q2 * q2 * radicand + p2 * p2, -2 * p2 * q2, radicand)
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


def test_square_triangular_rejects_negative():
    with pytest.raises(ValueError, match="limit must be nonnegative, got -1"):
        square_triangular(-1)


def test_square_triangular_brute_force():
    limit = 10**4
    brute = [n for n in range(limit + 1) if isqrt(triangular(n)) ** 2 == triangular(n)]
    assert square_triangular(limit) == brute


def test_square_triangular_proof_catches_each_coefficient_off_by_one(monkeypatch):
    # the once-per-call proof that the Pell step keeps x**2 - 2*y**2 must
    # refuse each of its four coefficients one too high or too low; it
    # raises AssertionError itself, so it holds under python -O as well
    rows = number_theory._PELL_STEP
    for i, j, e in itertools.product((0, 1), (0, 1), (1, -1)):
        bad = [list(row) for row in rows]
        bad[i][j] += e
        monkeypatch.setattr(number_theory, "_PELL_STEP", bad)
        with pytest.raises(AssertionError, match="does not keep"):
            square_triangular(10)
