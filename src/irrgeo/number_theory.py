"""Integer-side support: factorization, squarefree decomposition, square
counting, continued-fraction convergents, the one walk of the square
triangular indices, on ints or on exact Decimals, and `_square_difference`,
the one expansion of a difference of two squared linear forms from which
every quadratic identity here is proved.

`factorize` refuses an n of _MAX_FACTOR_BITS bits or more at once.  It
removes the primes below 1000 with one gcd against their product, then
splits what is left at an exact square root or odd prime k-th root or
with Pollard's rho (BIT 15, 1975) and proves each piece prime with
Miller-Rabin over the 13 prime bases 2..41.
That test is exact only below psi_13 = 3317044064679887385961981, the least
strong pseudoprime to all 13 bases (Sorenson & Webster, Math. Comp. 86,
2017); a larger piece it cannot prove composite is refused, and so is an n
whose pieces rho cannot split within one fixed budget of steps in all.
"""

from __future__ import annotations

from math import gcd, isqrt, prod
from typing import NamedTuple


class SquareRadicand(ValueError):
    """A radicand that must not be a perfect square was one."""


def _square_difference(c, p, q, d, r, s) -> tuple:
    """The coefficients of a**2, a*b and b**2 in
    c*(p*a + q*b)**2 - d*(r*a + s*b)**2."""
    return c * p * p - d * r * r, 2 * (c * p * q - d * r * s), c * q * q - d * s * s


def triangular(n: int) -> int:
    """n-th triangular number 1 + 2 + ... + n."""
    if n < 0:
        raise ValueError(f"index must be nonnegative, got {n}")
    return n * (n + 1) // 2


def _primes_below(limit: int) -> list[int]:
    sieve = bytearray([1]) * limit
    sieve[:2] = b"\0\0"
    for p in range(2, isqrt(limit - 1) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, limit, p)))
    return [p for p in range(limit) if sieve[p]]


# the primes 5..997 and their product: one gcd finds which of them divide n
_SMALL_PRIMES = _primes_below(1000)[2:]
_SMALL_PRODUCT = prod(_SMALL_PRIMES)
# the exponents _power_root tries: the odd primes below 1000
_ROOT_EXPONENTS = (3, *_SMALL_PRIMES)
# with no prime factor below 1000, a number below 1000**2 is 1 or a prime
_SMALL_BOUND = 1000 * 1000
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3317044064679887385961981  # psi_13
# rho's work per factorize call, over all its pieces and restarts, in
# steps times the 64-bit words of the piece stepped on.  A step's cost
# grows about with the piece's words, so the budget bounds the call's
# time, not only its steps; refusing a 150-bit piece took 0.53 s and a
# 511-bit one 0.66 s, on one Xeon core under CPython 3.11.
# Rho finds a prime factor p in about sqrt(p) steps, so a piece of at most
# 128 bits splits if its least prime is below about 2**36 (psi_12, whose
# least prime is 2**38.5, took 188,312 steps of 2 words); over every T_n
# for n <= 10**5 no call takes more than 567 steps of 1 word.  With 2**18
# steps for each piece the product of 15 primes from 2**33..2**34 (503
# bits) took 4.5 s over its 14 splits.
_RHO_BUDGET = 1 << 19
# factorize refuses an n of this many bits or more before any test: one
# Miller-Rabin base on 1009**997 (9949 bits) took 2.5 s.  Just below the
# cap rho refuses a 511-bit product of two primes in 0.7 s (one Xeon core,
# CPython 3.11); the largest T_n the CLI's range factors is below 2**26.
_MAX_FACTOR_BITS = 512


def _is_prime(m: int) -> bool:
    """Miller-Rabin over _MR_BASES for an odd m > 41.

    False is a proof that m is composite; True is one only below
    _MR_EXACT_BELOW, so a larger m that passes every base raises ValueError
    instead.
    """
    d = m - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in _MR_BASES:
        x = pow(a, d, m)
        if x == 1 or x == m - 1:
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    if m >= _MR_EXACT_BELOW:
        raise ValueError(
            f"cannot prove {m} prime: Miller-Rabin over the primes 2..41 is exact "
            f"only below psi_13 = {_MR_EXACT_BELOW}"
        )
    return True


def _rho_divisor(m: int, budget: int) -> tuple[int, int]:
    """A divisor 1 < d < m of an odd composite m, by Pollard's rho on
    x**2 + c with Floyd's cycle detection, and what is left of budget, of
    which each step spends one unit per 64-bit word of m; a run that closes
    its cycle on m itself starts again with the next c.  ValueError once
    the budget is spent."""
    cost = -(-m.bit_length() // 64)
    c, x, y = 1, 2, 2
    for step in range(1, budget // cost + 1):
        x = (x * x + c) % m
        y = (y * y + c) % m
        y = (y * y + c) % m
        d = gcd(x - y, m)
        if d != 1:
            if d != m:
                return d, budget - step * cost
            c, x, y = c + 1, 2, 2
    raise ValueError(
        f"cannot split a {m.bit_length()}-bit factor: Pollard's rho found no divisor "
        f"within the {_RHO_BUDGET} word-steps of one factorize call"
    )


def _power_root(m: int) -> tuple[int, int]:
    """(r, k) with r**k == m for an odd prime k < 1000, or (0, 0) if there
    is none.

    m has no prime factor below 1000, so such an r is above 1000 and only
    k with 1000**k <= m can hold.  Each floor root is int Newton from
    above, started at a power of 2 at least the root.
    """
    for k in _ROOT_EXPONENTS:
        if 1000**k > m:
            break
        r = 1 << -(-m.bit_length() // k)
        while (s := ((k - 1) * r + m // r ** (k - 1)) // k) < r:
            r = s
        if r**k == m:
            return r, k
    return 0, 0


def factorize(n: int) -> dict[int, int]:
    """Prime factorization as {prime: exponent}, primes in ascending order.

    2 and 3 are divided out first, then the primes 5..997 that divide
    gcd(n, their product).  A cofactor below 1000**2 is then 1 or a prime.
    A larger one is split, at its square root if it is a square, until
    _is_prime proves every piece prime; a piece it shows composite is split
    at its k-th root if it is a k-th power for an odd prime k (_power_root)
    and by Pollard's rho otherwise.  Each piece is carried with its
    exponent, so the root of a power is split once, not once per copy.
    A piece _is_prime can neither prove prime nor show composite raises
    ValueError, and so does an n whose pieces rho does not split within
    _RHO_BUDGET in all, and any n of _MAX_FACTOR_BITS bits or more, before
    any of this.
    """
    if n < 1:
        raise ValueError(f"need a positive integer, got {n}")
    if n.bit_length() >= _MAX_FACTOR_BITS:
        raise ValueError(f"factorize takes fewer than {_MAX_FACTOR_BITS} bits, got {n.bit_length()}")
    out: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    g = gcd(n, _SMALL_PRODUCT)
    for p in _SMALL_PRIMES:
        if g == 1:
            break
        if p * p > g:  # g is squarefree, so what is left of it is one prime
            p = g
        if g % p == 0:
            g //= p
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out[p] = e
    large: list[tuple[int, int]] = []
    work = [(n, 1)] if n > 1 else []
    budget = _RHO_BUDGET
    while work:
        m, e = work.pop()
        if m < _SMALL_BOUND:
            large.append((m, e))
        elif (r := isqrt(m)) * r == m:
            work.append((r, 2 * e))
        elif _is_prime(m):
            large.append((m, e))
        else:
            r, k = _power_root(m)
            if k:
                work.append((r, k * e))
            else:
                d, budget = _rho_divisor(m, budget)
                work += ((d, e), (m // d, e))
    for p, e in sorted(large):
        out[p] = out.get(p, 0) + e
    return out


class SquarefreeDecomposition(NamedTuple):
    """A positive integer as squarefree * root**2, squarefree squarefree."""

    squarefree: int
    root: int


def squarefree_decompose(n: int) -> SquarefreeDecomposition:
    """Split a positive integer into its squarefree part and square part."""
    free = 1
    root = 1
    for p, e in factorize(n).items():
        if e % 2:
            free *= p
        root *= p ** (e // 2)
    return SquarefreeDecomposition(squarefree=free, root=root)


def square_density(x: int) -> int:
    """The number of perfect squares in 1..x; their share of 1..x is
    that count over x."""
    if x < 1:
        raise ValueError(f"need a positive bound, got {x}")
    return isqrt(x)


def convergents(radicand: int, count: int) -> list[tuple[int, int]]:
    """First `count` continued-fraction convergents p/q of sqrt(radicand),
    each as the pair (p, q).

    Uses the integer recurrence for the periodic expansion of a quadratic
    irrational; radicand must be a non-square integer >= 2.
    """
    if radicand < 2 or (a0 := isqrt(radicand)) * a0 == radicand:
        raise SquareRadicand(f"sqrt({radicand}) is not irrational")
    if count < 0:
        raise ValueError(f"count must be nonnegative, got {count}")
    # state for the partial quotients of (sqrt(N) + m) / d
    m, d, a = 0, 1, a0
    p_prev, q_prev = 1, 0
    p, q = a0, 1
    out = [(p, q)]
    for _ in range(1, count):
        m = d * a - m
        d = (radicand - m * m) // d
        a = (a0 + m) // d
        p, p_prev = a * p + p_prev, p
        q, q_prev = a * q + q_prev, q
        out.append((p, q))
    return out[:count]


# the rows of (x, y) -> (3x + 4y, 2x + 3y): x + y*sqrt(2) times 3 + 2*sqrt(2)
_PELL_STEP = ((3, 4), (2, 3))


def _square_triangular(limit, one):
    """Yield every n <= limit whose triangular number is a perfect square,
    in increasing order, walking in the arithmetic of one, which is 1: an
    int, or a Decimal under an exact context.

    T_n == m**2 is x**2 - 2*y**2 == 1 in x = 2n + 1, y = 2m.  Every
    solution with x > 0 and y >= 0 is x + y*sqrt(2) == (3 + 2*sqrt(2))**k
    for some k >= 0, and each has x odd and y even, so the walk from
    (1, 0) by _PELL_STEP, (x, y) -> (3x + 4y, 2x + 3y), meets every n in
    increasing order and misses none.  That the step keeps x**2 - 2*y**2
    is proved once per call from its coefficients; (1, 0) has
    x**2 - 2*y**2 == 1, so every term has T_n == m**2.
    """
    (p, q), (r, s) = _PELL_STEP
    if _square_difference(1, p, q, 2, r, s) != (1, 0, -2):
        raise AssertionError(f"(x, y) -> ({p}x + {q}y, {r}x + {s}y) does not keep x**2 - 2*y**2")
    x, y = one, 0
    while (n := (x - 1) // 2) <= limit:
        yield n
        x, y = p * x + q * y, r * x + s * y
