"""Integer-side support: factorization, squarefree decomposition, square
counting, continued-fraction convergents, and the square triangular
numbers."""

from __future__ import annotations

from fractions import Fraction
from math import isqrt
from typing import NamedTuple


class SquareRadicand(ValueError):
    """A radicand that must not be a perfect square was one."""


def is_perfect_square(n: int) -> bool:
    if n < 0:
        return False
    r = isqrt(n)
    return r * r == n


def triangular(n: int) -> int:
    """n-th triangular number 1 + 2 + ... + n."""
    if n < 0:
        raise ValueError(f"index must be nonnegative, got {n}")
    return n * (n + 1) // 2


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division, as {prime: exponent}."""
    if n < 1:
        raise ValueError(f"need a positive integer, got {n}")
    out: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    # remaining factors are coprime to 6; step through 6k +/- 1
    p = 5
    while p * p <= n:
        for q in (p, p + 2):
            while n % q == 0:
                out[q] = out.get(q, 0) + 1
                n //= q
        p += 6
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


class SquarefreeDecomposition(NamedTuple):
    """n == squarefree * root**2 with squarefree squarefree."""

    n: int
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
    return SquarefreeDecomposition(n=n, squarefree=free, root=root)


def square_density(x: int) -> tuple[int, Fraction]:
    """Count perfect squares 1..x and their share of 1..x as a percentage.

    Returns (count, percent) with percent exact; e.g. x = 100 gives
    (10, Fraction(10)).
    """
    if x < 1:
        raise ValueError(f"need a positive bound, got {x}")
    count = isqrt(x)
    return count, Fraction(100 * count, x)


def convergents(radicand: int, count: int) -> list[tuple[int, int]]:
    """First `count` continued-fraction convergents p/q of sqrt(radicand),
    each as the pair (p, q).

    Uses the integer recurrence for the periodic expansion of a quadratic
    irrational; radicand must be a non-square integer >= 2.
    """
    if radicand < 2 or is_perfect_square(radicand):
        raise SquareRadicand(f"sqrt({radicand}) is not irrational")
    if count < 0:
        raise ValueError(f"count must be nonnegative, got {count}")
    a0 = isqrt(radicand)
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


def square_triangular(limit: int) -> list[int]:
    """All n <= limit whose triangular number is a perfect square.

    Generated by the second-order recurrence n' = 6n - n_prev + 2 from
    (0, 1); each emitted index is checked against the direct definition.
    """
    if limit < 0:
        raise ValueError(f"limit must be nonnegative, got {limit}")
    out: list[int] = []
    prev, cur = 0, 1
    while prev <= limit:
        if not is_perfect_square(triangular(prev)):
            raise AssertionError(f"recurrence gave {prev}, but T_{prev} is not a square")
        out.append(prev)
        prev, cur = cur, 6 * cur - prev + 2
    return out
