"""Descent maps on integer pairs (a, b) standing for a hypothetical
rational square root a/b.

Every family's map is (a, b) -> sign*(N*b - k*a, a - k*b), one classical
descent of which Tennenbaum's sqrt2 figure is the k = 1 case; _MAPS gives
(N, k, sign): sqrt2 (2, 1, +1), hex6 (6, 3, -1), triangular n (T_n, n, -1)
for even n and (T_n, (n + 1)/2, +1) for odd n.  The map multiplies the
defect a**2 - N*b**2 by k**2 - N, and at a/b == sqrt(N) it shrinks pairs
iff N is no square and k is isqrt(N) (sign +1) or isqrt(N) + 1 (sign -1):
triangular n = 6 fails, as k = 6 but isqrt(21) + 1 = 5.  The module
computes the maps, proves their defect identities coefficient by
coefficient, and decides exactly for which parameters the shrinking
argument is valid.
"""

from __future__ import annotations

from enum import Enum
from typing import Iterator, NamedTuple

from .exact_arith import Surd
from .number_theory import _square_difference, triangular


class BadIndex(ValueError):
    """A family index outside the defined range."""


class FamilyKind(Enum):
    SQRT2 = "sqrt2"
    HEX6 = "hex6"
    TRIANGULAR = "triangular"


# kind -> n -> (N, k, sign); n is the triangular row count and None otherwise
_MAPS = {
    FamilyKind.SQRT2: lambda n: (2, 1, 1),
    FamilyKind.HEX6: lambda n: (6, 3, -1),
    FamilyKind.TRIANGULAR: lambda n: (triangular(n), n, -1) if n % 2 == 0 else (triangular(n), (n + 1) // 2, 1),
}


def _forms(family: "DescentFamily") -> tuple[int, tuple[int, int], tuple[int, int]]:
    """N and the family map's integer forms a' = ca*a + cb*b, b' = da*a + db*b,
    as (N, (ca, cb), (da, db)): sign*(N*b - k*a, a - k*b) in coefficients."""
    big_n, k, sign = _MAPS[family.kind](family.n)
    return big_n, (-sign * k, sign * big_n), (sign, -sign * k)


class _FamilyFields(NamedTuple):
    kind: FamilyKind
    n: int | None = None


class DescentFamily(_FamilyFields):
    """One descent map: pair (a, b) -> (a', b') by fixed linear forms.

    kind selects the map; n is the row count for the triangular family
    and None otherwise.  The constructor checks both, kind before n: a kind
    that is no FamilyKind member is a TypeError.  _make and _replace do not.
    """

    __slots__ = ()

    def __new__(cls, kind: FamilyKind, n: int | None = None) -> "DescentFamily":
        if type(kind) is not FamilyKind:
            raise TypeError(f"a family kind must be a FamilyKind, got {type(kind).__name__}")
        if kind is not FamilyKind.TRIANGULAR:
            if n is not None:
                raise BadIndex(f"{kind.value} takes no index n")
        elif n is None or n < 2:
            raise BadIndex(f"triangular family needs an index n >= 2, got {n}")
        return tuple.__new__(cls, (kind, n))

    @classmethod
    def triangular(cls, n: int) -> "DescentFamily":
        """Triangular family for any n >= 2; parity picks the map."""
        return cls(FamilyKind.TRIANGULAR, n)

    @property
    def label(self) -> str:
        return self.kind.value

    @property
    def title(self) -> str:
        """The label, with the index when there is one: "triangular n=5"."""
        return self.label if self.n is None else f"{self.label} n={self.n}"

    @property
    def radicand(self) -> int:
        """The integer whose square root the family targets.

        sqrt2 targets 2, hex6 targets 6, triangular n targets the n-th
        triangular number (which may be a perfect square; range_check is
        what rules such n out).
        """
        return _forms(self)[0]


class DescentStep(NamedTuple):
    pair_in: tuple[int, int]
    pair_out: tuple[int, int]
    defect_in: int
    defect_out: int
    multiplier: int


def descent_step(family: DescentFamily, a: int, b: int) -> DescentStep:
    """Apply the family map once to a positive pair.

    The forms have integer coefficients, so the output entries are
    integers; the defect a**2 - N*b**2 is multiplied by the family's fixed
    constant, which is proved once per call, from the map's coefficients.
    """
    if a < 1 or b < 1:
        raise ValueError(f"need a positive pair, got ({a}, {b})")
    fmap = _forms(family)
    return next(_steps(family, fmap, defect_multiplier(family), a, b, a * a - fmap[0] * (b * b)))


def _steps(family: DescentFamily, fmap: tuple, m: int, a: int, b: int, d_in: int) -> Iterator[DescentStep]:
    """The steps of fmap, with multiplier m, from (a, b) of defect d_in on,
    each from the last one's output pair and defect.  That each output
    defect is m times the input defect is proved once per call, from the
    map's coefficients, when the first step is drawn: then
    (ca*a + cb*b)**2 - N*(da*a + db*b)**2 == m*(a**2 - N*b**2) holds as a
    polynomial identity, and each output defect is taken as m * d_in."""
    big_n, (ca, cb), (da, db) = fmap
    form = _square_difference(1, ca, cb, big_n, da, db)
    if form != (m, 0, -m * big_n):
        raise AssertionError(f"{family.title} sends a**2 - N*b**2 to the form {form}, not {m} times it")
    while True:
        a_out = ca * a + cb * b
        b_out = da * a + db * b
        d_out = m * d_in
        # DescentStep._make without its field count check: five are given
        yield tuple.__new__(DescentStep, ((a, b), (a_out, b_out), d_in, d_out, m))
        a, b, d_in = a_out, b_out, d_out


def defect_multiplier(family: DescentFamily) -> int:
    """The constant m with a'**2 - N*b'**2 == m * (a**2 - N*b**2).

    Read off the integer coefficients of (ca*a + cb*b)**2 - N*(da*a + db*b)**2:
    its a**2 coefficient is m, its a*b coefficient must vanish and its
    b**2 coefficient must be -m*N.
    """
    big_n, (ca, cb), (da, db) = _forms(family)
    m, ab, bb = _square_difference(1, ca, cb, big_n, da, db)
    if ab != 0 or bb != -m * big_n:
        raise AssertionError(f"defect of {family} is not a multiple of a^2 - N*b^2")
    return m


class InequalityWitness(NamedTuple):
    """One strict inequality evaluated exactly at the fixed ratio."""

    name: str
    value: Surd
    require: str  # "> 0" or "< 0"
    sign: int
    ok: bool


class RangeCheckResult(NamedTuple):
    family: DescentFamily
    works: bool
    witnesses: tuple[InequalityWitness, ...]


def range_check(family: DescentFamily) -> RangeCheckResult:
    """Decide exactly whether the family shrinks pairs near the fixed ratio.

    At a/b == sqrt(N) with b scaled to 1 the map must give
    0 < a' < sqrt(N) and 0 < b' < 1; each strict inequality is decided by
    an exact surd sign and returned as a witness.
    """
    big_n, (ca, cb), (da, db) = _forms(family)
    # a' and b' at (a, b) = (sqrt(N), 1), and sqrt(N) itself
    a_out, b_out, sqrt_n = Surd.of(cb, ca, big_n), Surd.of(db, da, big_n), Surd.of(0, 1, big_n)
    conditions = (
        ("a_out_positive", a_out, "> 0"),
        ("a_out_shrinks", a_out - sqrt_n, "< 0"),
        ("b_out_positive", b_out, "> 0"),
        ("b_out_shrinks", b_out - 1, "< 0"),
    )
    witnesses = []
    for name, value, require in conditions:
        sign = value.sign()
        ok = sign > 0 if require == "> 0" else sign < 0
        witnesses.append(InequalityWitness(name=name, value=value, require=require, sign=sign, ok=ok))
    return RangeCheckResult(family=family, works=all(w.ok for w in witnesses), witnesses=tuple(witnesses))


class ChainResult(NamedTuple):
    """A maximal run of descent steps from a starting pair.

    stop_reason is "nonpositive" (next pair would leave the positive
    quadrant), "no_decrease" (next denominator would not shrink), or
    "max_steps"; final_pair is the last pair actually reached.
    """

    family: DescentFamily
    start: tuple[int, int]
    steps: tuple[DescentStep, ...]
    stop_reason: str
    final_pair: tuple[int, int]


def descent_chain(family: DescentFamily, a: int, b: int, max_steps: int) -> ChainResult:
    """Iterate the map while it keeps producing strictly smaller positive pairs."""
    if a < 1 or b < 1:
        raise ValueError(f"need a positive pair, got ({a}, {b})")
    if max_steps < 0:
        raise ValueError(f"max_steps must be nonnegative, got {max_steps}")
    fmap = _forms(family)
    # one record per kept step, each drawn only under the cap: the kernel
    # computes a step when it is drawn
    kernel = _steps(family, fmap, defect_multiplier(family), a, b, a * a - fmap[0] * (b * b))
    steps: list[DescentStep] = []
    cur = (a, b)
    reason = "max_steps"
    while len(steps) < max_steps:
        step = next(kernel)
        a_out, b_out = pair_out = step.pair_out
        if a_out < 1 or b_out < 1:
            reason = "nonpositive"
            break
        if b_out >= cur[1]:
            reason = "no_decrease"
            break
        steps.append(step)
        cur = pair_out
    return ChainResult(
        family=family,
        start=(a, b),
        steps=tuple(steps),
        stop_reason=reason,
        final_pair=cur,
    )
