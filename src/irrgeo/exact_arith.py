"""Exact quadratic surds rat + coef*sqrt(radicand) over arbitrary-precision
rationals: sums, differences and exact signs, but no product or ordering.
Equality is the record's: two surds are equal when their fields are.
An int part stays an int and a Fraction part a Fraction (3 == Fraction(3),
and the two hash alike); any other number becomes a Fraction.

No floating point anywhere; every sign reduces to integer arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .number_theory import squarefree_decompose


class RadicandMismatch(ValueError):
    """Arithmetic attempted on surds over different irrational radicands."""


def _validate_squarefree(radicand: int) -> None:
    if radicand < 2:
        raise ValueError(f"radicand must be >= 2, got {radicand}")
    dec = squarefree_decompose(radicand)
    if dec.root != 1:
        raise ValueError(f"radicand must be squarefree, got {radicand}")


def _exact(x: Fraction | int) -> Fraction | int:
    return x if type(x) in (int, Fraction) else Fraction(x)


class _SurdFields(NamedTuple):
    rat: Fraction | int
    coef: Fraction | int
    radicand: int


class Surd(_SurdFields):
    """Exact value rat + coef*sqrt(radicand), radicand squarefree >= 2.

    The direct constructor insists on a squarefree radicand, every time
    (_make and _replace skip the check); use Surd.of to normalize an
    arbitrary radicand (perfect squares fold into the rational part).
    """

    __slots__ = ()

    def __new__(cls, rat: Fraction | int, coef: Fraction | int, radicand: int) -> "Surd":
        _validate_squarefree(radicand)
        return tuple.__new__(cls, (_exact(rat), _exact(coef), radicand))

    @classmethod
    def of(cls, rat: Fraction | int, coef: Fraction | int, radicand: int) -> "Surd":
        """Build rat + coef*sqrt(radicand) for any integer radicand >= 1.

        sqrt(f * r**2) = r * sqrt(f), so the square part of the radicand
        moves into the coefficient; a perfect square collapses to a plain
        rational (stored with coef 0 over a placeholder radicand).
        """
        if radicand < 1:
            raise ValueError(f"radicand must be positive, got {radicand}")
        dec = squarefree_decompose(radicand)
        rat, coef = _exact(rat), _exact(coef) * dec.root
        if dec.squarefree == 1:
            return cls(rat=rat + coef, coef=0, radicand=2)
        return cls(rat=rat, coef=coef, radicand=dec.squarefree)

    def _merge_radicand(self, other: "Surd") -> int:
        if self.coef == 0:
            return other.radicand
        if other.coef == 0:
            return self.radicand
        if self.radicand != other.radicand:
            raise RadicandMismatch(
                f"cannot combine sqrt({self.radicand}) with sqrt({other.radicand})"
            )
        return self.radicand

    def __add__(self, other: "Surd | Fraction | int") -> "Surd":
        if isinstance(other, (int, Fraction)):
            return Surd(self.rat + other, self.coef, self.radicand)
        if isinstance(other, Surd):
            radicand = self._merge_radicand(other)
            return Surd(self.rat + other.rat, self.coef + other.coef, radicand)
        return NotImplemented

    def __neg__(self) -> "Surd":
        return Surd(-self.rat, -self.coef, self.radicand)

    def __sub__(self, other: "Surd | Fraction | int") -> "Surd":
        return self + -other

    def sign(self) -> int:
        """Exact sign from the integer numerators and denominators.

        The signs of rat and coef are their numerators'.  When they are
        opposite, rat**2 against coef**2 * radicand decides, compared as
        (rn*cd)**2 against (cn*rd)**2 * radicand; the larger square wins.
        Equality cannot occur: it would make sqrt(radicand) rational.
        """
        rn, rd = self.rat.numerator, self.rat.denominator
        cn, cd = self.coef.numerator, self.coef.denominator
        rs = (rn > 0) - (rn < 0)
        cs = (cn > 0) - (cn < 0)
        if rs * cs < 0:
            lhs = (rn * cd) ** 2
            rhs = (cn * rd) ** 2 * self.radicand
            if lhs == rhs:
                raise AssertionError(f"sqrt({self.radicand}) compared equal to a rational")
            return rs if lhs > rhs else cs
        return rs or cs

    # no product or ordering: a tuple subclass would otherwise fall back to
    # tuple repetition and field order; None makes each operator a TypeError
    __mul__ = __rmul__ = __lt__ = __le__ = __gt__ = __ge__ = None
