"""Exact quadratic surds rat + coef*sqrt(radicand) with int parts: sums,
differences and exact signs, but no product or ordering.
Equality is the record's: two surds are equal when their fields are.
Each part must be an int; any other type, bool included, is a TypeError.

No floating point anywhere; every sign is decided in integers.
"""

from __future__ import annotations

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


def _int_part(x: int) -> int:
    if type(x) is not int:
        raise TypeError(f"a surd part must be an int, got {type(x).__name__}")
    return x


class _SurdFields(NamedTuple):
    rat: int
    coef: int
    radicand: int


class Surd(_SurdFields):
    """Exact value rat + coef*sqrt(radicand), rat and coef ints, radicand
    squarefree >= 2.

    The direct constructor insists on int parts and a squarefree radicand,
    every time (_make and _replace skip the checks); use Surd.of to
    normalize an arbitrary radicand (perfect squares fold into rat).
    """

    __slots__ = ()

    def __new__(cls, rat: int, coef: int, radicand: int) -> "Surd":
        _validate_squarefree(radicand)
        return tuple.__new__(cls, (_int_part(rat), _int_part(coef), radicand))

    @classmethod
    def of(cls, rat: int, coef: int, radicand: int) -> "Surd":
        """Build rat + coef*sqrt(radicand) for int parts and any integer
        radicand >= 1.

        sqrt(f * r**2) = r * sqrt(f), so the square part of the radicand
        moves into the coefficient; a perfect square collapses to a plain
        int (stored with coef 0 over a placeholder radicand).
        """
        if radicand < 1:
            raise ValueError(f"radicand must be positive, got {radicand}")
        dec = squarefree_decompose(radicand)
        rat, coef = _int_part(rat), _int_part(coef) * dec.root
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

    def __add__(self, other: "Surd | int") -> "Surd":
        if type(other) is int:
            return Surd(self.rat + other, self.coef, self.radicand)
        if isinstance(other, Surd):
            radicand = self._merge_radicand(other)
            return Surd(self.rat + other.rat, self.coef + other.coef, radicand)
        return NotImplemented

    def __neg__(self) -> "Surd":
        return Surd(-self.rat, -self.coef, self.radicand)

    def __sub__(self, other: "Surd | int") -> "Surd":
        # a bool is refused before it is negated: -True is the int -1
        return NotImplemented if type(other) is bool else self + -other

    def sign(self) -> int:
        """Exact sign in integers.

        When rat and coef have opposite signs, rat*rat against
        coef*coef*radicand decides; the larger square wins.  Equality
        cannot occur: it would make sqrt(radicand) rational.
        """
        rat, coef, radicand = self
        rs = (rat > 0) - (rat < 0)
        cs = (coef > 0) - (coef < 0)
        if rs * cs >= 0:
            return rs or cs
        gap = rat * rat - coef * coef * radicand
        if gap == 0:
            raise AssertionError(f"sqrt({radicand}) compared equal to a rational")
        return rs if gap > 0 else cs

    # no product or ordering: a tuple subclass would otherwise fall back to
    # tuple repetition and field order; None makes each operator a TypeError
    __mul__ = __rmul__ = __lt__ = __le__ = __gt__ = __ge__ = None
