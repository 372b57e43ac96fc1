"""Exact scalar arithmetic: arbitrary-precision rationals, quadratic surds
rat + coef*sqrt(radicand) with exact sign decisions, and small bivariate
polynomial forms used for symbolic identity checks.

No floating point anywhere; every comparison reduces to integer arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .number_theory import squarefree_decompose


class RadicandMismatch(ValueError):
    """Arithmetic attempted on surds over different irrational radicands."""


class DegreeOverflow(ValueError):
    """A bivariate form exceeded the supported total degree."""


def _sign(x: Fraction) -> int:
    if x > 0:
        return 1
    if x < 0:
        return -1
    return 0


def _validate_squarefree(radicand: int) -> None:
    if radicand < 2:
        raise ValueError(f"radicand must be >= 2, got {radicand}")
    dec = squarefree_decompose(radicand)
    if dec.root != 1:
        raise ValueError(f"radicand must be squarefree, got {radicand}")


@dataclass(frozen=True, eq=False)
class Surd:
    """Exact value rat + coef*sqrt(radicand), radicand squarefree >= 2.

    The direct constructor insists on a squarefree radicand; use Surd.of
    to normalize an arbitrary radicand (perfect squares fold into the
    rational part).
    """

    rat: Fraction
    coef: Fraction
    radicand: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "rat", Fraction(self.rat))
        object.__setattr__(self, "coef", Fraction(self.coef))
        _validate_squarefree(self.radicand)

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
        rat = Fraction(rat)
        coef = Fraction(coef) * dec.root
        if dec.squarefree == 1:
            return cls(rat=rat + coef, coef=Fraction(0), radicand=2)
        return cls(rat=rat, coef=coef, radicand=dec.squarefree)

    @property
    def is_rational(self) -> bool:
        return self.coef == 0

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

    __radd__ = __add__

    def __neg__(self) -> "Surd":
        return Surd(-self.rat, -self.coef, self.radicand)

    def __sub__(self, other: "Surd | Fraction | int") -> "Surd":
        return self.__add__(-other if isinstance(other, Surd) else -Fraction(other))

    def __rsub__(self, other: "Fraction | int") -> "Surd":
        return (-self).__add__(Fraction(other))

    def __mul__(self, other: "Surd | Fraction | int") -> "Surd":
        if isinstance(other, (int, Fraction)):
            return Surd(self.rat * other, self.coef * other, self.radicand)
        if isinstance(other, Surd):
            radicand = self._merge_radicand(other)
            rat = self.rat * other.rat + self.coef * other.coef * radicand
            coef = self.rat * other.coef + self.coef * other.rat
            return Surd(rat, coef, radicand)
        return NotImplemented

    __rmul__ = __mul__

    def sign(self) -> int:
        """Exact sign via integer arithmetic only.

        For rat and coef of opposite signs, compare rat**2 against
        coef**2 * radicand; the larger square decides.  Equality cannot
        occur: it would make sqrt(radicand) rational.
        """
        if self.coef == 0:
            return _sign(self.rat)
        if self.rat == 0:
            return _sign(self.coef)
        rs, cs = _sign(self.rat), _sign(self.coef)
        if rs == cs:
            return rs
        lhs = self.rat * self.rat
        rhs = self.coef * self.coef * self.radicand
        if lhs == rhs:
            raise AssertionError(f"sqrt({self.radicand}) compared equal to a rational")
        return rs if lhs > rhs else cs

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Surd):
            if self.rat != other.rat or self.coef != other.coef:
                return False
            return self.coef == 0 or self.radicand == other.radicand
        if isinstance(other, (int, Fraction)):
            return self.coef == 0 and self.rat == other
        return NotImplemented

    def __hash__(self) -> int:
        if self.coef == 0:
            return hash(self.rat)
        return hash((self.rat, self.coef, self.radicand))

    def __lt__(self, other: "Surd | Fraction | int") -> bool:
        diff = self - other if isinstance(other, Surd) else self - Fraction(other)
        return diff.sign() < 0

    def __le__(self, other: "Surd | Fraction | int") -> bool:
        return self == other or self < other

    def __gt__(self, other: "Surd | Fraction | int") -> bool:
        return not self <= other

    def __ge__(self, other: "Surd | Fraction | int") -> bool:
        return not self < other

    def __repr__(self) -> str:
        if self.coef == 0:
            return f"Surd({self.rat})"
        return f"Surd({self.rat} + {self.coef}*sqrt({self.radicand}))"


# Total degree cap for bivariate forms; the identities checked here are
# quadratic, so anything deeper signals a bug.
MAX_TOTAL_DEGREE = 4


class BiForm:
    """Polynomial in two formal symbols a, b with Fraction coefficients.

    Immutable, sparse, total degree at most MAX_TOTAL_DEGREE.  Equality is
    coefficient-wise, so identities are proved by subtracting and comparing
    with zero.
    """

    __slots__ = ("_terms",)

    def __init__(self, coeffs: dict[tuple[int, int], Fraction | int]):
        terms = {}
        for (i, j), c in coeffs.items():
            if i < 0 or j < 0:
                raise ValueError(f"negative exponent in {(i, j)}")
            if i + j > MAX_TOTAL_DEGREE:
                raise DegreeOverflow(f"total degree {i + j} exceeds {MAX_TOTAL_DEGREE}")
            c = Fraction(c)
            if c != 0:
                terms[(i, j)] = c
        self._terms = tuple(sorted(terms.items()))

    @classmethod
    def constant(cls, c: Fraction | int) -> "BiForm":
        return cls({(0, 0): Fraction(c)})

    @classmethod
    def zero(cls) -> "BiForm":
        return cls({})

    @classmethod
    def sym_a(cls) -> "BiForm":
        return cls({(1, 0): Fraction(1)})

    @classmethod
    def sym_b(cls) -> "BiForm":
        return cls({(0, 1): Fraction(1)})

    @classmethod
    def linear(cls, ca: Fraction | int, cb: Fraction | int) -> "BiForm":
        """The form ca*a + cb*b."""
        return cls({(1, 0): Fraction(ca), (0, 1): Fraction(cb)})

    @property
    def terms(self) -> tuple[tuple[tuple[int, int], Fraction], ...]:
        return self._terms

    def coeff(self, i: int, j: int) -> Fraction:
        return dict(self._terms).get((i, j), Fraction(0))

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __add__(self, other: "BiForm | Fraction | int") -> "BiForm":
        if isinstance(other, (int, Fraction)):
            other = BiForm.constant(other)
        if not isinstance(other, BiForm):
            return NotImplemented
        out = dict(self._terms)
        for key, c in other._terms:
            out[key] = out.get(key, Fraction(0)) + c
        return BiForm(out)

    __radd__ = __add__

    def __neg__(self) -> "BiForm":
        return BiForm({key: -c for key, c in self._terms})

    def __sub__(self, other: "BiForm | Fraction | int") -> "BiForm":
        if isinstance(other, (int, Fraction)):
            other = BiForm.constant(other)
        return self.__add__(-other)

    def __rsub__(self, other: "Fraction | int") -> "BiForm":
        return BiForm.constant(other).__sub__(self)

    def __mul__(self, other: "BiForm | Fraction | int") -> "BiForm":
        if isinstance(other, (int, Fraction)):
            return BiForm({key: c * other for key, c in self._terms})
        if not isinstance(other, BiForm):
            return NotImplemented
        out: dict[tuple[int, int], Fraction] = {}
        for (i1, j1), c1 in self._terms:
            for (i2, j2), c2 in other._terms:
                key = (i1 + i2, j1 + j2)
                out[key] = out.get(key, Fraction(0)) + c1 * c2
        return BiForm(out)

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if isinstance(other, BiForm):
            return self._terms == other._terms
        if isinstance(other, (int, Fraction)):
            return self._terms == BiForm.constant(other)._terms
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._terms)

    def __repr__(self) -> str:
        if not self._terms:
            return "BiForm(0)"
        parts = []
        for (i, j), c in self._terms:
            sym = ("a" if i == 1 else f"a^{i}" if i else "") + (
                "b" if j == 1 else f"b^{j}" if j else ""
            )
            parts.append(f"{c}{'*' if sym else ''}{sym}")
        return "BiForm(" + " + ".join(parts) + ")"


def biform_reduce(p: BiForm, n: int) -> BiForm:
    """Rewrite p modulo the relation a**2 = (n*(n+1)/2) * b**2.

    Every power a**k with k >= 2 folds down two at a time, so the result
    has degree at most 1 in a.  This is the independent Eq1 reduction that
    test_descent checks verify_eq1's certificates against.
    """
    tn = Fraction(n * (n + 1), 2)
    out: dict[tuple[int, int], Fraction] = {}
    for (i, j), c in p.terms:
        while i >= 2:
            i -= 2
            j += 2
            c = c * tn
        out[(i, j)] = out.get((i, j), Fraction(0)) + c
    return BiForm(out)
