from fractions import Fraction

from irrgeo import DescentFamily, FamilyKind, convergents, window_inequalities
from irrgeo.geometry import _balance, _figure


def window_convergents(family: DescentFamily, count: int) -> list[tuple[int, int]]:
    """First `count` continued-fraction convergents of the family's target
    root whose pair lies strictly inside the figure window."""
    batch = count + 8
    while True:
        pairs = [
            (p, q)
            for p, q in convergents(family.radicand, batch)
            if all(w.ok for w in window_inequalities(family, p, q))
        ]
        if len(pairs) >= count:
            return pairs[:count]
        batch += count


def area(census, key: str) -> Fraction:
    """The census area field key as the rational it stands for: the field
    over census.area_den."""
    return Fraction(getattr(census, key), census.area_den)


def eq1_difference(n: int) -> tuple[Fraction, Fraction, Fraction]:
    """Eq1's left side, (n+1)*(n*b - a)**2 - (n/2)*(2*a - (n+1)*b)**2, as
    (a**2, a*b, b**2) coefficients: the triangle figure's balance over
    2*(n - 1).  BadIndex for n < 2."""
    balance = _balance(_figure(DescentFamily.triangular(n)))
    return tuple(Fraction(c, 2 * (n - 1)) for c in balance)


def eq1_holds(n: int) -> bool:
    """Whether eq1_difference(n) is (1 - n)*(1, 0, -T_n), T_n the family's
    radicand, so that Eq1 holds iff a**2 == T_n*b**2."""
    return eq1_difference(n) == (1 - n, 0, (n - 1) * DescentFamily.triangular(n).radicand)


def all_figure_families() -> list[DescentFamily]:
    return [
        DescentFamily(FamilyKind.SQRT2),
        DescentFamily(FamilyKind.HEX6),
        DescentFamily.triangular(2),
        DescentFamily.triangular(3),
        DescentFamily.triangular(4),
        DescentFamily.triangular(5),
    ]


# one line per acceptance criterion, echoed after the run so the verdicts
# survive pytest's output capture
acceptance_lines: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_lines:
            terminalreporter.write_line(line)
