"""End-to-end acceptance run: nine numbered criteria, one line each.

The per-criterion verdict lines are echoed in an "acceptance criteria"
section after the test summary; each criterion is also an ordinary test
that fails loudly.
"""

import json
import random
from contextlib import contextmanager
from fractions import Fraction
from math import isqrt

import pytest

import conftest
from conftest import all_figure_families, area, window_convergents
from irrgeo.descent import (
    DescentFamily,
    FamilyKind,
    defect_multiplier,
    descent_step,
    range_check,
)
from irrgeo.exact_arith import Surd
from irrgeo.geometry import (
    build_arrangement,
    census_to_descent,
    coverage_census,
    verify_figure,
    _balance,
    _figure,
    _side,
)
from irrgeo.number_theory import _square_triangular, convergents
from irrgeo.render_report import cli_main


@contextmanager
def _criterion(num: int, description: str):
    try:
        yield
    except BaseException:
        _record(f"criterion {num} FAIL {description}")
        raise
    _record(f"criterion {num} PASS {description}")


def _record(line: str) -> None:
    print(line)
    conftest.acceptance_lines.append(line)


@pytest.fixture(scope="module")
def figure_runs():
    """Five window convergents per figure family, each built and censused
    once; criteria 4, 5 and 8 all read from this list."""
    runs = []
    for family in all_figure_families():
        for p, q in window_convergents(family, 5):
            arr = build_arrangement(family, p, q)
            runs.append((family, p, q, arr, coverage_census(arr)))
    return runs


def test_criterion_1_area_identity_certificate():
    with _criterion(1, "area identity certificate holds exactly for 2 <= n <= 50"):
        for n in range(2, 51):
            family = DescentFamily.triangular(n)
            # Eq1's left side is the triangle figure's balance over 2(n - 1);
            # it is (1 - n)*(a**2 - T_n*b**2), zero iff a**2 == T_n*b**2
            difference = tuple(Fraction(c, 2 * (n - 1)) for c in _balance(_figure(family)))
            assert difference == (1 - n, 0, (n - 1) * family.radicand), n


def test_criterion_2_parameter_range():
    with _criterion(2, "map shrinks pairs iff n in {2,3,4,5}; first failures 6 and 7"):
        assert range_check(DescentFamily(FamilyKind.SQRT2)).works
        assert range_check(DescentFamily(FamilyKind.HEX6)).works
        working = set()
        for n in range(2, 101):
            result = range_check(DescentFamily.triangular(n))
            if result.works:
                working.add(n)
            for w in result.witnesses:
                assert isinstance(w.value, Surd)
        assert working == {2, 3, 4, 5}
        even_fail = min(n for n in range(2, 101, 2) if n not in working)
        odd_fail = min(n for n in range(3, 101, 2) if n not in working)
        assert (even_fail, odd_fail) == (6, 7)


def test_criterion_3_defect_multipliers():
    with _criterion(3, "defect multipliers match closed forms, symbolically and on 500 random pairs each"):
        expected = {
            DescentFamily(FamilyKind.SQRT2): Fraction(-1),
            DescentFamily(FamilyKind.HEX6): Fraction(3),
            DescentFamily.triangular(2): Fraction(1),
            DescentFamily.triangular(4): Fraction(6),
            DescentFamily.triangular(3): Fraction(-2),
            DescentFamily.triangular(5): Fraction(-6),
        }
        rng = random.Random(20260821)
        for family, m in expected.items():
            assert defect_multiplier(family) == m
            for _ in range(500):
                a = rng.randint(1, 10**6)
                b = rng.randint(1, 10**6)
                step = descent_step(family, a, b)
                assert step.multiplier == m
                assert Fraction(step.defect_out) == m * step.defect_in


def test_criterion_4_census_closed_forms(figure_runs):
    with _criterion(4, "coverage census matches closed forms on 5 convergents per family"):
        for family, p, q, arr, census in figure_runs:
            n = family.n
            if family.label == "sqrt2":
                t, s = Fraction(2 * q - p), Fraction(p - q)
                doubly, triples = 1, 0
                blank = 2 * s * s
                factor = Fraction(-1)
            elif family.label == "hex6":
                t, s = Fraction(3 * q - p), Fraction(p - 2 * q)
                doubly, triples = 6, 0
                blank = 9 * s * s
                factor = Fraction(-3)
            else:
                t = Fraction(n * q - p, n - 1)
                s = q - 2 * t
                doubly = 3 * (n - 1)
                triples = (n - 2) * (n - 1) // 2
                blank = Fraction(n * (n - 1)) * s * s / 4
                factor = Fraction(-1, 2)
            triple_set = set(census.distinct_triple_regions)
            doubly_covered = [r for r in census.distinct_pair_regions if r not in triple_set]
            assert census.doubly_region_count == len(doubly_covered) == doubly
            assert len(census.distinct_triple_regions) == triples
            for region in doubly_covered:
                assert Fraction(*_side(region)) == t
            for region in census.distinct_triple_regions:
                assert Fraction(*_side(region)) == t
            assert area(census, "blank_area") == blank
            defect = p * p - family.radicand * q * q
            assert area(census, "excess_area") - area(census, "blank_area") == factor * defect
            assert all(c.passed for c in verify_figure(arr, census))


def test_criterion_5_census_drives_descent(figure_runs):
    with _criterion(5, "pair read off the census equals the algebraic descent step everywhere"):
        for family, p, q, arr, census in figure_runs:
            assert census_to_descent(arr, census) == descent_step(family, p, q).pair_out


def test_criterion_6_square_triangular_sequence():
    with _criterion(6, "square triangular indices up to 10**6 match brute force"):
        limit = 10**6
        brute = []
        t = 0
        for n in range(limit + 1):
            t += n
            r = isqrt(t)
            if r * r == t:
                brute.append(n)
        assert list(_square_triangular(limit, 1)) == brute
        assert {8, 49, 288} <= set(brute)


def _closer(radicand: int, p1: int, q1: int, p2: int, q2: int) -> bool:
    # |q1*sqrt(N) - p1| < |q2*sqrt(N) - p2|, decided on squared distances
    rat = (q1 * q1 - q2 * q2) * radicand + p1 * p1 - p2 * p2
    coef = -2 * (p1 * q1 - p2 * q2)
    return Surd.of(rat, coef, radicand).sign() < 0


def _best_approximations(radicand: int, q_max: int) -> list[tuple[int, int]]:
    out: list[tuple[int, int]] = []
    best: tuple[int, int] | None = None
    for q in range(1, q_max + 1):
        p0 = isqrt(radicand * q * q)
        p = p0 + 1 if _closer(radicand, p0 + 1, q, p0, q) else p0
        if best is None or _closer(radicand, p, q, best[0], best[1]):
            best = (p, q)
            out.append(best)
    return out


def test_criterion_7_convergents_are_best_approximations():
    with _criterion(7, "convergents match the brute-force best-approximation oracle up to q = 500"):
        for radicand in (2, 3, 5, 6, 10, 15, 21, 28):
            count = 8
            while convergents(radicand, count)[-1][1] <= 500:
                count *= 2
            convs = convergents(radicand, count)
            improvements = _best_approximations(radicand, 500)
            conv_pairs = [(p, q) for p, q in convs if q <= 500]
            # every improvement is a convergent
            assert set(improvements) <= set(conv_pairs)
            # every convergent past the zeroth is an improvement
            assert set(conv_pairs[1:]) <= set(improvements)


def test_criterion_8_coverage_depth_bound(figure_runs):
    with _criterion(8, "no tested figure has four mutually overlapping smalls"):
        for family, p, q, arr, census in figure_runs:
            # coverage_census scans candidate quadruples and raises if any
            # clip nonempty; reaching here means none did
            assert census.max_depth <= 3


def test_criterion_9_cli_determinism(tmp_path, capsys):
    with _criterion(9, "repeat CLI runs produce byte-identical JSON and SVG; JSON round-trips"):
        j1, j2 = tmp_path / "r1.json", tmp_path / "r2.json"
        argv = ["verify", "--family", "hex6", "--convergent", "3"]
        assert cli_main(argv + ["--json", str(j1)]) == 0
        assert cli_main(argv + ["--json", str(j2)]) == 0
        assert j1.read_bytes() == j2.read_bytes()
        parsed = json.loads(j1.read_text())
        assert parsed["version"] == "1"
        assert parsed["runs"][0]["input_pair"] == [22, 9]
        assert json.loads(json.dumps(parsed)) == parsed

        s1, s2 = tmp_path / "f1.svg", tmp_path / "f2.svg"
        svg_argv = ["svg", "--family", "triangular", "--n", "3", "--a", "5", "--b", "2"]
        assert cli_main(svg_argv + ["--out", str(s1)]) == 0
        assert cli_main(svg_argv + ["--out", str(s2)]) == 0
        assert s1.read_bytes() == s2.read_bytes()
        capsys.readouterr()
