import copy
import os
import pickle
import random
import subprocess
import sys
from fractions import Fraction
from math import isqrt
from pathlib import Path

import pytest

import irrgeo.descent
from conftest import eq1_difference, eq1_holds, window_convergents
from irrgeo.descent import (
    _forms,
    BadIndex,
    DescentFamily,
    DescentStep,
    FamilyKind,
    defect_multiplier,
    descent_chain,
    descent_step,
    range_check,
)
from irrgeo.exact_arith import Surd
from irrgeo.geometry import (
    TRIANGULAR,
    LatticePolygon,
    _figure,
    build_arrangement,
    coverage_census,
    verify_figure,
    window_inequalities,
)
from irrgeo.number_theory import (
    _PELL_STEP,
    SquarefreeDecomposition,
    _square_difference,
    convergents,
    squarefree_decompose,
    triangular,
)


def test_family_constructors():
    assert DescentFamily(FamilyKind.SQRT2).kind is FamilyKind.SQRT2
    assert DescentFamily(FamilyKind.SQRT2).radicand == 2
    assert DescentFamily(FamilyKind.HEX6).radicand == 6
    assert DescentFamily.triangular(4).kind is FamilyKind.TRIANGULAR
    assert DescentFamily.triangular(5).kind is FamilyKind.TRIANGULAR
    assert DescentFamily.triangular(5).radicand == 15
    assert DescentFamily.triangular(8).radicand == 36
    assert DescentFamily(FamilyKind.SQRT2).label == "sqrt2"
    assert DescentFamily.triangular(3).label == "triangular"


def test_family_validation():
    with pytest.raises(BadIndex):
        DescentFamily.triangular(1)
    with pytest.raises(BadIndex):
        DescentFamily.triangular(0)
    with pytest.raises(BadIndex):
        DescentFamily(FamilyKind.SQRT2, 2)
    with pytest.raises(BadIndex, match="needs an index n >= 2, got None"):
        DescentFamily(FamilyKind.TRIANGULAR)
    # a kind that is no FamilyKind member is refused before n is read, as
    # Surd refuses a part that is no int
    for kind in ("triangular", "sqrt2", None, 2):
        for n in (None, 5):
            with pytest.raises(TypeError, match=f"a family kind must be a FamilyKind, got {type(kind).__name__}"):
                DescentFamily(kind, n)


def test_family_equality_hash_and_repr():
    # a family compares, hashes and prints by its two fields, in either call form
    family = DescentFamily.triangular(5)
    assert family == DescentFamily(FamilyKind.TRIANGULAR, 5) == DescentFamily(kind=FamilyKind.TRIANGULAR, n=5)
    assert family != DescentFamily.triangular(6) and DescentFamily(FamilyKind.SQRT2) != DescentFamily(FamilyKind.HEX6)
    assert hash(family) == hash((FamilyKind.TRIANGULAR, 5))
    assert repr(family) == "DescentFamily(kind=<FamilyKind.TRIANGULAR: 'triangular'>, n=5)"
    assert repr(DescentFamily(FamilyKind.SQRT2)) == "DescentFamily(kind=<FamilyKind.SQRT2: 'sqrt2'>, n=None)"


def test_step_examples():
    s = descent_step(DescentFamily(FamilyKind.SQRT2), 7, 5)
    assert s.pair_out == (3, 2)
    assert (s.defect_in, s.defect_out) == (-1, 1)
    assert s.multiplier == -1

    s = descent_step(DescentFamily(FamilyKind.HEX6), 5, 2)
    assert s.pair_out == (3, 1)
    assert (s.defect_in, s.defect_out) == (1, 3)
    assert s.multiplier == 3

    s = descent_step(DescentFamily.triangular(3), 5, 2)
    assert s.pair_out == (2, 1)
    assert (s.defect_in, s.defect_out) == (1, -2)

    s = descent_step(DescentFamily.triangular(4), 19, 6)
    assert s.pair_out == (16, 5)
    assert (s.defect_in, s.defect_out) == (1, 6)
    assert s.multiplier == 6


def _stdout_under_python_O(code):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    return proc.stdout, proc.stderr


def test_step_defect_check_survives_python_O():
    # a wrong multiplier must still be caught when -O strips asserts
    code = (
        "import irrgeo.descent as d\n"
        "d.defect_multiplier = lambda family: 5\n"
        "f = d.DescentFamily(d.FamilyKind.SQRT2)\n"
        "for call in (lambda: d.descent_step(f, 7, 5), lambda: d.descent_chain(f, 1, 1, 5)):\n"
        "    try:\n"
        "        call()\n"
        "    except AssertionError:\n"
        "        print(__debug__, 'raised')\n"
    )
    out, err = _stdout_under_python_O(code)
    assert out == "False raised\n" * 2, err


def test_step_accepts_out_of_window_and_non_coprime():
    # the map is total on positive pairs; windows only gate figures
    s = descent_step(DescentFamily(FamilyKind.SQRT2), 10, 2)
    assert s.pair_out == (-6, 8)
    s = descent_step(DescentFamily(FamilyKind.SQRT2), 14, 10)
    assert s.pair_out == (6, 4)


def test_step_rejects_nonpositive():
    with pytest.raises(ValueError):
        descent_step(DescentFamily(FamilyKind.SQRT2), 0, 1)
    with pytest.raises(ValueError):
        descent_step(DescentFamily(FamilyKind.HEX6), 5, -2)


def test_chain_rejects_nonpositive():
    with pytest.raises(ValueError, match=r"need a positive pair, got \(0, 1\)"):
        descent_chain(DescentFamily(FamilyKind.SQRT2), 0, 1, 5)


def test_chain_rejects_negative_max_steps():
    with pytest.raises(ValueError, match="max_steps must be nonnegative, got -1"):
        descent_chain(DescentFamily(FamilyKind.SQRT2), 17, 12, -1)


def test_step_and_decomposition_fields():
    # a step's family is its chain's, a decomposition's input is its caller's
    assert DescentStep._fields == ("pair_in", "pair_out", "defect_in", "defect_out", "multiplier")
    assert SquarefreeDecomposition._fields == ("squarefree", "root")


def test_defect_multiplier_closed_forms():
    assert defect_multiplier(DescentFamily(FamilyKind.SQRT2)) == -1
    assert defect_multiplier(DescentFamily(FamilyKind.HEX6)) == 3
    for n in range(2, 21, 2):
        assert defect_multiplier(DescentFamily.triangular(n)) == Fraction(n * (n - 1), 2)
    for n in range(3, 22, 2):
        assert defect_multiplier(DescentFamily.triangular(n)) == Fraction((1 - n) * (n + 1), 4)


# A binary quadratic form A*a**2 + B*a*b + C*b**2 takes the values A, C
# and A + B + C at these points, so it is zero exactly when it vanishes at
# all three; two quadratic forms are equal exactly when they agree there.
_FORM_POINTS = ((1, 0), (0, 1), (1, 1))


def _form_at(coeffs, a, b):
    """A*a**2 + B*a*b + C*b**2 for coeffs (A, B, C)."""
    big_a, big_b, big_c = coeffs
    return big_a * a * a + big_b * a * b + big_c * b * b


def _reference_multiplier(family):
    """The multiplier by evaluation: m is the defect of the image of (1, 0),
    and the identity a'**2 - N*b'**2 == m*(a**2 - N*b**2) must then hold
    at every point of _FORM_POINTS."""
    big_n, (ca, cb), (da, db) = _forms(family)

    def image_defect(a, b):
        return (ca * a + cb * b) ** 2 - big_n * (da * a + db * b) ** 2

    m = image_defect(1, 0)
    for a, b in _FORM_POINTS:
        assert image_defect(a, b) == m * (a * a - big_n * b * b), (family, a, b)
    return m


def test_defect_multiplier_matches_symbolic_reference():
    families = [DescentFamily(FamilyKind.SQRT2), DescentFamily(FamilyKind.HEX6)] + [
        DescentFamily.triangular(n) for n in range(2, 301)
    ]
    for family in families:
        m = defect_multiplier(family)
        assert type(m) is int
        assert m == _reference_multiplier(family), family


def test_pell_step_keeps_its_form_by_evaluation():
    # the proof of number_theory's one Pell walk, the walk sequence prints,
    # checked without _square_difference's algebra: the image form
    # (3x + 4y)**2 - 2*(2x + 3y)**2 equals both the expanded triple and
    # x**2 - 2*y**2 at every point of _FORM_POINTS
    (p, q), (r, s) = _PELL_STEP
    coeffs = _square_difference(1, p, q, 2, r, s)
    for x, y in _FORM_POINTS:
        image = (p * x + q * y) ** 2 - 2 * (r * x + s * y) ** 2
        assert _form_at(coeffs, x, y) == image == x * x - 2 * y * y, (x, y)


# sqrt2 forms whose defect is no multiple of a**2 - 2*b**2, each failing
# one check: a' = a + 4b, b' = 3b gives a**2 + 8ab - 2b**2, whose b**2
# term fits m = 1 but whose cross term does not vanish; a' = 2a, b' = b
# gives 4a**2 - 2b**2, whose b**2 term is not -4*2
_BAD_SQRT2_FORMS = (((1, 4), (0, 3)), ((2, 0), (0, 1)))


def test_defect_multiplier_rejects_non_multiple_forms(monkeypatch):
    for num, den in _BAD_SQRT2_FORMS:
        monkeypatch.setattr(irrgeo.descent, "_forms", lambda family, m=(2, num, den): m)
        with pytest.raises(AssertionError, match="not a multiple"):
            defect_multiplier(DescentFamily(FamilyKind.SQRT2))
        with pytest.raises(AssertionError):
            descent_step(DescentFamily(FamilyKind.SQRT2), 7, 5)


def test_defect_multiplier_rejection_survives_python_O():
    code = (
        "import irrgeo.descent as d\n"
        f"for num, den in {_BAD_SQRT2_FORMS!r}:\n"
        "    d._forms = lambda family, m=(2, num, den): m\n"
        "    try:\n"
        "        d.defect_multiplier(d.DescentFamily(d.FamilyKind.SQRT2))\n"
        "    except AssertionError:\n"
        "        print(__debug__, 'raised')\n"
    )
    out, err = _stdout_under_python_O(code)
    assert out == "False raised\n" * 2, err


def test_defect_multiplier_random_pairs():
    rng = random.Random(99)
    families = [DescentFamily(FamilyKind.SQRT2), DescentFamily(FamilyKind.HEX6)] + [
        DescentFamily.triangular(n) for n in range(2, 13)
    ]
    for family in families:
        m = defect_multiplier(family)
        radicand = family.radicand
        for _ in range(500):
            a = rng.randint(1, 10**9)
            b = rng.randint(1, 10**9)
            step = descent_step(family, a, b)
            a2, b2 = step.pair_out
            assert a2 * a2 - radicand * b2 * b2 == m * (a * a - radicand * b * b)


def test_multiplier_magnitude_one_pin():
    # regression pin: the only unit multipliers up to n = 20
    families = [DescentFamily(FamilyKind.SQRT2), DescentFamily(FamilyKind.HEX6)] + [
        DescentFamily.triangular(n) for n in range(2, 21)
    ]
    units = {
        f for f in families if abs(defect_multiplier(f)) == 1
    }
    assert units == {DescentFamily(FamilyKind.SQRT2), DescentFamily.triangular(2)}


def _eq1_sides_at(n, a, b):
    """Both sides of Eq1 evaluated at one point, in Fractions."""
    lhs = (n + 1) * (n * b - a) ** 2 - Fraction(n, 2) * (2 * a - (n + 1) * b) ** 2
    rhs = (1 - n) * (a * a - Fraction(n * (n + 1), 2) * b * b)
    return lhs, rhs


def _check_eq1(n):
    """The triangle figure's balance over 2*(n - 1) is the expanded left
    side of Eq1, checked by evaluation at _FORM_POINTS, and Eq1 holds there."""
    difference = eq1_difference(n)
    assert eq1_holds(n)
    for a, b in _FORM_POINTS:
        lhs, rhs = _eq1_sides_at(n, a, b)
        assert _form_at(difference, a, b) == lhs == rhs, (n, a, b)
    return difference


def test_verify_eq1_small_cases():
    assert _check_eq1(2) == (-1, 0, 3)
    assert _check_eq1(3) == (-2, 0, 12)
    assert _check_eq1(5) == (-4, 0, 60)


def test_verify_eq1_range():
    for n in range(2, 51):
        _check_eq1(n)
    with pytest.raises(BadIndex):
        eq1_difference(1)


def test_verify_eq1_can_fail(monkeypatch):
    # with a wrong T_n, Eq1 must not hold
    monkeypatch.setattr("irrgeo.descent.triangular", lambda n: triangular(n) + 1)
    for n in range(2, 51):
        assert not eq1_holds(n), n


def test_symbolic_ratio_check():
    # at a = sqrt(N)*b the map gives a' = (ca*sqrt(N) + cb)*b and
    # b' = (da*sqrt(N) + db)*b, so a'/b' == sqrt(N) exactly when
    # ca == db and cb == da*N; perfect-square triangular numbers
    # (n = 8, 49) are in the range and keep the ratio too
    families = [DescentFamily(FamilyKind.SQRT2), DescentFamily(FamilyKind.HEX6)]
    families += [DescentFamily.triangular(n) for n in range(2, 51)]
    for family in families:
        big_n, (ca, cb), (da, db) = _forms(family)
        assert (ca, cb) == (db, da * big_n), family


def test_range_check_exact_validity_sets():
    even_works = {
        n for n in range(2, 101, 2) if range_check(DescentFamily.triangular(n)).works
    }
    odd_works = {
        n for n in range(3, 101, 2) if range_check(DescentFamily.triangular(n)).works
    }
    assert even_works == {2, 4}
    assert odd_works == {3, 5}
    assert range_check(DescentFamily(FamilyKind.SQRT2)).works
    assert range_check(DescentFamily(FamilyKind.HEX6)).works


def test_range_check_witnesses():
    result = range_check(DescentFamily.triangular(6))
    assert not result.works
    by_name = {w.name: w for w in result.witnesses}
    # 6 - sqrt(21) > 1, so the denominator does not shrink
    w = by_name["b_out_shrinks"]
    assert not w.ok
    assert w.sign == 1
    # the witness value is exactly (6 - sqrt(21)) - 1
    assert w.value.rat == 5 and w.value.coef == -1 and w.value.radicand == 21
    result = range_check(DescentFamily.triangular(5))
    assert result.works
    assert all(w.ok for w in result.witnesses)
    assert {w.require for w in result.witnesses} == {"> 0", "< 0"}


def test_range_check_perfect_square_radicand():
    # T_8 = 36: the target root is rational, and the window closes anyway
    result = range_check(DescentFamily.triangular(8))
    assert not result.works


_SMALL_PRIMES = [p for p in range(2, 142) if all(p % d for d in range(2, p))]


def _square_split(m: int) -> tuple[int, int]:
    """(f, r) with m = f * r**2 and f squarefree, by trial division; every
    m here is at most 20,001 < 142**2, so a cofactor left over is prime."""
    f = r = 1
    for p in _SMALL_PRIMES:
        while m % (p * p) == 0:
            m //= p * p
            r *= p
        if m % p == 0:
            m //= p
            f *= p
    return f * m, r


def _witness_oracle(big_n: int, f: int, r: int, ca: int, cb: int, da: int, db: int) -> list:
    """(name, text, sign) of the four range witnesses x + y*sqrt(N) at
    (a, b) = (sqrt(N), 1), N = f * r**2: the sign from x**2 against
    y**2 * N, the text as "x/1 + y*r/1*sqrt(f)", or "x + y*r/1" when N is
    a perfect square."""
    out = []
    for name, x, y in (
        ("a_out_positive", cb, ca),
        ("a_out_shrinks", cb, ca - 1),
        ("b_out_positive", db, da),
        ("b_out_shrinks", db - 1, da),
    ):
        if x * y >= 0:
            sign = (x > 0) - (x < 0) or (y > 0) - (y < 0)
        else:
            lhs, rhs = x * x, y * y * big_n
            sign = 0 if lhs == rhs else (x > 0) - (x < 0) if lhs > rhs else (y > 0) - (y < 0)
        text = f"{x + y * r}/1" if f == 1 else f"{x}/1 + {y * r}/1*sqrt({f})"
        out.append((name, text, sign))
    return out


def test_range_witnesses_match_an_integer_oracle():
    from irrgeo.render_report import surd_str

    # the maps as the paper states them: a' = ca*a + cb*b, b' = da*a + db*b
    cases = [(DescentFamily(FamilyKind.SQRT2), 2, 2, 1, (-1, 2), (1, -1)), (DescentFamily(FamilyKind.HEX6), 6, 6, 1, (3, -6), (-1, 3))]
    for n in range(2, 20_001):
        # T_n = u * v with u and v coprime
        u, v = (n // 2, n + 1) if n % 2 == 0 else (n, (n + 1) // 2)
        (fu, ru), (fv, rv) = _square_split(u), _square_split(v)
        t, h = u * v, (n + 1) // 2
        maps = ((n, -t), (-1, n)) if n % 2 == 0 else ((-h, t), (1, -h))
        cases.append((DescentFamily.triangular(n), t, fu * fv, ru * rv, *maps))
    squares = []
    for family, big_n, f, r, (ca, cb), (da, db) in cases:
        assert big_n == f * r * r
        if f == 1:
            squares.append(family.n)
        # each paper map is sign*(N*b - k*a, a - k*b), derived from (N, k, sign)
        assert _forms(family) == (big_n, (ca, cb), (da, db)), family
        result = range_check(family)
        got = [(w.name, surd_str(w.value), w.sign) for w in result.witnesses]
        assert got == _witness_oracle(big_n, f, r, ca, cb, da, db), family
        for w in result.witnesses:
            assert type(w.value.rat) is int and type(w.value.coef) is int, (family, w)
            assert w.ok == (w.sign > 0 if w.require == "> 0" else w.sign < 0)
        assert result.works == all(w.ok for w in result.witnesses)
        # the shrink rule: N is no square and k is isqrt(N) for sign +1,
        # isqrt(N) + 1 for sign -1
        sign, k, root = da, -ca * da, isqrt(big_n)
        assert result.works == (root * root != big_n and k == root + (sign < 0)), family
    assert squares == [8, 49, 288, 1681, 9800]


def test_chain_sqrt2_example():
    chain = descent_chain(DescentFamily(FamilyKind.SQRT2), 17, 12, 32)
    assert [s.pair_out for s in chain.steps] == [(7, 5), (3, 2), (1, 1)]
    assert chain.final_pair == (1, 1)
    assert chain.stop_reason == "nonpositive"


def test_chain_hex6_example():
    chain = descent_chain(DescentFamily(FamilyKind.HEX6), 22, 9, 32)
    assert [s.pair_out for s in chain.steps] == [(12, 5), (6, 3)]
    assert chain.final_pair == (6, 3)
    assert chain.stop_reason == "nonpositive"


def test_chain_descent_failure():
    # n = 6 fails range_check, so the very first step does not shrink b
    chain = descent_chain(DescentFamily.triangular(6), 9, 2, 32)
    assert chain.steps == ()
    assert chain.stop_reason == "no_decrease"
    assert chain.final_pair == (9, 2)


def test_chain_max_steps(monkeypatch):
    family = DescentFamily(FamilyKind.SQRT2)
    chain = descent_chain(family, 99, 70, 2)
    assert len(chain.steps) == 2
    assert chain.stop_reason == "max_steps"
    chain = descent_chain(family, 99, 70, 0)
    assert chain.steps == () and chain.stop_reason == "max_steps"
    # no step is computed past the cap: with a wrong multiplier every step
    # fails its check, so a chain of at most 0 steps must not raise and one
    # of at most 1 must
    monkeypatch.setattr(irrgeo.descent, "defect_multiplier", lambda family: 5)
    chain = descent_chain(family, 99, 70, 0)
    assert chain.steps == () and chain.stop_reason == "max_steps" and chain.final_pair == (99, 70)
    with pytest.raises(AssertionError, match="not 5 times it"):
        descent_chain(family, 99, 70, 1)


_CHAIN_KS = (1, 2, 3, 5, 8, 13, 34, 89, 200)


def _chain_starts(family: DescentFamily) -> list[tuple[int, int]]:
    if family.radicand == 36:  # T_8 is a square: no convergents
        return [(37, 6), (35, 6), (6, 1), (73, 12), (601, 100), (2, 1)]
    cs = convergents(family.radicand, max(_CHAIN_KS))
    return [cs[k - 1] for k in _CHAIN_KS]


def test_chain_equals_iterated_steps():
    # the chain carries each defect_out forward as the next defect_in; the
    # public descent_step recomputes everything from the pair
    families = [DescentFamily(FamilyKind.SQRT2), DescentFamily(FamilyKind.HEX6)] + [
        DescentFamily.triangular(n) for n in range(2, 13)
    ]
    stops = set()
    for family in families:
        radicand = family.radicand
        for a, b in _chain_starts(family):
            chain = descent_chain(family, a, b, 1000)
            cur = (a, b)
            for step in chain.steps:
                assert type(step) is DescentStep
                assert step == descent_step(family, *cur)
                a_in, b_in = step.pair_in
                assert step.defect_in == a_in * a_in - radicand * b_in * b_in
                a_out, b_out = step.pair_out
                assert step.defect_out == a_out * a_out - radicand * b_out * b_out
                cur = step.pair_out
            assert chain.final_pair == cur
            a_out, b_out = descent_step(family, *cur).pair_out
            reason = "nonpositive" if min(a_out, b_out) < 1 else "no_decrease"
            assert chain.stop_reason == reason, (family, a, b)
            stops.add((reason, bool(chain.steps)))
    # both stops are met, after a kept step and at the first one
    assert stops == {(r, kept) for r in ("nonpositive", "no_decrease") for kept in (True, False)}


def _records() -> dict:
    """One instance of each record, by class name."""
    family = DescentFamily(FamilyKind.SQRT2)
    chain = descent_chain(family, 17, 12, 32)
    result = range_check(family)
    arr = build_arrangement(family, 7, 5)
    census = coverage_census(arr)
    checks = verify_figure(arr, census)
    records = (
        chain.steps[0], chain, result, result.witnesses[0],
        squarefree_decompose(12),
        window_inequalities(family, 7, 5)[0], checks[0], _figure(family),
        arr.big, family, arr, census, result.witnesses[0].value,
    )
    return {type(r).__name__: r for r in records}


_RECORD_NAMES = [
    "DescentStep", "ChainResult", "RangeCheckResult", "InequalityWitness",
    "SquarefreeDecomposition",
    "WindowInequality", "IdentityCheck", "_Figure", "LatticePolygon",
    "DescentFamily", "Arrangement", "CoverageCensus", "Surd",
]


@pytest.mark.parametrize("name", _RECORD_NAMES)
def test_records_are_immutable(name):
    record = _records()[name]
    for field in type(record)._fields:
        before = getattr(record, field)
        with pytest.raises(AttributeError):
            setattr(record, field, 0)
        assert getattr(record, field) is before
    with pytest.raises(AttributeError):
        record.note = "x"


_REBUILDS = (copy.copy, copy.deepcopy, lambda r: pickle.loads(pickle.dumps(r)))


@pytest.mark.parametrize("name", _RECORD_NAMES)
def test_records_survive_copy_and_pickle(name):
    record = _records()[name]
    for rebuild in _REBUILDS:
        again = rebuild(record)
        assert type(again) is type(record) and again == record


def test_copy_and_pickle_rebuild_through_the_checks():
    # _make and _replace skip a record's checks; copy and pickle rebuild it
    # through its constructor, so a record that fails them fails again
    arr = _records()["Arrangement"]
    unchecked = (
        (DescentFamily._make((FamilyKind.SQRT2, 2)), BadIndex, "sqrt2 takes no index n"),
        (DescentFamily._make(("sqrt2", None)), TypeError, "a family kind must be a FamilyKind, got str"),
        (arr._replace(big=arr.smalls[0], smalls=(arr.big,)), ValueError, "small 0 is not inside the big figure"),
        (Surd._make((1, 1, 12)), ValueError, "radicand must be squarefree, got 12"),
        (LatticePolygon._make((TRIANGULAR, 1, 0, 5, 0, 1, 0, 1)), ValueError, "not attained"),
    )
    for record, error, message in unchecked:
        for rebuild in _REBUILDS:
            with pytest.raises(error, match=message):
                rebuild(record)


@pytest.mark.parametrize(
    "family, a, b, kept",
    [
        (DescentFamily(FamilyKind.SQRT2), 17, 12, 3),
        (DescentFamily(FamilyKind.HEX6), 22, 9, 2),
        (DescentFamily.triangular(6), 9, 2, 0),  # the first step stops the chain
        (DescentFamily(FamilyKind.SQRT2), 1, 1, 0),
    ],
    ids=["sqrt2", "hex6", "triangular6-first-step", "sqrt2-first-step"],
)
def test_chain_checks_every_step(monkeypatch, family, a, b, kept):
    # with a wrong multiplier the chain's first drawn step must fail the
    # kernel's entry proof, the stopping one too when it is the first
    assert len(descent_chain(family, a, b, 32).steps) == kept
    m = defect_multiplier(family)
    monkeypatch.setattr(irrgeo.descent, "defect_multiplier", lambda family: m + 1)
    with pytest.raises(AssertionError, match="not .* times it"):
        descent_chain(family, a, b, 32)


@pytest.mark.parametrize(
    "rows, wrong",
    [(((-1, 2), (1, 1)), (-1, -8, 2)), (((-1, -4), (1, 2)), (-1, 0, 8))],
    ids=["ab-coefficient", "b2-coefficient"],
)
def test_chain_proves_the_whole_form_on_entry(monkeypatch, rows, wrong):
    # a planted sqrt2 map whose a**2 coefficient is the true multiplier -1
    # but whose a*b or b**2 coefficient is wrong: the kernel proves all
    # three before its first step, so a chain that draws a step is refused
    # and one capped at 0 steps is not
    family = DescentFamily(FamilyKind.SQRT2)
    (ca, cb), (da, db) = rows
    m = defect_multiplier(family)
    assert _square_difference(1, ca, cb, 2, da, db) == wrong != (m, 0, -2 * m) and wrong[0] == m
    monkeypatch.setattr(irrgeo.descent, "_forms", lambda family: (2, *rows))
    monkeypatch.setattr(irrgeo.descent, "defect_multiplier", lambda family: m)
    with pytest.raises(AssertionError, match=f"not {m} times it"):
        descent_chain(family, 17, 12, 1)
    chain = descent_chain(family, 17, 12, 0)
    assert chain.steps == () and chain.stop_reason == "max_steps"


def test_chain_decimals_are_the_chain_and_check_its_last_step(capsys, monkeypatch):
    # the digits chain prints, carried from the start, are the integer
    # chain's, on Decimals from a large start, on ints from a small one, and
    # across the switch between them; a chain whose last step was altered,
    # in one pair entry or in the defect, is refused by a raise that
    # python -O keeps (the tests/ suite also runs under -O)
    from irrgeo import render_report
    from irrgeo.render_report import _INT_BITS, cli_main

    big = convergents(10, 1561)[-1]
    crossing = convergents(2, 1500)[-1]
    for family, (a, b), max_steps in (
        (DescentFamily(FamilyKind.SQRT2), (17, 12), 32),
        (DescentFamily(FamilyKind.HEX6), (22, 9), 32),
        (DescentFamily.triangular(4), big, 3),
        (DescentFamily.triangular(2**32), (2**33 - 1, 2), 32),
        (DescentFamily(FamilyKind.SQRT2), crossing, 10_000),
    ):
        chain = descent_chain(family, a, b, max_steps)
        assert chain.steps
        if (a, b) == crossing:
            assert chain.steps[0].pair_in[1].bit_length() >= _INT_BITS > chain.steps[-1].pair_in[1].bit_length()
        argv = ["chain", "--family", family.label, "--a", str(a), "--b", str(b), "--max-steps", str(max_steps)]
        if family.n is not None:
            argv += ["--n", str(family.n)]
        assert cli_main(argv) == 0
        expected = [
            f"step {i}: ({s.pair_in[0]}, {s.pair_in[1]}) -> ({s.pair_out[0]}, {s.pair_out[1]})"
            f"  defect {s.defect_in} -> {s.defect_out}"
            for i, s in enumerate(chain.steps, start=1)
        ]
        assert capsys.readouterr().out.splitlines()[1:-1] == expected
        last = chain.steps[-1]
        a_out, b_out = last.pair_out
        for altered in (
            last._replace(pair_out=(a_out + 1, b_out)),
            last._replace(pair_out=(a_out, b_out - 1)),
            last._replace(defect_out=last.defect_out * 2),
        ):
            altered_chain = chain._replace(steps=chain.steps[:-1] + (altered,))
            monkeypatch.setattr(render_report, "descent_chain", lambda *args: altered_chain)
            with pytest.raises(AssertionError, match="not at the last step"):
                cli_main(argv)
        monkeypatch.undo()
        capsys.readouterr()  # what the refused chains printed
    assert cli_main(["chain", "--family", "sqrt2", "--a", "99", "--b", "70", "--max-steps", "0"]) == 0
    assert not [line for line in capsys.readouterr().out.splitlines() if line.startswith("step")]


def test_strict_decrease_on_window_convergents():
    families = [
        DescentFamily(FamilyKind.SQRT2),
        DescentFamily(FamilyKind.HEX6),
        DescentFamily.triangular(2),
        DescentFamily.triangular(3),
        DescentFamily.triangular(4),
        DescentFamily.triangular(5),
    ]
    for family in families:
        assert range_check(family).works
        for p, q in window_convergents(family, 10):
            step = descent_step(family, p, q)
            a2, b2 = step.pair_out
            # b can plateau on the window edge (e.g. n=4 pair (3, 1)),
            # but the pair as a whole must shrink
            assert 0 < b2 <= q
            assert 0 < a2
            assert a2 + b2 < p + q
            assert a2 > 0
