"""Reports, SVG rendering, and the command-line front end.

JSON reports and SVG files are byte-deterministic: the same inputs always
produce identical output, so artifacts can be diffed.  Exact values stay
exact in reports (rationals as "p/q" strings); floating point appears only
in SVG coordinates, where it is formatting, not arithmetic.
"""

from __future__ import annotations

import functools
import os
import sys
from contextlib import contextmanager
from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal, Inexact, Rounded, localcontext
from json.encoder import encode_basestring_ascii
from math import gcd
from typing import TYPE_CHECKING, Callable, Optional, Sequence

from .descent import (
    BadIndex,
    ChainResult,
    DescentFamily,
    DescentStep,
    FamilyKind,
    RangeCheckResult,
    descent_chain,
    descent_step,
    range_check,
    _forms,
)
from .exact_arith import Surd
from .geometry import (
    Arrangement,
    CoverageCensus,
    IdentityCheck,
    LatticePolygon,
    ORTHOGONAL,
    OutOfWindow,
    _ratio_str,
    build_arrangement,
    census_to_descent,
    coverage_census,
    verify_figure,
    window_inequalities,
)
from .number_theory import SquareRadicand, _square_triangular, convergents, square_density

if TYPE_CHECKING:
    import argparse

SCHEMA_VERSION = "1"


def frac_str(num: int, den: int = 1) -> str:
    """num/den, den > 0, reduced, as "p/q" with q = 1 kept."""
    g = gcd(num, den)
    return f"{num // g}/{den // g}"


def surd_str(x: Surd) -> str:
    if x.coef == 0:
        return frac_str(x.rat)
    return f"{frac_str(x.rat)} + {frac_str(x.coef)}*sqrt({x.radicand})"


def report_envelope(runs: list[dict]) -> dict:
    return {"version": SCHEMA_VERSION, "runs": runs}


def _window_block(family: DescentFamily, a: int, b: int) -> dict:
    ineqs = window_inequalities(family, a, b)
    violated = [w.name for w in ineqs if not w.ok]
    return {
        "pass": not violated,
        "inequalities": [{"name": w.name, "ok": w.ok} for w in ineqs],
        "violated": violated[0] if violated else None,
    }


def _step_block(step: DescentStep) -> dict:
    return {
        "output_pair": list(step.pair_out),
        "defect_in": step.defect_in,
        "defect_out": step.defect_out,
        "multiplier": frac_str(step.multiplier),
    }


# the census areas, in the order reports and census's stdout give them
_CENSUS_AREAS = (
    "big_area", "total_small_area", "union_area", "blank_area", "excess_area", "exactly2_area", "exactly3_area",
)


def _census_block(census: CoverageCensus) -> dict:
    return {key: frac_str(getattr(census, key), census.area_den) for key in _CENSUS_AREAS} | {
        "pair_region_count": len(census.distinct_pair_regions),
        "doubly_region_count": census.doubly_region_count,
        "triple_region_count": len(census.distinct_triple_regions),
        "max_depth": census.max_depth,
    }


def _checks_block(checks: tuple[IdentityCheck, ...]) -> list[dict]:
    return [{"name": c.name, "lhs": c.lhs, "rhs": c.rhs, "pass": c.passed} for c in checks]


def _run_head(mode: str, family: DescentFamily) -> dict:
    """The keys every run starts with: the mode, then the family."""
    return {"mode": mode, "family": family.label, "n": family.n, "radicand": family.radicand}


def _figure_run(
    mode: str, family: DescentFamily, a: int, b: int
) -> tuple[dict, Optional[Arrangement], Optional[CoverageCensus]]:
    """The run's head, input pair and window block, with the figure and its
    census; outside the window the run fails and neither is built."""
    run = _run_head(mode, family) | {
        "input_pair": [a, b],
        "window": _window_block(family, a, b),
    }
    if not run["window"]["pass"]:
        run["pass"] = False
        return run, None, None
    arr = build_arrangement(family, a, b)
    return run, arr, coverage_census(arr)


def build_verify_run(family: DescentFamily, a: int, b: int) -> dict:
    """Full verification of one pair: window, figure census, identities,
    and the geometric/algebraic descent cross-check."""
    run, arr, census = _figure_run("verify", family, a, b)
    if arr is None:
        return run
    fig_checks = verify_figure(arr, census)
    step = descent_step(family, a, b)
    try:
        measured = census_to_descent(arr, census)
        lhs = str(list(measured))
    except ValueError as exc:
        measured = None
        lhs = f"error: {exc}"
    checks = fig_checks + (
        IdentityCheck("census_pair_matches_descent", lhs, str(list(step.pair_out)), measured == step.pair_out),
    )
    run["descent"] = _step_block(step)
    run["census"] = _census_block(census)
    run["identity_checks"] = _checks_block(checks)
    run["census_pair"] = list(measured) if measured is not None else None
    run["pass"] = all(c.passed for c in checks)
    return run


def build_census_run(family: DescentFamily, a: int, b: int) -> dict:
    run, arr, census = _figure_run("census", family, a, b)
    if arr is None:
        return run
    run["census"] = _census_block(census)
    run["pass"] = True
    return run


def build_range_run(result: RangeCheckResult) -> dict:
    return _run_head("range", result.family) | {
        "works": result.works,
        "witnesses": [
            {
                "name": w.name,
                "value": surd_str(w.value),
                "require": w.require,
                "sign": w.sign,
                "ok": w.ok,
            }
            for w in result.witnesses
        ],
    }


def render_json(report: dict) -> str:
    """The report's text as json.dumps(report, indent=2) gives it, plus a
    final newline, byte for byte, for the types reports hold: dicts with
    str keys, lists, str, int, bool and None; others raise TypeError.

    With an indent the json module falls back to its pure-Python encoder;
    this writer does the same work without its generality.
    """
    parts: list[str] = []
    _write_value(report, "\n", parts.append)
    return "".join(parts) + "\n"


def _write_value(x, newline: str, write: Callable[[str], object]) -> None:
    """Pass x's JSON text to write, piece by piece; newline starts each
    line at x's depth.  A container is empty if its loop wrote nothing."""
    if isinstance(x, str):
        write(encode_basestring_ascii(x))
    elif isinstance(x, bool):  # before int: bool is an int
        write("true" if x else "false")
    elif isinstance(x, int):
        write(int.__repr__(x))
    elif x is None:
        write("null")
    elif isinstance(x, dict):
        inner = newline + "  "
        sep = "{" + inner
        for key, value in x.items():
            if not isinstance(key, str):
                raise TypeError(f"report keys are str, got {type(key).__name__}")
            write(sep)
            write(encode_basestring_ascii(key))
            write(": ")
            _write_value(value, inner, write)
            sep = "," + inner
        write("{}" if sep[0] == "{" else newline + "}")
    elif isinstance(x, list):
        inner = newline + "  "
        sep = "[" + inner
        for value in x:
            write(sep)
            _write_value(value, inner, write)
            sep = "," + inner
        write("[]" if sep[0] == "[" else newline + "]")
    else:
        raise TypeError(f"reports hold no {type(x).__name__}")


# SVG rendering: fixed projection, fixed color per coverage depth, fixed
# 6-decimal formatting; sqrt(3)/2 appears only here, as a float.
SQRT3_HALF = 0.8660254
DEPTH_FILL = {0: "white", 1: "lightblue", 2: "orange", 3: "red"}


def _svg_points(poly: LatticePolygon, orthogonal: bool) -> tuple[tuple[float, float], ...]:
    """poly's corners in SVG coordinates; x / den, int by int, is the quotient rounded once."""
    den = poly.den
    if orthogonal:
        return tuple((x / den, -(y / den)) for x, y in poly.ints)
    return tuple((x / den + y / den / 2, -(y / den) * SQRT3_HALF) for x, y in poly.ints)


# Every float of magnitude 2**53 or more is an integer, whose "%d" digits
# are the bytes "%.6f" writes before its ".000000"; "%.6f" gets them by an
# exact binary-to-decimal conversion, about ten times slower near 2**1000.
_FLOAT_INT = 2.0**53


def _svg_num(x: float) -> str:
    """x as "%.6f" writes it."""
    return "%d.000000" % x if abs(x) >= _FLOAT_INT else "%.6f" % x


def render_svg(arr: Arrangement, census: CoverageCensus, write: Callable[[str], object]) -> None:
    """Pass the figure's SVG text to write, line by line, layered back to
    front: big, smalls, double then triple overlaps, each at its coverage
    depth color, each projected as it is written.  The viewBox is the big
    figure's: it holds every small (Arrangement checks that) and overlap."""
    orthogonal = arr.big.basis == ORTHOGONAL
    xs, ys = zip(*_svg_points(arr.big, orthogonal))
    x0, x1, y0, y1 = min(xs), max(xs), min(ys), max(ys)
    span = max(x1 - x0, y1 - y0) or 1.0
    margin = 0.04 * span
    viewbox = (x0 - margin, y0 - margin, (x1 - x0) + 2 * margin, (y1 - y0) + 2 * margin)
    write('<svg xmlns="http://www.w3.org/2000/svg" version="1.1" viewBox="%.6f %.6f %.6f %.6f">\n' % viewbox)
    write('<g stroke="#333333" stroke-width="%.6f" stroke-linejoin="round">\n' % (0.008 * span))
    layers = (arr.big,), arr.smalls, census.distinct_pair_regions, census.distinct_triple_regions
    for depth, layer in enumerate(layers):
        for p in layer:
            points = " ".join(f"{_svg_num(x)},{_svg_num(y)}" for x, y in _svg_points(p, orthogonal))
            write('<polygon fill="%s" points="%s"/>\n' % (DEPTH_FILL[depth], points))
    write("</g>\n</svg>\n")


class _UsageError(Exception):
    pass


class _WriteError(Exception):
    pass


@contextmanager
def _writing(path: str):
    """Open path for writing and yield the file; a failure to open, write
    or close it becomes a one-line error for the CLI."""
    try:
        with open(path, "w") as fh:
            yield fh
    except OSError as exc:
        raise _WriteError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _add_family_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--family", required=True, choices=[k.value for k in FamilyKind])
    sub.add_argument("--n", type=int, default=None, help="row count (triangular only)")


def _add_pair_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--a", type=int, default=None)
    sub.add_argument("--b", type=int, default=None)
    sub.add_argument(
        "--convergent",
        type=int,
        default=None,
        metavar="K",
        help="use the K-th continued-fraction convergent of the target root, K >= 1",
    )


@functools.cache
def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The one parser of this process and each command's own parser, by
    name; parse_args keeps no state in them.

    argparse is imported here, on the first command line parsed, so that
    importing irrgeo does not load it.
    """
    import argparse

    class _Parser(argparse.ArgumentParser):
        def error(self, message):
            raise _UsageError(message)

        def _print_message(self, message, file=None):
            # argparse's own drops an OSError, so help sent to a full disk
            # would be lost with exit 0; cli_main reports it instead
            if message:
                (file or sys.stderr).write(message)

    # a literal, not the module docstring, which python -OO strips
    parser = _Parser(
        prog="irrgeo", description="Reports, SVG rendering, and the command-line front end."
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("verify", help="verify one figure end to end")
    sub.set_defaults(run=_cmd_verify)
    _add_family_options(sub)
    _add_pair_options(sub)
    sub.add_argument("--json", default=None, metavar="PATH")

    sub = subs.add_parser("census", help="print the coverage census of one figure")
    sub.set_defaults(run=_cmd_census)
    _add_family_options(sub)
    _add_pair_options(sub)
    sub.add_argument("--json", default=None, metavar="PATH")

    sub = subs.add_parser("chain", help="iterate the descent map")
    sub.set_defaults(run=_cmd_chain)
    _add_family_options(sub)
    _add_pair_options(sub)
    sub.add_argument("--max-steps", type=int, default=32)
    sub.add_argument("--json", default=None, metavar="PATH")

    sub = subs.add_parser("range", help="decide which parameters shrink pairs")
    sub.set_defaults(run=_cmd_range)
    _add_family_options(sub)
    sub.add_argument("--n-max", type=int, default=None)
    sub.add_argument("--json", default=None, metavar="PATH")

    sub = subs.add_parser("sequence", help="square triangular numbers up to a bound")
    sub.set_defaults(run=_cmd_sequence)
    sub.add_argument("--limit", type=int, required=True)

    sub = subs.add_parser("density", help="how common perfect squares are up to x")
    sub.set_defaults(run=_cmd_density)
    sub.add_argument("--x", type=int, required=True)

    sub = subs.add_parser("svg", help="render one figure to SVG")
    sub.set_defaults(run=_cmd_svg)
    _add_family_options(sub)
    _add_pair_options(sub)
    sub.add_argument("--out", required=True, metavar="PATH")

    # a copy: the top-level parser reads its own to parse the command word
    return parser, dict(subs.choices)


def _resolve_family(name: str, n: int | None) -> DescentFamily:
    try:
        return DescentFamily(FamilyKind(name), n)
    except BadIndex as exc:
        raise _UsageError(str(exc))


# Input bounds.  Every input is answered, or refused with exit 1 before
# any work; nothing is cut short halfway.
#
# The census sweeps the n(n+1)/2 smalls in order of their lower u bound
# and clips only pairs whose u, v and u + v ranges overlap, about n**3 / 2
# bound tests: at n = 64 (2080 smalls) 131,040 tests keep the 6,048 pairs
# that share area.  n = 64 at convergent 2048 (a 3498-bit pair) verifies
# in 0.25-0.27 s at 38.5 MB peak RSS on one Xeon core under CPython 3.11.
MAX_FIGURE_N = 64
# By default CPython turns no int of more than 4300 decimal digits into a
# string, and 2**14284 < 10**4300, so every printed integer must stay below
# 2**14284.  With a, b < 2**bits:
# - verify and census (n <= 64, so N and every map coefficient are below
#   2**12) print the pair, one descent step (a', b' below 2**(bits + 12),
#   the defects below 2**(2*bits + 37)) and census areas, quadratic in a
#   and b with small rational coefficients: all below 2**(2*bits + 64);
# - chain (n <= 2**32, so N = T_n and every coefficient are below 2**64)
#   prints the pairs and defects of the steps it keeps.  Every map is
#   b' = +-(a - k*b), a' = +-(N*b - k*a) with k <= 2**32, so a kept step
#   (0 < b' < b) had a < (k + 1)*b and gives |a'| < (N + k*(k + 1))*b
#   < 2**128*b; pairs stay below 2**(bits + 128), defects below
#   2**(2*(bits + 128)).
# Every printed integer is below 2**(2*bits + 256), at 4096 bits far below
# 2**14284.  A lower limit (PYTHONINTMAXSTRDIGITS or -X int_max_str_digits,
# down to 640 digits) lowers the bound to what it still prints: 935 bits at
# 640 digits (_printed_pair_bits).
MAX_PAIR_BITS = 4096
# CPython 3.10 and 3.11 write an int in decimal in time quadratic in its
# digits.  A Decimal keeps base 10**19 limbs, so str() on it is linear, and
# so are sums and products by a map's small coefficients.  Under these traps
# any rounding raises, so every Decimal of a chain's walk is an exact
# integer of exponent 0 and str() gives its plain digits.
_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN, traps=[Inexact, Rounded])
# Below 2**700 an int step and its str() cost less than a Decimal step.
# With triangular n = 4's map on one Xeon core under CPython 3.11 they took
# 0.85 against 1.64 us at 200 bits and 1.98 against 2.19 at 600, but 2.03
# against 1.81 at 700 and 17.6 against 4.5 at 2500; 3.13 crosses over there
# too.  By the bound above, a step whose input b is below 2**700 prints
# pairs below 2**(700 + 128) and a defect below 2**(2*(700 + 128)): at most
# 499 digits, under 640, the lowest int-string limit CPython accepts.
_INT_BITS = 700
# Steps printed and written together, with one write to each output: a
# batch's text is all that is held.
_BATCH = 16
MAX_CHAIN_N = 2**32
# The K-th convergent costs K steps of the recurrence, so K is capped
# before the work; the pair it gives is then held to MAX_PAIR_BITS.  Of
# the figure families sqrt(10) (triangular n = 4) grows fastest, 2.6 bits
# a convergent, so every family fits up to K = 1561.
MAX_CONVERGENT = 2048
# The longest chains measured from pairs below 2**4096 end by themselves
# after about 3200 steps (sqrt2); the cap bounds the work whatever
# --max-steps asks.  The largest report (triangular n = 4 from convergent
# 1561: 2644 steps, 17.9 MB) takes 0.17-0.27 s (ten runs) on a shared
# Xeon core under CPython 3.11 at 20.1-20.3 MB peak RSS, each batch of 16
# steps' text joined and written at once.
MAX_CHAIN_STEPS = 10_000
# SVG coordinates are floats, which overflow past 2**1024; a figure's
# coordinates are at most 1.5*a, its viewBox at most 1.08 times that.
# n = 64 at convergent 584 (a 998-bit pair, an 11.6 MB SVG written to its
# file as it is drawn) takes 0.24-0.25 s and 25.7-26.0 MB peak RSS on one
# Xeon core under CPython 3.11.
MAX_SVG_BITS = 1000
# range --n-max checks every n from 2 up, factoring each T_n; n-max =
# 10000 takes 0.86-0.89 s and 16.2-16.4 MB peak RSS with --json, about
# as much without (each run is printed and written as it is decided), on
# one Xeon core.
MAX_RANGE_N = 10_000


def _printed_pair_bits() -> int:
    """MAX_PAIR_BITS, or the largest bits whose 2**(2*bits + 256) the
    int-string limit still prints where that limit is below 4300 digits."""
    # 0 is no limit, as is every CPython before 3.10.7, which has none
    digits = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if not 0 < digits < 4300:
        return MAX_PAIR_BITS
    return min(MAX_PAIR_BITS, ((10**digits).bit_length() - 1 - 256) // 2)


def _resolve_figure(
    args, drawn: bool = True, max_bits: Optional[int] = None
) -> tuple[DescentFamily, int, int]:
    """The family named by --family/--n and the pair by --a/--b or --convergent.

    drawn: the command builds the figure, so its row count is bounded by
    MAX_FIGURE_N rather than MAX_CHAIN_N; a and b must be below 2**max_bits,
    by default the _printed_pair_bits() of a command that prints them.
    """
    family = _resolve_family(args.family, args.n)
    max_n, what = (MAX_FIGURE_N, "figures") if drawn else (MAX_CHAIN_N, "chains")
    if family.n is not None and family.n > max_n:
        raise _UsageError(f"{what} are limited to n <= {max_n}, got {family.n}")
    explicit = args.a is not None or args.b is not None
    if explicit and args.convergent is not None:
        raise _UsageError("give either --a/--b or --convergent, not both")
    if explicit:
        if args.a is None or args.b is None:
            raise _UsageError("--a and --b must be given together")
        if args.a < 1 or args.b < 1:
            raise _UsageError("--a and --b must be positive")
        a, b = args.a, args.b
    else:
        if args.convergent is None:
            raise _UsageError("need --a/--b or --convergent")
        if not 1 <= args.convergent <= MAX_CONVERGENT:
            raise _UsageError(f"--convergent counts from 1 to {MAX_CONVERGENT}, got {args.convergent}")
        try:
            a, b = convergents(family.radicand, args.convergent)[-1]
        except SquareRadicand as exc:
            raise _UsageError(str(exc))
    bits = max(a, b).bit_length()
    if max_bits is None:
        max_bits = _printed_pair_bits()
    if bits > max_bits:
        raise _UsageError(f"pairs are limited to {max_bits} bits, got {bits}")
    return family, a, b


def _write_json(path: Optional[str], report: dict) -> None:
    """Write render_json's text of the report to path, if one is given."""
    if path is not None:
        with _writing(path) as fh:
            fh.write(render_json(report))


def _print_head(run: dict, family: DescentFamily, a: int, b: int) -> None:
    print(f"family {family.title}  pair ({a}, {b})  radicand {family.radicand}")
    parts = [
        f"{w['name']} {'ok' if w['ok'] else 'VIOLATED'}"
        for w in run["window"]["inequalities"]
    ]
    print("window: " + "; ".join(parts))


def _cmd_verify(args) -> int:
    family, a, b = _resolve_figure(args)
    run = build_verify_run(family, a, b)
    _print_head(run, family, a, b)
    if run["window"]["pass"]:
        d = run["descent"]
        print(
            f"descent: ({a}, {b}) -> ({d['output_pair'][0]}, {d['output_pair'][1]})"
            f"  defect {d['defect_in']} -> {d['defect_out']}  multiplier {d['multiplier']}"
        )
        print(f"census-derived pair: {run['census_pair']}")
        for c in run["identity_checks"]:
            mark = "ok" if c["pass"] else "FAIL"
            print(f"check {c['name']}: {c['lhs']} == {c['rhs']} {mark}")
    _write_json(args.json, report_envelope([run]))
    print("verify: " + ("PASS" if run["pass"] else "FAIL"))
    return 0 if run["pass"] else 2


def _cmd_census(args) -> int:
    family, a, b = _resolve_figure(args)
    run = build_census_run(family, a, b)
    _print_head(run, family, a, b)
    if run["window"]["pass"]:
        c = run["census"]
        for key in _CENSUS_AREAS:
            print(f"{key}: {c[key].removesuffix('/1')}")  # as _ratio_str writes it
        print(
            f"regions: {c['pair_region_count']} pairwise"
            f" ({c['doubly_region_count']} doubly, {c['triple_region_count']} triply)"
            f"  max depth {c['max_depth']}"
        )
    _write_json(args.json, report_envelope([run]))
    return 0 if run["pass"] else 2


def _cmd_chain(args) -> int:
    family, a, b = _resolve_figure(args, drawn=False)
    if not 0 <= args.max_steps <= MAX_CHAIN_STEPS:
        raise _UsageError(f"--max-steps must be in 0..{MAX_CHAIN_STEPS}, got {args.max_steps}")
    chain = descent_chain(family, a, b, args.max_steps)
    run = _run_head("chain", family) | {
        "input_pair": list(chain.start),
        "steps": [],
        "stop_reason": chain.stop_reason,
        "final_pair": list(chain.final_pair),
        "pass": True,
    }
    with _list_report(args.json, report_envelope([run]), "steps") as report:
        _print(f"family {family.title}  start ({a}, {b})\n")
        if chain.steps:
            _chain_steps(chain, report)
        _print(f"stop: {chain.stop_reason} after {len(chain.steps)} steps\n")
    return 0


def _chain_steps(chain: ChainResult, report) -> None:
    """Print chain's kept steps, and pass them to report unless it is None,
    a batch of _BATCH steps at a time with one write to each.

    A walk of the family's map from the start reaches each step's a', b'
    and output defect, which go to decimal once and are also the next
    step's input.  The walk runs on exact Decimals, in linear time per
    step, until a batch starts below 2**_INT_BITS in b, then, converted
    once, on ints, which are cheaper there (b shrinks at every kept step,
    so the switch comes once).  The records only say where the switch
    falls; the integer chain's defects were proved once per call, from the
    map's coefficients, and the walk's last pair and defect must equal its
    last step's.
    """
    steps = chain.steps
    (a, b), d = chain.start, steps[0].defect_in
    a_in, b_in, d_in = str(a), str(b), str(d)
    _, (ca, cb), (da, db) = _forms(chain.family)
    ca, cb, da, db, m, a, b, d = map(Decimal, (ca, cb, da, db, steps[0].multiplier, a, b, d))
    # one exact context for the whole walk: int arithmetic, str() and the
    # writes do not read it
    with localcontext(_EXACT):
        for first in range(0, len(steps), _BATCH):
            if type(b) is Decimal and steps[first].pair_in[1].bit_length() < _INT_BITS:
                ca, cb, da, db, m, a, b, d = map(int, (ca, cb, da, db, m, a, b, d))
            lines, objects = [], []
            for i in range(first + 1, min(first + _BATCH, len(steps)) + 1):
                a, b, d = ca * a + cb * b, da * a + db * b, m * d
                a_out, b_out, d_out = str(a), str(b), str(d)
                lines.append(f"step {i}: ({a_in}, {b_in}) -> ({a_out}, {b_out})  defect {d_in} -> {d_out}\n")
                if report is not None:
                    # one step object of runs[0].steps as render_json writes it
                    objects.append(
                        f'{{\n          "pair_in": [\n            {a_in},\n            {b_in}\n          ],\n'
                        f'          "pair_out": [\n            {a_out},\n            {b_out}\n          ],\n'
                        f'          "defect_in": {d_in},\n          "defect_out": {d_out}\n        }}'
                    )
                a_in, b_in, d_in = a_out, b_out, d_out
            _print("".join(lines))
            if report is not None:
                report(",\n        ".join(objects))
    last = steps[-1]
    if (a, b) != last.pair_out or d != last.defect_out:
        raise AssertionError(f"{chain.family.title}: decimals end at ({a}, {b}), defect {d}, not at the last step")


@contextmanager
def _list_report(path: Optional[str], report: dict, key: str):
    """Open report's file at path and yield a function that writes, with
    one write, items of the empty list under key: their JSON text at its
    depth, joined by commas.  The file gets the bytes render_json gives
    report with those items in the list.  Without a path, yield None."""
    if path is None:
        yield None
        return
    head, _, tail = render_json(report).partition(f'"{key}": []')
    newline = head[head.rindex("\n"):]
    sep = "[" + newline + "  "
    with _writing(path) as fh:
        def write(items: str) -> None:
            nonlocal sep
            fh.write(sep + items)
            sep = "," + newline + "  "
        fh.write(f'{head}"{key}": ')
        yield write
        fh.write(("[]" if sep[0] == "[" else newline + "]") + tail)


def _print(text: str) -> None:
    """Write text to stdout; a failure is stdout's, also where it happens
    while a report is open, whose _writing would take it for its own."""
    try:
        sys.stdout.write(text)
    except OSError as exc:
        raise _WriteError(f"cannot write stdout: {exc.strerror or exc}") from exc


def _cmd_range(args) -> int:
    if args.n is not None:
        raise _UsageError("range takes --n-max, not --n")
    sweep = args.n_max is not None
    if sweep and not 2 <= args.n_max <= MAX_RANGE_N:
        raise _UsageError(f"--n-max must be in 2..{MAX_RANGE_N}, got {args.n_max}")
    indices = range(2, args.n_max + 1) if sweep else [None]
    try:
        DescentFamily(FamilyKind(args.family), indices[0])
    except BadIndex:  # range reads the index from --n-max, not from --n
        raise _UsageError(f"range --family {args.family} {'takes no' if sweep else 'needs'} --n-max")
    works: list[int] = []  # the n whose map shrinks pairs: four at most (criterion 2)
    with _list_report(args.json, report_envelope([]), "runs") as report:
        for n in indices:  # each run is printed and written as it is decided
            result = range_check(_resolve_family(args.family, n))
            if result.works:
                works.append(n)
            verdict = "works" if result.works else "fails"
            _print(f"n={n}: {verdict}\n" if sweep else f"{result.family.title}: {verdict}\n")
            if report is not None:
                parts: list[str] = []
                _write_value(build_range_run(result), "\n    ", parts.append)
                report("".join(parts))
    if sweep:  # each summary line is written one n at a time
        for verdict, ns in (("works", works), ("fails", (n for n in indices if n not in works))):
            sep = f"{verdict}: "
            for n in ns:
                sys.stdout.write(f"{sep}{n}")
                sep = ","
            sys.stdout.write("\n" if sep == "," else f"{sep}none\n")
    return 0


def _cmd_sequence(args) -> int:
    """Print the terms of number_theory's proved Pell walk, each as it is
    reached.  The walk runs on exact Decimals: str() of a Decimal takes
    time linear in its digits, of an int quadratic on CPython 3.10 and
    3.11."""
    if args.limit < 0:
        raise _UsageError("--limit must be nonnegative")
    sep = ""
    with localcontext(_EXACT):
        for n in _square_triangular(Decimal(args.limit), Decimal(1)):
            sys.stdout.write(f"{sep}{n}")
            sep = " "
    sys.stdout.write("\n")
    return 0


def _cmd_density(args) -> int:
    if args.x < 1:
        raise _UsageError("--x must be positive")
    count = square_density(args.x)
    print(f"perfect squares up to {args.x}: {count} ({_ratio_str(100 * count, args.x)}% of all integers)")
    return 0


def _cmd_svg(args) -> int:
    family, a, b = _resolve_figure(args, max_bits=MAX_SVG_BITS)
    try:
        arr = build_arrangement(family, a, b)
    except OutOfWindow as exc:
        print(f"cannot build figure: {exc}", file=sys.stderr)
        return 2
    census = coverage_census(arr)
    with _writing(args.out) as fh:
        render_svg(arr, census, fh.write)
    print(f"wrote {args.out}")
    return 0


def cli_main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one command line and return its exit status, help included;
    argv defaults to sys.argv[1:].

    A line that starts with a command's name is parsed by that command's
    own parser, as the top-level parser would hand it the rest, so the
    help, errors and run are the same; every other line (no command, an
    unknown one, top-level help) goes to the top-level parser.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    if sys.stdout is None:  # Python started with file descriptor 1 closed
        print("cannot write stdout: Bad file descriptor", file=sys.stderr)
        return 1
    parser, commands = _build_parser()
    command = commands.get(argv[0]) if argv else None
    try:
        try:
            try:
                args = parser.parse_args(argv) if command is None else command.parse_args(argv[1:])
            except SystemExit as exc:  # only help exits (error is overridden), its text printed
                return exc.code
            return args.run(args)
        finally:
            sys.stdout.flush()  # a full disk or a closed pipe fails here, not at exit
    except _UsageError as exc:
        message = f"usage error: {exc}"
    except _WriteError as exc:
        message = str(exc)
    except OSError as exc:  # a failed file write is a _WriteError, so this is stdout
        message = f"cannot write stdout: {exc.strerror or exc}"
        # stdout still holds what it could not write; at exit the interpreter
        # would try again and report the failure a second time
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    except MemoryError:
        # printed below, once this block has let go of the traceback and,
        # through it, of the run's objects
        message = "out of memory"
    print(message, file=sys.stderr)
    return 1
