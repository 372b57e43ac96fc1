"""Seeded op streams for the irrgeo benchmark, and the oracle that checks
every op's output.

An op is one in-process `irrgeo.render_report.cli_main` call, or one
`irrgeo.descent.range_check` call where the command line cannot express the
input (a single large triangular index).  A workload is an endless seeded
stream of blocks; a block holds every stratum of the workload once (each
family, each slice of the size range, or each pairing of the two) in a
seeded order.  Timed runs stop
only between blocks, so every run sees the same mix whatever the seed, and
run-to-run spread comes from the program, not from the draw.

The oracle is written out here from the paper's closed forms and shares no
code with the program: its own continued-fraction convergents, its own
window inequalities, its own table of descent maps and defect multipliers,
and its own census areas.  This module never imports irrgeo.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Iterator, Optional

# Families with a figure, as (family, n).
FIGURE_FAMILIES = (
    ("sqrt2", None),
    ("hex6", None),
    ("triangular", 2),
    ("triangular", 3),
    ("triangular", 4),
    ("triangular", 5),
)
MAX_CONVERGENT = 60  # figure_sweep draws convergent indices from 1..60
# verify ops per family per block, besides one census and one svg.  The
# weights put as many ops below triangular 3 (the fourth-cheapest family at
# this commit) as above it, so the median op falls in the middle of one
# family's latencies, not at the gap between two, where it would be set by
# the slowest op of one family and the fastest of the next.
FIGURE_VERIFY = {
    ("sqrt2", None): 7,
    ("hex6", None): 4,
    ("triangular", 2): 7,
    ("triangular", 3): 10,
    ("triangular", 4): 4,
    ("triangular", 5): 4,
}
# big_triangular: 55, 91 and 136 smalls.  Three n, not all of 10..16: a run
# holds about 45 ops of 0.2-1 s, and the median and p75 then fall inside the
# latencies of one n (13 and 16) with about 15 samples each, not 7.
BIG_N = (10, 13, 16)
BIG_B_BITS = (8, 40)
CHAIN_K = (100, 1000)
CHAIN_SUBSLICES = 4
RANGE_N_MAX = 10**5
RANGE_STRATA = 16  # log-n slices per range_sweep block
WORKING_N = frozenset({2, 3, 4, 5})  # acceptance criterion 2


@dataclass(frozen=True)
class Op:
    """One benchmark operation.

    kind is verify, census, svg, chain or range.  Figure and chain ops give
    either a convergent index k or an explicit pair (a, b).
    """

    kind: str
    family: str
    n: Optional[int] = None
    k: Optional[int] = None
    a: Optional[int] = None
    b: Optional[int] = None
    max_steps: Optional[int] = None

    def argv(self, out_path: str) -> list[str]:
        """Command-line arguments for cli_main; range ops have none."""
        argv = [self.kind, "--family", self.family]
        if self.n is not None:
            argv += ["--n", str(self.n)]
        if self.k is not None:
            argv += ["--convergent", str(self.k)]
        else:
            argv += ["--a", str(self.a), "--b", str(self.b)]
        if self.kind == "chain":
            argv += ["--max-steps", str(self.max_steps)]
        argv += ["--out" if self.kind == "svg" else "--json", out_path]
        return argv


def triangular_number(n: int) -> int:
    return n * (n + 1) // 2


def radicand(family: str, n: Optional[int]) -> int:
    return {"sqrt2": 2, "hex6": 6}.get(family) or triangular_number(n)


def in_window(family: str, n: Optional[int], a: int, b: int) -> bool:
    """The README's window: b < a < 2b, 2b < a < 3b, (n+1)b < 2a and a < nb."""
    if family == "sqrt2":
        return b < a < 2 * b
    if family == "hex6":
        return 2 * b < a < 3 * b
    return (n + 1) * b < 2 * a and a < n * b


def convergent_pairs(big_n: int, count: int) -> list[tuple[int, int]]:
    """First `count` continued-fraction convergents p/q of sqrt(big_n)."""
    a0 = isqrt(big_n)
    m, d, term = 0, 1, a0
    p0, q0, p1, q1 = 1, 0, a0, 1
    out = [(p1, q1)]
    while len(out) < count:
        m = d * term - m
        d = (big_n - m * m) // d
        term = (a0 + m) // d
        p0, p1 = p1, term * p1 + p0
        q0, q1 = q1, term * q1 + q0
        out.append((p1, q1))
    return out


def descent_map(family: str, n: Optional[int], a: int, b: int) -> tuple[tuple[int, int], int]:
    """Next pair and defect multiplier m, with
    a'^2 - N b'^2 == m (a^2 - N b^2)."""
    if family == "sqrt2":
        return (2 * b - a, a - b), -1
    if family == "hex6":
        return (3 * a - 6 * b, 3 * b - a), 3
    t = triangular_number(n)
    if n % 2 == 0:
        return (n * a - t * b, n * b - a), n * n - t
    c = (n + 1) // 2
    return (t * b - c * a, a - c * b), c * c - t


@dataclass(frozen=True)
class CensusForm:
    """Closed-form census of one figure, in lattice areas."""

    big: Fraction
    smalls: Fraction
    exactly2: Fraction
    exactly3: Fraction
    blank: Fraction
    small_count: int
    doubly: int
    triply: int


def census_form(family: str, n: Optional[int], a: int, b: int) -> CensusForm:
    a, b = Fraction(a), Fraction(b)
    if family == "sqrt2":
        t, s = 2 * b - a, a - b
        return CensusForm(a * a, 2 * b * b, t * t, Fraction(0), 2 * s * s, 2, 1, 0)
    if family == "hex6":
        t, s = 3 * b - a, a - 2 * b
        return CensusForm(3 * a * a, 18 * b * b, 6 * t * t, Fraction(0), 9 * s * s, 6, 6, 0)
    t = (n * b - a) / (n - 1)
    s = b - 2 * t
    triply = (n - 1) * (n - 2) // 2
    return CensusForm(
        big=a * a / 2,
        smalls=triangular_number(n) * b * b / 2,
        exactly2=3 * (n - 1) * t * t / 2,
        exactly3=triply * t * t / 2,
        blank=n * (n - 1) * s * s / 4,
        small_count=triangular_number(n),
        doubly=3 * (n - 1),
        triply=triply,
    )


# -- op streams ---------------------------------------------------------------


def _window_indices(family: str, n: Optional[int]) -> list[int]:
    pairs = convergent_pairs(radicand(family, n), MAX_CONVERGENT)
    return [k for k, (p, q) in enumerate(pairs, start=1) if in_window(family, n, p, q)]


def _deck(rng: random.Random, items: list) -> Iterator:
    """Endless draws from items in seeded shuffled passes, so that over a
    run every item comes up about equally often whatever the seed."""
    while True:
        yield from rng.sample(items, len(items))


def figure_sweep(rng: random.Random) -> Iterator[list[Op]]:
    """Mostly verify, some census and svg, on every figure family at
    seeded in-window convergent indices, each (family, kind) drawing its
    indices from its own deck."""
    windows = {fam: _window_indices(*fam) for fam in FIGURE_FAMILIES}
    decks = {(fam, kind): _deck(rng, windows[fam]) for fam in FIGURE_FAMILIES for kind in ("verify", "census", "svg")}
    while True:
        block = [
            Op(kind, family, n, k=next(decks[(family, n), kind]))
            for family, n in FIGURE_FAMILIES
            for kind in ("verify",) * FIGURE_VERIFY[family, n] + ("census", "svg")
        ]
        rng.shuffle(block)
        yield block


def big_triangular(rng: random.Random) -> Iterator[list[Op]]:
    """verify on every n in BIG_N, with explicit in-window pairs.

    b's bit length comes from one of len(BIG_N) slices of BIG_B_BITS.  A
    block is a seeded Latin square: len(BIG_N) rounds, each holding every n
    once, that pair every n with every slice once.
    """
    lo, hi = BIG_B_BITS
    m = len(BIG_N)
    width = (hi - lo + 1) / m
    while True:
        ns = rng.sample(BIG_N, m)
        block = []
        for shift in rng.sample(range(m), m):
            for i in rng.sample(range(m), m):
                n = ns[i]
                bits = lo + int(width * ((i + shift) % m + rng.random()))
                b = rng.randrange(1 << (bits - 1), 1 << bits)
                a = rng.randint((n + 1) * b // 2 + 1, n * b - 1)
                block.append(Op("verify", "triangular", n, a=a, b=b))
        yield block


def descent_chain(rng: random.Random) -> Iterator[list[Op]]:
    """chain from convergent K, with CHAIN_K cut into one slice per family.

    A block is a seeded Latin square: len(FIGURE_FAMILIES) rounds, each
    giving every family a K from a different slice, that pair every family
    with every slice once.  Each (family, slice) pair draws K from
    the slice's CHAIN_SUBSLICES parts in seeded shuffled passes, so every
    run spans each slice evenly and its largest chains, which set the peak
    memory, come from the top of the range whatever the seed.
    """
    lo, hi = CHAIN_K
    m = len(FIGURE_FAMILIES)
    width = (hi - lo) / m
    parts = {(fam, s): _deck(rng, range(CHAIN_SUBSLICES)) for fam in FIGURE_FAMILIES for s in range(m)}
    while True:
        fams = rng.sample(FIGURE_FAMILIES, m)
        block = []
        for shift in rng.sample(range(m), m):
            for i in rng.sample(range(m), m):
                family, n = fams[i]
                piece = (i + shift) % m
                part = next(parts[fams[i], piece])
                k = int(lo + width * (piece + (part + rng.random()) / CHAIN_SUBSLICES))
                # a chain from convergent K ends within K steps
                block.append(Op("chain", family, n, k=k, max_steps=2 * k + 16))
        yield block


def range_sweep(rng: random.Random) -> Iterator[list[Op]]:
    """range_check on triangular n, log-uniform over [2, RANGE_N_MAX],
    one draw from each of RANGE_STRATA log slices per block."""
    lo, hi = math.log(2), math.log(RANGE_N_MAX + 1)
    width = (hi - lo) / RANGE_STRATA
    while True:
        block = []
        for piece in rng.sample(range(RANGE_STRATA), RANGE_STRATA):
            n = int(math.exp(lo + width * (piece + rng.random())))
            block.append(Op("range", "triangular", min(max(n, 2), RANGE_N_MAX)))
        yield block


WORKLOADS = {
    "figure_sweep": figure_sweep,
    "big_triangular": big_triangular,
    "descent_chain": descent_chain,
    "range_sweep": range_sweep,
}


def stream(workload: str, seed: int, purpose: str = "measure") -> Iterator[list[Op]]:
    """The block stream of a workload; the same (workload, seed, purpose)
    always gives the same blocks.  Warm-up ops use their own purpose so
    they never repeat a measured input."""
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}:{purpose}"))


def _widen(span: Optional[list[int]], x: int) -> list[int]:
    return [x, x] if span is None else [min(span[0], x), max(span[1], x)]


class InputStats:
    """Generated-input properties of the ops run so far: family mix, n
    range, pair bit lengths and the share of ops whose family already
    appeared earlier.  Only the set of families seen grows with the run."""

    def __init__(self) -> None:
        self.ops = 0
        self.repeats = 0
        self._seen: set = set()
        self._mix: dict[str, int] = {}
        self._n: Optional[list[int]] = None
        self._bits: Optional[list[int]] = None

    def add(self, op: Op) -> None:
        self.ops += 1
        family = (op.family, op.n)
        self.repeats += family in self._seen
        self._seen.add(family)
        # n_range covers the sweeps over many n
        label = op.family if op.n is None or op.kind == "range" else f"{op.family}{op.n}"
        self._mix[label] = self._mix.get(label, 0) + 1
        if op.n is not None:
            self._n = _widen(self._n, op.n)
        if op.kind != "range":
            self._bits = _widen(self._bits, expected_pair(op)[0].bit_length())

    def summary(self) -> dict:
        return {
            "ops": self.ops,
            "family_mix": dict(sorted(self._mix.items())),
            "n_range": self._n,
            "pair_bits_range": self._bits,
            "family_repeat_share": self.repeats / self.ops if self.ops else 0.0,
        }


# -- oracle -------------------------------------------------------------------

_convergent_cache: dict[int, list[tuple[int, int]]] = {}


def expected_pair(op: Op) -> tuple[int, int]:
    """The input pair the op names: explicit, or the oracle's convergent."""
    if op.k is None:
        return op.a, op.b
    big_n = radicand(op.family, op.n)
    pairs = _convergent_cache.get(big_n, [])
    if len(pairs) < op.k:
        pairs = _convergent_cache[big_n] = convergent_pairs(big_n, max(op.k, 2 * len(pairs)))
    return pairs[op.k - 1]


def _frac(s: str) -> Fraction:
    p, q = s.split("/")
    return Fraction(int(p), int(q))


def _one_run(text: str) -> dict:
    report = json.loads(text)
    if report.get("version") != "1" or len(report.get("runs", ())) != 1:
        raise ValueError("report is not a single schema-1 run")
    return report["runs"][0]


def check_cli(op: Op, rc: int, stdout: str, out_text: Optional[str]) -> Optional[str]:
    """None if a CLI op's exit code, printed lines and written file are all
    correct; otherwise a one-line reason."""
    if rc != 0:
        return f"exit code {rc}, expected 0"
    if out_text is None:
        return "no output file written"
    a, b = expected_pair(op)
    if op.kind == "svg":
        return _check_svg(op, a, b, out_text)
    run = _one_run(out_text)
    if run.get("input_pair") != [a, b]:
        return f"input_pair {run.get('input_pair')} != {[a, b]}"
    if op.kind == "chain":
        return _check_chain(op, a, b, run, stdout)
    if run.get("pass") is not True:
        return "report pass is not true"
    if op.kind == "census":
        return _check_census(op, a, b, run["census"])
    if not stdout.endswith("verify: PASS\n"):
        return "stdout does not end with verify: PASS"
    want = list(descent_map(op.family, op.n, a, b)[0])
    if run.get("census_pair") != want:
        return f"census_pair {run.get('census_pair')} != map {want}"
    return None


def _check_census(op: Op, a: int, b: int, census: dict) -> Optional[str]:
    form = census_form(op.family, op.n, a, b)
    want = {
        "big_area": form.big,
        "total_small_area": form.smalls,
        "exactly2_area": form.exactly2,
        "exactly3_area": form.exactly3,
        "blank_area": form.blank,
    }
    for key, value in want.items():
        if _frac(census[key]) != value:
            return f"census {key} {census[key]} != closed form {value}"
    counts = (census["doubly_region_count"], census["triple_region_count"])
    if counts != (form.doubly, form.triply):
        return f"census region counts {counts} != {(form.doubly, form.triply)}"
    return None


def _check_svg(op: Op, a: int, b: int, svg: str) -> Optional[str]:
    if not (svg.startswith("<svg ") and svg.endswith("</svg>\n")):
        return "svg is not one <svg> element"
    form = census_form(op.family, op.n, a, b)
    # each triple region also appears among the pairwise regions
    want = {
        "white": 1,
        "lightblue": form.small_count,
        "orange": form.doubly + form.triply,
        "red": form.triply,
    }
    for fill, count in want.items():
        got = svg.count(f'<polygon fill="{fill}"')
        if got != count:
            return f"svg has {got} {fill} polygons, expected {count}"
    return None


def _check_chain(op: Op, a: int, b: int, run: dict, stdout: str) -> Optional[str]:
    big_n = radicand(op.family, op.n)
    cur = (a, b)
    for i, step in enumerate(run["steps"]):
        nxt, m = descent_map(op.family, op.n, *cur)
        defect = cur[0] ** 2 - big_n * cur[1] ** 2
        got = (tuple(step["pair_in"]), tuple(step["pair_out"]), step["defect_in"], step["defect_out"])
        if got != (cur, nxt, defect, m * defect):
            return f"chain step {i + 1} {got} != oracle {(cur, nxt, defect, m * defect)}"
        cur = nxt
    if list(cur) != run["final_pair"]:
        return f"final_pair {run['final_pair']} != {list(cur)}"
    nxt, _ = descent_map(op.family, op.n, *cur)
    reason = "nonpositive" if min(nxt) < 1 else "no_decrease" if nxt[1] >= cur[1] else "max_steps"
    if run["stop_reason"] != reason or reason == "max_steps":
        return f"chain stop {run['stop_reason']} at {cur}, oracle says {reason}"
    if not stdout.rstrip("\n").endswith(f"after {len(run['steps'])} steps"):
        return "stdout does not report the step count"
    return None


def check_range(op: Op, works: bool) -> Optional[str]:
    want = op.n in WORKING_N
    return None if works == want else f"range_check(triangular {op.n}).works is {works}, expected {want}"
