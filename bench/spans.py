"""Spans around the program's public functions, recorded from outside.

The tracer rebinds each traced function where its callers look it up (a
module global), so the program's sources stay untouched.  Every call
becomes a span (name, start, end, parent, op id) kept in memory; per-layer
numbers are computed from the spans after the run:

* self time of a span is its duration minus the durations of its direct
  children (calls are synchronous, so children never overlap);
* the spans of one op are rooted at an "op" span opened by the benchmark,
  so their self times sum to the op's traced duration.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

# span name -> (module, global) sites rebound to the same wrapper
SITES = {
    "render_report.cli_main": [("render_report", "cli_main")],
    "render_report.build_verify_run": [("render_report", "build_verify_run")],
    "render_report.render_json": [("render_report", "render_json")],
    "render_report.render_svg": [("render_report", "render_svg")],
    "geometry.build_arrangement": [("render_report", "build_arrangement")],
    "geometry.coverage_census": [("render_report", "coverage_census")],
    "geometry.verify_figure": [("render_report", "verify_figure")],
    "geometry.census_to_descent": [("render_report", "census_to_descent")],
    "geometry.convex_intersection": [("geometry", "convex_intersection")],
    "descent.descent_step": [("render_report", "descent_step"), ("descent", "descent_step")],
    "descent.defect_multiplier": [("descent", "defect_multiplier")],
    "descent.descent_chain": [("render_report", "descent_chain")],
    "descent.range_check": [("render_report", "range_check"), ("descent", "range_check")],
    "exact_arith.squarefree_decompose": [("exact_arith", "squarefree_decompose")],
    "number_theory.factorize": [("number_theory", "factorize")],
    "number_theory.convergents": [("render_report", "convergents")],
}

NAME, START, END, PARENT, OP = range(5)


class Tracer:
    """The spans and counters of one traced run."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op_id = -1
        self._smalls: frozenset[int] = frozenset()
        self._censuses: list = []
        self.candidate_pairs = 0
        self.regions = 0
        self.clip_hits = 0
        self.chain_steps = 0
        self.max_coord_bits = 0

    def install(self, modules: dict) -> None:
        """Rebind every site in SITES; modules maps short names to irrgeo
        submodules."""
        # (before, after) calls around a span, for the counters
        hooks = {
            "geometry.coverage_census": (self._before_census, self._after_census),
            "geometry.convex_intersection": (None, self._after_clip),
            "descent.descent_chain": (None, self._after_chain),
        }
        for name, sites in SITES.items():
            originals = {id(getattr(modules[mod], attr)) for mod, attr in sites}
            if len(originals) != 1:
                raise RuntimeError(f"{name}: sites {sites} hold different functions")
            mod, attr = sites[0]
            wrapper = self._wrap(name, getattr(modules[mod], attr), *hooks.get(name, (None, None)))
            for mod, attr in sites:
                setattr(modules[mod], attr, wrapper)

    def _wrap(self, name, fn, before, after):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            if before:
                before(args)
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1, self._op_id])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][END] = clock()
            if after:
                after(args, result)
            return result

        return traced

    @contextmanager
    def op(self, op_id: int):
        """Root span of one op; every traced call inside hangs below it."""
        self._op_id = op_id
        idx = len(self.spans)
        self.spans.append(["op", time.perf_counter(), 0.0, -1, op_id])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][END] = time.perf_counter()
            self._op_id = -1

    def end_op(self) -> None:
        """Read the region coordinates of the op's censuses; called after
        the op is timed, so the scan costs no span any time."""
        for census in self._censuses:
            for region in census.pair_regions + census.triple_regions:
                for p in region.vertices:
                    for x in p:
                        self.max_coord_bits = max(
                            self.max_coord_bits, x.numerator.bit_length(), x.denominator.bit_length()
                        )
        self._censuses.clear()

    def _before_census(self, args) -> None:
        self._smalls = frozenset(map(id, args[0].smalls))

    def _after_census(self, args, census) -> None:
        self._smalls = frozenset()
        self.regions += len(census.pair_regions) + len(census.triple_regions)
        self._censuses.append(census)

    def _after_clip(self, args, region) -> None:
        self.clip_hits += region is not None
        self.candidate_pairs += id(args[0]) in self._smalls and id(args[1]) in self._smalls

    def _after_chain(self, args, chain) -> None:
        self.chain_steps += len(chain.steps)

    def self_times(self) -> list[float]:
        """Self time of every span, in seconds, aligned with self.spans."""
        own = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] >= 0:
                own[s[PARENT]] -= s[END] - s[START]
        return own

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Every per-layer metric except set-up and overhead, as
        name -> (value, unit)."""
        own = self.self_times()
        calls = dict.fromkeys(SITES, 0)
        self_ms = dict.fromkeys(SITES, 0.0)
        op_total = {}
        op_self = {}
        for s, t in zip(self.spans, own):
            if s[NAME] == "op":
                op_total[s[OP]] = s[END] - s[START]
            else:
                calls[s[NAME]] += 1
                self_ms[s[NAME]] += t * 1e3
            op_self[s[OP]] = op_self.get(s[OP], 0.0) + t
        out: dict[str, tuple[float, str]] = {}
        for name in SITES:
            out[f"{name}.calls"] = (calls[name], "count")
            out[f"{name}.self_ms"] = (self_ms[name], "ms")
        clips = calls["geometry.convex_intersection"]
        ranges = calls["descent.range_check"]
        out["geometry.coverage_census.candidate_pairs"] = (self.candidate_pairs, "count")
        out["geometry.coverage_census.regions"] = (self.regions, "count")
        out["geometry.convex_intersection.hit_ratio"] = (self.clip_hits / clips if clips else 0.0, "fraction")
        out["geometry.max_coord_bits"] = (self.max_coord_bits, "bits")
        out["descent.descent_chain.steps"] = (self.chain_steps, "count")
        validations = calls["exact_arith.squarefree_decompose"] / ranges if ranges else 0.0
        out["exact_arith.validations_per_range_check"] = (validations, "ratio")
        residual = max((abs(op_self[i] - op_total[i]) for i in op_total), default=0.0)
        out["trace.self_sum_residual_ms"] = (residual * 1e3, "ms")
        return out

    def write(self, path: str) -> None:
        """One JSON array per span: op id, index, parent, name, start, end."""
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps([s[OP], i, s[PARENT], s[NAME], s[START], s[END]]) + "\n")
