"""Tests of the benchmark itself: seeded inputs, a tiny run of every
workload, the correctness gate, the traced run and the command's output.

    PYTHONPATH=src python -m pytest bench
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import hostspeed
import spans
import worker
import workloads
from workloads import Op

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def first(workload: str, seed: int, count: int) -> list[Op]:
    return list(itertools.islice(itertools.chain.from_iterable(workloads.stream(workload, seed)), count))


@pytest.fixture(scope="module")
def modules():
    return worker.import_program()


@pytest.fixture
def runner(modules, tmp_path):
    return worker.Runner(modules, str(tmp_path))


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs_other_seed_differs(workload):
    assert first(workload, 7, 40) == first(workload, 7, 40)
    assert first(workload, 7, 40) != first(workload, 8, 40)
    assert first(workload, 7, 40) != list(itertools.islice(next(workloads.stream(workload, 7, "warmup")), 40))


@pytest.mark.parametrize("workload", ["figure_sweep", "big_triangular"])
def test_figure_inputs_are_in_window(workload):
    for op in first(workload, 3, 80):
        assert workloads.in_window(op.family, op.n, *workloads.expected_pair(op)), op


def test_generated_sizes_stay_in_their_ranges():
    ks = [op.k for op in first("figure_sweep", 4, 200)]
    assert 1 <= min(ks) and max(ks) <= workloads.MAX_CONVERGENT
    chains = first("descent_chain", 4, 60)
    assert all(workloads.CHAIN_K[0] <= op.k <= workloads.CHAIN_K[1] for op in chains)
    ns = [op.n for op in first("range_sweep", 4, 400)]
    assert 2 <= min(ns) and max(ns) <= workloads.RANGE_N_MAX
    assert {op.n for op in first("big_triangular", 4, 7)} == set(workloads.BIG_N)


def tiny(workload: str) -> list[Op]:
    """The cheapest op of each kind in the workload's first round."""
    cheapest: dict[str, Op] = {}
    for op in first(workload, 1, 36):
        size = (op.n or 0, op.k or 0, op.b or 0)
        best = cheapest.get(op.kind)
        if best is None or size < (best.n or 0, best.k or 0, best.b or 0):
            cheapest[op.kind] = op
    return list(cheapest.values())


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_tiny_run_of_each_workload_passes(runner, workload):
    ops = tiny(workload)
    latencies, failures = worker.run_ops([ops], runner)
    assert failures == []
    assert len(latencies) == len(ops)


GATE_OPS = [
    Op("verify", "sqrt2", k=3),
    Op("census", "triangular", 4, k=5),
    Op("svg", "hex6", k=4),
    Op("chain", "triangular", 3, k=12, max_steps=40),
    Op("range", "triangular", 4),
]


def test_wrong_expected_value_is_a_failed_op(runner, monkeypatch):
    assert worker.run_ops([GATE_OPS], runner)[1] == []
    real_map, real_form = workloads.descent_map, workloads.census_form

    def wrong_map(family, n, a, b):
        (a1, b1), m = real_map(family, n, a, b)
        return (a1 + 1, b1), m

    def wrong_form(family, n, a, b):
        form = real_form(family, n, a, b)
        return dataclasses.replace(form, big=form.big + 1, small_count=form.small_count + 1)

    monkeypatch.setattr(workloads, "descent_map", wrong_map)
    monkeypatch.setattr(workloads, "census_form", wrong_form)
    monkeypatch.setattr(workloads, "WORKING_N", frozenset({2, 3, 5}))
    failures = worker.run_ops([GATE_OPS], runner)[1]
    assert len(failures) == len(GATE_OPS)


def test_nonzero_exit_is_a_failed_op(runner):
    _, failures = worker.run_ops([[Op("verify", "sqrt2", a=5, b=2)]], runner)
    assert len(failures) == 1 and "exit code 2" in failures[0]


def test_scaled_times_follow_the_host_probe(monkeypatch):
    monkeypatch.setattr(hostspeed, "probe", lambda: 2 * hostspeed.NOMINAL_S)  # a host half as fast
    probes = hostspeed.Probes(every=0.05)
    elapsed = [0.01, 0.2, 0.03]
    for seconds in elapsed:
        probes.before()
        assert probes.after(seconds) == pytest.approx(seconds / 2)
    probes.finish()
    assert len(probes.times) == 3  # before the first op, after 0.05 s of ops, at the end
    assert probes.scaled(elapsed) == pytest.approx([x / 2 for x in elapsed])


def test_traced_self_times_sum_to_each_op(runner, modules):
    saved = {site: getattr(modules[site[0]], site[1]) for sites in spans.SITES.values() for site in sites}
    tracer = spans.Tracer()
    tracer.install(modules)
    try:
        _, failures = worker.run_ops([GATE_OPS], runner, tracer=tracer)
    finally:
        for (mod, attr), fn in saved.items():
            setattr(modules[mod], attr, fn)
    assert failures == []
    layers = tracer.layer_metrics()
    assert layers["trace.self_sum_residual_ms"][0] < 1e-6
    assert all(t > -1e-9 for t in tracer.self_times())
    for name in ("descent.defect_multiplier", "number_theory.factorize", "geometry.convex_intersection"):
        assert layers[f"{name}.calls"][0] > 0
    assert layers["exact_arith.validations_per_range_check"][0] == 9
    assert layers["descent.descent_chain.steps"][0] > 0


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize("trace, key", [("0", "end_to_end"), ("1", "per_layer")])
def test_command_prints_every_metric_as_last_line(trace, key):
    proc = run_bench(HERE.parent, "--workload", "range_sweep", "--seed", "3", "--seconds", "0.2", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    units = {m["name"]: m["unit"] for m in SPEC[key]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == units


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "--workload", "figure_sweep", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
