"""Worker process of the irrgeo benchmark.

Runs one workload in a closed loop with one caller: each op starts only
after the previous one has returned.  run.py starts it in a fresh
interpreter; it prints one JSON object on its last stdout line.

    python3 bench/worker.py --workload W --seed S --workdir DIR
        (--busy-seconds X | --ops N) [--trace-out PATH]

--busy-seconds stops at the first block boundary once the ops' summed
latency, scaled to the nominal host speed (hostspeed.py), reached X; --ops runs exactly the first N ops.  With --trace-out
the program's public functions are wrapped in spans, and the spans are
written to PATH at the end.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import os
import resource
import statistics
import sys
import time
from array import array
from pathlib import Path
from typing import Iterable, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

import hostspeed  # noqa: E402  (this directory is on sys.path as the script's own)
import spans  # noqa: E402
import workloads  # noqa: E402
from workloads import Op  # noqa: E402

RAW_CAP = 1.25


def import_program() -> dict:
    """Import irrgeo from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import irrgeo
    from irrgeo import descent, exact_arith, geometry, number_theory, render_report

    if Path(irrgeo.__file__).resolve().parent != SRC / "irrgeo":
        raise SystemExit(f"irrgeo imported from {irrgeo.__file__}, not from {SRC}")
    return {
        "descent": descent,
        "exact_arith": exact_arith,
        "geometry": geometry,
        "number_theory": number_theory,
        "render_report": render_report,
    }


class Runner:
    """Executes ops through the program's public entry points and checks
    what they return against the oracle in workloads."""

    def __init__(self, modules: dict, workdir: str):
        self.descent = modules["descent"]
        self.render_report = modules["render_report"]
        self.paths = {
            kind: os.path.join(workdir, "out.svg" if kind == "svg" else "out.json")
            for kind in ("verify", "census", "chain", "svg")
        }

    def prepare(self, op: Op) -> None:
        path = self.paths.get(op.kind)
        if path and os.path.exists(path):
            os.remove(path)

    def execute(self, op: Op):
        if op.kind == "range":
            descent = self.descent
            return descent.range_check(descent.DescentFamily.triangular(op.n))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = self.render_report.cli_main(op.argv(self.paths[op.kind]))
        return rc, out.getvalue(), err.getvalue()

    def check(self, op: Op, result) -> Optional[str]:
        if op.kind == "range":
            return workloads.check_range(op, result.works)
        rc, out, err = result
        path = self.paths[op.kind]
        text = None
        if os.path.exists(path):
            with open(path) as fh:
                text = fh.read()
        reason = workloads.check_cli(op, rc, out, text)
        if reason and err:
            reason += f" (stderr: {err.strip().splitlines()[-1]})"
        return reason


def run_ops(
    blocks: Iterable[list[Op]],
    runner: Runner,
    *,
    count: Optional[int] = None,
    busy_seconds: Optional[float] = None,
    tracer: Optional[spans.Tracer] = None,
    probes: Optional[hostspeed.Probes] = None,
) -> tuple[array, list[str]]:
    """Closed loop over the ops of blocks.  Stops after count ops, or at the
    first block boundary once the ops' summed latency reached busy_seconds.
    With probes, the host's speed is probed between ops, and the latencies
    summed for busy_seconds are scaled to the nominal host speed; on a slow
    host the run still stops once the unscaled sum reached RAW_CAP times
    busy_seconds.  Returns the op latencies in seconds and one line per
    failed op."""
    latencies = array("d")
    failures: list[str] = []
    busy = raw_busy = 0.0
    clock = time.perf_counter
    for block in blocks:
        if busy_seconds is not None and (busy >= busy_seconds or raw_busy >= RAW_CAP * busy_seconds):
            break
        for op in block[: None if count is None else count - len(latencies)]:
            runner.prepare(op)
            root = tracer.op(len(latencies)) if tracer else contextlib.nullcontext()
            error = result = None
            if probes:
                probes.before()
            start = clock()
            try:
                with root:
                    result = runner.execute(op)
            except Exception as exc:  # a traceback is a failed op, not a benchmark crash
                error = f"raised {type(exc).__name__}: {exc}"
            elapsed = clock() - start
            busy += probes.after(elapsed) if probes else elapsed
            raw_busy += elapsed
            latencies.append(elapsed)
            if tracer:
                tracer.end_op()
            reason = error or runner.check(op, result)
            if reason:
                failures.append(f"{op}: {reason}")
        if count is not None and len(latencies) >= count:
            break
    return latencies, failures


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    size = parser.add_mutually_exclusive_group(required=True)
    size.add_argument("--busy-seconds", type=float)
    size.add_argument("--ops", type=int)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)

    modules = import_program()
    runner = Runner(modules, args.workdir)
    # one unmeasured op from its own stream finishes lazy set-up
    _, warm_failures = run_ops(workloads.stream(args.workload, args.seed, "warmup"), runner, count=1)
    tracer = None
    if args.trace_out:
        tracer = spans.Tracer()
        tracer.install(modules)
    probes = hostspeed.Probes()
    latencies, failures = run_ops(
        workloads.stream(args.workload, args.seed),
        runner,
        count=args.ops,
        busy_seconds=args.busy_seconds,
        tracer=tracer,
        probes=probes,
    )
    probes.finish()
    failures = warm_failures + failures
    # read before the input properties and the result below are built, which
    # grow with the op count
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    inputs = workloads.InputStats()
    for op in itertools.islice(itertools.chain.from_iterable(workloads.stream(args.workload, args.seed)), len(latencies)):
        inputs.add(op)
    result = {
        "attempted": len(latencies) + 1,
        "failed": len(failures),
        "failures": failures[:5],
        "latencies_s": latencies.tolist(),
        "scaled_s": probes.scaled(latencies),
        "probe_s": statistics.median(probes.times),
        "inputs": inputs.summary(),
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer:
        result["layers"] = tracer.layer_metrics()
        tracer.write(args.trace_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
