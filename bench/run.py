"""irrgeo benchmark: one workload per run, measured end to end or traced.

    python3 bench/run.py --workload W --seed S --seconds X --trace 0|1

--trace 0 measures set-up time over fresh interpreter spawns (the CPU
time each took to start and import irrgeo, read inside it), then runs
the workload in a fresh worker process (a closed loop with one caller,
bench/worker.py) until the ops' summed latency, scaled to the nominal host
speed, reaches X seconds.
--trace 1 runs a fixed number of ops twice in fresh workers, once plain
and once with every public layer function wrapped in spans, and reports
per-layer numbers plus the tracing overhead; set-up is broken down per
module from `python -X importtime`.  End-to-end numbers come only from
--trace 0.

Every time reported is scaled to one host speed (bench/hostspeed.py): a
fixed stdlib kernel is timed between ops and inside each set-up spawn, and
each measured time is rescaled to a host on which that kernel takes
hostspeed.NOMINAL_S.  The unscaled figures are printed as lines too.

Every op's output is checked against the oracle in bench/workloads.py.
Human-readable lines come first; the last stdout line is one JSON object
with the keys correct, attempted, failed and metrics.  Exit code 0 when
every op passed, 1 when some op failed, 2 when the benchmark could not
run (then no JSON line is printed).  The spans of the latest traced run
of each workload are written to .bench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

import hostspeed  # noqa: E402  (this directory is on sys.path as the script's own)
import workloads  # noqa: E402

SETUP_SPAWNS = 11
IMPORTTIME_SPAWNS = 5
RUN_DEADLINE_S = 170.0
MODULES = ("exact_arith", "number_theory", "descent", "geometry", "render_report")
# Tail percentile per workload, fixed so that runs compare like with like.
# Each leaves at least ten samples beyond it at --seconds 24, and each falls
# where seeds agree: inside one family's (or one n's) latencies rather than
# at the gap between two (figure_sweep p95 in triangular 5, big_triangular
# p75 in n = 16), and for range_sweep below its steepest tail, where the
# latency nearly doubles per percentile point (p99 spread 0.10 over seeds,
# p90 0.03).  figure_sweep p99 was set by the few ops a host hiccup hit.
TAIL_PERCENTILE = {"figure_sweep": 95.0, "big_triangular": 75.0, "descent_chain": 90.0, "range_sweep": 90.0}
# Ops per second of --seconds run by each half of a traced run (about half
# the untraced throughput; range_sweep is capped to keep spans small).  Fixed,
# so a traced run's counts repeat exactly for a given seed and --seconds.
TRACE_OPS_PER_SECOND = {"figure_sweep": 32, "big_triangular": 1.2, "descent_chain": 3.2, "range_sweep": 250}
# A fresh interpreter imports irrgeo, notes its own CPU time (user + system,
# counted from its start), then times the host-speed kernel PROBES times.
READY = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); import irrgeo.render_report; cpu = time.process_time(); "
    "sys.path.insert(0, sys.argv[2]); import hostspeed, statistics; "
    "print('ready', cpu, statistics.median(hostspeed.probe() for _ in range(int(sys.argv[3]))), flush=True)"
)
PROBES = 7


class BenchError(Exception):
    """The benchmark itself could not run to the end."""


def spawn_ready(flags: tuple[str, ...] = ()) -> tuple[float, float, str]:
    """CPU seconds a fresh interpreter took to start and import irrgeo, the
    median host-speed probe it took right after, and its stderr."""
    proc = subprocess.Popen(
        [sys.executable, *flags, "-c", READY, str(SRC), str(HERE), str(PROBES)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        out, err = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    fields = out.split()
    if len(fields) != 3 or fields[0] != "ready" or proc.returncode != 0:
        raise BenchError(f"set-up spawn failed ({proc.returncode}): {err.strip()[-300:]}")
    return float(fields[1]), float(fields[2]), err


def import_ms(stderr: str) -> dict[str, float]:
    """Self import time of each irrgeo module from -X importtime output."""
    out = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = [f.strip() for f in line[len("import time:") :].split("|")]
        # the first line of a module is its import; a later one only binds it
        if fields[2].startswith("irrgeo.") and fields[2][7:] in MODULES:
            out.setdefault(fields[2][7:], int(fields[0]) / 1e3)
    if set(out) != set(MODULES):
        raise BenchError(f"-X importtime listed {sorted(out)}, expected {sorted(MODULES)}")
    return out


def run_worker(args: list[str], deadline: float) -> dict:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("no time left for the worker")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *args],
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker did not finish within {timeout:.0f} s")
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def setup_times(spawns: int) -> tuple[list[float], list[float]]:
    """Set-up CPU seconds of fresh spawns run one at a time, scaled by the
    host-speed probe each spawn took, and unscaled."""
    scaled, raw = [], []
    for _ in range(spawns):
        cpu, probe, _ = spawn_ready()
        scaled.append(cpu * hostspeed.NOMINAL_S / probe)
        raw.append(cpu)
    return scaled, raw


def end_to_end(workload: str, result: dict, setup: list[float]) -> dict[str, tuple[float, str]]:
    ms = sorted(x * 1e3 for x in result["scaled_s"])
    pct = TAIL_PERCENTILE[workload]
    rank = math.ceil(pct / 100 * len(ms))  # nearest rank
    print(f"ops: {len(ms)}; op_ms.tail is p{pct:g} with {len(ms) - rank} samples beyond it")
    for top in (99.9, 99.0, 95.0, 90.0, 75.0):  # shown, not gated: see TAIL_PERCENTILE
        top_rank = math.ceil(top / 100 * len(ms))
        if len(ms) - top_rank >= 10:
            print(f"highest tail with ten samples beyond it: p{top:g} {ms[top_rank - 1]:.6g} ms")
            break
    print(f"setup_s: median of {len(setup)} spawns")
    raw = sorted(x * 1e3 for x in result["latencies_s"])
    print(
        f"unscaled: ops_per_s {len(raw) / sum(raw) * 1e3:.6g} op/s, op_ms.p50 {statistics.median(raw):.6g} ms,"
        f" op_ms.tail {raw[rank - 1]:.6g} ms; median host probe {result['probe_s'] * 1e3:.4g} ms"
        f" (nominal {hostspeed.NOMINAL_S * 1e3:g} ms)"
    )
    attempted, failed = result["attempted"], result["failed"]
    print(f"fail_ratio: {failed / attempted} fraction ({failed} of {attempted} ops failed)")
    return {
        "ops_per_s": (len(ms) / sum(result["scaled_s"]), "op/s"),
        "op_ms.p50": (statistics.median(ms), "ms"),
        "op_ms.tail": (ms[rank - 1], "ms"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        "pass_ratio": ((attempted - failed) / attempted, "fraction"),
    }


def per_layer(plain: dict, traced: dict, imports: list[dict[str, float]]) -> dict[str, tuple[float, str]]:
    metrics = {name: tuple(value) for name, value in traced["layers"].items()}
    for mod in MODULES:
        metrics[f"setup.import_ms.{mod}"] = (statistics.median(i[mod] for i in imports), "ms")
    # same ops in both runs, so the throughput ratio is the busy-time ratio
    ratio = sum(plain["scaled_s"]) / sum(traced["scaled_s"])
    metrics["trace.overhead_ratio"] = (ratio, "ratio")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "irrgeo" / "__init__.py").is_file():
        print(f"bench: no irrgeo sources under {SRC}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_DEADLINE_S
    workdir = tempfile.mkdtemp(prefix=".bench_work-", dir=ROOT)
    common = ["--workload", args.workload, "--seed", str(args.seed), "--workdir", workdir]
    try:
        if args.trace:
            imports = [import_ms(spawn_ready(("-X", "importtime"))[2]) for _ in range(IMPORTTIME_SPAWNS)]
            n_ops = max(1, round(TRACE_OPS_PER_SECOND[args.workload] * args.seconds))
            out_dir = ROOT / ".bench_out"
            out_dir.mkdir(exist_ok=True)
            spans_path = out_dir / f"spans-{args.workload}.jsonl"  # the latest traced run
            plain = run_worker(common + ["--ops", str(n_ops)], deadline)
            result = run_worker(common + ["--ops", str(n_ops), "--trace-out", str(spans_path)], deadline)
            metrics = per_layer(plain, result, imports)
            print(f"traced ops: {n_ops} per run, spans in {spans_path.relative_to(ROOT)}")
            attempted = plain["attempted"] + result["attempted"]
            failed = plain["failed"] + result["failed"]
            failures = plain["failures"] + result["failures"]
        else:
            setup, raw_setup = setup_times(SETUP_SPAWNS)
            print(f"unscaled setup_s: {statistics.median(raw_setup):.6g} s")
            result = run_worker(common + ["--busy-seconds", str(args.seconds)], deadline)
            metrics = end_to_end(args.workload, result, setup)
            attempted, failed, failures = result["attempted"], result["failed"], result["failures"]
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {args.workload} seed {args.seed} inputs {json.dumps(result['inputs'])}")
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value:.6g} {unit}")
    for line in failures:
        print(f"FAILED {line[:400]}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
