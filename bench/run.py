"""hankel-lab benchmark: whole CLI commands on seeded inputs, checked.

    python3 bench/run.py --workload hankel-dense --seed 1 --seconds 30 --trace 0

Workloads (see BENCHMARK.json for why each was chosen): hankel-dense,
torus-grid, dual-search. The seed is the only source of randomness in the
inputs; seed 9001 is held out: do not use it while tuning a change, use it
to confirm the claim afterwards.

With --trace 0 the run reports the end-to-end metrics; with --trace 1 it
wraps the package's functions and reports per-layer self times and
counts. Either way every op's output is checked against references the
harness computes itself, and the last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

Load is a closed loop: a single worker process runs one command at a time.
HANKEL_LAB_THREADS is pinned to min(2, usable cores) and recorded with the
numpy, Python and BLAS versions.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

from tracer import METRICS
from workloads import WORKLOADS, tail_percentile

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
# The worker must end this many seconds after the run starts, which leaves
# room for the last cold imports within the 180 s a run may take.
RUN_LIMIT_S = 165.0
# Cold imports per run, half before and half after the worker: on a shared
# VM the CPU speed can change in phases of several seconds, and samples
# taken some 20 s apart are less likely to all land in one phase.
SETUP_SAMPLES = 10

_IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import hankel_lab.cli; "
    "print(repr(time.perf_counter() - t))"
)


def _threads():
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (os.cpu_count() or 1)
    return min(2, cores)


def _child_env():
    env = dict(os.environ)
    env["HANKEL_LAB_THREADS"] = str(_threads())
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def import_times(env, samples):
    """Seconds of cold `import hankel_lab.cli` runs, each in a fresh interpreter."""
    times = []
    for _ in range(samples):
        done = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE], env=env, capture_output=True, text=True, timeout=60, check=True
        )
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def latency(record):
    """Median and tail op latency (name -> (value, unit)), and a note on the tail."""
    latencies = sorted(op["latency_s"] for op in record["ops"])
    pct = tail_percentile(record["ops_per_pass"])
    rank = max(1, math.ceil(pct / 100.0 * len(latencies)))  # nearest rank
    metrics = {"op_p50_s": (statistics.median(latencies), "s"), "op_tail_s": (latencies[rank - 1], "s")}
    note = f"op_tail_s is the p{pct} latency over {len(latencies)} ops ({len(latencies) - rank} beyond it)"
    return metrics, note


def end_to_end(record, setup_times):
    """End-to-end metrics: name -> (value, unit)."""
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (statistics.median(p["wall_s"] for p in record["passes"]), "s"),
        "cpu_s": (statistics.median(p["cpu_s"] for p in record["passes"]), "s"),
        "peak_rss_mb": (record["peak_rss_mb"], "MB"),
    }


def per_layer(record):
    """Per-layer metrics, with the op latency percentiles and tol_used_max."""
    metrics = {name: (record["layers"][name], unit) for name, unit in METRICS}
    metrics.update(latency(record)[0])
    metrics["tol_used_max"] = (max((op["tol_used"] for op in record["ops"]), default=0.0), "ratio")
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description="hankel-lab benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true", help="short op lists, for the self-test")
    parser.add_argument("--broken-reference", action="store_true", help="corrupt one reference, for the self-test")
    args = parser.parse_args(argv)
    started = time.perf_counter()

    if not os.path.isfile(os.path.join(SRC, "hankel_lab", "cli.py")):
        print(f"error: no hankel_lab sources under {SRC}", file=sys.stderr)
        return 2
    env = _child_env()

    # one unrecorded import first, so bytecode compilation is not counted
    setup_times = [] if args.trace else import_times(env, 1 + SETUP_SAMPLES // 2)[1:]
    command = [
        sys.executable, os.path.join(BENCH_DIR, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", repr(args.seconds), "--trace", str(args.trace),
    ]
    command += ["--smoke"] * args.smoke + ["--broken-reference"] * args.broken_reference
    try:
        done = subprocess.run(
            command, env=env, capture_output=True, text=True,
            timeout=max(1.0, RUN_LIMIT_S - (time.perf_counter() - started)),
        )
    except subprocess.TimeoutExpired:
        print("error: the worker did not finish in time", file=sys.stderr)
        return 1
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        print(f"error: the worker exited with {done.returncode}", file=sys.stderr)
        return 1
    record = json.loads(done.stdout.strip().splitlines()[-1])
    if not args.trace:
        setup_times += import_times(env, SETUP_SAMPLES // 2)

    failed_ops = [op for op in record["ops"] if op["failures"]]
    for op in failed_ops[:10]:
        print(f"FAILED {op['kind']}: {'; '.join(op['failures'][:3])}", file=sys.stderr)
    attempted = len(record["ops"])

    env_line = " ".join(f"{k}={v}" for k, v in record["env"].items())
    print(f"# hankel-lab benchmark workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"# env {env_line}")
    print(f"# load: closed loop, 1 caller in 1 worker process; {len(record['passes'])} pass(es) of {record['ops_per_pass']} ops")
    latencies, note = latency(record)
    print(f"# {note}")
    if args.trace:
        metrics = per_layer(record)
        print("# per-layer self times and counts per pass; counts are computed from inputs and results")
    else:
        metrics = end_to_end(record, setup_times)
        # reported, not bounded: on a shared VM single-op percentiles follow its speed phases
        for name, (value, unit) in latencies.items():
            print(f"# {name} {value!r} {unit}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    print(f"failed_ratio {len(failed_ops) / attempted!r} ratio ({len(failed_ops)}/{attempted})")
    result = {
        "correct": not failed_ops,
        "attempted": attempted,
        "failed": len(failed_ops),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
