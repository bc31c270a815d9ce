"""Benchmark worker: runs one workload in this process and prints its record.

One caller runs one CLI command at a time through
``hankel_lab.cli.main(argv + ["--json"])``, a closed loop with a single
client. A pass is the workload's whole op list on freshly drawn inputs;
passes repeat while the next one is expected to end within ``--seconds``
(at least one always runs). Input generation and checking are outside the
timed region. The record goes to stdout as one JSON line.

Started by run.py, which sets HANKEL_LAB_THREADS and PYTHONPATH before
numpy loads here.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import sys
import time
import traceback

# hankel_lab first: it applies HANKEL_LAB_THREADS before numpy loads
import hankel_lab
import hankel_lab.cli as cli
import numpy as np
from hankel_lab import quadrature

import workloads
from tracer import Tracer

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")


def _cpu_seconds():
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def run_op(op, tracer, op_id):
    """Run one op, timed, then check its output. Returns the op's record."""
    out, err = io.StringIO(), io.StringIO()
    crash = None
    span = tracer.op(op_id) if tracer is not None else contextlib.nullcontext()
    cpu0 = _cpu_seconds()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            with span:
                rc = cli.main(op.argv + ["--json"])
        except SystemExit as exc:  # argparse rejected the command line
            rc = exc.code
        except Exception:  # a traceback is a failed op, not a failed benchmark
            rc, crash = None, traceback.format_exc()
    latency = time.perf_counter() - start
    cpu = _cpu_seconds() - cpu0

    chk = workloads.Checker()
    if crash is not None:
        chk.failures.append("traceback: " + crash.strip().splitlines()[-1])
    elif rc != op.expect_rc:
        chk.failures.append(f"exit {rc}, expected {op.expect_rc}: {err.getvalue().strip()}")
    else:
        try:
            op.check(json.loads(out.getvalue()), chk)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            chk.failures.append(f"unreadable output: {exc!r}")
    return {
        "kind": op.kind,
        "latency_s": latency,
        "cpu_s": cpu,
        "bytes": len(out.getvalue().encode("utf-8")),
        "failures": chk.failures,
        "tol_used": chk.tol_used,
    }


def _blas():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (TypeError, KeyError):  # numpy older than 1.25 has no dict mode
        return "unknown"


def environment():
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "HANKEL_LAB_THREADS": os.environ.get("HANKEL_LAB_THREADS", ""),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", ""),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", ""),
    }


def run_workload(workload, seed, seconds, trace, smoke=False, broken_reference=False):
    """Run passes of one workload and return the raw record."""
    package = os.path.realpath(os.path.dirname(hankel_lab.__file__))
    if package != os.path.realpath(os.path.join(ROOT, "src", "hankel_lab")):
        raise RuntimeError(f"hankel_lab imported from {package}, not from this checkout")
    workloads.set_broken_reference(broken_reference)
    tracer = None
    if trace:
        tracer = Tracer()
        tracer.install()
    cache0 = quadrature._hq_basic_cached.cache_info()

    work_dir = os.path.join(OUT_DIR, f"inputs-{workload}-{seed}-{os.getpid()}")
    passes, ops, ops_per_pass = [], [], 0
    deadline = time.perf_counter() + seconds
    try:
        while True:
            pass_ops = workloads.build_pass(workload, seed, len(passes), os.path.join(work_dir, f"pass{len(passes)}"), smoke)
            ops_per_pass = len(pass_ops)
            records = [run_op(op, tracer, len(ops) + i) for i, op in enumerate(pass_ops)]
            ops.extend(records)
            wall = sum(r["latency_s"] for r in records)
            passes.append({"wall_s": wall, "cpu_s": sum(r["cpu_s"] for r in records)})
            if time.perf_counter() + wall > deadline:
                break
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    record = {
        "workload": workload,
        "seed": seed,
        "passes": passes,
        "ops_per_pass": ops_per_pass,
        "ops": ops,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": environment(),
    }
    if tracer is not None:
        cache1 = quadrature._hq_basic_cached.cache_info()
        simpson = (cache1.hits - cache0.hits, cache1.misses - cache0.misses)
        output_bytes = sum(r["bytes"] for r in ops)
        record["layers"] = tracer.layer_metrics(len(passes), output_bytes, simpson)
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.write(os.path.join(OUT_DIR, f"spans-{workload}-{seed}.jsonl"))
    return record


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="short op lists, for the self-test")
    parser.add_argument("--broken-reference", action="store_true", help="corrupt one reference, for the self-test")
    args = parser.parse_args(argv)
    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke, args.broken_reference)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
