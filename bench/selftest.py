"""Self-test of the benchmark harness; takes about a minute.

    python3 bench/selftest.py

Checks that
1. the same seed writes byte-identical input files and another seed does not;
2. a smoke run of every workload, untraced and traced, emits every metric
   named in BENCHMARK.json with its unit, and every op passes its checks;
3. a deliberately wrong reference drives failed_ratio above 0;
4. in a directory that holds only BENCHMARK.json and the benchmark's own
   files, run.py exits non-zero without printing a result.
Exits 0 when all hold.
"""

from __future__ import annotations

import filecmp
import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SCRATCH = os.path.join(BENCH_DIR, "out", "selftest")
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH_DIR]

import workloads  # noqa: E402  (needs the paths above)


def _run(args, cwd=ROOT):
    done = subprocess.run(
        [sys.executable, os.path.join(cwd, "bench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )
    lines = done.stdout.strip().splitlines()
    result = None
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
    return done, result


def _input_files(workload, seed, name):
    directory = os.path.join(SCRATCH, name)
    ops = workloads.build_pass(workload, seed, 0, directory)
    return directory, [op.argv for op in ops]


def check_inputs(problems):
    for workload in workloads.WORKLOADS:
        dir_a, argv_a = _input_files(workload, 5, f"{workload}-a")
        dir_b, argv_b = _input_files(workload, 5, f"{workload}-b")
        dir_c, _ = _input_files(workload, 6, f"{workload}-c")
        names = sorted(os.listdir(dir_a))
        same = filecmp.cmpfiles(dir_a, dir_b, names, shallow=False)[0]
        if same != names or sorted(os.listdir(dir_b)) != names:
            problems.append(f"{workload}: seed 5 inputs differ between two draws")
        if names and filecmp.cmpfiles(dir_a, dir_c, names, shallow=False)[0] == names:
            problems.append(f"{workload}: seeds 5 and 6 give the same inputs")
        if [[arg.replace(dir_a, dir_b) for arg in argv] for argv in argv_a] != argv_b:
            problems.append(f"{workload}: seed 5 command lines differ between two draws")


def check_smoke(problems, spec):
    for workload in workloads.WORKLOADS:
        for trace, declared in (("0", spec["end_to_end"]), ("1", spec["per_layer"])):
            done, result = _run(["--workload", workload, "--seed", "3", "--seconds", "1", "--trace", trace, "--smoke"])
            tag = f"{workload} trace={trace}"
            if done.returncode != 0 or result is None:
                problems.append(f"{tag}: exit {done.returncode}, {done.stderr.strip()[-300:]}")
                continue
            if not result["correct"] or result["failed"]:
                problems.append(f"{tag}: {result['failed']} failed ops: {done.stderr.strip()[-300:]}")
            emitted = {name: m["unit"] for name, m in result["metrics"].items()}
            wanted = {m["name"]: m["unit"] for m in declared}
            if emitted != wanted:
                problems.append(f"{tag}: metrics {sorted(emitted.items())} != {sorted(wanted.items())}")
            for name in wanted:
                if f"\n{name} " not in "\n" + done.stdout:
                    problems.append(f"{tag}: no '{name} <value> <unit>' line")


def check_broken_reference(problems):
    args = ["--workload", "dual-search", "--seed", "3", "--seconds", "1", "--trace", "0", "--smoke", "--broken-reference"]
    done, result = _run(args)
    if result is None or result["correct"] or result["failed"] == 0:
        problems.append("a wrong reference did not fail any op")
    ratio = [line for line in done.stdout.splitlines() if line.startswith("failed_ratio ")]
    if not ratio or float(ratio[0].split()[1]) <= 0:
        problems.append(f"failed_ratio not above 0 with a wrong reference: {ratio}")


def check_bare_directory(problems):
    bare = os.path.join(SCRATCH, "bare")
    os.makedirs(os.path.join(bare, "bench"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for name in os.listdir(BENCH_DIR):
        if name.endswith(".py"):
            shutil.copy(os.path.join(BENCH_DIR, name), os.path.join(bare, "bench"))
    done, result = _run(["--workload", "hankel-dense", "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=bare)
    if done.returncode == 0 or result is not None:
        problems.append(f"run.py without sources exited {done.returncode} with result {result}")


def main():
    shutil.rmtree(SCRATCH, ignore_errors=True)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    problems = []
    try:
        check_inputs(problems)
        check_smoke(problems, spec)
        check_broken_reference(problems)
        check_bare_directory(problems)
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    for problem in problems:
        print("FAIL", problem)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
