#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --toy

The first form builds the benchmark (the silkmoth library from src/ plus the
perfbench binary, Release, into .bench_build/perfbench), runs one workload
for S seconds and prints the binary's report; its last line is one JSON
object with "correct", "attempted", "failed" and "metrics". The exit code is
non-zero when the build fails, a check fails, or the run does not finish.

--toy runs every workload at toy size, untraced and traced, and asserts that
each run is correct and emits exactly the metrics BENCHMARK.json names, each
with its unit. See perfbench/README.md.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench", "perfbench")
WORKLOADS = ["titles-selfjoin", "columns-topk", "schema-serve-ingest"]
RUN_TIMEOUT_S = 170


def build():
    """Configures and builds the benchmark binary; returns True on success."""
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        out = os.path.join(BUILD, "perfbench")
        configure = ["cmake", "-S", HERE, "-B", out,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
            if subprocess.call(configure, stdout=sys.stderr,
                               stderr=sys.stderr) != 0:
                return False
        jobs = str(min(4, os.cpu_count() or 1))
        return subprocess.call(["cmake", "--build", out, "-j", jobs],
                               stdout=sys.stderr, stderr=sys.stderr) == 0


def run_binary(workload, seed, seconds, trace, toy=False, echo=True):
    """Runs the benchmark binary once.

    Returns (exit code, the parsed last line of its output or None)."""
    work = os.path.join(BUILD, "work-%d" % os.getpid())
    os.makedirs(work, exist_ok=True)
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--work-dir", work]
    if trace:
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-path",
                os.path.join(traces, "%s-seed%s.jsonl" % (workload, seed))]
    if toy:
        cmd.append("--toy")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print("perfbench: %s did not finish in %d s" % (workload,
                                                        RUN_TIMEOUT_S),
              file=sys.stderr)
        return 4, None
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if echo:
        sys.stdout.write(out)
        sys.stdout.flush()
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    return proc.returncode, result


def toy_check():
    """Runs all workloads at toy size and checks every metric and unit."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    assert [w["name"] for w in spec["workloads"]] == WORKLOADS
    failures = []
    for workload in WORKLOADS:
        for trace in (False, True):
            code, result = run_binary(workload, 7, 2, trace, toy=True,
                                      echo=False)
            tag = "%s trace=%d" % (workload, trace)
            if code != 0 or result is None or not result.get("correct"):
                failures.append("%s: run failed (exit %d)" % (tag, code))
                continue
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected[trace]:
                missing = sorted(set(expected[trace]) - set(got))
                extra = sorted(set(got) - set(expected[trace]))
                wrong = sorted(k for k in got if k in expected[trace]
                               and got[k] != expected[trace][k])
                failures.append("%s: missing %s, extra %s, wrong unit %s" %
                                (tag, missing, extra, wrong))
                continue
            print("ok   %-36s %d metrics, %d attempted" %
                  (tag, len(got), result["attempted"]))
    for f in failures:
        print("FAIL " + f)
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--toy", action="store_true",
                        help="run every workload at toy size and check "
                             "that all metrics are emitted with their units")
    args = parser.parse_args()
    if not args.toy and args.workload is None:
        parser.error("--workload is required (or --toy)")
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 3
    if args.toy:
        return toy_check()
    code, result = run_binary(args.workload, args.seed, args.seconds,
                              args.trace == "1")
    if result is None:
        print("perfbench: the benchmark printed no result", file=sys.stderr)
        return code or 5
    return code


if __name__ == "__main__":
    sys.exit(main())
