#!/usr/bin/env python3
"""Interleaved A/B comparison of two builds on one benchmark workload.

    python3 perfbench/ab.py --parent DIR_A --change DIR_B --workload NAME \
        [--seed 9001]

DIR_A and DIR_B are two checkouts of the repository (the parent commit and
the change), each holding its own perfbench/. Ten pairs are run; each pair
runs both sides once on the same seed for the run_seconds that the
parent's BENCHMARK.json fixes (the length its bounds were measured at),
alternating which side goes first. For every metric the run reports (the
end-to-end metrics of the final JSON line and the workload's "detail"
lines) it prints each side's median and quartiles, the share of pairs the
change won (ties count for neither side), and whether the pairs support a
gain: the change must win at least nine tenths of the pairs and the
medians must differ by more than the parent's own spread (the distance
between its quartiles).

The default seed is the held-out seed, never used while tuning the
benchmark; pass --seed to recheck a claim on another one.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HELD_OUT_SEED = 9001
PAIRS = 10


def load_spec(checkout):
    with open(os.path.join(checkout, "BENCHMARK.json")) as f:
        return json.load(f)


def directions(spec):
    """Metric name -> "lower" or "higher" from the contract; detail
    metrics are lower-is-better except rates."""
    return {m["name"]: m["better"] for m in spec["end_to_end"]}


def run_once(checkout, workload, seed, seconds):
    """One untraced run; returns {metric: value}."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit("run failed in %s:\n%s%s" %
                         (checkout, proc.stdout[-3000:], proc.stderr[-3000:]))
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit("incorrect output in %s" % checkout)
    values = {k: v["value"] for k, v in result["metrics"].items()}
    for line in lines:
        parts = line.split()
        if len(parts) == 4 and parts[0] == "detail":
            values[parts[1]] = float(parts[2])
    return values


def better_of(name, known):
    if name in known:
        return known[name]
    return "higher" if name.endswith("_rps") else "lower"


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--parent", required=True, help="checkout of the parent")
    p.add_argument("--change", required=True, help="checkout of the change")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=HELD_OUT_SEED)
    args = p.parse_args()
    sides = {"parent": os.path.abspath(args.parent),
             "change": os.path.abspath(args.change)}
    spec = load_spec(sides["parent"])
    known = directions(spec)
    seconds = spec["run_seconds"]
    runs = {"parent": [], "change": []}
    for i in range(PAIRS):
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        for side in order:
            runs[side].append(run_once(sides[side], args.workload, args.seed,
                                       seconds))
        print("pair %d/%d done (%s first)" % (i + 1, PAIRS, order[0]),
              file=sys.stderr)

    print("workload %s, seed %d, %d pairs, %d s per run" %
          (args.workload, args.seed, PAIRS, seconds))
    print("%-24s %-6s %31s %31s %6s %s" %
          ("metric", "better", "parent q1/median/q3",
           "change q1/median/q3", "won", "verdict"))
    for name in sorted(runs["parent"][0]):
        a = [r[name] for r in runs["parent"] if name in r]
        b = [r[name] for r in runs["change"] if name in r]
        if len(a) != len(b) or len(a) < 2:
            continue
        lower = better_of(name, known) == "lower"
        wins = sum(1 for x, y in zip(a, b) if (y < x if lower else y > x))
        qa = statistics.quantiles(a, n=4)
        qb = statistics.quantiles(b, n=4)
        ma = statistics.median(a)
        mb = statistics.median(b)
        improved = (mb < ma) if lower else (mb > ma)
        gain = (wins >= 0.9 * len(a) and improved and
                abs(mb - ma) > qa[2] - qa[0])
        print("%-24s %-6s %10.4g/%9.4g/%9.4g %10.4g/%9.4g/%9.4g %5.0f%% %s" %
              (name, "lower" if lower else "higher", qa[0], ma, qa[2], qb[0],
               mb, qb[2], 100.0 * wins / len(a),
               "gain" if gain else "no claim"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
