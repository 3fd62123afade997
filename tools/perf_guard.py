#!/usr/bin/env python3
"""Same-machine A/B throughput guard over the replay benchmark.

    python3 tools/perf_guard.py BASE_TREE CHANGE_TREE

BASE_TREE and CHANGE_TREE are two checkouts of raidsim, for example the
merge base in a git worktree and the change under review. For every
workload that CHANGE_TREE's BENCHMARK.json names, the guard runs 5
interleaved pairs (base then change, change then base, ...), each run
being that tree's own `replaybench/run.py --seconds 2 --trace 0` built
in that tree's own `.bench_build/` (passed as $CARGO_TARGET_DIR, so an
inherited value cannot make the two trees share one build).

It fails (exit 1) when, on any workload, the change's median
`requests_per_s` is below the base's by more than that metric's `bound`
in BENCHMARK.json, or when any run exits nonzero, prints no result line,
or reports `"correct": false`. Both sides' medians and quartiles are
printed per workload. The first run of each tree builds it (~2 min).
"""
import json
import os
import statistics
import subprocess
import sys

PAIRS = 5
SECONDS = 2
METRIC = "requests_per_s"


def replay(tree, workload):
    """One replaybench run in `tree`: (requests_per_s, None) or (None, why)."""
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(tree, ".bench_build"))
    proc = subprocess.run(
        [sys.executable, os.path.join(tree, "replaybench", "run.py"),
         "--workload", workload, "--seed", "1",
         "--seconds", str(SECONDS), "--trace", "0"],
        cwd=tree, env=env, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        value = result["metrics"][METRIC]["value"]
    except (IndexError, ValueError, KeyError, TypeError):
        return None, f"no result line (exit {proc.returncode})"
    if result.get("correct") is not True:
        return None, '"correct": false'
    if proc.returncode != 0:
        return None, f"exit {proc.returncode}"
    return value, None


def main():
    if len(sys.argv) != 3:
        print("usage: perf_guard.py BASE_TREE CHANGE_TREE", file=sys.stderr)
        return 2
    base, change = (os.path.abspath(p) for p in sys.argv[1:])
    with open(os.path.join(change, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bound = next(m["bound"] for m in spec["end_to_end"] if m["name"] == METRIC)

    failures = []
    rows = []
    order = [("base", base), ("change", change)]
    for workload in (w["name"] for w in spec["workloads"]):
        runs = {"base": [], "change": []}
        for _ in range(PAIRS):
            for side, tree in order:
                value, why = replay(tree, workload)
                if why:
                    failures.append(f"{workload}: {side} run: {why}")
                else:
                    runs[side].append(value)
                print(f"{workload} {side}: {why or value}", file=sys.stderr)
            order.reverse()
        if len(runs["base"]) < PAIRS or len(runs["change"]) < PAIRS:
            continue
        b1, b, b3 = statistics.quantiles(runs["base"], n=4)
        c1, c, c3 = statistics.quantiles(runs["change"], n=4)
        wins = sum(x > y for x, y in zip(runs["change"], runs["base"]))
        delta = c / b - 1.0
        verdict = "ok"
        if delta < -bound:
            verdict = "FAIL"
            failures.append(f"{workload}: {METRIC} median {c:.0f} is "
                            f"{-delta:.1%} below base {b:.0f} "
                            f"(bound {bound:.0%})")
        rows.append((workload, f"{b:.0f} [{b1:.0f}, {b3:.0f}]",
                     f"{c:.0f} [{c1:.0f}, {c3:.0f}]", f"{delta:+.1%}",
                     f"{wins}/{PAIRS}", verdict))

    header = ("workload", f"base {METRIC} median [q1, q3]",
              f"change {METRIC} median [q1, q3]", "delta", "change won",
              "verdict")
    widths = [max(len(r[i]) for r in rows + [header]) for i in range(6)]
    for row in [header] + rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    print(f"bound: {bound:.0%} drop in the median {METRIC} "
          f"({PAIRS} interleaved pairs, --seconds {SECONDS})")
    for failure in failures:
        print(f"perf_guard: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
