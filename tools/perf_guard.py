#!/usr/bin/env python3
"""Same-machine A/B guard over the replay benchmark.

    python3 tools/perf_guard.py BASE_TREE CHANGE_TREE

BASE_TREE and CHANGE_TREE are two checkouts of raidsim, for example the
merge base in a git worktree and the change under review. For every
workload that CHANGE_TREE's BENCHMARK.json names, the guard runs 5
interleaved pairs (base then change, change then base, ...), each run
being that tree's own `replaybench/run.py --seconds 2 --trace 0` built
in that tree's own `.bench_build/` (passed as $CARGO_TARGET_DIR, so an
inherited value cannot make the two trees share one build).

Every `end_to_end` metric in BENCHMARK.json is judged on its own terms:
the change's median moves against the base's median in the metric's
`better` direction, and the move is compared with the metric's `bound`
(a fraction of the base median). When the base runs of a workload spread
wider than a metric's bound (interquartile range over median), 5 more
pairs are run before judging, since 5 runs cannot tell such a metric's
move from noise.

It fails (exit 1) when, on any workload:
  * a metric's median is worse than the base's by more than its bound
    (however wide the runs spread: noise never excuses such a move);
  * a metric's base runs still spread wider than its bound after the
    extra pairs, so the comparison cannot be told from noise;
  * any run exits nonzero, prints no result line, lacks a metric, or
    reports `"correct": false`.
Both sides' medians and quartiles are printed per workload and metric.
The first run of each tree builds it (~2 min).
"""
import json
import os
import statistics
import subprocess
import sys

PAIRS = 5
EXTRA_PAIRS = 5
SECONDS = 2


def replay(tree, workload, names):
    """One replaybench run in `tree`: ({metric: value}, None) or (None, why)."""
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(tree, ".bench_build"))
    proc = subprocess.run(
        [sys.executable, os.path.join(tree, "replaybench", "run.py"),
         "--workload", workload, "--seed", "1",
         "--seconds", str(SECONDS), "--trace", "0"],
        cwd=tree, env=env, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        values = {n: float(result["metrics"][n]["value"]) for n in names}
    except (IndexError, ValueError, KeyError, TypeError):
        return None, f"no result line with every metric (exit {proc.returncode})"
    if result.get("correct") is not True:
        return None, '"correct": false'
    if proc.returncode != 0:
        return None, f"exit {proc.returncode}"
    return values, None


def relative(delta, base):
    """delta / |base|, with a zero base treated as exact."""
    if base == 0:
        return 0.0 if delta == 0 else float("inf")
    return delta / abs(base)


def spread(runs):
    """Interquartile range of `runs` over their median."""
    q1, median, q3 = statistics.quantiles(runs, n=4)
    return relative(q3 - q1, median)


def judge(metric, base_runs, change_runs):
    """(row, failure or None) for one metric of one workload."""
    name, bound = metric["name"], metric["bound"]
    b1, b, b3 = statistics.quantiles(base_runs, n=4)
    c1, c, c3 = statistics.quantiles(change_runs, n=4)
    sign = 1.0 if metric["better"] == "higher" else -1.0
    # Positive = better, in the metric's own direction.
    move = sign * relative(c - b, b)
    wide = spread(base_runs)
    failure = None
    if move < -bound:
        failure = (f"{name} median {c:.6g} is {-move:.1%} worse than base "
                   f"{b:.6g} (bound {bound:.0%})")
    elif wide > bound:
        failure = (f"{name} base runs spread {wide:.1%} (IQR/median) past "
                   f"the {bound:.0%} bound after {len(base_runs)} runs: "
                   f"too noisy to tell")
    wins = sum(sign * (x - y) > 0 for x, y in zip(change_runs, base_runs))
    row = (name, f"{b:.6g} [{b1:.6g}, {b3:.6g}]",
           f"{c:.6g} [{c1:.6g}, {c3:.6g}]", f"{move:+.1%}", f"{wide:.1%}",
           f"{wins}/{len(base_runs)}", "FAIL" if failure else "ok")
    return row, failure


def main():
    if len(sys.argv) != 3:
        print("usage: perf_guard.py BASE_TREE CHANGE_TREE", file=sys.stderr)
        return 2
    base, change = (os.path.abspath(p) for p in sys.argv[1:])
    with open(os.path.join(change, "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = spec["end_to_end"]
    names = [m["name"] for m in metrics]

    failures = []
    tables = []
    order = [("base", base), ("change", change)]
    for workload in (w["name"] for w in spec["workloads"]):
        runs = {"base": [], "change": []}
        broken = False

        def run_pairs(count):
            nonlocal broken
            for _ in range(count):
                for side, tree in order:
                    values, why = replay(tree, workload, names)
                    if why:
                        broken = True
                        failures.append(f"{workload}: {side} run: {why}")
                    else:
                        runs[side].append(values)
                    print(f"{workload} {side}: {why or values}",
                          file=sys.stderr)
                order.reverse()

        run_pairs(PAIRS)
        if broken:
            continue
        if any(spread([r[m["name"]] for r in runs["base"]]) > m["bound"]
               for m in metrics):
            print(f"{workload}: base runs spread past a bound; "
                  f"{EXTRA_PAIRS} more pairs", file=sys.stderr)
            run_pairs(EXTRA_PAIRS)
            if broken:
                continue
        rows = []
        for metric in metrics:
            row, failure = judge(metric,
                                 [r[metric["name"]] for r in runs["base"]],
                                 [r[metric["name"]] for r in runs["change"]])
            rows.append(row)
            if failure:
                failures.append(f"{workload}: {failure}")
        tables.append((workload, rows))

    header = ("metric", "base median [q1, q3]", "change median [q1, q3]",
              "move (+ = better)", "base spread", "change won", "verdict")
    for workload, rows in tables:
        print(f"== {workload}")
        widths = [max(len(r[i]) for r in rows + [header])
                  for i in range(len(header))]
        for row in [header] + rows:
            print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    print(f"bounds: BENCHMARK.json end_to_end, per metric "
          f"({PAIRS} interleaved pairs, {PAIRS + EXTRA_PAIRS} when the base "
          f"spreads past a bound; --seconds {SECONDS})")
    for failure in failures:
        print(f"perf_guard: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
