"""Run-to-run spread of the end-to-end metrics, and the agreement of
two sets of runs.

    python3 perfbench/stability.py [--workloads cli_cold,serve_mix]
        [--first-seed 1] [--runs 10] [--sets 2]

For each workload, runs run.py with tracing off once per seed, in sets
of --runs seeds (set k uses seeds first-seed + k x runs, ...).  Per set
and metric it prints the median, the quartiles
(statistics.quantiles(values, n=4)) and their distance as a share of
the median, against the metric's bound: below a third of the bound is
steady, above the bound the metric cannot gate a change.  Per metric
it then prints by how much each later set's median is worse than the
first set's, against the same bound.  Every metric, setup_s too, is
held to its bound.  The raw values are written to
perfbench/out/stability.json.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True

from pb import mathx  # noqa: E402


def one_set(workload, seeds, names):
    values = {name: [] for name in names}
    for seed in seeds:
        t0 = time.perf_counter()
        p = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             workload, "--seed", str(seed), "--trace", "0"],
            capture_output=True, text=True)
        if p.returncode != 0:
            sys.exit("%s seed %d failed:\n%s" % (workload, seed,
                                                 p.stderr[-2000:]))
        result = json.loads(p.stdout.strip().splitlines()[-1])
        print("%s seed %d: %.1f s, correct %s, %d attempted, %d failed"
              % (workload, seed, time.perf_counter() - t0, result["correct"],
                 result["attempted"], result["failed"]), flush=True)
        for name in names:
            values[name].append(result["metrics"][name]["value"])
    return values


def spread_verdict(s, bound):
    return ("steady" if s < bound / 3 else
            "within bound" if s <= bound else "TOO WIDE")


def worse_by(first, later, better):
    """How much worse later is than first, as a share of first."""
    if first == 0:
        return 0.0
    d = (later - first) / first
    return d if better == "lower" else -d


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2)
    args = ap.parse_args()
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    summary = {}
    for workload in args.workloads.split(","):
        sets = []
        for k in range(args.sets):
            first = args.first_seed + k * args.runs
            sets.append(one_set(workload, range(first, first + args.runs),
                                metrics))
        summary[workload] = sets
        for name, m in metrics.items():
            medians = []
            for k, values in enumerate(sets):
                xs = values[name]
                q1, q2, q3 = mathx.quartiles(xs)
                s = mathx.spread(xs) if q2 else 0.0
                medians.append(q2)
                print("  %-18s set %d  median %10.4f  q1 %10.4f  q3 %10.4f"
                      "  spread %.4f  bound %.2f  %s"
                      % (name, k + 1, q2, q1, q3, s, m["bound"],
                         spread_verdict(s, m["bound"])), flush=True)
            for k in range(1, len(medians)):
                w = worse_by(medians[0], medians[k], m["better"])
                print("  %-18s set %d median vs set 1: worse by %+.4f"
                      "  bound %.2f  %s"
                      % (name, k + 1, w, m["bound"],
                         "agrees" if w <= m["bound"] else "DISAGREES"),
                      flush=True)
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", "stability.json"), "w") as f:
        json.dump(summary, f, indent=1)


if __name__ == "__main__":
    main()
