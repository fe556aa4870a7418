"""End-to-end benchmark of pipegen.

    python3 perfbench/run.py --workload cli_cold|batch_sweep|serve_mix|all \
        --seed N [--seconds S] [--trace 0|1]

Builds pipegen and the tracer (trace/ptrace.ml) from the
checkout it sits in, generates the workload's inputs from the seed,
drives pipegen through its user entry points, checks every output
against the recorded answer book, and prints readable rows followed by
one JSON line {"correct", "attempted", "failed", "metrics"} per
workload ('all' runs every workload in turn).  With --trace 0 the
metrics are BENCHMARK.json's end_to_end list, with --trace 1 its
per_layer list.  The workloads, their seeds and rates,
the known defects and the layer predictions are in design.json.
"""

import argparse
import json
import os
import sys
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True

from pb import answers, build, mathx, proc, traced, workloads  # noqa

LISTED_FAILURES = 12


def load(path):
    with open(path) as f:
        return json.load(f)


def report(rows, ledger, failures_path):
    for name, value, unit in rows:
        shown = "n/a" if value is None else "%.4f" % value
        print("  %-28s %12s %s" % (name, shown, unit))
    causes = {}
    for f in ledger.failures:
        causes[f["cause"]] = causes.get(f["cause"], 0) + 1
    print("  attempted %d, failed %d %s" % (ledger.attempted, ledger.failed,
                                            json.dumps(causes)))
    for f in ledger.failures[:LISTED_FAILURES]:
        print("    FAILED %s: %s %s" % (f["request"], f["cause"],
                                       f["detail"][:120]))
    if ledger.failed > LISTED_FAILURES:
        print("    ... every failure is listed in %s" % failures_path)


def measure(workload, ctx, trace, bench, ptrace, out):
    """One run of a workload: (metric values, their units, printed
    rows).  A metric the run could not measure has no value."""
    if trace:
        tag = "%s-%d" % (workload, ctx.seed)
        values = traced.run(workload, ctx, ptrace,
                            os.path.join(out, "spans-%s.jsonl" % tag))
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
        rows = [(k, values.get(k), units[k]) for k in sorted(units)]
        return values, units, rows
    values, rows = workloads.WORKLOADS[workload](ctx)
    values["peak_rss_mb"] = ctx.peak_rss_mb
    values["ok_share"] = ctx.ledger.ok_share()
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    rows += [("peak_rss_mb", ctx.peak_rss_mb, "MB"),
             ("setup_s", values.get("setup_s"), "s"),
             ("failed_share", ctx.ledger.failed_share(), "ratio")]
    return values, units, rows


def result_line(ledger, values, units):
    """The run's result: every metric of units that was measured."""
    block, missing = mathx.metric_block(values, units)
    if missing:
        print("  not measured: %s" % ", ".join(missing))
    return json.dumps({"correct": not ledger.wrong_answers(),
                       "attempted": ledger.attempted,
                       "failed": ledger.failed,
                       "metrics": block})


def run_one(args, workload, bench, design, exe, ptrace, out):
    ctx = workloads.Context(exe, out, answers.Book(), args.seed,
                            args.seconds,
                            rate=design["workloads"]["serve_mix"]["rate"])
    failures_path = os.path.join(
        out, "failures-%s-%d-%d.json" % (workload, args.seed, args.trace))
    try:
        values, units, rows = measure(workload, ctx, args.trace, bench,
                                      ptrace, out)
    finally:
        proc.stop_all()
        with open(failures_path, "w") as f:
            json.dump(ctx.ledger.failures, f, indent=1)
    print("workload %s  seed %d  seconds %g  trace %d"
          % (workload, args.seed, args.seconds, args.trace))
    report(rows, ctx.ledger, failures_path)
    print(result_line(ctx.ledger, values, units))


def main():
    bench = load(os.path.join(ROOT, "BENCHMARK.json"))
    design = load(os.path.join(HERE, "design.json"))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=design["seeds"]["default"])
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    out = os.path.join(HERE, "out")
    exe, ptrace = build.build(ROOT)
    os.makedirs(out, exist_ok=True)
    names = ([w["name"] for w in bench["workloads"]]
             if args.workload == "all" else [args.workload])
    for workload in names:
        run_one(args, workload, bench, design, exe, ptrace, out)


if __name__ == "__main__":
    try:
        main()
    except Exception:  # any failure: a non-zero exit and no result line
        traceback.print_exc()
        sys.exit(1)
