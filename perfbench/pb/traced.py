"""The traced run: per-layer time, allocation and WORK counts.

A fixed prefix of the workload's seeded operations runs twice: once
through pipegen with tracing off, and once through the benchmark's
tracer (trace/ptrace.ml), which calls each layer's public
functions itself with a span around every call.  cli_cold and
batch_sweep use one fresh tracer process per operation at -j 1;
serve_mix one in-process Handler env with a 2-domain pool.  The prefix
is fixed, not timed, so WORK counts repeat exactly between runs of one
seed.
"""

import itertools
import json
import os

from pb import answers, catalog, mathx, mix, proc, workloads

# Time metrics: span name; the value is self time per operation.
TIMES = ["service.decode", "service.encode", "service.select",
         "service.handle", "dlx.ref_trace", "dlx.image", "workload.gen",
         "pipeline.transform", "pipeline.compile", "pipeline.report",
         "proof_engine.consistency", "proof_engine.obligations",
         "proof_engine.liveness", "pipeline.coverage",
         "pipeline.attribution", "hw.verilog", "proof_engine.pvs",
         "fault.enumerate", "fault.target"]
# Campaign spans, timed per mutant.
PER_MUTANT = ["fault.structural", "fault.behavioural"]
ALLOC_GROUPS = ["service", "dlx", "workload", "pipeline", "hw",
                "proof_engine", "fault"]
# WORK counters reported as per-layer totals.
WORK = {"hw.plan_ops": "plan_ops", "pipeline.sim_cycles": "sim_cycles",
        "machine.seq_instructions": "seq_instructions",
        "machine.cells_written": "cells_written",
        "machine.snapshot_words": "snapshot_words",
        "machine.state_resets": "state_resets"}

START_SPAWNS = 15


class Totals:
    """Tracer summaries added up over the operations of a run."""

    def __init__(self):
        self.layers = {}
        self.counts = {}
        self.counters = {}
        self.spans = []

    def add(self, summary):
        for name, (calls, self_s, self_w) in summary["layers"].items():
            c, s, w = self.layers.get(name, (0, 0.0, 0.0))
            self.layers[name] = (c + calls, s + self_s, w + self_w)
        for table, into in ((summary["counts"], self.counts),
                            (summary["counters"], self.counters)):
            for k, v in table.items():
                into[k] = into.get(k, 0) + v
        self.spans += summary["spans"]

    def self_s(self, name):
        return self.layers.get(name, (0, 0.0, 0.0))[1]

    def total_s(self):
        """Summed duration of the root spans: every span nests under a
        root, so this is the sum of all self times."""
        return sum(s for _, s, _ in self.layers.values())


def _traced_op(ctx, ptrace, req, rid):
    r = proc.run([ptrace, "op", catalog.wire(req, rid)], cwd=ctx.workdir,
                 timeout_s=ctx.left())
    name = "traced " + catalog.label(req)
    try:
        summary = json.loads(r.out.splitlines()[-1])
    except (ValueError, IndexError):
        ctx.ledger.fail(name, "exit %d" % r.rc, r.err.strip())
        return r, None
    if "error" in summary:
        ctx.ledger.fail(name, "error", summary["error"])
        return r, summary
    try:
        bad = ctx.book.check(req, answers.cli_answer(req, summary["out"],
                                                     summary["rc"]))
    except (ValueError, KeyError, IndexError) as e:
        bad = "unreadable output: %s" % e
    ctx.ledger.record(name, bad and "wrong_answer", bad or "")
    return r, summary


def _process_start_ms(ctx):
    walls = [proc.run([ctx.exe, "--version"], cwd=ctx.workdir,
                      timeout_s=ctx.left()).wall_s
             for _ in range(START_SPAWNS)]
    return mathx.median(walls) * 1000.0


def _one_shot_prefix(ctx, ptrace, reqs):
    """Run reqs untraced, then traced; returns (totals, summed untraced
    wall, summed traced wall)."""
    untraced = sum(ctx.one_shot(req)[0].wall_s for req in reqs
                   if ctx.left() > 0)
    tot, traced = Totals(), 0.0
    for i, req in enumerate(reqs):
        if ctx.left() == 0:
            break
        r, summary = _traced_op(ctx, ptrace, req, "t%d" % i)
        traced += r.wall_s
        if summary is not None:
            tot.add(summary)
    return tot, untraced, traced


def cli_cold(ctx, ptrace):
    blocks = mix.cli_blocks(ctx.seed, ctx.sizes)
    reqs = [r for b in itertools.islice(blocks, ctx.sizes["trace_blocks"])
            for r in b]
    tot, untraced, traced = _one_shot_prefix(ctx, ptrace, reqs)
    return tot, len(reqs), untraced, traced, {}


def batch_sweep(ctx, ptrace):
    reqs = next(mix.sweep_cycles(ctx.seed, ctx.sizes))
    tot, untraced, traced = _one_shot_prefix(ctx, ptrace, reqs)
    points = sum(len(r["grid"]) for r in reqs)
    return tot, points, untraced, traced, {}


def serve_mix(ctx, ptrace):
    """Untraced: pipegen serve fed by the open-loop generator.  Traced:
    the tracer replays the same schedule in-process.  The overhead is
    the ratio of mean response latencies."""
    seconds = ctx.seconds / 2.0
    schedule = mix.serve_schedule(ctx.seed, ctx.rate, seconds)
    warm = mix.serve_setup()
    session, _ = workloads.serve_setup(ctx)
    t0, lags, _ = workloads.feed(session, schedule)
    untraced = [session.responses["r%d" % i][0] - (t0 + due)
                for i, (due, _) in enumerate(schedule)
                if "r%d" % i in session.responses]
    for i, (_, req) in enumerate(schedule):
        session.judge("r%d" % i, req)

    sched_path = os.path.join(ctx.workdir, "schedule-%d.tsv" % ctx.seed)
    with open(sched_path, "w") as f:
        for i, req in enumerate(warm):
            f.write("-1\t%s\n" % catalog.wire(req, "w%d" % i))
        for i, (due, req) in enumerate(schedule):
            f.write("%.6f\t%s\n" % (due, catalog.wire(req, "r%d" % i)))
    r = proc.run([ptrace, "serve", sched_path], cwd=ctx.workdir,
                 timeout_s=ctx.left())
    ctx.peak_rss_mb = max(ctx.peak_rss_mb, r.rss_mb)
    tot, traced, responses = Totals(), [], {}
    for line in r.out.splitlines():
        try:
            obj = json.loads(line)
        except ValueError:
            continue
        if "layers" in obj:
            tot.add(obj)
            traced = obj["latency_s"]
        else:
            responses[obj.get("id")] = (0.0, obj)
    if not traced:
        ctx.ledger.fail("traced serve", "exit %d" % r.rc, r.err.strip())
    for i, (_, req) in enumerate(schedule):
        workloads.judge(ctx, responses, "r%d" % i, req)
    extra = {"harness.lag_ms": 1000.0 * sum(lags) / len(lags)}
    return (tot, len(schedule), mean(untraced), mean(traced), extra)


def mean(xs):
    return sum(xs) / len(xs) if xs else None


def layer_values(tot, ops, untraced, traced, extra):
    """Every per-layer metric from the run's totals."""
    v = {}
    for name in TIMES:
        v[name + "_ms"] = 1000.0 * tot.self_s(name) / ops
    mutants = {n: tot.counts.get(n + "_mutants", 0) for n in PER_MUTANT}
    all_mutants = sum(mutants.values())
    for name in PER_MUTANT:
        v[name + "_ms"] = (1000.0 * tot.self_s(name) / mutants[name]
                           if mutants[name] else 0.0)
    for name in ("fault.enumerate", "fault.target"):
        v[name + "_ms"] = (1000.0 * tot.self_s(name) / all_mutants
                           if all_mutants else 0.0)
    for group in ALLOC_GROUPS:
        words = sum(w for n, (_, _, w) in tot.layers.items()
                    if n.split(".")[0] == group)
        v[group + ".alloc_mw"] = words / 1e6 / ops
    for name, counter in WORK.items():
        v[name] = tot.counters.get(counter, 0)
    v["hw.plan_instrs"] = tot.counts.get("hw.plan_instrs", 0)
    v["workload.sweep_points"] = tot.counts.get("workload.sweep_points", 0)
    hits = tot.counts.get("service.cache_hits", 0)
    misses = tot.counts.get("service.cache_misses", 0)
    requests = tot.counts.get("service.requests", 0)
    v["service.cache_hit_ratio"] = hits / (hits + misses) if hits + misses \
        else 0.0
    v["service.coalesced"] = tot.counters.get("serve_coalesced", 0)
    v["service.batch_depth"] = (requests / tot.counts["service.batches"]
                                if requests else 0.0)
    v["service.queue_wait_ms"] = (
        1000.0 * tot.counts.get("service.queue_wait_s", 0) / requests
        if requests else 0.0)
    cap = tot.counts.get("exec.capacity_s", 0)
    v["exec.busy_share"] = tot.counts.get("exec.busy_s", 0) / cap if cap \
        else 0.0
    v["exec.pool_tasks"] = tot.counters.get("pool_tasks", 0)
    v["harness.lag_ms"] = extra.get("harness.lag_ms", 0.0)
    v["trace.overhead_share"] = (traced / untraced - 1.0
                                 if traced and untraced else None)
    roots = tot.layers.get("op", (0, 0.0, 0.0))
    v["trace.unattributed_share"] = (roots[1] / tot.total_s()
                                     if roots[0] else 0.0)
    return v


RUNNERS = {"cli_cold": cli_cold, "batch_sweep": batch_sweep,
           "serve_mix": serve_mix}


def run(workload, ctx, ptrace, spans_path):
    """Per-layer metric values for one traced run; the spans are
    written to spans_path as JSON lines
    [name, request id, span id, parent id, start_us, end_us]."""
    tot, ops, untraced, traced, extra = RUNNERS[workload](ctx, ptrace)
    values = layer_values(tot, ops, untraced, traced, extra)
    values["process.start_ms"] = _process_start_ms(ctx)
    with open(spans_path, "w") as f:
        for s in tot.spans:
            f.write(json.dumps(s) + "\n")
    return values
