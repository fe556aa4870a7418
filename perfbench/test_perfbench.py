"""Tests of the benchmark's own code.

    python3 perfbench/test_perfbench.py [-v]

The smoke tests build pipegen and run each workload at tiny sizes,
healthy and with one kind of operation forced to fail; set
PERFBENCH_SKIP_SMOKE=1 to run only the pure tests.
"""

import json
import os
import random
import statistics
import sys
import unittest
from unittest import mock

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True

import run  # noqa: E402
from pb import (answers, build, catalog, hostspeed, mathx, mix, proc,  # noqa
                workloads)


def load_benchmark():
    return run.load(os.path.join(ROOT, "BENCHMARK.json"))


class OrderStatistics(unittest.TestCase):

    def test_median(self):
        self.assertEqual(mathx.median([3, 1, 2]), 2)
        self.assertEqual(mathx.median([4, 1, 3, 2]), 2.5)
        with self.assertRaises(ValueError):
            mathx.median([])

    def test_quartiles_match_statistics(self):
        xs = [random.Random(s).uniform(0, 100) for s in range(10)]
        self.assertEqual(mathx.quartiles(xs), statistics.quantiles(xs, n=4))
        self.assertEqual(mathx.quartiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10]),
                         [2.75, 5.5, 8.25])

    def test_spread_is_iqr_over_median(self):
        xs = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]
        self.assertAlmostEqual(mathx.spread(xs), (8.25 - 2.75) / 5.5)
        self.assertEqual(mathx.spread([5.0] * 10), 0.0)


class TailRule(unittest.TestCase):

    def test_p90_needs_ten_samples_beyond(self):
        self.assertEqual(mathx.min_samples(0.9), 100)
        self.assertTrue(mathx.tail_supported(100, 0.9))
        self.assertFalse(mathx.tail_supported(99, 0.9))
        self.assertEqual(mathx.beyond(100, 0.9), 10)
        self.assertEqual(mathx.beyond(99, 0.9), 9)

    def test_percentile_nearest_rank(self):
        xs = list(range(1, 101))
        random.Random(1).shuffle(xs)
        self.assertEqual(mathx.percentile(xs, 0.9), 90)
        self.assertEqual(sum(1 for x in xs if x > 90), 10)
        self.assertEqual(mathx.percentile(list(range(1, 201)), 0.9), 180)

    def test_unsupported_percentile_raises(self):
        with self.assertRaises(ValueError):
            mathx.percentile(list(range(99)), 0.9)
        self.assertEqual(mathx.percentile(list(range(1, 11)), 0.9,
                                          min_beyond=1), 9)

    def test_median_is_supported_early(self):
        self.assertEqual(mathx.min_samples(0.5), 20)


class FailureAccounting(unittest.TestCase):

    def test_shares(self):
        led = mathx.Ledger()
        self.assertEqual(led.failed_share(), 0.0)
        for _ in range(7):
            led.ok()
        led.fail("verify|dlx5_bp|fib_10|chain|0", "defect1", "Not_found")
        led.record("stats|toy3|-|chain|0", None)
        led.record("show|dlx5|fib_10|tree|1", "wrong_answer", "digest")
        self.assertEqual(led.attempted, 10)
        self.assertEqual(led.failed, 2)
        self.assertAlmostEqual(led.failed_share(), 0.2)
        self.assertAlmostEqual(led.ok_share(), 0.8)
        self.assertEqual([f["request"] for f in led.wrong_answers()],
                         ["show|dlx5|fib_10|tree|1"])

    def test_every_failure_is_listed(self):
        led = mathx.Ledger()
        for i in range(50):
            led.fail("r%d" % i, "exit 1")
        self.assertEqual(len(led.failures), 50)
        self.assertEqual(led.failed_share(), 1.0)

    def test_defect1_classification(self):
        bp = catalog.spec("verify", "dlx5_bp", "fib_10")
        self.assertTrue(workloads._is_defect1(bp, "verification: Not_found"))
        self.assertFalse(workloads._is_defect1(
            catalog.spec("verify", "dlx5", "fib_10"), "Not_found"))
        self.assertFalse(workloads._is_defect1(bp, "timeout"))

    def test_serve_judging(self):
        ctx = workloads.Context(None, None, answers.Book(), 1, 1)
        req = catalog.spec("stats", "dlx5_intr", "dot_6")
        responses = {
            "a": (0.0, {"ok": False, "error": "internal",
                        "message": "Not_found"}),
            "b": (0.0, {"ok": True, "payload": "stats",
                        "hazards": {"cycles": -1}})}
        self.assertIsNone(workloads.judge(ctx, responses, "a", req))
        self.assertIsNone(workloads.judge(ctx, responses, "b", req))
        self.assertIsNone(workloads.judge(ctx, responses, "c", req))
        causes = [f["cause"] for f in ctx.ledger.failures]
        self.assertEqual(causes, ["defect1", "wrong_answer", "no response"])


class MetricNames(unittest.TestCase):

    def test_name_rules(self):
        for good in ("latency_p50_ms", "service.decode_ms", "a-b.c_d", "9x"):
            mathx.check_metric(good, "ms")
        for bad in ("", "_x", ".x", "has space", "x" * 65, "a/b", "é"):
            with self.assertRaises(ValueError):
                mathx.check_metric(bad, "ms")

    def test_every_metric_has_a_unit(self):
        for unit in ("", None, "has space", "x" * 17):
            with self.assertRaises(ValueError):
                mathx.check_metric("ok_name", unit)
        for unit in ("ms", "1/s", "%", "count", "Mw"):
            mathx.check_metric("ok_name", unit)

    def test_metric_block_lists_unmeasured(self):
        units = {"a_ms": "ms", "b": "count"}
        self.assertEqual(mathx.metric_block({"a_ms": 1.5, "b": 3}, units),
                         ({"a_ms": {"value": 1.5, "unit": "ms"},
                           "b": {"value": 3, "unit": "count"}}, []))
        self.assertEqual(mathx.metric_block({"a_ms": 1.5}, units)[1], ["b"])
        for bad in (float("nan"), float("inf"), None, "1"):
            block, missing = mathx.metric_block({"a_ms": bad, "b": 1}, units)
            self.assertEqual((list(block), missing), (["b"], ["a_ms"]))
        with self.assertRaises(ValueError):
            mathx.metric_block({}, {"bad name": "ms"})

    def test_benchmark_json(self):
        b = load_benchmark()
        self.assertEqual(set(b), {"command", "paths", "run_seconds",
                                  "workloads", "end_to_end", "per_layer"})
        names = []
        for m in b["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertLessEqual(m["bound"], 0.25)
            names.append(m["name"])
        for m in b["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
            names.append(m["name"])
        for m in b["end_to_end"] + b["per_layer"]:
            mathx.check_metric(m["name"], m["unit"])
            self.assertIn(m["better"], ("lower", "higher"))
        for w in b["workloads"]:
            mathx.check_metric(w["name"], "x")
            self.assertLessEqual(len(w["why"]), 200)
            names.append(w["name"])
        self.assertEqual(len(names), len(set(names)))
        setup = [m for m in b["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["unit"], "s")
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in b["end_to_end"]))
        self.assertEqual(sorted(w["name"] for w in b["workloads"]),
                         sorted(workloads.WORKLOADS))


class HostSpeed(unittest.TestCase):

    def test_scale_divides_out_the_probes_around_an_operation(self):
        probes = iter([0.002, 0.004, 0.003, 0.001])
        with mock.patch.object(hostspeed, "probe", lambda: next(probes)):
            clock = hostspeed.Clock()
            clock.tick()
            # before 0.002, during 0.004, after 0.003: mean 0.003
            self.assertAlmostEqual(clock.scale(3.0), 1.0)
            # before 0.003 (the previous end), after 0.001: mean 0.002
            self.assertAlmostEqual(clock.scale(1.0), 0.5)
        self.assertAlmostEqual(clock.factor(), 2.5)

    def test_a_quiet_host_keeps_wall_time(self):
        with mock.patch.object(hostspeed, "probe",
                               lambda: hostspeed.REF_S):
            clock = hostspeed.Clock()
            self.assertAlmostEqual(clock.scale(1.25), 1.25)
            self.assertAlmostEqual(clock.factor(), 1.0)

    def test_run_ticks_while_the_process_runs(self):
        ticks = []
        r = proc.run(["sleep", "0.3"], on_wait=lambda: ticks.append(1),
                     every_s=0.05)
        self.assertEqual(r.rc, 0)
        self.assertGreaterEqual(len(ticks), 3)


class Inputs(unittest.TestCase):

    def test_same_seed_same_inputs(self):
        a = [next(mix.cli_blocks(5)) for _ in range(2)]
        self.assertEqual(a[0], a[1])
        self.assertNotEqual(next(mix.cli_blocks(5)), next(mix.cli_blocks(6)))
        self.assertEqual(mix.serve_schedule(3, 20, 5),
                         mix.serve_schedule(3, 20, 5))

    def test_cli_blocks_are_stratified(self):
        blocks = mix.cli_blocks(9)
        for _ in range(3):
            b = next(blocks)
            pairs = [(r["kind"], r["machine"]) for r in b[:-2]]
            for kind, n in mix.FULL["cli_block"].items():
                for m in catalog.MACHINES:
                    self.assertEqual(pairs.count((kind, m)), n)
            self.assertEqual([(r["kind"], r["bmc"]) for r in b[-2:]],
                             [("campaign", False), ("campaign", True)])

    def test_lanes_jobs_pair_with_scalar(self):
        cycle = next(mix.sweep_cycles(2))
        for n in (catalog.GRID, mix.FULL["mid"]):
            jobs = [j for j in cycle if len(j["grid"]) == n]
            self.assertEqual([j["lanes"] for j in jobs],
                             [False, True] * (len(jobs) // 2))
            for scalar, lanes in zip(jobs[::2], jobs[1::2]):
                self.assertEqual(scalar["grid"], lanes["grid"])
                self.assertEqual(len(set(scalar["grid"])), n)
        self.assertEqual(sorted(j["axis"] for j in cycle
                                if len(j["grid"]) == mix.FULL["mid"]),
                         ["branch", "branch", "dependency", "dependency"])

    def test_serve_mix_shape(self):
        ranking = mix.serve_ranking()
        self.assertGreater(len({catalog.wire(r, "") for r in ranking}), 256)
        sched = mix.serve_schedule(1, 20, 30)
        self.assertEqual(len(sched), 600)
        dues = [d for d, _ in sched]
        self.assertEqual(dues, sorted(dues))
        distinct = {catalog.wire(r, "") for _, r in sched}
        self.assertTrue(0.5 < 1 - len(distinct) / len(sched) < 0.8)
        for m in catalog.SPECULATING:
            kernels = {r["kernel"] for _, r in sched
                       if r["machine"] == m and r["kind"] != "sweep"}
            self.assertGreaterEqual(len(kernels), 2)

    def test_every_input_has_a_recorded_answer(self):
        book = answers.Book()
        blocks = mix.cli_blocks(4)
        reqs = [r for _ in range(3) for r in next(blocks)]
        reqs += [r for _, r in mix.serve_schedule(4, 20, 30)
                 if r["kind"] != "sweep"]
        reqs += mix.serve_setup() + mix.cli_setup()
        for r in reqs:
            self.assertIsNotNone(book.expected(catalog.key(r)),
                                 catalog.key(r))
        jobs = next(mix.sweep_cycles(4))
        for job in jobs + mix.sweep_setup():
            self.assertEqual(len(book.expected_rows(job)), len(job["grid"]))


class Answers(unittest.TestCase):

    def test_sweep_rows(self):
        text = ("workload  instr cycles CPI speedup stalls dhaz ext "
                "rollbacks squash\n"
                "rand_s2_n32 31 36 1.16 4.31 0 0 0 2 2\n")
        self.assertEqual(answers.sweep_rows(text), [[31, 36, 0, 0, 0, 2, 2]])
        rows = [[1, 2, 3, 4, 5, 6, 7]] * 40
        self.assertEqual(answers.unpack_rows(answers.pack_rows(rows)), rows)

    def test_verify_answer_ignores_presentation(self):
        a = answers.verify_answer(
            "data consistency: 5 instructions\nliveness: ok\n"
            "  coverage hole: x\nobligations:\n  [ok] L1.1   text\n"
            "VERIFIED\n", 0)
        b = answers.verify_answer(
            "data consistency: 5 instructions\nliveness: ok\n"
            "obligations:\n  [ok] L1.1   other words\nVERIFIED\n", 0)
        self.assertEqual(answers.digest(a), answers.digest(b))



# A stand-in for pipegen that fails (exit 1, no output) whenever its
# arguments hold a given word, and runs pipegen otherwise.
FAILING_EXE = """#!/bin/sh
for a in "$@"; do [ "$a" = "%s" ] && exit 1; done
exec "%s" "$@"
"""


@unittest.skipIf(os.environ.get("PERFBENCH_SKIP_SMOKE"), "smoke skipped")
class Smoke(unittest.TestCase):
    """Each workload at tiny sizes, in-process, through the same code as
    run.py: healthy, traced and untraced, and with one kind of
    operation forced to fail."""

    @classmethod
    def setUpClass(cls):
        cls.exe, cls.ptrace = build.build(ROOT)
        cls.bench = load_benchmark()
        cls.rate = run.load(os.path.join(HERE, "design.json"))[
            "workloads"]["serve_mix"]["rate"]
        cls.out = os.path.join(HERE, "out", "test")
        os.makedirs(cls.out, exist_ok=True)

    def run_bench(self, workload, trace=0, exe=None, book=None):
        ctx = workloads.Context(exe or self.exe, self.out,
                                book or answers.Book(), 3, 1, min_beyond=1,
                                sizes=mix.SMALL, rate=self.rate)
        try:
            values, units, rows = run.measure(workload, ctx, trace,
                                              self.bench, self.ptrace,
                                              self.out)
        finally:
            proc.stop_all()
        result = json.loads(run.result_line(ctx.ledger, values, units))
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], ctx.ledger.failed)
        return ctx, result, {name: value for name, value, _ in rows}

    def failing_exe(self, word):
        path = os.path.join(self.out, "fails-on-%s" % word.strip("-"))
        with open(path, "w") as f:
            f.write(FAILING_EXE % (word, self.exe))
        os.chmod(path, 0o755)
        return path

    def test_workloads(self):
        for workload in sorted(workloads.WORKLOADS):
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    _, r, _ = self.run_bench(workload, trace)
                    self.assertTrue(r["correct"])
                    want = self.bench["per_layer" if trace else "end_to_end"]
                    self.assertEqual(set(r["metrics"]),
                                     {m["name"] for m in want})
                    if workload != "serve_mix":
                        self.assertEqual(r["failed"], 0)
                    if trace == 0:
                        for m in r["metrics"].values():
                            self.assertGreater(m["value"], 0)

    def test_campaigns_without_answers(self):
        book = answers.Book()
        book.answers = {k: v for k, v in book.answers.items()
                        if not k.startswith("campaign|")}
        ctx, r, rows = self.run_bench("cli_cold", book=book)
        self.assertFalse(r["correct"])
        causes = {(f["request"].split("|")[0], f["cause"])
                  for f in ctx.ledger.failures}
        self.assertEqual(causes, {("campaign", "wrong_answer")})
        self.assertEqual(rows["campaign_mutants_per_s"], 0)
        self.assertIsNotNone(rows["latency_p90_ms"])
        self.assertGreater(r["metrics"]["throughput_per_s"]["value"], 0)

    def test_lanes_jobs_fail(self):
        ctx, r, rows = self.run_bench("batch_sweep",
                                      exe=self.failing_exe("--lanes"))
        self.assertTrue(r["correct"])
        self.assertGreater(r["failed"], 0)
        for f in ctx.ledger.failures:
            self.assertEqual(f["cause"], "exit 1")
            self.assertTrue(f["request"].endswith("|lanes"), f["request"])
        self.assertIsNotNone(rows["job1_ms"])
        self.assertEqual(rows["lanes_programs_per_s"], 0)
        self.assertGreater(r["metrics"]["throughput_per_s"]["value"], 0)

    def test_server_fails(self):
        ctx, r, rows = self.run_bench("serve_mix",
                                      exe=self.failing_exe("serve"))
        self.assertEqual(r["failed"], r["attempted"])
        self.assertIsNone(rows["latency_p90_ms"])
        self.assertNotIn("setup_s", r["metrics"])
        self.assertEqual(r["metrics"]["ok_share"]["value"], 0)


if __name__ == "__main__":
    unittest.main()
