"""The three workloads, measured with tracing off.

Each returns (values, rows): the end-to-end metric values named in
BENCHMARK.json, and finer rows printed for people (latency
percentiles, job sizes, cache hits and misses, ...).  Attempted and
failed operations go to the context's ledger.  A value the run cannot
support (a rate with no time to divide by, a set-up time when no pass
succeeded, a percentile with too few successful samples beyond it) is
None: left out of values and printed as n/a.  A failing operation is
counted, never waited for beyond its time limit, and never keeps a
loop going: every loop ends at the run's hard end.
"""

import itertools
import json
import time

from pb import answers, catalog, hostspeed, mathx, mix, proc

# How long one cli_cold block and one batch_sweep cycle take, with their
# set-up pass, at the commit that defined the benchmark: a run holds
# round(--seconds / that) of them, at least one, so what a run does
# depends on its seed and --seconds, not on the host's speed.
CLI_BLOCK_S = 5.0
SWEEP_CYCLE_S = 14.0
# Set-up is repeated and setup_s is the median pass: serve_mix starts
# SERVE_SETUP_PASSES servers one after another (the last takes the
# timed load); the closed loops run a set-up pass before timing starts
# and again before each block or cycle, so that the median is not one
# moment's host speed.
SERVE_SETUP_PASSES = 5
# The open-loop generator probes the host's speed when the server has
# answered every request sent so far and the next one is due at least
# this far off (a probe takes about 5 ms).
PROBE_ROOM_S = 0.02
# No single operation may take longer than this, and nothing runs past
# HARD_FACTOR x --seconds + HARD_SLACK_S from the start of the run.
OP_TIMEOUT_S = 60.0
HARD_FACTOR = 2
HARD_SLACK_S = 45.0


class Context:
    """What every workload needs: the binary, where to run it, the
    answer book, the run length, and the run's ledger, peak RSS and
    host-speed clock."""

    def __init__(self, exe, workdir, book, seed, seconds,
                 min_beyond=mathx.MIN_BEYOND, sizes=mix.FULL, rate=None):
        self.exe = exe
        self.workdir = workdir
        self.book = book
        self.seed = seed
        self.seconds = seconds
        self.min_beyond = min_beyond
        self.sizes = sizes
        self.rate = rate
        self.ledger = mathx.Ledger()
        self.peak_rss_mb = 0.0
        self.clock = hostspeed.Clock()
        self.hard_end = (time.perf_counter() + HARD_FACTOR * seconds
                         + HARD_SLACK_S)

    def left(self):
        """Seconds the next wait may take: at most OP_TIMEOUT_S, never
        past the run's hard end."""
        return max(0.0, min(OP_TIMEOUT_S, self.hard_end - time.perf_counter()))

    def units(self, unit_s):
        """How many blocks or cycles of about unit_s seconds a run of
        --seconds holds: at least one."""
        return max(1, round(self.seconds / unit_s))

    def one_shot(self, req):
        """Run one request as a fresh process and check its answer.
        Returns (result, answer, reference seconds the process took),
        answer None on failure."""
        r = proc.run(catalog.argv(req, self.exe), cwd=self.workdir,
                     timeout_s=self.left(), on_wait=self.clock.tick,
                     every_s=hostspeed.TICK_S)
        ref_s = self.clock.scale(r.wall_s)
        return r, self._check(req, r), ref_s

    def _check(self, req, r):
        """The answer of a finished one-shot process, None (and a
        failure in the ledger) when it failed."""
        self.peak_rss_mb = max(self.peak_rss_mb, r.rss_mb)
        name = catalog.label(req)
        if r.timed_out:
            self.ledger.fail(name, "timeout")
            return None
        if r.rc not in (0, 3):
            self.ledger.fail(name, "exit %d" % r.rc, r.err.strip())
            return None
        try:
            ans = answers.cli_answer(req, r.out, r.rc)
        except (ValueError, KeyError, IndexError) as e:
            self.ledger.fail(name, "unreadable output", str(e))
            return None
        bad = self.book.check(req, ans)
        self.ledger.record(name, bad and "wrong_answer", bad or "")
        return None if bad else ans

    def latency(self, lat_ms):
        """(p50, p90) of the samples in ms; None where the samples do
        not support the statistic."""
        p50 = mathx.median(lat_ms) if lat_ms else None
        p90 = (mathx.percentile(lat_ms, 0.9, self.min_beyond)
               if mathx.tail_supported(len(lat_ms), 0.9, self.min_beyond)
               else None)
        return p50, p90


def ratio(num, den):
    return num / den if den > 0 else None


def measured(**values):
    """The values that were measured (not None)."""
    return {k: v for k, v in values.items() if v is not None}


class Setup:
    """Set-up passes over reqs, run when the workload asks."""

    def __init__(self, ctx, reqs):
        self.ctx = ctx
        self.reqs = reqs
        self.walls = []
        self.refs = []

    def run_pass(self):
        """One pass; a pass with a failed operation is not a set-up
        time."""
        if self.ctx.left() == 0:
            return
        failed = self.ctx.ledger.failed
        wall = ref = 0.0
        for req in self.reqs:
            r, _, ref_s = self.ctx.one_shot(req)
            wall += r.wall_s
            ref += ref_s
        if self.ctx.ledger.failed == failed:
            self.walls.append(wall)
            self.refs.append(ref)

    def medians(self):
        """The median pass in reference and in wall seconds, None when
        no pass succeeded."""
        if not self.refs:
            return None, None
        return mathx.median(self.refs), mathx.median(self.walls)


def cli_cold(ctx):
    setup = Setup(ctx, mix.cli_setup())
    lat, camp_mutants, camp_wall, campaigns = [], 0, 0.0, 0
    ok_ops, wall, ref = 0, 0.0, 0.0
    setup.run_pass()
    blocks = mix.cli_blocks(ctx.seed, ctx.sizes)
    for block in itertools.islice(blocks, ctx.units(CLI_BLOCK_S)):
        setup.run_pass()
        for req in block:
            if ctx.left() == 0:
                break
            r, ans, ref_s = ctx.one_shot(req)
            wall += r.wall_s
            ref += ref_s
            ok_ops += ans is not None
            if req["kind"] == "campaign":
                campaigns += 1
                camp_wall += r.wall_s
                if ans is not None:
                    camp_mutants += sum(ans["counts"].values())
            elif ans is not None:
                lat.append(r.wall_s * 1000.0)
    p50, p90 = ctx.latency(lat)
    setup_s, setup_wall_s = setup.medians()
    values = measured(throughput_per_s=ratio(ok_ops, ref), setup_s=setup_s)
    rows = [("wall_throughput_per_s", ratio(ok_ops, wall), "1/s"),
            ("setup_wall_s", setup_wall_s, "s"),
            ("host_factor", ctx.clock.factor(), "ratio"),
            ("requests", len(lat), "count"),
            ("latency_p50_ms", p50, "ms"),
            ("latency_p90_ms", p90, "ms"),
            ("campaigns", campaigns, "count"),
            ("campaign_mutants_per_s", ratio(camp_mutants, camp_wall),
             "mutants/s")]
    return values, rows


def batch_sweep(ctx):
    setup = Setup(ctx, mix.sweep_setup())
    walls = {}  # (size, lanes) -> [wall_s] of the jobs that succeeded
    spent = {}  # (size, lanes) -> wall_s of every job, failed or not
    verified = {}  # (size, lanes) -> programs answered correctly
    ref = 0.0  # reference seconds of every job
    setup.run_pass()
    cycles = mix.sweep_cycles(ctx.seed, ctx.sizes)
    for cycle in itertools.islice(cycles, ctx.units(SWEEP_CYCLE_S)):
        setup.run_pass()
        scalar = {}  # scalar answers awaiting their --lanes twin
        for job in cycle:
            if ctx.left() == 0:
                break
            n = len(job["grid"])
            key = (n, job["lanes"])
            r, ans, ref_s = ctx.one_shot(job)
            ref += ref_s
            spent[key] = spent.get(key, 0.0) + r.wall_s
            if ans is not None:
                walls.setdefault(key, []).append(r.wall_s)
                verified[key] = verified.get(key, 0) + n
            twin = (job["axis"], job["seed"], tuple(job["grid"]))
            if not job["lanes"]:
                scalar[twin] = ans
            elif (ans is not None and scalar.get(twin) is not None
                  and ans != scalar[twin]):
                ctx.ledger.fail(catalog.label(job), "wrong_answer",
                                "--lanes rows differ from the scalar rows")
    sizes = ctx.sizes
    big, mid = sizes["big"], sizes["mid"]
    setup_s, setup_wall_s = setup.medians()
    values = measured(throughput_per_s=ratio(sum(verified.values()), ref),
                      setup_s=setup_s)

    def med_ms(key):
        return mathx.median(walls[key]) * 1000.0 if key in walls else None

    def rate(key):
        return ratio(verified.get(key, 0), spent.get(key, 0.0))

    rows = [("wall_throughput_per_s",
             ratio(sum(verified.values()), sum(spent.values())), "1/s"),
            ("setup_wall_s", setup_wall_s, "s"),
            ("host_factor", ctx.clock.factor(), "ratio"),
            ("job1_ms", med_ms((sizes["one"], False)), "ms"),
            ("job%d_ms" % mid, med_ms((mid, False)), "ms"),
            ("lanes_job%d_ms" % mid, med_ms((mid, True)), "ms"),
            ("programs_per_s", rate((big, False)), "programs/s"),
            ("lanes_programs_per_s", rate((big, True)), "programs/s"),
            ("jobs", sum(len(w) for w in walls.values()), "count")]
    return values, rows


def _is_defect1(req, message):
    """Serve defect 1: after a speculating machine's shape is compiled,
    a simulating request with another program fails with Not_found."""
    return (req["machine"] in catalog.SPECULATING
            and req["kind"] in ("verify", "proof", "stats")
            and "Not_found" in message)


class ServeSession:
    """One pipegen serve -j 2 process and the responses it wrote."""

    def __init__(self, ctx):
        self.ctx = ctx
        self.lines = []
        self.responses = {}
        self.spawned = time.perf_counter()
        self.server = proc.Server([ctx.exe, "serve", "-j", "2"],
                                  self._on_line, cwd=ctx.workdir)

    def _on_line(self, t, line):
        self.lines.append((t, line))

    def _parse(self):
        """Move the lines read so far into responses, by id."""
        lines, self.lines = self.lines, []
        for t, line in lines:
            try:
                resp = json.loads(line)
            except ValueError:
                continue
            self.responses[resp.get("id")] = (t, resp)

    def wait_for(self, n):
        """Wait until n response lines have arrived, the server has
        closed its output, or the wait timed out.  Returns the time the
        n-th line was read, or None when it never was."""
        deadline = time.perf_counter() + self.ctx.left()
        while (len(self.lines) < n and self.server.alive()
               and time.perf_counter() < deadline):
            time.sleep(0.001)
        t = self.lines[n - 1][0] if len(self.lines) >= n else None
        self._parse()
        return t

    def close(self):
        self.server.close(timeout_s=self.ctx.left())
        self._parse()
        self.ctx.peak_rss_mb = max(self.ctx.peak_rss_mb, self.server.rss_mb)
        if self.server.rc != 0:
            self.ctx.ledger.fail("serve", "exit %d" % self.server.rc)

    def judge(self, rid, req):
        return judge(self.ctx, self.responses, rid, req)


def judge(ctx, responses, rid, req):
    """Check one serve response against the CLI's recorded answer;
    returns the response, or None when it failed."""
    name = "%s %s" % (rid, catalog.label(req))
    got = responses.get(rid)
    if got is None:
        ctx.ledger.fail(name, "no response")
        return None
    resp = got[1]
    if not resp.get("ok"):
        msg = resp.get("message", "")
        ctx.ledger.fail(name, "defect1" if _is_defect1(req, msg)
                        else "error " + resp.get("error", "?"), msg)
        return None
    try:
        bad = ctx.book.check(req, answers.serve_answer(req, resp))
    except (ValueError, KeyError, IndexError) as e:
        bad = "unreadable payload: %s" % e
    ctx.ledger.record(name, bad and "wrong_answer", bad or "")
    return None if bad else resp


def serve_setup(ctx):
    """Spawn a server and answer one request per machine shape; returns
    (session, (reference CPU seconds, wall seconds) from spawn to the
    last set-up answer), the times None when a set-up request failed.
    The server's CPU time is scaled by probes taken just before the
    spawn and just after the last answer, both while no server runs or
    works."""
    before = hostspeed.probe()
    s = ServeSession(ctx)
    warm = mix.serve_setup()
    ids = ["w%d" % i for i in range(len(warm))]
    for rid, req in zip(ids, warm):
        s.server.send(catalog.wire(req, rid))
    done = s.wait_for(len(ids))
    ok = [s.judge(rid, req) is not None for rid, req in zip(ids, warm)]
    if done is None or not all(ok):
        return s, None
    try:
        cpu = s.server.cpu_s()
    except OSError:  # the server exited after its last answer
        return s, None
    ref = cpu * hostspeed.REF_S / ((before + hostspeed.probe()) / 2.0)
    return s, (ref, done - s.spawned)


def feed(session, schedule):
    """The open-loop generator: send request i as "r<i>" at its due time
    whatever the server is doing, then shut the server down.  While it
    waits, it probes the host's speed once the server is idle (see
    PROBE_ROOM_S): a probe taken while the server runs would measure
    the server's own load.  Returns the start time, how late each send
    was in seconds, and the probes (at least one)."""
    lags, probes = [], []
    answered = len(session.lines)
    t0 = time.perf_counter()
    for i, (due, req) in enumerate(schedule):
        while (t0 + due - time.perf_counter() > PROBE_ROOM_S
               and len(session.lines) - answered < i):
            time.sleep(0.001)
        if t0 + due - time.perf_counter() > PROBE_ROOM_S:
            probes.append(hostspeed.probe())
        pause = t0 + due - time.perf_counter()
        if pause > 0:
            time.sleep(pause)
        lags.append(time.perf_counter() - (t0 + due))
        session.server.send(catalog.wire(req, "r%d" % i))
    session.close()
    return t0, lags, probes or [hostspeed.probe()]


def serve_mix(ctx):
    setups, session = [], None
    for _ in range(SERVE_SETUP_PASSES):
        if session is not None:
            session.close()
        session, s = serve_setup(ctx)
        if s is None:
            break
        setups.append(s)
    schedule = mix.serve_schedule(ctx.seed, ctx.rate, ctx.seconds)
    try:
        cpu0 = session.server.cpu_s()
    except OSError:  # the server has already exited
        cpu0 = None
    t0, lags, probes = feed(session, schedule)
    cpu = session.server.total_cpu_s - cpu0 if cpu0 is not None else 0.0
    factor = sum(probes) / len(probes) / hostspeed.REF_S
    lat, hits, misses = [], [], []
    for i, (due, req) in enumerate(schedule):
        rid = "r%d" % i
        resp = session.judge(rid, req)
        if resp is None:
            continue
        ms = (session.responses[rid][0] - (t0 + due)) * 1000.0
        lat.append(ms)
        (hits if resp.get("cached") else misses).append(ms)
    p50, p90 = ctx.latency(lat)
    values = measured(
        throughput_per_s=ratio(len(lat), cpu / factor),
        setup_s=mathx.median([r for r, _ in setups]) if setups else None)
    rows = [("cpu_throughput_per_s", ratio(len(lat), cpu), "1/s"),
            ("setup_wall_s",
             mathx.median([w for _, w in setups]) if setups else None, "s"),
            ("host_factor", factor, "ratio"),
            ("requests", len(schedule), "count"),
            ("rate", ctx.rate, "1/s"),
            ("latency_p50_ms", p50, "ms"),
            ("latency_p90_ms", p90, "ms"),
            ("hit_p50_ms", mathx.median(hits) if hits else None, "ms"),
            ("miss_p50_ms", mathx.median(misses) if misses else None, "ms"),
            ("hits", len(hits), "count"),
            ("misses", len(misses), "count"),
            ("server_cpu_s", cpu, "s"),
            ("harness.lag_ms", 1000.0 * sum(lags) / len(lags), "ms")]
    return values, rows


WORKLOADS = {"cli_cold": cli_cold, "batch_sweep": batch_sweep,
             "serve_mix": serve_mix}
