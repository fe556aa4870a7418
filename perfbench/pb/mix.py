"""Seeded inputs of the three workloads.

The same seed always gives the same operations, in the same order, with
the same arrival times.  Mixes are stratified (fixed counts per block,
per class) so that the seed moves which requests run, not how much of
each kind of work a run holds.
"""

import random

from pb import catalog

# Workload sizes.  cli_block: how many one-shot requests of each kind
# per machine each cli_cold block holds (in a seeded order), followed by
# two unsampled toy3 campaigns with one campaign seed, without and with
# --bmc.  big/mid/one: batch_sweep job sizes, ones the 1-point jobs of a
# cycle.  trace_blocks: the cli_cold blocks a traced run replays.
# SMALL is the smoke test's.
FULL = {"cli_block": {"verify": 3, "stats": 2, "proof": 2, "show": 1,
                      "verilog": 1},
        "big": catalog.GRID, "mid": 64, "one": 1, "ones": 14,
        "trace_blocks": 2}
SMALL = {"cli_block": {"verify": 1, "stats": 1, "proof": 0, "show": 0,
                       "verilog": 0},
         "big": 16, "mid": 4, "one": 1, "ones": 2, "trace_blocks": 1}

# serve_mix: a Zipf draw over a fixed, class-stratified ranking of
# requests; the workload seed draws the requests and their arrivals.
ZIPF_S = 1.3
RANKING_SEED = 0
SERVE_SWEEP_POINTS = 8
SERVE_SWEEP_SETS = 16


def cli_blocks(seed, sizes=FULL):
    """Endless blocks [one-shot requests..., campaigns].  Every block
    holds the same (kind, machine) pairs; kernel, --impl and
    --interlock-only are drawn per request."""
    rng = random.Random(seed)
    block = 0
    while True:
        pairs = [(k, m) for k, n in sizes["cli_block"].items()
                 for m in catalog.MACHINES for _ in range(n)]
        rng.shuffle(pairs)
        reqs = [catalog.spec(k, m, rng.choice(catalog.KERNELS),
                             rng.choice(catalog.IMPLS), rng.random() < 0.5)
                for k, m in pairs]
        cseed = (seed + block) % catalog.CAMPAIGN_SEEDS
        yield reqs + [catalog.campaign(cseed, False),
                      catalog.campaign(cseed, True)]
        block += 1


def cli_setup():
    """One verify per machine: the CLI's warm-up pass."""
    return [catalog.spec("verify", m, "fib_10") for m in catalog.MACHINES]


def _grid_sample(rng, n):
    return rng.sample(range(catalog.GRID), n)


def sweep_pair(rng, axis, n):
    """A scalar and a --lanes job over the same n programs."""
    grid, seed = _grid_sample(rng, n), rng.randrange(catalog.SWEEP_SEEDS)
    return [catalog.sweep(axis, grid, seed, False),
            catalog.sweep(axis, grid, seed, True)]


def sweep_cycles(seed, sizes=FULL):
    """Endless cycles, each a list of jobs: a big scalar/lanes pair on
    the dependency axis, `ones` 1-point jobs (axes alternating), and a
    mid-size scalar/lanes pair on each axis.  Every cycle holds the same
    job sizes, so a run of whole cycles has the same mix of work
    whatever its seed."""
    rng = random.Random(seed)
    axes = list(catalog.AXES)
    while True:
        cycle = sweep_pair(rng, "dependency", sizes["big"])
        for i in range(sizes["ones"]):
            cycle.append(catalog.sweep(
                axes[i % 2], _grid_sample(rng, sizes["one"]),
                rng.randrange(catalog.SWEEP_SEEDS), False))
        for axis in axes:
            cycle += sweep_pair(rng, axis, sizes["mid"])
        yield cycle


def sweep_setup():
    """One 1-point job per axis and sweep seed: the warm-up pass."""
    return [catalog.sweep(axis, [catalog.GRID // 2], seed, False)
            for axis in catalog.AXES for seed in range(catalog.SWEEP_SEEDS)]


def serve_classes():
    """Request classes in rank order: every (kind, machine) pair with
    kinds and machines interleaved, then the two sweep axes."""
    kinds = catalog.ONE_SHOT_KINDS
    n = len(kinds)
    classes = [(kinds[k % n], catalog.MACHINES[(k + k // n) % n])
               for k in range(n * n)]
    return classes + [("sweep", axis) for axis in catalog.AXES]


def serve_class_items(cls):
    kind, what = cls
    if kind == "sweep":
        stride = catalog.GRID // (SERVE_SWEEP_SETS * SERVE_SWEEP_POINTS)
        return [catalog.sweep(what, [(j + k * SERVE_SWEEP_SETS) * stride
                                     for k in range(SERVE_SWEEP_POINTS)],
                              seed, False)
                for j in range(SERVE_SWEEP_SETS)
                for seed in range(catalog.SWEEP_SEEDS)]
    kernels = [None] if what == "toy3" else catalog.KERNELS
    return [catalog.spec(kind, what, k, impl, il) for k in kernels
            for impl in catalog.IMPLS for il in (False, True)]


def serve_ranking():
    """Every serve request once, most popular first: rank r belongs to
    class r mod len(classes); the items of a class are shuffled once,
    by RANKING_SEED."""
    rng = random.Random(RANKING_SEED)
    pools = []
    for cls in serve_classes():
        items = serve_class_items(cls)
        rng.shuffle(items)
        pools.append(items)
    ranked = []
    for depth in range(max(len(p) for p in pools)):
        ranked += [p[depth] for p in pools if depth < len(p)]
    return ranked


def serve_setup():
    """One verify per machine shape (machine x interlock x impl)."""
    return [catalog.spec("verify", m, "fib_10", impl, il)
            for m in catalog.MACHINES for il in (False, True)
            for impl in catalog.IMPLS]


def serve_schedule(seed, rate, seconds):
    """[(due_s, request)]: round(rate * seconds) arrivals of a Poisson
    process conditioned on its count, each a Zipf(ZIPF_S) draw over the
    ranking."""
    rng = random.Random(seed)
    ranked = serve_ranking()
    weights = [1.0 / (r + 1) ** ZIPF_S for r in range(len(ranked))]
    n = max(1, round(rate * seconds))
    dues = sorted(rng.uniform(0, seconds) for _ in range(n))
    picks = rng.choices(ranked, weights=weights, k=n)
    return list(zip(dues, picks))
