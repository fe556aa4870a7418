"""The universe of operations the workloads draw from.

Every operation any seed can produce is in a finite catalog, so the
expected answer of each one can be recorded once (record.py) and every
run can check every output.  A seed picks the order, the mix and the
arrival times; pipegen only ever sees the generated requests.
"""

import json

MACHINES = ["toy3", "dlx5", "dlx6", "dlx5_intr", "dlx5_bp"]
# The machines whose pipelines speculate (rollback on mispredict or
# interrupt); serve defect 1 lives on these.
SPECULATING = ["dlx5_intr", "dlx5_bp"]
KERNELS = ["fib_10", "memcpy_8", "dot_6", "bsort_6", "dep_chain_24",
           "load_use_12", "independent_24", "branches_8", "subword_loads",
           "strlen_25", "checksum_8", "overflow_trap"]
IMPLS = ["chain", "tree", "bus"]
ONE_SHOT_KINDS = ["verify", "stats", "proof", "show", "verilog"]

# Sweep points are drawn from a fixed grid of distinct values in (0, 1)
# (dependency bias or taken fraction); the sweep --seed from a small set.
GRID = 1536
SWEEP_SEEDS = 4
SWEEP_LENGTH = 32
# The sweep axes and the machine each runs on.
AXES = {"dependency": "dlx5", "branch": "dlx5_bp"}

CAMPAIGN_SEEDS = 16


def point(i):
    return (i + 0.5) / GRID


def spec(kind, machine, kernel=None, impl="chain", interlock=False):
    return {"kind": kind, "machine": machine,
            "kernel": kernel if machine != "toy3" else None,
            "impl": impl, "interlock": interlock}


def campaign(seed, bmc):
    return {"kind": "campaign", "machine": "toy3", "seed": seed, "bmc": bmc}


def sweep(axis, grid, seed, lanes):
    """A sweep job over grid indices (points are point(i))."""
    return {"kind": "sweep", "machine": AXES[axis], "axis": axis,
            "grid": list(grid), "seed": seed, "lanes": lanes}


def one_shots():
    """Every one-shot request of the catalog, in a fixed order."""
    out = []
    for kind in ONE_SHOT_KINDS:
        for machine in MACHINES:
            kernels = [None] if machine == "toy3" else KERNELS
            for kernel in kernels:
                for impl in IMPLS:
                    for interlock in (False, True):
                        out.append(spec(kind, machine, kernel, impl,
                                        interlock))
    return out


def key(req):
    """The name of a one-shot or campaign request in the answer book."""
    if req["kind"] == "campaign":
        return "campaign|toy3|%d|%d" % (req["seed"], req["bmc"])
    return "%s|%s|%s|%s|%d" % (req["kind"], req["machine"],
                                req["kernel"] or "-", req["impl"],
                                req["interlock"])


def sweep_key(axis, seed):
    return "%s|%d" % (axis, seed)


def label(req):
    """A short human-readable name for failure listings."""
    if req["kind"] == "sweep":
        return "sweep|%s|n=%d|s=%d|%s" % (
            req["axis"], len(req["grid"]), req["seed"],
            "lanes" if req["lanes"] else "scalar")
    return key(req)


def _spec_args(req):
    args = ["--impl", req["impl"]]
    if req["kernel"]:
        args += ["-k", req["kernel"]]
    if req["interlock"]:
        args.append("--interlock-only")
    return args


def argv(req, exe):
    """The one-shot pipegen command line, at -j 1 where it applies."""
    kind, machine = req["kind"], req["machine"]
    if kind in ("verify", "proof"):
        return [exe, kind, machine, "-j", "1"] + _spec_args(req)
    if kind in ("show", "verilog"):
        return [exe, kind, machine] + _spec_args(req)
    if kind == "stats":
        return [exe, "stats", "-m", machine, "--json"] + _spec_args(req)
    if kind == "campaign":
        a = [exe, "campaign", "toy3", "-j", "1", "--seed",
             str(req["seed"]), "--json"]
        return a + (["--bmc"] if req["bmc"] else [])
    if kind == "sweep":
        a = [exe, "sweep", machine, "--axis", req["axis"], "-j", "1",
             "--length", str(SWEEP_LENGTH), "--seed", str(req["seed"]),
             "--points", ",".join(repr(point(i)) for i in req["grid"])]
        return a + (["--lanes"] if req["lanes"] else [])
    raise ValueError(kind)


def wire(req, rid):
    """The request as one serve protocol line."""
    kind = req["kind"]
    obj = {"pipegen": 1, "id": rid,
           "kind": "transform" if kind in ("show", "verilog") else kind,
           "machine": req["machine"]}
    if kind == "sweep":
        obj.update(axis=req["axis"],
                   points=[point(i) for i in req["grid"]],
                   length=SWEEP_LENGTH, seed=req["seed"])
        if req["lanes"]:
            obj["lanes"] = True
    elif kind == "campaign":
        obj.update(seed=req["seed"], bmc=req["bmc"])
    else:
        if req["kernel"]:
            obj["kernel"] = req["kernel"]
        if req["impl"] != "chain":
            obj["impl"] = req["impl"]
        if req["interlock"]:
            obj["interlock_only"] = True
        if kind == "verilog":
            obj["verilog"] = True
    return json.dumps(obj, separators=(",", ":"))
