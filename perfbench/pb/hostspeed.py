"""The host's speed at a moment, from a fixed reference loop.

On a shared host everything runs 10-30% slower or faster for seconds
to minutes at a time as other tenants' load comes and goes, and
pipegen's times move with it: one run's wall-clock figures measure the
host's load as much as the program.  probe() times a fixed pure-Python
loop, which slows down and speeds up with the host.  A time in
reference seconds is a measured time times REF_S over the probe time
while it was measured: how long it would take on a host where the loop
takes REF_S.  The program's own speed is left in, the host's drift
divided out.  Clock does this for operations run one after another.
"""

import time

# The loop's size: about REF_S on a 2-core x86-64 host in a quiet spell,
# so a reference second is close to a second there.  It allocates and
# formats like an interpreter does, which follows pipegen's swings more
# closely than pure arithmetic or a memory copy.
LOOP = 5000
REF_S = 0.001
# A probe is the fastest of TRIES runs of the loop, so an interrupt that
# hits one run does not count as the host's speed.  A long operation is
# probed once per TICK_S while it runs.
TRIES = 5
TICK_S = 0.25


def _loop(n):
    d = {i: str(i) for i in range(n)}
    return [v + "." for v in d.values()]


def probe():
    """Seconds one run of the reference loop takes now."""
    best = None
    for _ in range(TRIES):
        t0 = time.perf_counter()
        _loop(LOOP)
        t = time.perf_counter() - t0
        best = t if best is None else min(best, t)
    return best


class Clock:
    """Reference seconds of operations run one after another.  Pass
    tick() to the wait for each operation and call scale() as soon as
    it has ended: the operation is scaled by the mean of the probe
    taken when the previous one ended (or when the clock was made), one
    probe per TICK_S while it ran, and a probe taken now."""

    def __init__(self):
        self.last = probe()
        self.during = []
        self.probes = [self.last]

    def tick(self):
        self.during.append(probe())

    def scale(self, wall_s):
        now = probe()
        around = [self.last] + self.during + [now]
        self.probes += self.during + [now]
        self.last, self.during = now, []
        return wall_s * REF_S / (sum(around) / len(around))

    def factor(self):
        """The mean probe over REF_S: how much slower than the reference
        the host ran while this clock was used."""
        return sum(self.probes) / len(self.probes) / REF_S
