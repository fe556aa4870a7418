"""Order statistics, failure accounting and metric-name rules.

Everything here is pure so the unit tests can pin it down exactly.
"""

import math
import re
import statistics

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")

# A percentile is reported only when at least this many samples lie
# beyond it, so a single outlier cannot set it.
MIN_BEYOND = 10


def median(xs):
    if not xs:
        raise ValueError("median of no samples")
    return statistics.median(xs)


def quartiles(xs):
    """First quartile, median, third quartile, as
    statistics.quantiles(xs, n=4) gives them."""
    if len(xs) < 2:
        raise ValueError("quartiles need at least two samples")
    return statistics.quantiles(xs, n=4)


def spread(xs):
    """Distance between the first and third quartile, as a share of the
    median."""
    q1, q2, q3 = quartiles(xs)
    return (q3 - q1) / q2


def beyond(n, q):
    """Samples strictly above the nearest-rank q-quantile of n samples."""
    return n - math.ceil(q * n)


def tail_supported(n, q, min_beyond=MIN_BEYOND):
    return n > 0 and beyond(n, q) >= min_beyond


def percentile(xs, q, min_beyond=MIN_BEYOND):
    """Nearest-rank q-quantile.  Raises ValueError when fewer than
    min_beyond samples lie beyond it: the tail is not supported."""
    n = len(xs)
    if not tail_supported(n, q, min_beyond):
        raise ValueError(
            "p%g needs %d samples beyond it; %d samples give %d"
            % (q * 100, min_beyond, n, beyond(n, q) if n else 0))
    return sorted(xs)[math.ceil(q * n) - 1]


def min_samples(q, min_beyond=MIN_BEYOND):
    """The fewest samples for which the q-quantile is supported."""
    n = 1
    while not tail_supported(n, q, min_beyond):
        n += 1
    return n


class Ledger:
    """Attempted operations and the failures among them, each failure
    listed by request.  A failure is an error response, an unexpected
    exit or a wrong answer; it is never fatal and never dropped."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def ok(self):
        self.attempted += 1

    def fail(self, request, cause, detail=""):
        self.attempted += 1
        self.failures.append(
            {"request": request, "cause": cause, "detail": detail[:300]})

    def record(self, request, cause, detail=""):
        """ok() when cause is None, else fail()."""
        if cause is None:
            self.ok()
        else:
            self.fail(request, cause, detail)

    @property
    def failed(self):
        return len(self.failures)

    def failed_share(self):
        return self.failed / self.attempted if self.attempted else 0.0

    def ok_share(self):
        return 1.0 - self.failed_share()

    def wrong_answers(self):
        return [f for f in self.failures if f["cause"] == "wrong_answer"]


def check_metric(name, unit):
    if not NAME_RE.match(name):
        raise ValueError("bad metric name %r" % name)
    if not unit or not UNIT_RE.match(unit):
        raise ValueError("metric %s has bad unit %r" % (name, unit))


def metric_block(values, units):
    """({"name": {"value": v, "unit": u}}, [names not measured]) for the
    names in units.  A value that is not a finite number (None, NaN, a
    division by zero time) counts as not measured."""
    out, missing = {}, []
    for name, unit in units.items():
        check_metric(name, unit)
        v = values.get(name)
        if isinstance(v, (int, float)) and math.isfinite(v):
            out[name] = {"value": v, "unit": unit}
        else:
            missing.append(name)
    return out, missing
