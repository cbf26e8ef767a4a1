"""The host's speed, measured in the gaps between timed requests.

The benchmark runs on a few cores of a shared host.  Each core switches,
every few tens of milliseconds, between two speeds about 1.7 times apart,
and the share of time it spends at the slower one drifts over minutes, so
measured times of the same code spread by up to a third between runs.  The
runner therefore pins itself and its children to one core, and in the gap
after every timed request times ``reference``: a fixed pure-Python loop
that does the kind of work the package does (exact fractions, tuples,
dicts, sorting) and calls nothing of the package, so no change to the
package can move its cost.  A request's latency is then reported in
seconds at the reference speed: its measured time over the host's
slowdown around it, which is the mean reference time of the gaps near the
request divided by ``REFERENCE_S``.  A slower package still reads slower;
a slower host does not.
"""

import bisect
from fractions import Fraction
import os
import statistics
import time

# Median time of one ``reference`` call on the host the bounds were set on
# (2 vCPUs of a shared x86-64 host, CPython 3.11).  Only a scale: it turns
# the ratio to the reference loop back into seconds of a typical run there.
REFERENCE_S = 0.0006
# The gap after a request times the reference loop at least once and until
# this share of the request's own latency has passed, so that the gaps
# near a long request cover a few speed spells each.
GAP_SHARE = 1 / 8
# A request is set against the gaps within SPAN times its own latency
# (and NEAR_S) of it: a short request runs within one speed spell and is
# matched to the gaps right next to it, a long one averages over many
# spells and is matched to the gaps over a comparable stretch of time.
SPAN = 3
NEAR_S = 0.005


def pin():
    """Run this process and its children on one core, so that the gaps
    measure the core the requests run on.  Returns the core."""
    core = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {core})
    return core


def reference():
    x = Fraction(1, 3)
    seen = {}
    for i in range(60):
        x = (x * Fraction(i + 2, i + 1) + Fraction(1, i + 3)) % 7
        seen[i % 7] = (x, i)
        order = tuple(sorted(seen))
    return x, order


class Gaps:
    """Reference times of the gaps of a run: per gap, its mid time and the
    mean time of the reference loop in it.  Means, not medians, because a
    request's time adds up the spells it runs through."""

    def __init__(self):
        self.at = []
        self.reference_s = []

    def sample(self, latency_s):
        """Time the reference loop in the gap after a request that took
        ``latency_s``: at least once, and until GAP_SHARE of it has passed."""
        times = []
        start = time.perf_counter()
        t_end = start + latency_s * GAP_SHARE
        while True:
            t0 = time.perf_counter()
            reference()
            t1 = time.perf_counter()
            times.append(t1 - t0)
            if t1 >= t_end:
                break
        self.at.append((start + t1) / 2)
        self.reference_s.append(statistics.fmean(times))

    def slowdown(self, start, seconds):
        """How many times slower than the reference speed the host ran
        around a request that started at ``start`` and took ``seconds``."""
        reach = SPAN * seconds + NEAR_S
        lo = bisect.bisect_left(self.at, start - reach)
        hi = bisect.bisect_right(self.at, start + seconds + reach)
        return statistics.fmean(self.reference_s[lo:hi]) / REFERENCE_S

    def median_slowdown(self):
        return statistics.median(self.reference_s) / REFERENCE_S
