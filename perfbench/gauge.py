"""Speed gauge: a small process that shares the benchmark's CPU and times a
fixed piece of pure-Python work every PERIOD_S.

On a shared host one CPU's speed flips between two levels about 1 : 1.6
apart, every fraction of a second, and how much of the time it runs slow
drifts over minutes.  Timing that fixed work at a steady rate while a worker runs on
the same CPU gives the speed the worker had during any interval; run.py
scales each op's wall time to REF_WORK_S, the work's duration at full
speed, so a run measures the program rather than its neighbours.

    python3 gauge.py        # samples until its stdin closes, then prints them

The last stdout line is a JSON list of ``[t, seconds]`` pairs, ``t`` being
CLOCK_MONOTONIC at the sample's middle, as the worker timestamps its ops.
Standard library only.
"""

from __future__ import annotations

import bisect
import json
import select
import statistics
import sys
import time

PERIOD_S = 0.02
ITERATIONS = 2000
# Duration of the work at full speed: the faster of the two levels on a
# 2.1 GHz Xeon core (Python 3.11); the slower one reads about 4.4e-4.
REF_WORK_S = 2.8e-4
# An interval is gauged on the samples within PAD_S of it, and on at least
# MIN_SAMPLES of the nearest ones.  A sample over OUTLIER times their median
# was cut short by a scheduler tick or an interrupt, not by a slow CPU, and
# is left out.
PAD_S = 0.03
MIN_SAMPLES = 4
OUTLIER = 2.0


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def work() -> float:
    acc, table = 0.0, {}
    for i in range(ITERATIONS):
        acc += (i * 0.5) % 7.0
        table[i & 255] = acc
    return acc


def sample() -> list:
    t0 = now()
    work()
    t1 = now()
    return [0.5 * (t0 + t1), t1 - t0]


class Gauge:
    """The samples of one gauge process, in time order."""

    def __init__(self, samples: list) -> None:
        self.t = [t for t, _ in samples]
        self.s = [s for _, s in samples]

    def scale(self, start: float, end: float) -> float:
        """REF_WORK_S over the mean duration of the work sampled around
        ``[start, end]``: a wall time spent there, multiplied by it, is the
        time it would have taken at full speed."""
        lo = bisect.bisect_left(self.t, start - PAD_S)
        hi = bisect.bisect_right(self.t, end + PAD_S)
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(self.t)):
            # widen towards the nearer neighbour
            if hi == len(self.t) or (lo > 0 and start - self.t[lo - 1] < self.t[hi] - end):
                lo -= 1
            else:
                hi += 1
        near = self.s[lo:hi]
        if not near:
            raise ValueError("the gauge took no samples")
        cut = OUTLIER * statistics.median(near)
        kept = [s for s in near if s <= cut]
        return REF_WORK_S * len(kept) / sum(kept)


def main() -> int:
    samples = []
    while not select.select([sys.stdin], [], [], PERIOD_S)[0]:
        samples.append(sample())
    print(json.dumps(samples))
    return 0


if __name__ == "__main__":
    sys.exit(main())
