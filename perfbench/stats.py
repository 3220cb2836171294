"""Order statistics the benchmark reports."""

import math
import statistics

# Percentiles a tail may be reported at, lowest first. The ladder stops at
# p95: on a shared machine a burst of outside load slows a few percent of a
# run's requests, and a tail above p95 reports the burst rather than the
# program. It also keeps the reported percentile the same from run to run.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0)
TAIL_BEYOND = 10


def rank(pct, n):
    """1-based nearest rank of percentile pct among n samples. The product
    is rounded first so that e.g. 99.9% of 10000 is rank 9990, not 9991."""
    return max(1, math.ceil(round(pct * n / 100.0, 6)))


def nearest_rank(values, pct):
    """The nearest-rank percentile: the smallest sample with at least
    pct% of the samples at or below it."""
    ordered = sorted(values)
    return ordered[rank(pct, len(ordered)) - 1]


def tail_percentile(n):
    """The highest ladder percentile with at least TAIL_BEYOND of n samples
    beyond its nearest rank; the median when n is too small for any."""
    best = TAIL_LADDER[0]
    for pct in TAIL_LADDER:
        if n - rank(pct, n) >= TAIL_BEYOND:
            best = pct
    return best


def tail(values):
    """(percentile, value) of the tail of `values`."""
    pct = tail_percentile(len(values))
    return pct, nearest_rank(values, pct)


def quartile_spread(values):
    """Distance between the first and third quartile as a share of the
    median, with quartiles as statistics.quantiles(values, n=4) gives
    them."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def nearest(times, at, k):
    """Indices of the k samples whose times are nearest to `at` (all of
    them when there are fewer than k)."""
    return sorted(range(len(times)), key=lambda i: abs(times[i] - at))[:k]
