"""Statistics shared by run.py and baseline.py.

Quantiles use linear interpolation between closest ranks, the same rule as
Quantile() in harness/bench.cc, so per-layer medians computed in C++ and
end-to-end quantiles computed here agree.
"""

import math
import statistics

# Percentiles a report may name, lowest first.
PERCENTILE_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)


def quantile(values, q):
    """Linear-interpolation quantile, q in [0, 1]; 0.0 for an empty sample."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = q * (len(ordered) - 1)
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median(values):
    return quantile(values, 0.5)


def supported_percentile(n):
    """Highest percentile of the ladder with at least ten samples beyond it.

    A tail percentile estimated from fewer than ten samples above it is
    mostly noise.  Returns None when not even the median qualifies.
    """
    best = None
    for p in PERCENTILE_LADDER:
        if n * (1.0 - p / 100.0) >= 10.0 - 1e-9:
            best = p
    return best


def fail_frac(attempted, failed):
    """Failed operations over attempted operations."""
    if attempted <= 0:
        raise ValueError("no operation attempted")
    if failed < 0 or failed > attempted:
        raise ValueError("failed must lie in [0, attempted]")
    return failed / attempted


def end_to_end(raw):
    """End-to-end metrics of one untraced run from the harness's raw record.

    An operation is one solve to epsilon (converge), one sync round
    (rounds_*) or one ChurnDriver::Apply call (churn).  The harness repeats
    every operation with identical inputs and keeps its fastest repeat, so
    op_ms holds one time per distinct successful operation.  busy_ms is the
    sum of fastest repeats the harness counts toward throughput: on rounds_*
    and churn that of every operation, failed ones included, so ops_per_s is
    the rate of useful work; on converge only that of the solves that
    reached epsilon, since the stalled instance's round budget would
    otherwise swamp the time-to-epsilon change the workload exists to
    measure (the stall counts in failed/attempted).
    """
    op_ms = raw["op_ms"]
    if not op_ms:
        raise ValueError("no operation succeeded")
    return {
        "setup_s": median(raw["setup_s"]),
        "peak_rss_mb": raw["peak_rss_mb"],
        "op_ms_p50": quantile(op_ms, 0.5),
        "op_ms_p90": quantile(op_ms, 0.9),
        "ops_per_s": len(op_ms) / (raw["busy_ms"] / 1e3),
    }


def spread(values):
    """Interquartile distance as a share of the median (statistics.quantiles,
    exclusive method, as the acceptance check computes it)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / mid if mid else float("inf")
