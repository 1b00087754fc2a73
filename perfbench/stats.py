"""Percentiles and the tail rule used by the benchmark's latency metrics."""

from __future__ import annotations

import math

# Candidate tail percentiles, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)
MIN_BEYOND = 10


def percentile(values, p: float) -> float:
    """Linear-interpolated percentile (numpy's default method)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no samples")
    pos = (len(xs) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def _beyond(n: int, p: float) -> int:
    """Samples of n above percentile p (rounded so that 0.1% of 10000 is 10)."""
    return int(math.floor(n * (100.0 - p) / 100.0 + 1e-9))


def tail_percentile(n: int):
    """Highest ladder percentile with at least MIN_BEYOND of n samples above it.

    Returns None when even the lowest rung leaves fewer than MIN_BEYOND
    samples beyond it.
    """
    for p in TAIL_LADDER:
        if _beyond(n, p) >= MIN_BEYOND:
            return p
    return None


def tail(values) -> dict:
    """{"p": percentile or 50 when too few samples, "value", "beyond", "n"}.

    With too few samples for any ladder rung the median stands in, and
    "p" says so.
    """
    n = len(values)
    p = tail_percentile(n)
    p_used = 50.0 if p is None else p
    return {
        "p": p_used,
        "value": percentile(values, p_used),
        "beyond": _beyond(n, p_used),
        "n": n,
    }

