"""Summary statistics for benchmark samples.

Timings are reported as a median plus the highest percentile that has at
least ``MIN_TAIL`` samples beyond it, with the sample count. Percentiles
use the nearest-rank rule and are held in per-mille so the rank is exact
integer arithmetic.
"""

from __future__ import annotations

import statistics

MIN_TAIL = 10
# Candidate percentiles in per-mille: p50, p90, p95, p99, p99.9.
PERMILLE = (500, 900, 950, 990, 999)


def median(values):
    return statistics.median(values) if values else None


def _rank(permille: int, n: int) -> int:
    """1-based nearest rank of the percentile among n sorted samples."""
    return max(1, -(-permille * n // 1000))


def tail_allowed(permille: int, n: int) -> bool:
    """True when at least MIN_TAIL of n samples lie beyond the percentile."""
    return n > 0 and n - _rank(permille, n) >= MIN_TAIL


def percentile(values, permille: int):
    """Nearest-rank percentile, or None when the tail rule forbids it."""
    if not tail_allowed(permille, len(values)):
        return None
    return sorted(values)[_rank(permille, len(values)) - 1]


def highest_percentile(n: int):
    """The highest candidate percentile (per-mille) that n samples
    support, or None when even the median has fewer than MIN_TAIL
    samples beyond it."""
    allowed = [p for p in PERMILLE if tail_allowed(p, n)]
    return allowed[-1] if allowed else None


def describe(values, unit: str) -> str:
    """'<median> <unit>, n=<count>[, p<q> <value>]' for a summary line."""
    text = f"median {median(values):.6g} {unit}, n={len(values)}"
    top = highest_percentile(len(values))
    if top is None:
        return text + f", no percentile has {MIN_TAIL} samples beyond it"
    return text + f", p{top / 10:g} {percentile(values, top):.6g} {unit}"
