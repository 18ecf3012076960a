"""Sample statistics the benchmark reports: medians, quartiles, tails.

Every timed phase is split into rounds and a metric is the *median over
rounds*, so one slow round (a neighbour on this shared 2-core box) does
not move the number; the quartiles and the sample count ride along in
the detail JSON so a reader can see how wide the rounds were.
"""

from __future__ import annotations

import math
import statistics


def quartiles(values) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them.

    The driver judges run-to-run spread with the same function, so the
    in-run spread printed beside a metric is directly comparable.  One
    sample is its own quartiles.
    """
    data = [float(v) for v in values]
    if not data:
        raise ValueError("no samples")
    if len(data) == 1:
        return data[0], data[0], data[0]
    q1, q2, q3 = statistics.quantiles(data, n=4)
    return q1, q2, q3


def summarize(values) -> dict:
    """Median with quartiles, relative spread, sample count and the samples."""
    values = [float(v) for v in values]
    q1, med, q3 = quartiles(values)
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / med if med else 0.0,
        "n": len(values),
        "values": values,
    }


def tail_percentile(count: int, *, beyond: int = 10) -> float | None:
    """The highest of p90/p99/p99.9/p99.99 with >= ``beyond`` samples past it.

    ``None`` when even p90 is not supported (fewer than 100 samples with
    the default): a percentile with a handful of samples beyond it is
    one slow request, not a tail.
    """
    best = None
    for q in (0.90, 0.99, 0.999, 0.9999):
        if count * (1.0 - q) >= beyond - 1e-9:
            best = q
    return best


def tail(values, *, beyond: int = 10) -> tuple[float, float]:
    """``(percentile, value)`` at :func:`tail_percentile`; falls back to
    the median (percentile 0.5) when the sample cannot support a tail."""
    data = sorted(float(v) for v in values)
    if not data:
        raise ValueError("no samples")
    q = tail_percentile(len(data), beyond=beyond)
    if q is None:
        return 0.5, statistics.median(data)
    # Nearest rank: at least `beyond` samples lie strictly past this one.
    index = math.ceil(round(len(data) * q, 6)) - 1
    return q, data[index]
