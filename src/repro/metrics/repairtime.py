"""The repair-time reduction arithmetic the paper reports."""

from __future__ import annotations

__all__ = ["percent_reduction"]


def percent_reduction(baseline: float, improved: float) -> float:
    """``100 * (baseline - improved) / baseline`` — the paper's headline
    "reduces the total repair time by X %" metric.

    Raises
    ------
    ValueError
        If ``baseline`` is not positive.
    """
    if baseline <= 0:
        raise ValueError("baseline must be positive")
    return 100.0 * (baseline - improved) / baseline
