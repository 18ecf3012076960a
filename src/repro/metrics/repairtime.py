"""Repair-time metrics and the reduction arithmetic the paper reports."""

from __future__ import annotations

from dataclasses import dataclass

from ..telemetry import TelemetryTrace

__all__ = ["percent_reduction", "TimeBreakdown"]


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


@dataclass(frozen=True)
class TimeBreakdown:
    """Where a repair's time went.

    ``transfer_busy`` / ``compute_busy`` are summed job durations (they
    can exceed the makespan when jobs overlap — that overlap is the
    pipeline working).
    """

    makespan: float
    transfer_busy: float
    compute_busy: float

    @classmethod
    def from_telemetry(cls, trace: TelemetryTrace) -> "TimeBreakdown":
        """Op-span durations summed by kind (any clock)."""
        busy = {"transfer": 0.0, "compute": 0.0}
        for span in trace.op_spans().values():
            busy[span.attrs["kind"]] += span.duration
        return cls(
            makespan=trace.extent,
            transfer_busy=busy["transfer"],
            compute_busy=busy["compute"],
        )

    @property
    def parallelism(self) -> float:
        """Busy time over makespan — >1 means work genuinely overlapped."""
        if self.makespan == 0:
            return 0.0
        return (self.transfer_busy + self.compute_busy) / self.makespan
