"""Utilization and critical-path metrics over run views.

Rollups of :class:`repro.telemetry.RunTrace` into the scalar quantities the
benchmarks annotate figures with: how busy the cluster's ports were, who
the bottleneck resource was, how idle each rack sat (the paper's Fig. 5
schedule-1 complaint), and where the makespan went along the critical
path.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..telemetry import RunTrace

__all__ = ["UtilizationSummary"]


@dataclass(frozen=True)
class UtilizationSummary:
    """Scalar utilization rollup of one run (simulated or measured).

    Attributes
    ----------
    makespan:
        The run's total time.
    mean_port_utilization / peak_port_utilization:
        Busy fraction across all *active* ports (up + down; a port that
        never carried a transfer does not appear in the trace and is not
        averaged in).
    peak_resource:
        Label of the single busiest resource of any kind — the bottleneck
        candidate.
    rack_upload_idle:
        Per participating rack, the fraction of the run its upload ports
        were all silent (union-of-intervals accounting).
    """

    makespan: float
    mean_port_utilization: float
    peak_port_utilization: float
    peak_resource: str
    rack_upload_idle: dict[int, float]

    @property
    def mean_rack_upload_idle(self) -> float:
        """Mean idle fraction across participating racks (Fig. 5's number)."""
        if not self.rack_upload_idle:
            return 0.0
        values = self.rack_upload_idle.values()
        return sum(values) / len(values)

    @classmethod
    def from_trace(cls, trace: RunTrace) -> "UtilizationSummary":
        ports = [r for r in trace.resources if r.kind in ("up", "down")]
        if not ports or trace.makespan <= 0:
            return cls(
                makespan=trace.makespan,
                mean_port_utilization=0.0,
                peak_port_utilization=0.0,
                peak_resource="",
                rack_upload_idle={},
            )
        utils = [p.utilization(trace.makespan) for p in ports]
        return cls(
            makespan=trace.makespan,
            mean_port_utilization=sum(utils) / len(utils),
            peak_port_utilization=max(utils),
            peak_resource=trace.busiest().label,
            rack_upload_idle=trace.rack_idle_fraction("up"),
        )
