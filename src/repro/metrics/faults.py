"""Rollups over degraded-repair outcomes (fault-injection sweeps).

Aggregates the :class:`repro.repair.RepairOutcome` objects of faulted
repairs — and the ``None`` placeholders a sweep records for
irrecoverable scenarios — into the quantities
``benchmarks/bench_degraded_repair.py`` and the ``rpr faults`` CLI
report: degraded makespans, retried/wasted work, re-plan rates, and how
often a scheme reused already-delivered intermediates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from ..repair import RepairOutcome

__all__ = ["FaultRollup"]


@dataclass(frozen=True)
class FaultRollup:
    """Summary of one scheme's behaviour across a faulted sweep.

    Attributes
    ----------
    scenarios / completed / irrecoverable:
        How many faulted repairs ran, finished, and gave up
        (``completed + irrecoverable == scenarios``).
    mean_attempts / max_attempts:
        Re-planning pressure over the completed repairs.
    mean_makespan / max_makespan:
        Degraded repair time over the completed repairs (seconds).
    retry_count / retried_bytes / wasted_bytes:
        Total lost-transfer retries and wire work that did not contribute
        to any final repair.
    reuse_count:
        Completed repairs whose final plan consumed at least one
        intermediate delivered by an earlier, failed attempt.
    """

    scenarios: int
    completed: int
    irrecoverable: int
    mean_attempts: float
    max_attempts: int
    mean_makespan: float
    max_makespan: float
    retry_count: int
    retried_bytes: float
    wasted_bytes: float
    reuse_count: int

    @classmethod
    def from_outcomes(
        cls, outcomes: Iterable["RepairOutcome | None"]
    ) -> "FaultRollup":
        """Aggregate a sweep; ``None`` entries count as irrecoverable."""
        all_outcomes = list(outcomes)
        done = [o for o in all_outcomes if o is not None]
        attempts = [o.attempts for o in done]
        times = [o.total_repair_time for o in done]
        return cls(
            scenarios=len(all_outcomes),
            completed=len(done),
            irrecoverable=len(all_outcomes) - len(done),
            mean_attempts=sum(attempts) / len(attempts) if attempts else 0.0,
            max_attempts=max(attempts, default=0),
            mean_makespan=sum(times) / len(times) if times else 0.0,
            max_makespan=max(times, default=0.0),
            retry_count=sum(o.retry_count for o in done),
            retried_bytes=sum(o.retried_bytes for o in done),
            wasted_bytes=sum(o.wasted_bytes for o in done),
            reuse_count=sum(1 for o in done if o.reused_payloads),
        )

    def to_dict(self) -> dict:
        return {
            "scenarios": self.scenarios,
            "completed": self.completed,
            "irrecoverable": self.irrecoverable,
            "mean_attempts": self.mean_attempts,
            "max_attempts": self.max_attempts,
            "mean_makespan": self.mean_makespan,
            "max_makespan": self.max_makespan,
            "retry_count": self.retry_count,
            "retried_bytes": self.retried_bytes,
            "wasted_bytes": self.wasted_bytes,
            "reuse_count": self.reuse_count,
        }
