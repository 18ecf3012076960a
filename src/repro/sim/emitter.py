"""The engine's telemetry emitter: a ``SimResult`` as a ``TelemetryTrace``.

:func:`telemetry_from_sim` is the only code outside ``sim/engine.py``
that interprets ``SimResult.events``.  Everything that *looks at* a
simulated run — the utilization view, the critical path, the Gantt, the
sim↔live diff, the exporters — is a function of the trace it returns
(:mod:`repro.telemetry`), the same model the live runtime and the store
record into, so no view is simulator-only.  Emission is derived: it
never changes what the engine computes.
"""

from __future__ import annotations

from ..cluster import Cluster
from ..telemetry.model import (
    ABORTED_CATEGORY,
    CLOCK_SIM,
    OP_CATEGORY,
    Span,
    TelemetryEvent,
    TelemetryTrace,
)
from .engine import SimResult
from .events import EventKind

__all__ = ["telemetry_from_sim"]

_ENDS = (EventKind.TRANSFER_END, EventKind.COMPUTE_END)
_ABORTS = (EventKind.TRANSFER_ABORT, EventKind.COMPUTE_ABORT)
_TRANSFERS = (EventKind.TRANSFER_END, EventKind.TRANSFER_ABORT)


def telemetry_from_sim(
    result: SimResult,
    cluster: Cluster | None = None,
    *,
    meta: dict | None = None,
    offset: float = 0.0,
    attempt: int | None = None,
) -> TelemetryTrace:
    """Re-emit a ``SimResult`` in the unified telemetry span schema.

    Every completed job becomes an op span (category ``"op"`` — the
    identity the sim↔live diff joins on) carrying ``kind`` / ``node`` /
    ``peer`` / ``nbytes`` / ``cross_rack`` and the ``deps`` it declared;
    every job killed mid-flight becomes an ``"aborted"``-category span
    ending at the abort instant plus a ``fault.abort`` event (a job
    refused at start — an endpoint was already dead, no timing — is a
    ``fault.failed`` event only), a completion always winning over an
    abort of the same id (a lost transfer's final successful attempt
    supersedes its loss markers).  The run's
    :class:`~repro.sim.faults.FaultReport` ledger lands as events
    (deaths, aborts, losses) and counters (``fault.*``, ``bytes.*``), so
    a faulted schedule and its fault accounting live in one exportable
    trace.  The clock is :data:`~repro.telemetry.CLOCK_SIM`.

    ``offset`` shifts every timestamp (used to stitch the attempts of a
    degraded repair onto one timeline); ``attempt`` tags the trace's
    meta and every span for the same purpose.
    """
    run_meta = {"source": "sim"}
    if attempt is not None:
        run_meta["attempt"] = attempt
    if meta:
        run_meta.update(meta)
    trace = TelemetryTrace(clock=CLOCK_SIM, meta=run_meta)

    # job id -> (the event describing it, whether it was aborted)
    described: dict[str, tuple] = {}
    for event in result.events:
        if event.kind in _ENDS:
            described[event.job_id] = (event, False)
            continue
        if event.kind in _ABORTS:
            started = event.job_id in result.timings
            if started:
                described.setdefault(event.job_id, (event, True))
            name = "fault.abort" if started else "fault.failed"
        elif event.kind == EventKind.TRANSFER_LOST:
            name = "fault.loss"
        elif event.kind == EventKind.NODE_DEATH:
            name = "fault.death"
        else:
            continue
        on_job = event.kind != EventKind.NODE_DEATH
        trace.events.append(
            TelemetryEvent(
                name=name,
                time=event.time,
                category="fault",
                op_id=event.job_id if on_job else "",
                attrs=(
                    {"node": event.node, "nbytes": event.nbytes}
                    if on_job
                    else {"node": event.node}
                ),
            )
        )

    for jid, timing in result.timings.items():
        if jid not in described:
            continue
        event, aborted = described[jid]
        attrs = {
            "kind": "transfer" if event.kind in _TRANSFERS else "compute",
            "node": event.node,
            "cross_rack": event.cross_rack,
            "nbytes": event.nbytes,
        }
        if event.peer >= 0:
            attrs["peer"] = event.peer
        if cluster is not None:
            attrs["rack"] = cluster.rack_of(event.node)
        if attempt is not None:
            attrs["attempt"] = attempt
        job = result.jobs.get(jid)
        if job is not None:
            attrs["deps"] = list(job.deps)
        trace.spans.append(
            Span(
                name=jid,
                start=timing.start,
                end=timing.end,
                category=ABORTED_CATEGORY if aborted else OP_CATEGORY,
                op_id=jid,
                attrs=attrs,
            )
        )

    trace.counters["bytes.cross_rack"] = result.cross_rack_bytes()
    trace.counters["bytes.intra_rack"] = result.intra_rack_bytes()
    report = result.faults
    if report is not None:
        trace.counters["fault.deaths"] = float(len(report.dead_nodes))
        trace.counters["fault.aborts"] = float(len(report.aborted))
        trace.counters["fault.failed"] = float(len(report.failed))
        trace.counters["fault.skipped"] = float(len(report.skipped))
        trace.counters["fault.losses"] = float(sum(report.lost.values()))
        trace.counters["fault.retried_bytes"] = float(report.retried_bytes)
        trace.counters["fault.aborted_bytes"] = float(report.aborted_bytes)
        if report.skipped:
            trace.meta["skipped_ops"] = sorted(report.skipped)
    if offset:
        return trace.shifted(offset)
    return trace
