"""Discrete-event network/compute simulator.

Substitutes the paper's Simics + wondershaper testbed: per-node full-duplex
ports, per-class link bandwidths, one-at-a-time port occupancy, and
dependency-driven job starts.  See DESIGN.md ("Simulator semantics").

The package is the engine, its fault injection and its telemetry
emitter — nothing that *looks at* a run lives here:

* :mod:`repro.sim.engine` runs a :class:`JobGraph` into a
  :class:`SimResult`.
* :mod:`repro.sim.faults`: a seeded :class:`FaultPlan` (node deaths,
  stragglers, transfer losses) passed to :meth:`SimulationEngine.run`
  yields a deterministic degraded schedule plus a :class:`FaultReport`
  on the result (see ``docs/FAULTS.md``).
* :func:`telemetry_from_sim` (:mod:`repro.sim.emitter`) re-emits a
  finished :class:`SimResult` as a :class:`~repro.telemetry.TelemetryTrace`;
  every view of the run — utilization timelines, critical path, switch
  profiles, Gantt, exports, the sim↔live diff — is derived from that
  trace in :mod:`repro.telemetry` (see ``docs/OBSERVABILITY.md``).
"""

from .emitter import telemetry_from_sim
from .engine import JobTiming, SimResult, SimulationEngine
from .events import EventKind, TraceEvent
from .faults import (
    FaultPlan,
    FaultReport,
    NodeDeath,
    Straggler,
    TransferLoss,
    random_fault_plan,
)
from .jobs import ComputeJob, JobGraph, JobGraphError, TransferJob

__all__ = [
    "ComputeJob",
    "EventKind",
    "FaultPlan",
    "FaultReport",
    "JobGraph",
    "JobGraphError",
    "JobTiming",
    "NodeDeath",
    "SimResult",
    "SimulationEngine",
    "Straggler",
    "TraceEvent",
    "TransferJob",
    "TransferLoss",
    "random_fault_plan",
    "telemetry_from_sim",
]
