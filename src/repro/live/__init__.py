"""repro.live — an asyncio testbed runtime for repair plans.

The simulator (:mod:`repro.sim`) replaces the paper's Simics +
wondershaper testbed with a scheduled clock.  This package walks the
step back toward a real system: it executes any :class:`repro.repair.RepairPlan`
on *real bytes over real concurrency* — every cluster node becomes an
asyncio endpoint holding its payload store, sends travel as framed
transfers over localhost TCP (or in-process streams for CI), combines
run as GF(2^8) kernels at the receiver, and a wondershaper-style
token-bucket shaper (:class:`~repro.live.shaper.LinkShaper`) enforces the
scenario's :class:`~repro.cluster.BandwidthModel` rates and latencies.
Pipelining is not scheduled here; it *emerges* from port exclusivity and
socket backpressure, exactly as it did on the paper's testbed.

Layers:

* :mod:`repro.live.shaper` — the one token bucket: one class per
  directed link here, a foreground/repair split on each store daemon's
  NIC.
* :mod:`repro.live.transport` — byte-stream transports: in-process
  memory streams (CI-safe) and localhost TCP servers.
* :mod:`repro.live.wire` — the framed wire protocol (header + chunked
  payload + ack).
* :mod:`repro.live.node` — the per-node executor (the store's daemons
  run it too, behind RPC): a task per op, parts run as inputs arrive.
* :mod:`repro.live.runtime` — the in-process runner: an executor per
  node, port exclusivity, shaped streams, measured timings.
* :mod:`repro.live.validate` — cross-validation against
  :class:`repro.sim.SimulationEngine`: byte-identical recovery plus
  measured-vs-predicted makespan per scheme, and
  :func:`~repro.live.validate.audit_store_repairs` to re-check the
  multi-process store service's (:mod:`repro.store`) repair ledgers.

See ``docs/LIVE.md`` for the full specification and ``rpr live`` for the
CLI entry point.
"""

from .node import NodeExecutor, split_by_owner
from .runtime import (
    LiveError,
    LiveOpTiming,
    LiveResult,
    LiveTimeoutError,
    run_plan_live,
    run_plan_live_sync,
)
from .shaper import LinkShaper, TokenBucket
from .transport import (
    MemoryTransport,
    TcpTransport,
    cancel_and_wait,
    connect_tcp,
    open_transport,
    serve_tcp,
)
from .wire import WireClosed, WireError, read_ack, read_frame, send_frame
from .validate import (
    DEFAULT_LIVE_BANDWIDTH,
    LiveSchemeReport,
    LiveValidationReport,
    StoreRepairAudit,
    audit_store_repairs,
    live_context,
    live_environment,
    run_live_validation,
)

__all__ = [
    "DEFAULT_LIVE_BANDWIDTH",
    "LinkShaper",
    "LiveError",
    "LiveOpTiming",
    "LiveResult",
    "LiveSchemeReport",
    "LiveTimeoutError",
    "LiveValidationReport",
    "MemoryTransport",
    "NodeExecutor",
    "StoreRepairAudit",
    "TcpTransport",
    "TokenBucket",
    "WireClosed",
    "WireError",
    "audit_store_repairs",
    "cancel_and_wait",
    "connect_tcp",
    "live_context",
    "live_environment",
    "open_transport",
    "read_ack",
    "read_frame",
    "run_live_validation",
    "run_plan_live",
    "run_plan_live_sync",
    "send_frame",
    "serve_tcp",
    "split_by_owner",
]
