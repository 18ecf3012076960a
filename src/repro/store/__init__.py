"""The multi-process object store service.

Everything before this package runs repair plans in one process — the
byte executor, the discrete-event simulator, even the "live" asyncio
runtime all share a single interpreter, which is exactly how
wire/runtime bugs (EOF mid-frame, token-bucket corruption on dropped
connections, assumed ports) stayed hidden.  This package runs the same
plans across real process boundaries:

* :mod:`~repro.store.coordinator` — metadata, heartbeat failure
  detection, repair orchestration (the namenode).
* :mod:`~repro.store.daemon` — one process per storage node holding
  real block bytes (the datanodes).
* :mod:`~repro.store.client` — PUT/GET/DELETE with client-side
  encoding; data flows client↔daemon, never through the coordinator.
* :mod:`~repro.store.repair` — plan partitioning + daemon-side
  data-driven execution; repair bytes flow daemon→daemon.
* :mod:`~repro.store.launcher` — plain-subprocess harness behind
  ``rpr store up/down/status/kill``.
* :mod:`~repro.store.local` — the same parties as tasks on one event
  loop (:class:`LocalService`): the one in-process cluster that tests,
  the QoS replay and the perf harness bring up.

See ``docs/LIVE.md`` ("Store service") for the architecture tour and
``examples/store_kill_demo.py`` for the headline PUT → SIGKILL →
automatic repair → byte-identical GET walk-through.
"""

from .client import StoreClient, SyncStoreClient
from .coordinator import Coordinator, SCHEMES
from .daemon import StorageDaemon
from .heartbeat import DEFAULT_INTERVAL, PROBE_AFTER, FailureDetector, HeartbeatSender, NodeEntry
from .launcher import LauncherError, StoreLauncher
from .local import LocalService
from .messages import (
    KINDS,
    PROTOCOL_VERSION,
    Corrupt,
    Exists,
    NotFound,
    Request,
    RpcServer,
    StoreError,
    StoreProtocolError,
    Unavailable,
    Unrecoverable,
    call,
    close_idle_connections,
    read_request,
    send_response,
    serve_connection,
)
from .repair import (
    NodeAssignment,
    RepairSession,
    ledger_from_reports,
    partition_plan,
    plan_from_dict,
    plan_seed_blocks,
    plan_to_dict,
    stored_block_key,
)

__all__ = [
    "Coordinator",
    "Corrupt",
    "DEFAULT_INTERVAL",
    "Exists",
    "KINDS",
    "FailureDetector",
    "HeartbeatSender",
    "LauncherError",
    "LocalService",
    "NodeAssignment",
    "NodeEntry",
    "NotFound",
    "PROBE_AFTER",
    "PROTOCOL_VERSION",
    "RepairSession",
    "Request",
    "RpcServer",
    "SCHEMES",
    "StorageDaemon",
    "StoreClient",
    "StoreError",
    "StoreLauncher",
    "StoreProtocolError",
    "SyncStoreClient",
    "Unavailable",
    "Unrecoverable",
    "call",
    "close_idle_connections",
    "ledger_from_reports",
    "partition_plan",
    "plan_from_dict",
    "plan_seed_blocks",
    "plan_to_dict",
    "read_request",
    "send_response",
    "serve_connection",
    "stored_block_key",
]
