"""The storage-node daemon: one process, one node's blocks.

A daemon is deliberately dumb — the HDFS-datanode half of the service.
It holds a dict of committed blocks, answers block I/O RPCs, streams
heartbeats at the coordinator, and executes whatever repair assignment
the coordinator hands it (:mod:`repro.store.repair`).  All policy —
placement, failure detection, repair planning — lives in the
coordinator; a daemon never decides anything, so killing one (the whole
point of the service) loses exactly one node's worth of bytes and no
brain.

Runs in-process for tests (:class:`StorageDaemon`) or as a subprocess
(``python -m repro.store.daemon``) for the real multi-process harness.
"""

from __future__ import annotations

import argparse
import asyncio
import functools

import numpy as np

from ..live.shaper import TokenBucket
from ..live.transport import cancel_and_wait
from ..telemetry import (
    CLOCK_WALL, StatsRegistry, StreamingRecorder, TelemetryRecorder, TraceContext,
)
from .heartbeat import DEFAULT_INTERVAL, HeartbeatSender
from .messages import (
    Exists, NotFound, Request, RpcServer, StoreError, close_idle_connections, dispatch, error_kind,
)
from .repair import NodeAssignment, RepairSession, block_crc

__all__ = ["StorageDaemon", "main"]

#: Generous ceiling for one repair session (the coordinator passes the
#: real deadline per repair; this guards a coordinator that forgot).
DEFAULT_REPAIR_TIMEOUT = 60.0


def _failure(exc: BaseException) -> dict:
    """One stripe's failure in a ``repair.exec`` reply; as the RPC server
    answers a failed request, a type that names no kind keeps its name."""
    message = str(exc) if isinstance(exc, StoreError) else repr(exc)
    return {"error": message, "kind": error_kind(exc)}


def _as_block(blob) -> np.ndarray:
    """An inbound blob as a read-only uint8 array over the frame's own bytes.

    ``read_frame`` hands each frame its own fresh buffer, so the stored
    block can keep it: no copy.  Stored blocks are read-only by contract
    (repairs and degraded reads combine into fresh arenas).
    """
    arr = np.frombuffer(blob, dtype=np.uint8)
    arr.flags.writeable = False
    return arr


class StorageDaemon:
    """One storage node: block store + RPC server + heartbeats."""

    def __init__(
        self,
        node_id: int,
        coordinator: tuple[str, int] | None = None,
        *,
        host: str = "127.0.0.1",
        heartbeat_interval: float = DEFAULT_INTERVAL,
        recorder: TelemetryRecorder | None = None,
        link_rate: float | None = None,
        repair_share: float = 0.5,
    ) -> None:
        self.node_id = node_id
        self.coordinator = coordinator
        self.host = host
        self.heartbeat_interval = heartbeat_interval
        self.port: int | None = None
        self.blocks: dict[str, np.ndarray] = {}
        # `is not None`, not `or`: an explicit (falsy) NULL_RECORDER
        # means "telemetry off", not "pick a default".
        self.rec = recorder if recorder is not None else TelemetryRecorder(
            CLOCK_WALL, meta={"component": "daemon", "node": node_id}
        )
        if recorder is None:
            # Own recorder: anchor t=0 now so cross-process assembly can
            # align this daemon's spans (meta["origin_unix"]).
            self.rec.set_origin(self.rec.raw_now())
        #: Live metrics for the ``stats`` RPC — always on, bounded
        #: memory, independent of whether span telemetry is enabled.
        self.stats = StatsRegistry(f"node-{node_id}")
        #: QoS split of this node's NIC (docs/QOS.md): foreground block
        #: I/O and repair traffic draw from separate guaranteed shares of
        #: one work-conserving bucket.  ``link_rate=None`` leaves the
        #: daemon unshaped (the pre-QoS behaviour).
        self.link: TokenBucket | None = None
        if link_rate is not None:
            if not 0.0 < repair_share < 1.0:
                raise ValueError(
                    f"repair_share must be in (0, 1), got {repair_share}"
                )
            self.link = TokenBucket(
                link_rate,
                weights={"foreground": 1.0 - repair_share, "repair": repair_share},
                recorder=self.rec,
                label=f"nic:{node_id}",
            )
        self._rpc = RpcServer(functools.partial(dispatch, self, {"node": node_id}))
        self._hb: HeartbeatSender | None = None
        self._hb_task: asyncio.Task | None = None
        self._sessions: dict[str, RepairSession] = {}
        #: repair payloads that arrived before their repair.exec did.
        self._early: dict[str, list[tuple[str, np.ndarray]]] = {}
        self._stopping = asyncio.Event()

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> int:
        """Bind (port 0 — the kernel picks), start beating; returns the port."""
        self.port = await self._rpc.start(self.host)
        if self.coordinator is not None:
            # The first beat doubles as registration and carries the port
            # actually bound — never a configured guess.
            self._hb = HeartbeatSender(
                self.node_id,
                self.coordinator,
                port=self.port,
                host=self.host,
                interval=self.heartbeat_interval,
            )
            self._hb_task = asyncio.ensure_future(
                self._hb.run(
                    lambda: {
                        "blocks": len(self.blocks),
                        "repairs_inflight": len(self._sessions),
                    }
                )
            )
        return self.port

    async def run_until_shutdown(self) -> None:
        await self._stopping.wait()

    async def aclose(self) -> None:
        if self._hb_task is not None:
            # cancel_and_wait, not cancel+await: a cancel absorbed by the
            # beat RPC's cleanup (the connection's close) would leave the
            # task looping and this await parked forever.
            await cancel_and_wait(self._hb_task)
            self._hb_task = None
        # Inbound connections die with the daemon — their peers see the
        # connection drop, like a killed process.
        await self._rpc.aclose()

    # -- RPC handlers (served by messages.dispatch) --------------------------

    async def _rpc_ping(self, request: Request):
        return {"node_id": self.node_id, "blocks": len(self.blocks)}, None

    async def _rpc_block_put(self, request: Request):
        """Store the request's blob under ``key``; replies ``{key, nbytes}``.

        No CRC: the client claims its own in ``put.commit``, and the
        coordinator checks those against ``block.stat``, which hashes
        the bytes at rest.
        """
        key = request.body["key"]
        payload = _as_block(request.blob)
        if self.link is not None:
            await self.link.acquire(int(payload.nbytes), "foreground")
        self.blocks[key] = payload
        self.rec.count("daemon.block_put_bytes", payload.nbytes)
        self.stats.count("block_put_bytes", int(payload.nbytes))
        return {"key": key, "nbytes": int(payload.nbytes)}, None

    async def _rpc_block_get(self, request: Request):
        key = request.body["key"]
        payload = self.blocks.get(key)
        if payload is None:
            raise NotFound(f"daemon {self.node_id}: no block {key!r}")
        if self.link is not None:
            await self.link.acquire(int(payload.nbytes), "foreground")
        self.rec.count("daemon.block_get_bytes", payload.nbytes)
        self.stats.count("block_get_bytes", int(payload.nbytes))
        return {"key": key, "nbytes": int(payload.nbytes)}, payload.data

    async def _rpc_block_delete(self, request: Request):
        dropped = sum(self.blocks.pop(key, None) is not None
                      for key in request.body["keys"])
        return {"dropped": int(dropped)}, None

    async def _rpc_block_stat(self, request: Request):
        found = {}
        for key in request.body["keys"]:
            payload = self.blocks.get(key)
            if payload is not None:
                found[key] = {
                    "nbytes": int(payload.nbytes),
                    "crc": block_crc(payload),
                }
        return {"found": found}, None

    async def _rpc_repair_block(self, request: Request):
        rid, key = request.body["rid"], request.body["key"]
        payload = _as_block(request.blob)
        session = self._sessions.get(rid)
        if session is not None:
            session.deliver(key, payload)
        else:
            # A fast peer beat our repair.exec here; park the payload and
            # replay it once the assignment arrives.
            self._early.setdefault(rid, []).append((key, payload))
        return {"rid": rid, "key": key}, None

    async def _rpc_repair_exec(self, request: Request):
        """Run this daemon's part of every stripe of one repair window.

        The body carries ``repairs`` (one ``{rid, assignment, tc}`` per
        stripe this daemon helps with, ``tc`` the stripe's trace hop),
        the window's ``routing``, ``block_size`` and ``timeout``.  The
        sessions run concurrently, and the reply maps each rid to its
        session report or to ``{error, kind}``: one stripe's failure
        never fails another's.
        """
        body = request.body
        results: dict[str, dict] = {}
        sessions: list[RepairSession] = []
        # Every session is registered before any runs, so a repair.block
        # for any stripe of the window finds its session from here on.
        for item in body["repairs"]:
            try:
                sessions.append(self._open_session(item, body))
            except StoreError as exc:
                results[item["rid"]] = _failure(exc)
        timeout = float(body.get("timeout", DEFAULT_REPAIR_TIMEOUT))
        reports = await asyncio.gather(*(self._run_session(s, timeout) for s in sessions))
        results.update((session.rid, report) for session, report in zip(sessions, reports))
        return {"node": self.node_id, "results": results}, None

    def _open_session(self, item: dict, body: dict) -> RepairSession:
        rid = item["rid"]
        if rid in self._sessions:
            raise Exists(f"daemon {self.node_id}: repair {rid!r} already running")
        session = RepairSession(
            rid,
            NodeAssignment.from_dict(item["assignment"]),
            body["routing"],
            block_size=int(body["block_size"]),
            recorder=self.rec,
            throttle=(functools.partial(self.link.acquire, cls="repair")
                      if self.link is not None else None),
            ctx=TraceContext.from_wire(item.get("tc")),
        )
        self._sessions[rid] = session
        for key, payload in self._early.pop(rid, []):
            session.deliver(key, payload)
        return session

    async def _run_session(self, session: RepairSession, timeout: float) -> dict:
        """One stripe's session to its report, or to ``{error, kind}``: a
        failure of any type stays this stripe's (``internal`` when the
        type names no kind)."""
        start = self.rec.raw_now()
        try:
            report = await session.run(self.blocks, timeout=timeout)
        except Exception as exc:  # noqa: BLE001 - typed into the reply
            return _failure(exc)
        finally:
            self._sessions.pop(session.rid, None)
        self.stats.count("repairs_done")
        self.rec.span(
            f"repair:{session.rid}:{self.node_id}", start, self.rec.raw_now(),
            category="repair", rid=session.rid, node=self.node_id,
            ops=len(session.reports), committed=len(session.committed),
            **(session.ctx.attrs() if session.ctx is not None else {}),
        )
        return report

    async def _rpc_stats(self, request: Request):
        """Live metrics snapshot: the scrape side of ``rpr store stats``."""
        snap = self.stats.snapshot()
        snap["role"] = "daemon"
        snap["node_id"] = self.node_id
        snap["blocks"] = len(self.blocks)
        snap["repairs_inflight"] = len(self._sessions)
        snap["gauges"]["blocks"] = float(len(self.blocks))
        snap["gauges"]["repairs_inflight"] = float(len(self._sessions))
        snap["gauges"]["open_connections"] = float(self._rpc.open_connections)
        snap["counters"]["connections_accepted"] = float(self._rpc.accepted)
        if self.link is not None:
            uptime = max(self.stats.uptime_s, 1e-9)
            total = 0.0
            for cls, nbytes in self.link.sent.items():
                total += nbytes
                snap["counters"][f"nic_bytes:{cls}"] = nbytes
                snap["gauges"][f"nic_util:{cls}"] = nbytes / (
                    uptime * self.link.rate * self.link.shares[cls]
                )
            snap["gauges"]["nic_rate_Bps"] = self.link.rate
            snap["gauges"]["nic_util"] = total / (uptime * self.link.rate)
        return snap, None

    async def _rpc_shutdown(self, request: Request):
        self._stopping.set()
        return {"node_id": self.node_id}, None


async def _amain(args: argparse.Namespace) -> None:
    host, port = args.coordinator.rsplit(":", 1)
    recorder = None
    if args.telemetry:
        # Streaming, not dump-at-exit: every span hits disk as it
        # finishes, so a SIGKILLed daemon's telemetry survives the kill.
        recorder = StreamingRecorder(
            args.telemetry,
            CLOCK_WALL,
            meta={"component": "daemon", "node": f"node-{args.node_id}"},
        )
        recorder.set_origin(recorder.raw_now())
    daemon = StorageDaemon(
        args.node_id,
        (host, int(port)),
        heartbeat_interval=args.heartbeat_interval,
        link_rate=args.link_rate,
        repair_share=args.repair_share,
        recorder=recorder,
    )
    await daemon.start()
    try:
        await daemon.run_until_shutdown()
    finally:
        await daemon.aclose()
        await close_idle_connections()
        if recorder is not None:
            recorder.close()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.store.daemon",
        description="One storage-node daemon of the repro object store.",
    )
    parser.add_argument("--node-id", type=int, required=True)
    parser.add_argument(
        "--coordinator", required=True, metavar="HOST:PORT",
        help="coordinator RPC address to register with (via heartbeats)",
    )
    parser.add_argument("--heartbeat-interval", type=float, default=DEFAULT_INTERVAL)
    parser.add_argument(
        "--link-rate", type=float, default=None, metavar="BYTES_PER_S",
        help="shape this node's NIC to BYTES_PER_S with a QoS split "
             "(default: unshaped)",
    )
    parser.add_argument(
        "--repair-share", type=float, default=0.5,
        help="fraction of --link-rate guaranteed to repair traffic; the "
             "rest is the foreground floor (work-conserving both ways)",
    )
    parser.add_argument(
        "--telemetry", default=None,
        help="stream this daemon's telemetry JSONL here (appended and "
             "flushed per span, so a killed daemon keeps its data)",
    )
    args = parser.parse_args(argv)
    asyncio.run(_amain(args))
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    raise SystemExit(main())
