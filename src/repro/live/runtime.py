"""The live plan executor: real bytes, real concurrency, measured time.

Every op of a :class:`repro.repair.RepairPlan` becomes one asyncio task
that runs at the op's *owner* node and works through the op's
:meth:`~repro.repair.RepairPlan.parts` in order — the op itself, or its
slices — waiting for each part's dependencies and producing its payload
with :func:`repro.repair.run_op`, the same op step the byte executor
takes, on this runtime's clock and transport:

* A part whose result lands on another node (a send) claims the owner's
  upload port and the destination's download port (the engine's
  port-exclusivity contract, held for the whole transfer), sleeps the
  link latency, then streams the payload as a framed transfer through
  the link's token bucket and waits for the receiver's ack.  The slices
  of one send are one paced stream: they share a connection and the
  bucket's idle credit is dropped once, before the first, so the
  debt-based bucket absorbs per-slice overhead the way it absorbs
  per-chunk overhead; ports are still claimed slice by slice, as the
  simulator's jobs claim them, and granted in the engine's order (a
  released port goes to whoever queued for it first, never straight back
  to the task that released it).
* A part whose result stays put (a combine) claims the node's CPU slot
  and computes on the received bytes — combines happen *at the
  receiver*, like ECPipe's agents, not in a central reducer.

Dependency completion is the control plane (one ``asyncio.Event`` per
part, held by the in-process coordinator — the moral equivalent of the
testbed's command distributor); payload bytes are the data plane and
only ever move through the transport.  Pipelining is emergent: nothing
here schedules overlap, it falls out of disjoint ports, shaped links and
socket backpressure — the same mechanism the paper's testbed relied on.

Missing payloads abort the run with the byte executor's own
:class:`~repro.repair.executor.ExecutionError` (full missing-key set +
op index), so a live failure is diagnosable without replaying it.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from contextlib import asynccontextmanager
from dataclasses import dataclass, field

import numpy as np

from ..cluster import BandwidthModel, Cluster
from ..gf import GFTables, get_tables
from ..metrics import TrafficLedger
from ..repair.executor import collect_outputs, run_op
from ..repair.plan import RepairPlan
from ..telemetry.model import OP_CATEGORY, TelemetryRecorder, TelemetryTrace
from .shaper import LinkShaper
from .transport import MemoryTransport, Stream, TcpTransport, open_transport, run_tasks
from .wire import ACK, DEFAULT_CHUNK, WireClosed, read_ack, read_frame, send_frame

__all__ = [
    "LiveError",
    "LiveTimeoutError",
    "LiveOpTiming",
    "LiveResult",
    "run_plan_live",
    "run_plan_live_sync",
]


class LiveError(RuntimeError):
    """Raised when the live runtime fails for non-plan reasons."""


class LiveTimeoutError(LiveError):
    """The run exceeded its wall-clock budget (likely a hang/deadlock)."""


@dataclass(frozen=True)
class LiveOpTiming:
    """Measured start/end of one executed part (an op, or one slice of a
    sliced op — the simulator's job ids), seconds since run start."""

    op_id: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class LiveResult:
    """Outcome of one live plan execution.

    Carries the same :class:`~repro.metrics.TrafficLedger` and combine
    count as :class:`repro.repair.ExecutionResult` (they must be ``==`` —
    tests pin it) and adds measured wall-clock timings, the live
    counterpart of :class:`repro.sim.SimResult`.

    ``telemetry`` carries the run's wall-clock
    :class:`~repro.telemetry.TelemetryTrace` — per-op spans with nested
    wait/transfer phases, pacing stalls, per-link throughput samples —
    when the run was given a recorder; ``None`` otherwise.
    """

    recovered: dict[int, np.ndarray]
    makespan: float
    timings: dict[str, LiveOpTiming]
    transport: str
    shaped: bool
    ledger: TrafficLedger = field(default_factory=TrafficLedger)
    combine_count: int = 0
    telemetry: TelemetryTrace | None = None

    def to_dict(self) -> dict:
        """JSON-serializable summary (payload bytes omitted)."""
        return {
            "recovered_blocks": sorted(self.recovered),
            "makespan_s": self.makespan,
            "transport": self.transport,
            "shaped": self.shaped,
            "combine_count": self.combine_count,
            **self.ledger.to_dict(),
            "timings": [
                {"op_id": t.op_id, "start": t.start, "end": t.end}
                for t in self.timings.values()
            ],
            "telemetry": (
                self.telemetry.to_dict() if self.telemetry is not None else None
            ),
        }


class _PortRegistry:
    """Atomic multi-resource claims, granted in the engine's order.

    A claim takes *every* requested resource at once — no hold-and-wait,
    hence no deadlock — as a :class:`repro.sim.SimulationEngine` job
    starts only when all of its resources are simultaneously free.  A
    claim that cannot start queues; a release hands the freed resources
    to the queued claims in the order they queued, granting each whose
    resources are now all free before any task runs again.  So a task
    that releases its ports and claims them straight back for its next
    slice queues behind whoever was already waiting, exactly as the
    engine starts the waiter with the smaller (ready-time,
    insertion-order) key.  After every release no queued claim could
    start, so a new claim whose resources are free takes them at once,
    as a newly ready job does in the engine.
    """

    def __init__(self) -> None:
        self._busy: set[tuple[str, int]] = set()
        self._queue: deque[tuple[frozenset, asyncio.Future]] = deque()

    @asynccontextmanager
    async def hold(self, *keys: tuple[str, int]):
        wanted = frozenset(keys)
        if self._busy & wanted:
            granted = asyncio.get_running_loop().create_future()
            self._queue.append((wanted, granted))
            try:
                await granted
            except asyncio.CancelledError:
                # Cancelled while queued, the next release drops the claim;
                # granted and then cancelled before it ran, it gives back.
                if not granted.cancelled():
                    self._release(wanted)
                raise
        else:
            self._busy |= wanted
        try:
            yield
        finally:
            self._release(wanted)

    def _release(self, keys: frozenset) -> None:
        self._busy -= keys
        waiting = self._queue
        self._queue = deque()
        for wanted, granted in waiting:
            if granted.cancelled():
                continue
            if self._busy & wanted:
                self._queue.append((wanted, granted))
            else:
                self._busy |= wanted
                granted.set_result(None)


class _LiveRun:
    """One plan execution: nodes, shaper, transport, op tasks."""

    def __init__(
        self,
        plan: RepairPlan,
        cluster: Cluster,
        store: dict[int, dict[str, np.ndarray]],
        *,
        shaper: LinkShaper,
        transport,
        tables: GFTables,
        chunk_size: int,
        recorder: TelemetryRecorder | None = None,
    ) -> None:
        plan.validate()
        self.plan = plan
        self.cluster = cluster
        self.store = store
        self.shaper = shaper
        self.transport = transport
        self.tables = tables
        self.chunk_size = chunk_size
        # A falsy recorder (NULL_RECORDER) collapses to None here, so
        # every emission site below is a single identity check when
        # telemetry is off.
        self.rec = recorder if recorder else None
        self.ports = _PortRegistry()
        self.parts = plan.parts()
        self.events = {
            part.op_id: asyncio.Event() for parts in self.parts.values() for part in parts
        }
        self.result = LiveResult(
            recovered={},
            makespan=0.0,
            timings={},
            transport=getattr(transport, "name", "?"),
            shaped=shaper.shaped,
        )
        self._t0 = 0.0

    # -- server side -------------------------------------------------------

    async def handle_connection(self, node_id: int, stream: Stream) -> None:
        """Receive framed transfers until the sender hangs up; store and ack each."""
        try:
            while True:
                try:
                    header, payload = await read_frame(stream, chunk_size=self.chunk_size)
                except WireClosed:
                    break  # the sender's stream is done
                # read_frame assembled the payload into one preallocated
                # bytearray; wrap it in place rather than copying to bytes.
                # Stored blocks are read-only by contract (combines write to
                # fresh arenas), so drop writability at the boundary.
                received = np.frombuffer(payload, dtype=np.uint8)
                received.flags.writeable = False
                self.store.setdefault(node_id, {})[header["key"]] = received
                await stream.write(ACK)
        except asyncio.CancelledError:  # teardown
            raise
        except (ConnectionError, asyncio.IncompleteReadError):
            # The sender aborted (its task failed or was cancelled); the
            # sender side reports the real error.
            pass
        finally:
            await stream.aclose()

    # -- op tasks ----------------------------------------------------------

    async def _await_deps(self, deps) -> None:
        for dep in deps:
            await self.events[dep].wait()

    def _record(self, oid: str, start: float, end: float) -> None:
        self.result.timings[oid] = LiveOpTiming(
            op_id=oid, start=start - self._t0, end=end - self._t0
        )
        self.events[oid].set()

    async def _ship(self, op) -> None:
        """An op whose result lands on another node: stream its parts there."""
        rec = self.rec
        src = op.owner
        dst = op.writes[0]
        latency = self.shaper.latency(src, dst)
        bucket = self.shaper.bucket(src, dst)
        cross_rack = not self.cluster.same_rack(src, dst)
        stream = None
        try:
            for part in self.parts[op.op_id]:
                oid, key = part.op_id, part.writes[1]
                t_spawn = time.monotonic() if rec is not None else 0.0
                await self._await_deps(part.deps)
                payload = np.ascontiguousarray(
                    run_op(self.plan, part, self.store.get(src, {}), self.tables)
                )
                nbytes = int(payload.nbytes)
                t_deps = time.monotonic() if rec is not None else 0.0
                async with self.ports.hold(("up", src), ("down", dst)):
                    t_ports = time.monotonic() if rec is not None else 0.0
                    if stream is None and bucket is not None:
                        bucket.reset()
                    start = time.monotonic()
                    if latency > 0:
                        await asyncio.sleep(latency)
                    t_lat = time.monotonic() if rec is not None else 0.0
                    if stream is None:
                        stream = await self.transport.connect(src, dst)
                    t_conn = time.monotonic() if rec is not None else 0.0
                    t_sent = t_conn
                    # The frame is chunked as memoryview slices of the stored
                    # array itself — no tobytes() staging copy of the payload.
                    await send_frame(
                        stream,
                        {"op": oid, "key": key},
                        payload.data,
                        bucket=bucket,
                        chunk_size=self.chunk_size,
                        recorder=rec,
                    )
                    if rec is not None:
                        t_sent = time.monotonic()
                    # A vanished or wedged receiver surfaces as WireError
                    # (the run's outer timeout is the only other backstop).
                    await read_ack(stream)
                    end = time.monotonic()
                self.result.ledger.add_send(self.cluster, src, dst, nbytes)
                self._record(oid, start, end)
                if rec is not None:
                    rec.span(
                        oid,
                        start,
                        end,
                        category=OP_CATEGORY,
                        op_id=oid,
                        **part.span_attrs,
                        cross_rack=cross_rack,
                        nbytes=nbytes,
                    )
                    rec.span("send.dep_wait", t_spawn, t_deps, op_id=oid, parent=oid)
                    rec.span("send.port_wait", t_deps, t_ports, op_id=oid, parent=oid)
                    rec.span("send.latency", start, t_lat, op_id=oid, parent=oid)
                    rec.span("send.connect", t_lat, t_conn, op_id=oid, parent=oid)
                    rec.span("send.stream", t_conn, t_sent, op_id=oid, parent=oid)
                    rec.span("send.ack_wait", t_sent, end, op_id=oid, parent=oid)
                    if t_sent > t_conn:
                        rec.gauge(
                            f"throughput.n{src}->n{dst}",
                            nbytes / (t_sent - t_conn),
                            at=end,
                        )
        finally:
            if stream is not None:
                await stream.aclose()

    async def _compute(self, op) -> None:
        """An op whose result stays on its node: produce its parts under the CPU slot."""
        rec = self.rec
        node = op.owner
        node_store = self.store.setdefault(node, {})
        for part in self.parts[op.op_id]:
            oid, key = part.op_id, part.writes[1]
            t_spawn = time.monotonic() if rec is not None else 0.0
            await self._await_deps(part.deps)
            t_deps = time.monotonic() if rec is not None else 0.0
            async with self.ports.hold(("cpu", node)):
                start = time.monotonic()
                # The GF kernel is a C-speed numpy pass over a (small, in the
                # validation harness) block; yield once around it so other
                # tasks are not starved at combine-heavy moments.
                await asyncio.sleep(0)
                node_store[key] = run_op(self.plan, part, node_store, self.tables)
                end = time.monotonic()
            self.result.combine_count += 1
            self._record(oid, start, end)
            if rec is not None:
                rec.span(oid, start, end, category=OP_CATEGORY, op_id=oid, **part.span_attrs)
                rec.span("combine.dep_wait", t_spawn, t_deps, op_id=oid, parent=oid)
                rec.span("combine.cpu_wait", t_deps, start, op_id=oid, parent=oid)

    # -- orchestration -----------------------------------------------------

    async def run(self, timeout: float | None) -> LiveResult:
        await self.transport.start(self.cluster.node_ids(), self.handle_connection)
        try:
            self._t0 = time.monotonic()
            if self.rec is not None:
                self.rec.set_origin(self._t0)
            tasks = {}
            for oid, op in self.plan.ops.items():
                runner = self._compute if op.writes[0] == op.owner else self._ship
                tasks[oid] = asyncio.ensure_future(runner(op))
            stuck = await run_tasks(tasks, timeout)
            if stuck:
                raise LiveTimeoutError(
                    f"live run exceeded {timeout}s; unfinished ops: {stuck}"
                )
        finally:
            await self.transport.aclose()

        self.result.recovered = collect_outputs(self.plan, self.store)
        self.result.makespan = max(
            (t.end for t in self.result.timings.values()), default=0.0
        )
        if self.rec is not None:
            ledger = self.result.ledger
            self.rec.count("bytes.cross_rack", float(ledger.cross_rack_bytes))
            self.rec.count("bytes.intra_rack", float(ledger.intra_rack_bytes))
            self.rec.count("ops.sends", float(ledger.sends))
            self.rec.count("ops.combines", float(self.result.combine_count))
            self.result.telemetry = self.rec.trace()
        return self.result


async def run_plan_live(
    plan: RepairPlan,
    cluster: Cluster,
    store: dict[int, dict[str, np.ndarray]],
    *,
    bandwidth: BandwidthModel | None = None,
    transport: str | MemoryTransport | TcpTransport = "memory",
    tables: GFTables | None = None,
    chunk_size: int = DEFAULT_CHUNK,
    timeout: float | None = 120.0,
    recorder: TelemetryRecorder | None = None,
) -> LiveResult:
    """Execute ``plan`` against ``store`` over the live runtime.

    Parameters
    ----------
    bandwidth:
        Shapes every link at the model's rate/latency; ``None`` runs
        unshaped (memory/loopback speed), the mode whose ledgers and
        recovered bytes must match :func:`repro.repair.execute_plan`.
    transport:
        ``"memory"`` (in-process streams), ``"tcp"`` (localhost
        sockets), or a pre-built transport instance.
    timeout:
        Hard wall-clock budget; a hang raises :class:`LiveTimeoutError`
        instead of stalling forever (CI jobs rely on this).
    recorder:
        Optional :class:`repro.telemetry.TelemetryRecorder` the run
        emits into — per-op spans with nested dep/port/latency/stream/
        ack phases, per-chunk write timings, token-bucket pacing stalls
        and per-link throughput samples; the finished trace lands on
        ``LiveResult.telemetry``.  ``None`` (or the falsy
        :data:`~repro.telemetry.NULL_RECORDER`) keeps the hot path
        uninstrumented.

    The store is mutated in place, exactly like the byte executor's.
    """
    live_transport = (
        open_transport(transport) if isinstance(transport, str) else transport
    )
    rec = recorder if recorder else None
    run = _LiveRun(
        plan,
        cluster,
        store,
        shaper=LinkShaper(cluster, bandwidth, recorder=rec),
        transport=live_transport,
        tables=tables or get_tables(),
        chunk_size=chunk_size,
        recorder=rec,
    )
    return await run.run(timeout)


def run_plan_live_sync(*args, **kwargs) -> LiveResult:
    """Blocking wrapper: ``asyncio.run`` around :func:`run_plan_live`."""
    return asyncio.run(run_plan_live(*args, **kwargs))
