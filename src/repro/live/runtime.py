"""The live plan runner: real bytes, real concurrency, measured time.

:func:`run_plan_live` runs a :class:`repro.repair.RepairPlan` as one
:class:`~repro.live.node.NodeExecutor` per node in one process, wired
over memory or TCP streams, and adds only what is its own: one
:class:`_PortRegistry` for all nodes (the engine's port contract,
granted in the engine's order), a paced stream per sent op
(:func:`_stream_channel`), the receiving side, and the ledger and
timings built from the parts' reports.  Pipelining is emergent: nothing
here schedules overlap, it falls out of disjoint ports, shaped links and
socket backpressure — the same mechanism the paper's testbed relied on.
"""

from __future__ import annotations

import asyncio
from collections import deque
from contextlib import asynccontextmanager
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from ..cluster import BandwidthModel, Cluster
from ..metrics import TrafficLedger, ledger_from_reports
from ..repair.executor import collect_outputs
from ..repair.plan import CombineOp, RepairPlan
from ..telemetry.model import TelemetryRecorder, TelemetryTrace
from .node import NodeExecutor, split_by_owner
from .shaper import LinkShaper
from .transport import MemoryTransport, Stream, TcpTransport, open_transport, run_tasks
from .wire import ACK, read_ack, read_frame, send_frame

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


@asynccontextmanager
async def _stream_channel(transport, shaper: LinkShaper, src: int, dst: int, *,
                          recorder: TelemetryRecorder | None):
    """One sent op's way to its destination: one paced stream.

    Every part sleeps the link latency, then travels as one framed
    transfer through the link's token bucket and waits for the
    receiver's ack.  The slices of one send share a connection and the
    bucket's idle credit is dropped once, before the first, so the
    debt-based bucket absorbs per-slice overhead the way it absorbs
    per-chunk overhead.
    """
    latency, bucket = shaper.latency(src, dst), shaper.bucket(src, dst)
    clock = asyncio.get_running_loop().time
    stream: Stream | None = None

    async def send(op_id: str, key: str, payload: np.ndarray, ctx):
        nonlocal stream
        if stream is None and bucket is not None:
            bucket.reset()
        start = clock()
        if latency > 0:
            await asyncio.sleep(latency)
        t_lat = clock()
        if stream is None:
            stream = await transport.connect(src, dst)
        t_conn = clock()
        # The frame is chunked as memoryview slices of the payload itself —
        # no tobytes() staging copy.
        await send_frame(
            stream,
            {"op": op_id, "key": key},
            payload.data,
            bucket=bucket,
            recorder=recorder,
        )
        t_sent = clock()
        # A vanished or wedged receiver surfaces as WireError (the run's
        # outer timeout is the only other backstop).
        await read_ack(stream)
        end = clock()
        if recorder is not None and t_sent > t_conn:
            recorder.gauge(
                f"throughput.n{src}->n{dst}", payload.nbytes / (t_sent - t_conn), at=end
            )
        return [
            ("send.latency", start, t_lat),
            ("send.connect", t_lat, t_conn),
            ("send.stream", t_conn, t_sent),
            ("send.ack_wait", t_sent, end),
        ]

    try:
        yield send
    finally:
        if stream is not None:
            await stream.aclose()


async def _receive(executor: NodeExecutor, stream: Stream) -> None:
    """Serve one inbound connection: deliver and ack each frame until the sender hangs up."""
    try:
        while True:
            header, payload = await read_frame(stream)
            # read_frame assembled the payload into one preallocated
            # bytearray; wrap it in place rather than copying to bytes.
            # Stored blocks are read-only by contract (combines write to
            # fresh arenas), so drop writability at the boundary.
            received = np.frombuffer(payload, dtype=np.uint8)
            received.flags.writeable = False
            executor.deliver(header["key"], received)
            await stream.write(ACK)
    except (ConnectionError, asyncio.IncompleteReadError):
        # The sender's stream is done (WireClosed), or the sender aborted
        # (its task failed or was cancelled) and reports the real error.
        pass
    finally:
        await stream.aclose()


async def run_plan_live(
    plan: RepairPlan,
    cluster: Cluster,
    store: dict[int, dict[str, np.ndarray]],
    *,
    bandwidth: BandwidthModel | None = None,
    transport: str | MemoryTransport | TcpTransport = "memory",
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

    The store is mutated in place, exactly like the byte executor's.  A
    missing payload raises the byte executor's own
    :class:`~repro.repair.ExecutionError` (full missing-key set + op
    index); a plan with a cross-node dependency that delivers no input,
    :class:`~repro.repair.PlanError` (:func:`~repro.live.node.split_by_owner`).
    """
    live_transport = (
        open_transport(transport) if isinstance(transport, str) else transport
    )
    rec = recorder if recorder else None
    shaper = LinkShaper(cluster, bandwidth, recorder=rec)
    owned = split_by_owner(plan)
    arrivals: dict[int, set[str]] = {}
    for part in plan.all_parts():
        if part.writes[0] != part.owner:
            arrivals.setdefault(part.writes[0], set()).add(part.writes[1])
    ports = _PortRegistry()
    connect = partial(_stream_channel, live_transport, shaper, recorder=rec)
    executors = {
        node: NodeExecutor(
            plan, node, owned.get(node, []), payloads=store.setdefault(node, {}),
            arrivals=arrivals.get(node, ()), connect=connect,
            ports=ports, recorder=rec,
        )
        for node in owned.keys() | arrivals.keys()
    }
    await live_transport.start(
        cluster.node_ids(),
        lambda node, stream: _receive(executors[node], stream),
    )
    try:
        t0 = asyncio.get_running_loop().time()
        if rec is not None:
            rec.set_origin(t0)
        # Tasks start in plan order across nodes: a port released to
        # several queued claims goes to the earliest, as the engine breaks
        # ready-time ties by insertion order.
        tasks = {
            oid: asyncio.ensure_future(executors[op.owner].run_parts(oid))
            for oid, op in plan.ops.items()
        }
        stuck = await run_tasks(tasks, timeout)
        if stuck:
            raise LiveTimeoutError(f"live run exceeded {timeout}s; unfinished ops: {stuck}")
    finally:
        await live_transport.aclose()

    reports = [report for executor in executors.values() for report in executor.reports]
    timings = {
        r["op_id"]: LiveOpTiming(op_id=r["op_id"], start=r["start"] - t0, end=r["end"] - t0)
        for r in reports
    }
    result = LiveResult(
        recovered=collect_outputs(plan, store),
        makespan=max((t.end for t in timings.values()), default=0.0),
        timings=timings,
        transport=getattr(live_transport, "name", "?"),
        shaped=shaper.shaped,
        ledger=ledger_from_reports(cluster, reports),
        combine_count=sum(r["kind"] == CombineOp.kind for r in reports),
    )
    if rec is not None:
        ledger = result.ledger
        rec.count("bytes.cross_rack", float(ledger.cross_rack_bytes))
        rec.count("bytes.intra_rack", float(ledger.intra_rack_bytes))
        rec.count("ops.sends", float(ledger.sends))
        rec.count("ops.combines", float(result.combine_count))
        result.telemetry = rec.trace()
    return result


def run_plan_live_sync(*args, **kwargs) -> LiveResult:
    """Blocking wrapper: ``asyncio.run`` around :func:`run_plan_live`."""
    return asyncio.run(run_plan_live(*args, **kwargs))
