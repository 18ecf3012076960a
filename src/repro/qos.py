"""repro.qos — the foreground traffic plane: replay a user workload
against a live store while nodes die.

Everything up to here measures repair in a vacuum: a node dies, a plan
runs, the makespan is the verdict.  Real clusters repair *while serving
users*, and the operative question becomes a trade-off — how much does
repair throughput cost in foreground tail latency, and how much tail
latency does throttling repair buy?  This module asks it against the
live store service (:mod:`repro.store`):

* **Workload driver** — preload a working set, replay a seeded Zipfian
  GET/PUT trace (:func:`repro.workloads.zipf_object_trace`, closed- or
  open-loop) through :class:`repro.store.StoreClient`, SIGKILL-equivalent
  daemons mid-run, and record one latency sample per request plus the
  repair window the status poller observed, with p50/p99/p999 summaries
  per phase.  Everything is wall-clock honest — real sockets, real GF
  arithmetic — but runs in one process (:class:`repro.store.LocalService`)
  so a full curve fits in a CI job.
* **The two service classes** are the daemons' own: each shaped daemon
  splits its NIC between ``foreground`` block I/O and ``repair`` traffic
  (a classed :class:`repro.live.TokenBucket`, ``repair_share`` of the
  link guaranteed to repair); *which* repair goes first is an ordering
  decision of the coordinator (most-at-risk stripe first), not a third
  bandwidth class.
* **Degraded reads** live in the store client itself
  (:meth:`repro.store.StoreClient.get` with ``degraded=True``); the
  driver exercises them whenever a GET lands in the repair window.

:func:`kill_mid_trace_replay` is the whole scenario as one call: ``rpr
qos`` runs one replay of it, and the perf harness's ``qos_suite`` and
``benchmarks/bench_qos_tradeoff.py`` (the curve gated in CI) run points
of the latency-vs-repair trade-off, :func:`tradeoff_replay`.  See
``docs/QOS.md``.
"""

from __future__ import annotations

import asyncio
import random
from dataclasses import dataclass, field

from .store import LocalService, StoreClient, StoreError, Unavailable
from .telemetry import LogHistogram
from .workloads import RequestEvent, zipf_object_trace
from .workloads.traces import OBJECT_PREFIX

__all__ = [
    "ReplayReport",
    "RequestSample",
    "TRADEOFF",
    "kill_mid_trace_replay",
    "object_payload",
    "percentiles",
    "preload_working_set",
    "replay_trace",
    "tradeoff_replay",
]


def percentiles(values) -> dict:
    """Nearest-rank latency summary: count/mean/p50/p90/p99/p999/max.

    Empty input yields ``count: 0`` with ``None`` stats, so callers can
    always serialise the result without special-casing.
    """
    data = sorted(values)
    if not data:
        return {
            "count": 0, "mean": None, "p50": None, "p90": None,
            "p99": None, "p999": None, "max": None,
        }

    def rank(q: float) -> float:
        return data[min(len(data) - 1, max(0, int(q * len(data) + 0.5) - 1))]

    return {
        "count": len(data),
        "mean": sum(data) / len(data),
        "p50": rank(0.50),
        "p90": rank(0.90),
        "p99": rank(0.99),
        "p999": rank(0.999),
        "max": data[-1],
    }


@dataclass(frozen=True)
class RequestSample:
    """One replayed request's outcome."""

    op: str
    obj: str
    start: float  #: seconds since replay start
    end: float
    latency: float
    ok: bool
    degraded: bool  #: a GET that reconstructed at least one block
    error: str = ""
    #: The service *refused* the op (e.g. a PUT whose placement would
    #: land on a dead node during the degraded window) — unavailability,
    #: not a data-path failure; reported separately from errors.
    rejected: bool = False


@dataclass
class ReplayReport:
    """Everything one replay run measured."""

    samples: list[RequestSample] = field(default_factory=list)
    duration: float = 0.0
    #: (first moment the service reported degraded/repairing, moment it
    #: reported healthy again) — seconds since replay start; ``None``
    #: when no repair was ever observed / it never finished in-run.
    repair_window: tuple[float, float | None] | None = None

    def phase_of(self, sample: RequestSample) -> str:
        """``pre`` / ``repair`` / ``post`` by the sample's start time."""
        if self.repair_window is None or sample.start < self.repair_window[0]:
            return "pre"
        end = self.repair_window[1]
        if end is not None and sample.start >= end:
            return "post"
        return "repair"

    def latencies(self, op: str | None = None, phase: str | None = None):
        return [
            s.latency
            for s in self.samples
            if s.ok
            and (op is None or s.op == op)
            and (phase is None or self.phase_of(s) == phase)
        ]

    @property
    def errors(self) -> list[RequestSample]:
        return [s for s in self.samples if not s.ok and not s.rejected]

    @property
    def rejections(self) -> list[RequestSample]:
        return [s for s in self.samples if s.rejected]

    @property
    def degraded_gets(self) -> int:
        return sum(1 for s in self.samples if s.ok and s.degraded)

    def summary(self, op: str | None = None, phase: str | None = None) -> dict:
        return percentiles(self.latencies(op, phase))

    def latency_histogram(
        self, op: str | None = None, phase: str | None = None
    ) -> LogHistogram:
        """Ok-latencies as a log-bucketed histogram — the same geometric
        bucket scheme the store's ``stats`` RPC serves, so a replay's
        per-phase distributions merge/compare directly with live scrapes."""
        hist = LogHistogram()
        for value in self.latencies(op, phase):
            hist.observe(value)
        return hist

    def to_dict(self) -> dict:
        return {
            "duration": self.duration,
            "requests": len(self.samples),
            "errors": len(self.errors),
            "rejected": len(self.rejections),
            "degraded_gets": self.degraded_gets,
            "repair_window": (
                list(self.repair_window) if self.repair_window else None
            ),
            "all": self.summary(),
            "get": self.summary(op="get"),
            "put": self.summary(op="put"),
            "get_repair_phase": self.summary(op="get", phase="repair"),
            "get_pre_phase": self.summary(op="get", phase="pre"),
            "latency_histograms": {
                f"{op}:{phase}": hist.to_dict()
                for op in ("get", "put")
                for phase in ("pre", "repair", "post")
                if (hist := self.latency_histogram(op, phase)).count
            },
        }


def object_payload(name: str, nbytes: int, seed: int = 0) -> bytes:
    """Deterministic per-object payload, so any GET can be verified."""
    return random.Random(f"{seed}:{name}").randbytes(nbytes)


async def preload_working_set(
    client: StoreClient,
    num_objects: int,
    object_bytes: int,
    *,
    seed: int = 0,
) -> dict[str, bytes]:
    """PUT the trace's GET targets; returns name → bytes for verification."""
    expected: dict[str, bytes] = {}
    for rank in range(num_objects):
        name = f"{OBJECT_PREFIX}-{rank}"
        payload = object_payload(name, object_bytes, seed)
        await client.put(name, payload)
        expected[name] = payload
    return expected


async def _phase_tracker(client, t0, window, stop):
    """Record when the service enters and leaves its repair window,
    polling its status every 50 ms."""
    loop = asyncio.get_event_loop()
    while not stop.is_set():
        try:
            status = await client.status()
        except (StoreError, ConnectionError, OSError):
            status = None
        if status is not None:
            busy = bool(status["degraded"] or status["repairing"])
            now = loop.time() - t0
            if busy:
                if window[0] is None:
                    window[0] = now
                window[1] = None  # still (or again) repairing
            elif window[0] is not None and window[1] is None:
                window[1] = now
        try:
            async with asyncio.timeout(0.05):
                await stop.wait()
        except TimeoutError:
            pass


async def replay_trace(
    client: StoreClient,
    events: list[RequestEvent],
    *,
    mode: str = "closed",
    concurrency: int = 4,
    time_scale: float = 1.0,
    degraded: bool = True,
    object_bytes: int = 8192,
    seed: int = 0,
    expected: dict[str, bytes] | None = None,
    kills: list[tuple[float, int]] | None = None,
    kill_fn=None,
) -> ReplayReport:
    """Replay ``events`` against a live store; returns per-request samples.

    Parameters
    ----------
    mode:
        ``"closed"`` — ``concurrency`` workers drain the trace in order,
        each issuing its next request the moment the last returns (the
        load adapts to service speed, like a fixed client fleet).
        ``"open"`` — every request fires at its trace time scaled by
        ``time_scale``, regardless of how slow the store is (the honest
        way to measure tail latency under a fixed offered load).
    degraded:
        GETs use the degraded-read path, so a request landing in the
        repair window reconstructs instead of failing.
    expected:
        Name → bytes (from :func:`preload_working_set`); GETs of known
        objects are verified and a mismatch counts as an error.
    kills / kill_fn:
        ``[(seconds_since_start, node_id), ...]`` — at each time,
        ``await kill_fn(node_id)`` (e.g. ``LocalService.kill``) murders
        a daemon mid-replay.
    """
    if mode not in ("closed", "open"):
        raise ValueError(f"unknown replay mode {mode!r}")
    if kills and kill_fn is None:
        raise ValueError("kills given without a kill_fn")
    loop = asyncio.get_event_loop()
    t0 = loop.time()
    samples: list[RequestSample] = []
    stop = asyncio.Event()
    window: list[float | None] = [None, None]
    tracker = asyncio.ensure_future(
        _phase_tracker(client, t0, window, stop)
    )

    async def killer(at: float, node_id: int) -> None:
        await asyncio.sleep(max(0.0, at - (loop.time() - t0)))
        await kill_fn(node_id)

    killers = [
        asyncio.ensure_future(killer(at, node_id))
        for at, node_id in (kills or [])
    ]

    async def run_one(ev: RequestEvent) -> None:
        start = loop.time() - t0
        ok, was_degraded, error, rejected = True, False, "", False
        try:
            if ev.op == "get":
                if degraded:
                    data, report = await client.get_with_report(
                        ev.obj, degraded=True
                    )
                    was_degraded = report["degraded"]
                else:
                    data = await client.get(ev.obj)
                if expected is not None and ev.obj in expected:
                    if data != expected[ev.obj]:
                        ok, error = False, "bytes differ from written payload"
            elif ev.op == "put":
                await client.put(
                    ev.obj, object_payload(ev.obj, object_bytes, seed)
                )
            else:
                raise ValueError(f"unknown trace op {ev.op!r}")
        except (StoreError, ConnectionError, OSError) as exc:
            ok, error = False, f"{type(exc).__name__}: {exc}"
            # PUTs have no degraded path: a grant can race the failure
            # detector and route a block at a daemon that just died, and
            # the store never re-grants placements.  That whole family
            # is write unavailability, not a data-path failure.  GETs
            # are held to the hard standard — they must always succeed.
            rejected = ev.op == "put" and isinstance(exc, (Unavailable, OSError))
        end = loop.time() - t0
        samples.append(
            RequestSample(
                op=ev.op, obj=ev.obj, start=start, end=end,
                latency=end - start, ok=ok, degraded=was_degraded,
                error=error, rejected=rejected,
            )
        )

    try:
        if mode == "closed":
            queue: asyncio.Queue = asyncio.Queue()
            for ev in events:
                queue.put_nowait(ev)

            async def worker() -> None:
                while True:
                    try:
                        ev = queue.get_nowait()
                    except asyncio.QueueEmpty:
                        return
                    await run_one(ev)

            await asyncio.gather(*(worker() for _ in range(concurrency)))
        else:

            async def fire(ev: RequestEvent) -> None:
                await asyncio.sleep(
                    max(0.0, ev.time * time_scale - (loop.time() - t0))
                )
                await run_one(ev)

            await asyncio.gather(*(fire(ev) for ev in events))
        if killers:
            await asyncio.gather(*killers)
    finally:
        stop.set()
        for task in killers:
            task.cancel()
        await asyncio.gather(tracker, *killers, return_exceptions=True)

    samples.sort(key=lambda s: s.start)
    report = ReplayReport(samples=samples, duration=loop.time() - t0)
    if window[0] is not None:
        report.repair_window = (window[0], window[1])
    return report


def kill_mid_trace_replay(
    *,
    objects: int,
    requests: int,
    object_bytes: int,
    kill_at: float | None,
    seed: int = 0,
    rate: float = 100.0,
    zipf_s: float = 1.0,
    get_fraction: float = 0.9,
    mode: str = "closed",
    concurrency: int = 4,
    time_scale: float = 1.0,
    wait_repaired: bool = False,
    **service,
) -> tuple[ReplayReport, dict]:
    """The QoS scenario start to finish: serve a trace while a daemon dies.

    Brings up a :class:`LocalService` (``**service`` are its keywords),
    preloads ``objects`` objects of ``object_bytes``, replays a seeded
    Zipfian trace of ``requests`` requests (``rate`` / ``zipf_s`` /
    ``get_fraction`` shape it, ``mode`` / ``concurrency`` /
    ``time_scale`` say how it is replayed) with every GET verified, and
    ``kill_at`` seconds in kills the daemon holding block 0 of stripe 0
    — the Zipf head's stripe, so later GETs keep hitting the hole
    (``None``: nobody dies).  ``wait_repaired`` then blocks until the
    service is healthy again with at least one repair done.

    Returns ``(replay report, the service's final status reply)``.
    Blocking: runs its own event loop.
    """

    async def run() -> tuple[ReplayReport, dict]:
        async with LocalService(**service) as svc:
            expected = await preload_working_set(
                svc.client, objects, object_bytes, seed=seed
            )
            events = zipf_object_trace(
                objects, requests, rate=rate, zipf_s=zipf_s,
                get_fraction=get_fraction, seed=seed,
            )
            victim = svc.coordinator.stripes[0].placement.node_of(0)
            report = await replay_trace(
                svc.client,
                events,
                mode=mode,
                concurrency=concurrency,
                time_scale=time_scale,
                expected=expected,
                kills=[] if kill_at is None else [(kill_at, victim)],
                kill_fn=svc.kill,
                object_bytes=object_bytes,
                seed=seed,
            )
            if wait_repaired:
                await svc.client.wait_healthy(timeout=60.0, min_repairs=1)
            return report, await svc.client.status()

    return asyncio.run(run())


#: The trade-off curve's fixed arguments to :func:`kill_mid_trace_replay`:
#: RS(3,2) with 16 KiB blocks and three-block objects, a seeded 95 %-GET
#: trace on eight workers, the stripe-0 holder killed 0.25 s in, and a
#: detector quick enough (0.1 s beats, 0.45 s silence) that repair starts
#: inside the trace.
TRADEOFF = dict(
    object_bytes=3 * 16 * 1024, kill_at=0.25, seed=42, get_fraction=0.95, concurrency=8,
    block_size=16 * 1024, suspect_after=0.45, sweep_interval=0.05, heartbeat=0.1,
)


def tradeoff_replay(
    link_rate: float | None,
    repair_share: float,
    *,
    objects: int,
    requests: int,
    wait_repaired: bool = False,
) -> tuple[ReplayReport, dict]:
    """One point of the trade-off curve: :data:`TRADEOFF` replayed with
    the daemons' NICs at ``link_rate`` (``None``: unshaped), of which
    ``repair_share`` is guaranteed to repair."""
    return kill_mid_trace_replay(
        objects=objects, requests=requests, wait_repaired=wait_repaired,
        link_rate=link_rate, repair_share=repair_share, **TRADEOFF,
    )
