"""The seven workloads: what runs, what is timed, what is checked.

Each workload is one closed loop with one client: the next request is
sent when the previous one returns.  A timed phase is split into rounds
and every metric is the median over rounds (see ``measure``).  Inputs
come from ``--seed`` only: payload bytes and the order objects are read
in.  Victims of the failure workloads are fixed by rule, so the number
of stripes a cycle repairs is the same for every seed.

An untraced measurement (``traced=False``) is one interpreter's share of
a run: it sets the cluster up once, measures, and hands back its rounds;
``run.py`` pools the rounds of several fresh interpreters.  A traced run
spends a third of its time on an untraced reference phase (same process,
fresh cluster), then measures with the span shims installed and
in-memory recorders everywhere; the ratio of the two is
``trace.overhead_ratio``.
"""

from __future__ import annotations

import asyncio
import contextlib
import resource
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from repro.live import DEFAULT_LIVE_BANDWIDTH, run_live_validation
from repro.store import StoreError

from fixture import NEVER, Cluster12, N
from measure import summarize, tail
from tracing import SpanTree, Tracer, union_length

KIB = 1024
MIB = 1 << 20

#: What a failed operation looks like from the client.
OP_ERRORS = (StoreError, ConnectionError, OSError)


@dataclass
class Outcome:
    """What one run of one workload produced."""

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    end_to_end: dict = field(default_factory=dict)
    per_layer: dict = field(default_factory=dict)
    detail: dict = field(default_factory=dict)
    #: How degraded reads rebuilt their block: "plan" or "decode".
    modes: Counter = field(default_factory=Counter)
    tracer: Tracer | None = None

    def fail(self, why: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(why)


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def round_metrics(rounds) -> dict:
    """End-to-end throughput and latency as medians over rounds of latencies."""
    rounds = [r for r in rounds if r]
    return {
        "throughput_per_s": summarize([len(r) / sum(r) for r in rounds]),
        "latency_p50_ms": summarize([1e3 * statistics.median(r) for r in rounds]),
    }


# -- object workloads ---------------------------------------------------------


@dataclass(frozen=True)
class ObjectWorkload:
    """A PUT, GET or degraded-GET loop at one block and object size."""

    op: str  # "put" | "get" | "degraded_get"
    block_size: int
    object_bytes: int
    ops_per_round: int
    #: GET targets written during set-up (for ``degraded_get``: how many
    #: objects must have a *data* block on the victim).
    preload: int = 0
    heartbeat: float = 0.5
    suspect_after: float = 30.0
    sweep_interval: float = 0.25

    @property
    def degraded(self) -> bool:
        return self.op == "degraded_get"


#: Victim of ``degraded_reads``; placement is deterministic, so the same
#: objects are degraded in every run.
DEGRADED_VICTIM = 1

OBJECT_WORKLOADS = {
    "small_put": ObjectWorkload("put", 4 * KIB, 24 * KIB, ops_per_round=40),
    "small_get": ObjectWorkload("get", 4 * KIB, 24 * KIB, ops_per_round=180, preload=60),
    "large_put": ObjectWorkload("put", MIB, 24 * MIB, ops_per_round=2),
    "large_get": ObjectWorkload("get", MIB, 24 * MIB, ops_per_round=6, preload=3),
    # Beats at 0.25 s against a 0.6 s threshold: when the benchmark sweeps
    # the detector by hand, only the killed daemon is overdue.  The
    # coordinator's own sweep never runs, so the hole is known but no
    # repair starts: a steady degraded state.
    "degraded_reads": ObjectWorkload(
        "degraded_get", 64 * KIB, 384 * KIB, ops_per_round=90, preload=30,
        heartbeat=0.25, suspect_after=0.6, sweep_interval=NEVER,
    ),
}


class ObjectSession:
    """One cluster plus the objects the benchmark knows are in it."""

    def __init__(self, spec: ObjectWorkload, rng: np.random.Generator, traced: bool) -> None:
        self.spec = spec
        self.rng = rng
        self.fx = Cluster12(
            spec.block_size, heartbeat=spec.heartbeat,
            suspect_after=spec.suspect_after, sweep_interval=spec.sweep_interval,
            traced=traced,
        )
        self.expected: dict[str, bytes] = {}
        self.targets: list[str] = []
        self._names = 0

    def next_name(self) -> str:
        self._names += 1
        return f"obj-{self._names:08d}"  # fixed width: message sizes repeat

    async def put_new(self) -> str:
        name = self.next_name()
        payload = self.rng.bytes(self.spec.object_bytes)
        await self.fx.client.put(name, payload)
        self.expected[name] = payload
        return name

    async def setup(self) -> None:
        spec, fx = self.spec, self.fx
        await fx.start()
        if spec.degraded:
            while len(self.targets) < spec.preload:
                name = await self.put_new()
                if self._data_block_on(name, DEGRADED_VICTIM):
                    self.targets.append(name)
                else:
                    del self.expected[name]  # stored, never read: no oracle copy
            await fx.kill(DEGRADED_VICTIM)
            await self._sweep_only_victim()
        else:
            self.targets = [await self.put_new() for _ in range(spec.preload)]
        # Warm-up: code paths, GF tables, allocator arenas at this size.
        outcome = Outcome()
        await self.round(outcome, None, ops=max(2, spec.ops_per_round // 2))
        if outcome.failed:
            raise RuntimeError(f"warm-up failed: {outcome.errors}")

    async def _sweep_only_victim(self) -> None:
        """Make the death *known* without starting a repair.

        The detector is swept by hand at an instant when the victim is
        overdue and every survivor has just beaten.  A stall of this
        process (a busy neighbour) can leave survivors' beats queued
        behind the sweep; sweeping then would declare them dead too.
        """
        detector = self.fx.coordinator.detector
        survivors = list(self.fx.daemons)
        deadline = time.monotonic() + 10.0
        while True:
            await asyncio.sleep(0.02)
            now = time.monotonic()
            overdue = now - detector.entry(DEGRADED_VICTIM).last_beat > detector.suspect_after
            fresh = all(
                now - detector.entry(n).last_beat < detector.suspect_after / 2 for n in survivors
            )
            if overdue and fresh:
                break
            if now > deadline:
                raise RuntimeError("survivors never all beat within half the suspicion window")
        dead = [entry.node_id for entry in detector.sweep()]
        if dead != [DEGRADED_VICTIM]:
            raise RuntimeError(f"sweep declared {dead} dead, expected only the victim")

    def _data_block_on(self, name: str, node: int) -> bool:
        coordinator = self.fx.coordinator
        return any(
            holder == node and bid < N
            for sid in coordinator.objects[name]["stripe_ids"]
            for bid, holder in coordinator.stripes[sid].placement.block_to_node.items()
        )

    async def _timed(self, tracer: Tracer | None, coro):
        with tracer.op(self.spec.op) if tracer else contextlib.nullcontext():
            start = time.perf_counter()
            result = await coro
            return result, time.perf_counter() - start

    async def round(self, outcome: Outcome, tracer: Tracer | None, ops: int | None = None,
                    scrape=None) -> list[float]:
        """One round; returns the latencies of the operations that succeeded.

        ``scrape`` (traced runs) is awaited right before and right after
        the timed operations, so stats deltas exclude the untimed oracle
        reads and deletes of a PUT round.
        """
        ops = ops or self.spec.ops_per_round
        if self.spec.op == "put":
            return await self._put_round(outcome, tracer, ops, scrape)
        return await self._get_round(outcome, tracer, ops, scrape)

    async def _put_round(self, outcome, tracer, ops, scrape) -> list[float]:
        client = self.fx.client
        batch = [(self.next_name(), self.rng.bytes(self.spec.object_bytes)) for _ in range(ops)]
        latencies = []
        written = []
        if scrape:
            await scrape()
        for name, payload in batch:
            outcome.attempted += 1
            try:
                _, seconds = await self._timed(tracer, client.put(name, payload))
            except OP_ERRORS as exc:
                outcome.fail(f"put {name}: {exc}")
                continue
            latencies.append(seconds)
            written.append((name, payload))
        if scrape:
            await scrape()
        # Untimed: the oracle (a PUT is right iff it reads back identical)
        # and the delete that keeps names unique and memory flat.
        for name, payload in written:
            try:
                if await client.get(name) != payload:
                    outcome.fail(f"put {name}: read back different bytes")
                await client.delete(name)
            except OP_ERRORS as exc:
                outcome.fail(f"put {name}: read-back failed: {exc}")
        return latencies

    async def _get_round(self, outcome, tracer, ops, scrape) -> list[float]:
        client = self.fx.client
        repeats = -(-ops // len(self.targets))
        order = [self.targets[i] for i in self.rng.permutation(len(self.targets) * repeats)
                 % len(self.targets)][:ops]
        latencies = []
        if scrape:
            await scrape()
        for name in order:
            outcome.attempted += 1
            try:
                if self.spec.degraded:
                    (data, report), seconds = await self._timed(
                        tracer, client.get_with_report(name, degraded=True)
                    )
                    outcome.modes.update(e["mode"] for e in report["reconstructed"])
                    if not report["degraded"]:
                        outcome.fail(f"get {name}: expected a degraded read")
                else:
                    data, seconds = await self._timed(tracer, client.get(name))
            except OP_ERRORS as exc:
                outcome.fail(f"get {name}: {exc}")
                continue
            if data != self.expected[name]:
                outcome.fail(f"get {name}: wrong bytes")
                continue
            latencies.append(seconds)
        if scrape:
            await scrape()
        return latencies

    async def rounds_for(self, seconds: float, outcome: Outcome, tracer=None, scrape=None):
        rounds = []
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline or len(rounds) < 3:
            rounds.append(await self.round(outcome, tracer, scrape=scrape))
        return rounds


class StatsDelta:
    """Sums what the ``stats`` RPC says daemons did between paired scrapes."""

    def __init__(self, client) -> None:
        self.client = client
        self._open: dict | None = None
        self.rpcs = 0.0
        self.counters: dict[str, float] = {}
        self.busy_s: dict[str, float] = {}

    async def scrape(self) -> None:
        snap = (await self.client.stats())["nodes"]
        if self._open is None:
            self._open = snap
            return
        before, self._open = self._open, None
        for node, after in snap.items():
            prior = before.get(node)
            if prior is None or "error" in after or "error" in prior:
                continue  # killed or replaced in between: it served nothing
            for name, value in after["counters"].items():
                delta = value - prior["counters"].get(name, 0.0)
                self.counters[name] = self.counters.get(name, 0.0) + delta
                if name.startswith("rpc:") and name != "rpc:stats":
                    self.rpcs += delta
            for name, hist in after["histograms"].items():
                if not name.startswith("latency_s:"):
                    continue
                op = name.split(":")[1]
                delta = hist["sum"] - prior["histograms"].get(name, {"sum": 0.0})["sum"]
                self.busy_s[op] = self.busy_s.get(op, 0.0) + delta


def span_layer_metrics(tree: SpanTree) -> dict:
    """Per-layer numbers from the spans that hang under the timed ops."""
    ops = tree.ops
    count = len(ops)
    by_name: dict[str, list] = {}
    covered: dict[str, float] = {}
    call_self = 0.0
    for op in ops:
        mine: dict[str, list] = {}
        for span in tree.descendants(op):
            key = f"call:{span.name}" if span.layer == "messages" else span.name
            mine.setdefault(key, []).append(span)
            if span.layer == "messages":
                mine.setdefault("call", []).append(span)
                call_self += tree.self_time(span)
        for key, spans in mine.items():
            by_name.setdefault(key, []).extend(spans)
            # Gathered RPCs overlap: what the op paid is the time at least
            # one such span was open, not the sum of nine waits.
            covered[key] = covered.get(key, 0.0) + union_length(
                (s.start, s.end) for s in spans
            )

    def median_of(name, scale=1e3):
        values = [s.duration for s in by_name.get(name, ())]
        return scale * statistics.median(values) if values else 0.0

    def per_op_ms(name):
        return 1e3 * covered.get(name, 0.0) / count

    coverage = [tree.blocking_self_sum(op) / op.duration for op in ops]
    return {
        "messages.rpcs_per_op": len(by_name.get("call", ())) / count,
        "transport.connects_per_op": len(by_name.get("connect_tcp", ())) / count,
        "transport.connect_us": median_of("connect_tcp", 1e6),
        "messages.call_ms.block_put": median_of("call:block.put"),
        "messages.call_ms.block_get": median_of("call:block.get"),
        "messages.call_ms.block_stat": median_of("call:block.stat"),
        "messages.self_ms_per_op": 1e3 * call_self / count,
        "wire.send_frame_ms_per_op": per_op_ms("send_frame"),
        "wire.read_frame_ms_per_op": per_op_ms("read_frame"),
        "rs.encode_ms_per_op": per_op_ms("encode"),
        "rs.decode_ms_per_op": per_op_ms("decode_many"),
        "executor.execute_plan_ms": median_of("execute_plan"),
        "coordinator.status_ms": median_of("rpc:status"),
        "coordinator.put_begin_ms": median_of("rpc:put.begin"),
        "coordinator.put_commit_ms": median_of("rpc:put.commit"),
        "coordinator.lookup_ms": median_of("rpc:object.lookup"),
        "trace.path_coverage": statistics.median(coverage),
    }


def daemon_layer_metrics(stats: StatsDelta, ops: int) -> dict:
    def busy_ms(op):
        return 1e3 * stats.busy_s.get(op, 0.0) / ops

    return {
        "daemon.rpcs_per_op": stats.rpcs / ops,
        "daemon.block_put_busy_ms_per_op": busy_ms("block.put"),
        "daemon.block_get_busy_ms_per_op": busy_ms("block.get"),
        "daemon.block_stat_busy_ms_per_op": busy_ms("block.stat"),
        "daemon.repair_exec_busy_ms_per_stripe": busy_ms("repair.exec"),
        "daemon.repair_blocks_per_stripe": stats.counters.get("rpc:repair.block", 0.0) / ops,
    }


async def _timed_setup(session, outcome: Outcome) -> None:
    """Cluster up + preload + warm-up, reported as ``setup_s`` so that work a
    later change moves out of the timed phase into set-up still shows."""
    start = time.perf_counter()
    await session.setup()
    outcome.end_to_end["setup_s"] = summarize([time.perf_counter() - start])


async def run_object_workload(
    name: str, seed: int, seconds: float, traced: bool, process: int
) -> Outcome:
    spec = OBJECT_WORKLOADS[name]
    outcome = Outcome()

    def make_session(traced: bool) -> ObjectSession:
        # Distinct payloads per interpreter and per phase, all from --seed.
        return ObjectSession(spec, np.random.default_rng([seed, process, int(traced)]), traced)

    session = make_session(False)
    await _timed_setup(session, outcome)
    try:
        reference = await session.rounds_for(seconds / 3 if traced else seconds, outcome)
    finally:
        await session.fx.stop()
    outcome.end_to_end.update(round_metrics(reference))
    outcome.end_to_end["peak_rss_MiB"] = summarize([peak_rss_mib()])
    outcome.detail["rounds"] = len(reference)
    outcome.detail["samples"] = sum(len(r) for r in reference)
    if not traced:
        return outcome

    session = make_session(True)
    tracer = outcome.tracer = Tracer()
    with tracer:
        await session.setup()
        stats = StatsDelta(session.fx.client)
        try:
            rounds = await session.rounds_for(
                2 * seconds / 3, outcome, tracer, scrape=stats.scrape
            )
        finally:
            await session.fx.stop()
    tracer.merge_program_spans(session.fx.recorders)
    tree = SpanTree(tracer.spans, [s for s in tracer.spans if s.layer == "op"])
    ops = len(tree.ops)
    layers = outcome.per_layer
    layers.update(span_layer_metrics(tree))
    layers.update(daemon_layer_metrics(stats, ops))
    # Time inside the op that no shimmed child covers: split/reassemble
    # bookkeeping, CRCs and bytes() copies.
    layers["client.self_ms"] = 1e3 * statistics.median(tree.self_time(op) for op in tree.ops)
    layers["wire.bytes_per_user_byte"] = (
        sum(op.attrs["blob_bytes"] for op in tree.ops) / (ops * spec.object_bytes)
    )
    flat_reference = [x for r in reference for x in r]
    flat_traced = [x for r in rounds for x in r]
    layers["trace.overhead_ratio"] = (
        statistics.median(flat_traced) / statistics.median(flat_reference)
    )
    percentile, value = tail(flat_reference)
    layers["client.tail_ms"] = 1e3 * value
    layers["client.tail_percentile"] = percentile
    if spec.degraded:
        counters = dict(session.fx.recorders)["client"].trace().counters
        # Both counters also saw the traced session's warm-up reads.
        layers["client.helper_bytes_per_op"] = (
            counters["client.degraded_helper_bytes"] / counters["client.degraded_gets"]
        )
        layers["client.plan_mode_share"] = outcome.modes["plan"] / sum(outcome.modes.values())
    return outcome


# -- node_repair ----------------------------------------------------------------

REPAIR_BLOCK = 64 * KIB
REPAIR_OBJECTS = 90
#: Seconds one kill -> healthy -> replace cycle takes at the sizing speed;
#: the cycle count is fixed from ``--seconds`` (not adaptive), because a
#: cycle's stripe count depends on which cycle it is.
CYCLE_SECONDS = 2.0
NUM_NODES = 12
#: Silence after which a daemon is declared dead.  Ten beat intervals, not
#: four: when this process stalls for a few hundred milliseconds (a busy
#: neighbour), the sweep can run before the queued beats do, and a tighter
#: threshold then declares every daemon dead at once - which the store
#: does not recover from (repairs are not retried).
DETECT_AFTER = 1.0
HEALTH_POLL = 0.005
HEALTH_TIMEOUT = 60.0


def repair_victim(cycle: int) -> int:
    """0, 5, 10, 3, 8, 1, ...: one rack after another, every node once in 12."""
    return (5 * cycle) % NUM_NODES


class RepairSession:
    """A cluster with fast failure detection and a population to repair."""

    def __init__(self, rng: np.random.Generator, traced: bool) -> None:
        self.rng = rng
        self.fx = Cluster12(
            REPAIR_BLOCK, heartbeat=0.1, suspect_after=DETECT_AFTER, sweep_interval=0.05,
            traced=traced,
        )
        self.expected: dict[str, bytes] = {}

    async def setup(self) -> None:
        await self.fx.start()
        for index in range(REPAIR_OBJECTS):
            name = f"obj-{index:08d}"
            self.expected[name] = self.rng.bytes(N * REPAIR_BLOCK)
            await self.fx.client.put(name, self.expected[name])

    async def cycle(self, index: int, outcome: Outcome, stats: StatsDelta | None = None) -> dict:
        """Kill the cycle's victim, watch the service heal, replace the daemon.

        Health is read from the coordinator's in-process public state at
        a 5 ms sleep.  Polling ``status`` over RPC would measure the
        observer: that reply carries every past repair record and grows
        with each cycle.
        """
        fx = self.fx
        coordinator = fx.coordinator
        victim = repair_victim(index)
        done_before = len(coordinator.repairs)

        def degraded() -> bool:
            return any(meta.missing for meta in coordinator.stripes.values())

        if stats is not None:
            await stats.scrape()
        killed = time.perf_counter()
        await fx.kill(victim)
        deadline = killed + HEALTH_TIMEOUT
        while not degraded() and time.perf_counter() < deadline:
            await asyncio.sleep(HEALTH_POLL)
        detected = time.perf_counter()
        while degraded() and not coordinator.repair_errors and time.perf_counter() < deadline:
            await asyncio.sleep(HEALTH_POLL)
        healthy = time.perf_counter()
        if stats is not None:
            await stats.scrape()
        records = coordinator.repairs[done_before:]
        outcome.attempted += max(1, len(records))
        if degraded() or coordinator.repair_errors or not records:
            outcome.fail(
                f"cycle {index}: node {victim} not healed: "
                f"errors={coordinator.repair_errors[:3]}"
            )
        for record in records:
            # A record exists only if every rebuilt CRC matched its
            # write-time CRC; the ledger check is the second oracle.
            if not record["ledger_match"]:
                outcome.fail(f"repair {record['rid']}: ledger differs from the simulator's")
        await fx.start_daemon(victim)
        return {
            "victim": victim,
            "stripes": len(records),
            "detect_s": detected - killed,
            "time_to_healthy_s": healthy - killed,
            "stripes_per_s": len(records) / (healthy - detected),
            "records": records,
        }

    async def verify_all(self, outcome: Outcome) -> None:
        for name, payload in self.expected.items():
            outcome.attempted += 1
            try:
                if await self.fx.client.get(name) != payload:
                    outcome.fail(f"get {name} after repair: wrong bytes")
            except OP_ERRORS as exc:
                outcome.fail(f"get {name} after repair: {exc}")


def _cycle_metrics(cycles) -> dict:
    return {
        "throughput_per_s": summarize([c["stripes_per_s"] for c in cycles]),
        "latency_p50_ms": summarize([1e3 * c["time_to_healthy_s"] for c in cycles]),
    }


async def run_node_repair(seed: int, seconds: float, traced: bool, process: int) -> Outcome:
    outcome = Outcome()
    total = max(2, round(seconds / CYCLE_SECONDS))
    reference_cycles = max(2, total // 3) if traced else total

    def make_session(traced: bool) -> RepairSession:
        return RepairSession(np.random.default_rng([seed, process, int(traced)]), traced)

    session = make_session(False)
    await _timed_setup(session, outcome)
    try:
        reference = [await session.cycle(i, outcome) for i in range(reference_cycles)]
        await session.verify_all(outcome)
    finally:
        await session.fx.stop()
    outcome.end_to_end.update(_cycle_metrics(reference))
    outcome.end_to_end["peak_rss_MiB"] = summarize([peak_rss_mib()])
    outcome.detail["cycles"] = [
        {k: v for k, v in c.items() if k != "records"} for c in reference
    ]
    if not traced:
        return outcome

    session = make_session(True)
    tracer = outcome.tracer = Tracer()
    with tracer:
        await session.setup()
        stats = StatsDelta(session.fx.client)
        try:
            blob_before = tracer.blob_bytes
            cycles = [
                await session.cycle(i, outcome, stats)
                for i in range(max(2, total - reference_cycles))
            ]
            blob_bytes = tracer.blob_bytes - blob_before
            await session.verify_all(outcome)
        finally:
            await session.fx.stop()
    tracer.merge_program_spans(session.fx.recorders)
    # The unit of work is a stripe: the coordinator's own repair:<rid> spans.
    roots = [
        s for s in tracer.spans
        if s.layer == "store_repair" and s.attrs.get("component") == "coordinator"
    ]
    tree = SpanTree(tracer.spans, roots)
    records = [r for c in cycles for r in c["records"]]
    stripes = len(records)
    layers = outcome.per_layer
    layers.update(span_layer_metrics(tree))
    layers.update(daemon_layer_metrics(stats, stripes))
    # Scrapes bracket each cycle, and the only blobs framed in between
    # are repair payloads: wire bytes per rebuilt byte.
    layers["wire.bytes_per_user_byte"] = blob_bytes / (stripes * REPAIR_BLOCK)
    layers["detector.detect_s"] = statistics.median(c["detect_s"] for c in cycles)
    layers["store_repair.stripe_ms"] = 1e3 * statistics.median(
        r["wall_seconds"] for r in records
    )
    layers["store_repair.cross_rack_bytes_per_stripe"] = (
        sum(r["measured"]["cross_rack_bytes"] for r in records) / stripes
    )
    layers["store_repair.ledger_match_share"] = (
        sum(bool(r["ledger_match"]) for r in records) / stripes
    )
    layers["trace.overhead_ratio"] = (
        statistics.median(1 / c["stripes_per_s"] for c in cycles)
        / statistics.median(1 / c["stripes_per_s"] for c in reference)
    )
    return outcome


# -- shaped_repair ----------------------------------------------------------------

SHAPED_BLOCK = 64 * KIB
#: (n, k, failed blocks): the paper's RS(6,3) and RS(8,3) single failures
#: and one double failure (CAR, single-failure only, drops out of that one).
SHAPED_MATRIX = ((6, 3, (1,)), (8, 3, (1,)), (6, 3, (0, 1)))


def _scenario(n: int, k: int, failed) -> str:
    return f"RS({n},{k}) fail {list(failed)}"


HEADLINE = _scenario(8, 3, (1,))


def _shaped_pass(seed: int, block_size: int, telemetry: bool, outcome: Outcome | None) -> list:
    """The whole matrix once; one row per (scenario, scheme)."""
    rows = []
    for n, k, failed in SHAPED_MATRIX:
        report = run_live_validation(
            n, k, failed, block_size=block_size, bandwidth=DEFAULT_LIVE_BANDWIDTH,
            transport="tcp", seed=seed, telemetry=telemetry,
        )
        for row in report.rows:
            rows.append({
                "scenario": _scenario(n, k, failed), "scheme": row.scheme,
                "predicted_s": row.predicted_s, "measured_s": row.measured_s,
                "blocks": len(failed),
            })
            if outcome is not None:
                outcome.attempted += 1
                if not row.bytes_ok:
                    outcome.fail(f"{_scenario(n, k, failed)} {row.scheme}: wrong bytes rebuilt")
                if row.cross_rack_bytes != row.sim_cross_rack_bytes:
                    outcome.fail(f"{_scenario(n, k, failed)} {row.scheme}: ledger differs")
    return rows


def _headline(rows, scheme: str) -> float:
    return next(
        r["measured_s"] for r in rows if r["scenario"] == HEADLINE and r["scheme"] == scheme
    )


#: Two schemes count as ordered by the simulator when their predicted
#: makespans differ by more than this; RPR and CAR tie within 0.2 % on
#: single failures, and a tie has no order a noisy clock could contradict.
ORDER_GAP = 0.10


def check_ordering(passes) -> tuple[int, list[str]]:
    """The paper's claim as an oracle: wherever the simulator predicts one
    scheme faster than another, the measured medians over ``passes`` agree.

    Returns ``(pairs checked, failures)``.  It wants the passes of a whole
    run (five or six), not of one interpreter (two): the live runtime
    now and then runs the RS(6,3) RPR repair at twice its predicted
    makespan, for every pass of one interpreter, and a median over two
    passes inherits that.
    """
    measured: dict[tuple, list] = {}
    predicted: dict[tuple, float] = {}
    for rows in passes:
        for r in rows:
            key = (r["scenario"], r["scheme"])
            measured.setdefault(key, []).append(r["measured_s"])
            predicted[key] = r["predicted_s"]
    checked, failures = 0, []
    for fast in predicted:
        for slow in predicted:
            if fast[0] != slow[0] or predicted[slow] < predicted[fast] * (1 + ORDER_GAP):
                continue
            checked += 1
            if statistics.median(measured[slow]) <= statistics.median(measured[fast]):
                failures.append(f"{fast[0]}: measured {slow[1]} faster than {fast[1]}, "
                                f"the simulator says slower")
    return checked, failures


def _shaped_passes(seed: int, seconds: float, telemetry: bool, outcome: Outcome) -> list:
    passes = []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or not passes:
        passes.append(_shaped_pass(seed + len(passes), SHAPED_BLOCK, telemetry, outcome))
    return passes


def run_shaped_repair(seed: int, seconds: float, traced: bool, process: int) -> Outcome:
    """Sleep-bound by design: token buckets pace every link, so the speed
    of the code should not move these numbers; the schedule, the shaper
    and the port model do."""
    outcome = Outcome()
    # Set-up here is a warm-up pass at 4 KiB blocks: imports, GF tables,
    # planner and TCP paths, at a twentieth of the measured transfer time.
    start = time.perf_counter()
    _shaped_pass(seed, 4 * KIB, False, None)
    outcome.end_to_end["setup_s"] = summarize([time.perf_counter() - start])

    seed += 1000 * process  # distinct stripes per interpreter
    reference = _shaped_passes(seed, seconds / 3 if traced else seconds, False, outcome)
    outcome.end_to_end["throughput_per_s"] = summarize([
        sum(r["blocks"] for r in rows) / sum(r["measured_s"] for r in rows)
        for rows in reference
    ])
    outcome.end_to_end["latency_p50_ms"] = summarize(
        [1e3 * _headline(rows, "rpr") for rows in reference]
    )
    outcome.end_to_end["peak_rss_MiB"] = summarize([peak_rss_mib()])
    outcome.detail["passes"] = reference
    if not traced:
        return outcome

    passes = _shaped_passes(seed + len(reference), 2 * seconds / 3, True, outcome)
    checked, failures = check_ordering(reference + passes)
    outcome.attempted += checked
    for failure in failures:
        outcome.fail(failure)
    rows = [r for rows in passes for r in rows]

    def ratio(r):
        return r["measured_s"] / r["predicted_s"]

    layers = outcome.per_layer
    layers["live_runtime.live_over_sim_ratio"] = statistics.median(map(ratio, rows))
    layers["live_runtime.overhead_ms"] = 1e3 * statistics.median(
        r["measured_s"] - r["predicted_s"] for r in rows
    )
    layers["live_runtime.rpr_speedup_x"] = statistics.median(
        _headline(p, "traditional") / _headline(p, "rpr") for p in passes
    )
    layers["trace.overhead_ratio"] = statistics.median(map(ratio, rows)) / statistics.median(
        ratio(r) for p in reference for r in p
    )
    return outcome


# -- registry ---------------------------------------------------------------------

#: Block size each workload's probes run at.
PROBE_BLOCK = {
    **{name: spec.block_size for name, spec in OBJECT_WORKLOADS.items()},
    "node_repair": REPAIR_BLOCK,
    "shaped_repair": SHAPED_BLOCK,
}

WORKLOADS = tuple(PROBE_BLOCK)


def run_workload(name: str, seed: int, seconds: float, traced: bool, process: int = 0) -> Outcome:
    """Measure in this interpreter; ``process`` tells pool members apart."""
    if name in OBJECT_WORKLOADS:
        return asyncio.run(run_object_workload(name, seed, seconds, traced, process))
    if name == "node_repair":
        return asyncio.run(run_node_repair(seed, seconds, traced, process))
    if name == "shaped_repair":
        return run_shaped_repair(seed, seconds, traced, process)
    raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")
