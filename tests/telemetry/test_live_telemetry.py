"""Live-runtime telemetry: recorded spans, pacing metrics, and the
zero-cost disabled path."""

import pytest

from repro.experiments import build_simics_environment, context_for
from repro.live import TokenBucket, run_plan_live, run_plan_live_sync
from repro.repair import RPRScheme, initial_store_for
from repro.telemetry import (
    CLOCK_WALL,
    NULL_RECORDER,
    OP_CATEGORY,
    TelemetryRecorder,
    TelemetryTrace,
)
from repro.workloads import encoded_stripe

from ..vtime import VirtualTimeLoop

BLOCK = 4 * 1024

SEND_PHASES = {
    "send.dep_wait", "send.port_wait", "send.latency",
    "send.connect", "send.stream", "send.ack_wait",
}
COMBINE_PHASES = {"combine.dep_wait", "combine.cpu_wait"}
#: A store session's send goes out as one ``repair.block`` RPC.
SESSION_SEND_PHASES = {"send.dep_wait", "send.port_wait", "send.rpc"}


def scenario(n=6, k=3, failed=(1,)):
    env = build_simics_environment(n, k, block_size=BLOCK)
    plan = RPRScheme().plan(context_for(env, list(failed)))
    stripe = encoded_stripe(env.code, BLOCK, seed=7)
    store = initial_store_for(stripe, env.placement, list(failed))
    return plan, env, store


def run(plan, env, store, *, bandwidth=None, recorder=None):
    return run_plan_live_sync(
        plan, env.cluster, store, bandwidth=bandwidth, recorder=recorder
    )


class TestRecordedRun:
    @pytest.fixture(scope="class")
    def result(self):
        plan, env, store = scenario()
        rec = TelemetryRecorder(CLOCK_WALL, meta={"source": "live"})
        return plan, run(plan, env, store, recorder=rec)

    def test_telemetry_attached(self, result):
        _, live = result
        assert isinstance(live.telemetry, TelemetryTrace)
        assert live.telemetry.clock == CLOCK_WALL
        assert live.telemetry.meta["source"] == "live"

    def test_one_op_span_per_plan_op(self, result):
        plan, live = result
        assert live.telemetry.op_spans().keys() == set(plan.ops)

    def test_op_spans_carry_identity_attrs(self, result):
        plan, live = result
        for op_id, span in live.telemetry.op_spans().items():
            assert span.category == OP_CATEGORY
            assert span.attrs["kind"] in ("transfer", "compute")
            assert span.end >= span.start >= 0.0
            assert span.end <= live.telemetry.extent

    def test_phase_spans_nest_under_their_op(self, result):
        plan, live = result
        phases = [s for s in live.telemetry.spans if s.parent]
        assert phases, "expected nested phase spans"
        op_ids = set(plan.ops)
        for phase in phases:
            assert phase.parent in op_ids
            assert phase.op_id == phase.parent
            assert phase.name in SEND_PHASES | COMBINE_PHASES

    def test_every_send_has_all_phases(self, result):
        plan, live = result
        sends = [oid for oid, span in live.telemetry.op_spans().items()
                 if span.attrs["kind"] == "transfer"]
        for oid in sends:
            names = {s.name for s in live.telemetry.spans
                     if s.parent == oid and not s.category}
            assert names == SEND_PHASES

    def test_counters_match_the_ledgers(self, result):
        _, live = result
        counters = live.telemetry.counters
        assert counters["bytes.cross_rack"] == pytest.approx(live.ledger.cross_rack_bytes)
        assert counters["bytes.intra_rack"] == pytest.approx(live.ledger.intra_rack_bytes)
        assert counters["ops.sends"] + counters["ops.combines"] == len(live.timings)

    def test_op_spans_agree_with_measured_timings(self, result):
        _, live = result
        for op_id, timing in live.timings.items():
            span = live.telemetry.op_spans()[op_id]
            assert span.start == pytest.approx(timing.start)
            assert span.end == pytest.approx(timing.end)


class TestSessionTrace:
    """The store's repair sessions run the same per-node executor, so
    their op spans say what each op waited on just as live ones do."""

    def test_every_send_has_all_phases(self):
        from ..repair.test_executor import run_sessions, wall_recorder

        env = build_simics_environment(6, 3, block_size=BLOCK)
        ctx = context_for(env, [1])
        plan = RPRScheme().plan(ctx)
        rec = wall_recorder()
        run_sessions(plan, ctx, encoded_stripe(env.code, BLOCK, seed=7), recorder=rec)
        trace = rec.trace()
        assert trace.op_spans().keys() == set(plan.ops)
        for oid, span in trace.op_spans().items():
            assert span.attrs["rid"] == "r0"
            names = {s.name for s in trace.spans if s.parent == oid and not s.category}
            if span.attrs["kind"] == "transfer":
                assert names == SESSION_SEND_PHASES
            else:
                assert names == COMBINE_PHASES


class TestDisabledPath:
    def test_no_recorder_means_no_telemetry(self):
        plan, env, store = scenario()
        live = run(plan, env, store)
        assert live.telemetry is None
        assert live.recovered  # the run itself still works

    def test_null_recorder_collapses_to_disabled(self):
        plan, env, store = scenario()
        live = run(plan, env, store, recorder=NULL_RECORDER)
        assert live.telemetry is None


class TestShapedRunPacing:
    def test_shaped_run_records_pacing_and_throughput(self):
        # In virtual time: on a slow loop (``python -X dev``) each chunk's
        # refill would pay for it and nothing would ever stall.
        plan, env, store = scenario()
        rec = TelemetryRecorder(CLOCK_WALL)
        live = VirtualTimeLoop().run(run_plan_live(
            plan, env.cluster, store, bandwidth=env.bandwidth, recorder=rec
        ))
        tel = live.telemetry
        # Buckets start empty, so every shaped transfer stalls at least once.
        assert tel.counters["pacing.stalls"] >= 1
        assert tel.histograms["pacing.stall_s"]
        assert any(name.startswith("bucket.debt_bytes:") for name in tel.gauges)
        assert any(name.startswith("throughput.") for name in tel.gauges)
        assert tel.counters["chunks.sent"] >= tel.counters["ops.sends"]


class TestTokenBucketEmission:
    def test_stall_is_counted_and_measured(self):
        loop = VirtualTimeLoop()
        rec = TelemetryRecorder(CLOCK_WALL, time_source=lambda: 0.0)
        bucket = TokenBucket(1000.0, recorder=rec, label="n0->n1")
        loop.run(bucket.acquire(500))
        trace = rec.trace()
        assert trace.counters["pacing.stalls"] == pytest.approx(1.0)
        assert trace.histograms["pacing.stall_s"] == [pytest.approx(0.5)]
        assert trace.gauges["bucket.debt_bytes:n0->n1"][0][1] == pytest.approx(500.0)
        assert loop.slept == [pytest.approx(0.5)]

    def test_disabled_bucket_emits_nothing_but_still_paces(self):
        loop = VirtualTimeLoop()
        bucket = TokenBucket(1000.0, recorder=NULL_RECORDER)
        assert bucket._recorder is None  # the guard collapsed the falsy recorder
        loop.run(bucket.acquire(500))
        assert loop.slept == [pytest.approx(0.5)]
