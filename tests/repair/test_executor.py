"""Tests for the concrete plan executor."""

import numpy as np
import pytest

from repro.cluster import Cluster
from repro.repair import (
    ExecutionError,
    RepairPlan,
    block_key,
    execute_plan,
    initial_store_for,
    missing_payload_message,
)
from repro.gf import scale

from .conftest import make_context, make_stripe


@pytest.fixture
def cluster():
    return Cluster.homogeneous(2, 2)


def store_with(node, key, payload):
    return {node: {key: payload}}


class TestSends:
    def test_send_copies_payload(self, cluster):
        payload = np.array([1, 2, 3, 4], dtype=np.uint8)
        plan = RepairPlan(block_size=4)
        plan.add_send("s", 0, 1, "x")
        plan.mark_output(0, 1, "x")
        store = store_with(0, "x", payload)
        result = execute_plan(plan, cluster, store)
        np.testing.assert_array_equal(store[1]["x"], payload)
        np.testing.assert_array_equal(result.recovered[0], payload)

    def test_missing_payload_fails(self, cluster):
        plan = RepairPlan(block_size=4)
        plan.add_send("s", 0, 1, "ghost")
        plan.mark_output(0, 1, "ghost")
        with pytest.raises(ExecutionError):
            execute_plan(plan, cluster, {})

    def test_traffic_accounting(self, cluster):
        payload = np.zeros(4, dtype=np.uint8)
        plan = RepairPlan(block_size=4)
        plan.add_send("intra", 0, 1, "x")
        plan.add_send("cross", 1, 2, "x", deps=["intra"])
        plan.mark_output(0, 2, "x")
        result = execute_plan(plan, cluster, store_with(0, "x", payload))
        assert result.ledger.intra_rack_bytes == 4
        assert result.ledger.cross_rack_bytes == 4
        assert result.ledger.sends == 2


class TestCombines:
    def test_combine_applies_coefficients(self, cluster):
        a = np.array([3, 5], dtype=np.uint8)
        b = np.array([7, 9], dtype=np.uint8)
        plan = RepairPlan(block_size=2)
        plan.add_combine("c", 0, "out", [("a", 2), ("b", 3)])
        plan.mark_output(0, 0, "out")
        store = {0: {"a": a, "b": b}}
        result = execute_plan(plan, cluster, store)
        expected = scale(2, a) ^ scale(3, b)
        np.testing.assert_array_equal(result.recovered[0], expected)
        assert result.combine_count == 1

    def test_combine_missing_input_fails(self, cluster):
        plan = RepairPlan(block_size=2)
        plan.add_combine("c", 0, "out", [("a", 1), ("b", 1)])
        plan.mark_output(0, 0, "out")
        with pytest.raises(ExecutionError):
            execute_plan(plan, cluster, {0: {"a": np.zeros(2, dtype=np.uint8)}})

    def test_dataflow_dependency_enforced(self, cluster):
        """An op consuming a not-yet-produced payload must fail, even if
        the op order would accidentally work out at runtime: topological
        order respects deps, and deps must carry the data flow."""
        plan = RepairPlan(block_size=2)
        # combine consumes "made" but declares no dep on its producer and
        # appears first in insertion order.
        plan.add_combine("consumer", 0, "out", [("made", 1)])
        plan.add_combine("producer", 0, "made", [("raw", 1)])
        plan.mark_output(0, 0, "out")
        with pytest.raises(ExecutionError):
            execute_plan(plan, cluster, {0: {"raw": np.zeros(2, dtype=np.uint8)}})


class TestAbortDiagnostics:
    """The missing-payload message shape is an API: live runs and byte runs
    must both name the full missing-key set and the op's plan position."""

    def test_send_abort_names_key_and_op_position(self, cluster):
        plan = RepairPlan(block_size=4)
        plan.add_send("warmup", 0, 1, "x")
        plan.add_send("s1", 1, 2, "ghost", deps=["warmup"])
        plan.mark_output(0, 2, "ghost")
        with pytest.raises(ExecutionError) as err:
            execute_plan(plan, cluster, store_with(0, "x", np.zeros(4, dtype=np.uint8)))
        assert str(err.value) == missing_payload_message(
            "send", "s1", 1, 2, ["ghost"], 1
        )

    def test_combine_abort_lists_full_missing_set_sorted(self, cluster):
        plan = RepairPlan(block_size=2)
        plan.add_combine("c", 0, "out", [("b", 1), ("a", 1), ("have", 1)])
        plan.mark_output(0, 0, "out")
        with pytest.raises(ExecutionError) as err:
            execute_plan(plan, cluster, {0: {"have": np.zeros(2, dtype=np.uint8)}})
        message = str(err.value)
        assert message == missing_payload_message(
            "combine", "c", 0, 1, ["a", "b"], 0
        )
        assert "['a', 'b']" in message  # sorted, complete — not just the first

    def test_execute_ops_abort_uses_same_shape(self, cluster):
        plan = RepairPlan(block_size=2)
        plan.add_send("s0", 0, 1, "missing")
        plan.mark_output(0, 1, "missing")
        with pytest.raises(ExecutionError) as err:
            execute_plan(plan, cluster, {}, ops=["s0"])
        assert str(err.value) == missing_payload_message(
            "send", "s0", 0, 1, ["missing"], 0
        )


class TestOutputs:
    def test_missing_output_fails(self, cluster):
        plan = RepairPlan(block_size=2)
        plan.add_send("s", 0, 1, "x")
        plan.mark_output(5, 0, "never-made")
        with pytest.raises(ExecutionError):
            execute_plan(
                plan, cluster, store_with(0, "x", np.zeros(2, dtype=np.uint8))
            )


class TestInitialStore:
    def test_survivors_only(self):
        ctx = make_context(4, 2, failed=[1])
        stripe = make_stripe(ctx)
        store = initial_store_for(stripe, ctx.placement, [1])
        present = {key for bucket in store.values() for key in bucket}
        assert block_key(1) not in present
        assert present == {block_key(b) for b in [0, 2, 3, 4, 5]}

    def test_payloads_on_placement_nodes(self):
        ctx = make_context(4, 2, failed=[1])
        stripe = make_stripe(ctx)
        store = initial_store_for(stripe, ctx.placement, [1])
        for b in [0, 2, 3, 4, 5]:
            node = ctx.placement.node_of(b)
            np.testing.assert_array_equal(
                store[node][block_key(b)], stripe.get_payload(b)
            )


def run_sessions(plan, ctx, stripe, stripe_id=0, recorder=None, lost=()):
    """The store's repair path without sockets: one ``RepairSession`` per
    involved node, ``repair.block`` RPCs delivered straight to the peer
    session, every session's op spans into ``recorder``; the daemons hold
    every surviving block but the stored keys in ``lost``.  Returns
    ``(ledger, combines, recovered)``."""
    import asyncio

    from repro.store.repair import (
        RepairSession,
        ledger_from_reports,
        partition_plan,
        stored_block_key,
    )

    parts = partition_plan(plan, ctx.placement, stripe_id, ctx.failed_blocks)
    sessions: dict[int, RepairSession] = {}

    async def rpc(host, port, mtype, body, blob=None, ctx=None):
        assert mtype == "repair.block"
        payload = np.frombuffer(bytes(blob), dtype=np.uint8)
        sessions[port].deliver(body["key"], payload)

    routing = {node: ("in-process", node) for node in parts}
    blocks = {
        node: {
            stored_block_key(stripe_id, bid): stripe.get_payload(bid)
            for bid in stripe.block_ids()
            if bid not in ctx.failed_blocks and ctx.placement.node_of(bid) == node
        }
        for node in parts
    }
    for held in blocks.values():
        for key in lost:
            held.pop(key, None)

    async def main():
        for node, part in parts.items():
            sessions[node] = RepairSession(
                "r0", part, routing, block_size=ctx.block_size, rpc=rpc,
                recorder=recorder,
            )
        return await asyncio.gather(
            *(sessions[node].run(blocks[node], timeout=10.0) for node in parts)
        )

    reports = [r for report in asyncio.run(main()) for r in report["reports"]]
    recovered = {
        bid: blocks[node][stored_block_key(stripe_id, bid)]
        for bid, (node, _) in plan.outputs.items()
    }
    combines = sum(r["kind"] == "combine" for r in reports)
    return ledger_from_reports(ctx.cluster, reports), combines, recovered


def wall_recorder():
    import time

    from repro.telemetry import CLOCK_WALL, TelemetryRecorder

    recorder = TelemetryRecorder(CLOCK_WALL)
    recorder.set_origin(time.monotonic())
    return recorder


def assert_same_picture(cluster, ledger, sim_trace, *wall_traces):
    """Drivers agree on the picture, not just the ledger: every measured
    trace, put through the one view, has the simulated view's resource
    rows and bytes per port, and the aggregation switch carried the
    ledger's cross-rack bytes.  A wall-clock view has no op-level
    critical path (and says so) but still renders."""
    from repro.telemetry import RunTrace, render_gantt, render_report

    predicted = RunTrace.from_telemetry(sim_trace, cluster)
    assert predicted.path and predicted.path[-1].end == predicted.makespan
    ports = {res.label: res.nbytes for res in predicted.resources}
    for view in [predicted] + [RunTrace.from_telemetry(t, cluster) for t in wall_traces]:
        assert {res.label: res.nbytes for res in view.resources} == ports
        down_rack = {
            iv.job_id: res.rack for res in view.resources if res.kind == "down"
            for iv in res.intervals
        }
        aggregation = sum(
            iv.nbytes for res in view.resources if res.kind == "up"
            for iv in res.intervals if down_rack[iv.job_id] != res.rack
        )
        assert aggregation == pytest.approx(ledger.cross_rack_bytes)
        if view is not predicted:
            assert view.clock == "wall" and view.path == []
            assert "not computed on the wall clock" in render_report(view)
            assert len(render_gantt(view).splitlines()) == len(ports) + 1


def driver_cases():
    from repro.repair import CARRepair, RPRScheme, TraditionalRepair

    for n, k in [(6, 3), (8, 3)]:
        for failed in ([1], [1, 4]):
            for scheme in (TraditionalRepair(), CARRepair(), RPRScheme()):
                if scheme.name == "car" and len(failed) > 1:
                    continue  # CAR is single-failure only, as in the paper
                yield pytest.param(
                    n, k, failed, scheme, id=f"{scheme.name}-rs{n}_{k}-fail{len(failed)}"
                )


class TestSessionFailures:
    def test_a_missing_seed_fails_at_once_naming_its_stored_key(self):
        """A daemon that no longer holds a seed block (a racing ``rm``, a
        loss) fails the part that reads it straight away — it must not sit
        out the session deadline while the coordinator holds its repair
        lock — and says which stored block it lacks."""
        import time

        from repro.repair import RPRScheme
        from repro.store.messages import NotFound
        from repro.store.repair import partition_plan

        ctx = make_context(6, 3, failed=[1])
        plan = RPRScheme().plan(ctx)
        seeds = {
            key: stored
            for part in partition_plan(plan, ctx.placement, 0, ctx.failed_blocks).values()
            for key, stored in part.seeds.items()
        }
        key, stored = sorted(seeds.items())[0]
        start = time.monotonic()
        with pytest.raises(NotFound) as err:
            run_sessions(plan, ctx, make_stripe(ctx), lost=[stored])
        assert time.monotonic() - start < 1.0
        message = str(err.value)
        assert repr(stored) in message
        assert f"missing payloads {[key]}" in message


class TestLedgers:
    """Every interpreter of one plan moves the same bytes over the same links.

    The simulator, the byte executor, the live runtime and the store's
    repair sessions all account sends through ``TrafficLedger.add_send``
    and produce payloads through the same op step, so their ledgers are
    ``==`` (per node and per rack, not just in aggregate) and their
    recovered blocks byte-identical."""

    @pytest.mark.parametrize("n,k,failed", [(4, 2, [1]), (6, 2, [0]), (8, 4, [1, 5])])
    def test_executor_matches_simulator_per_node(self, n, k, failed):
        from repro.cluster import SIMICS_BANDWIDTH
        from repro.metrics import TrafficLedger
        from repro.repair import RPRScheme, simulate_repair

        ctx = make_context(n, k, failed=failed)
        stripe = make_stripe(ctx)
        scheme = RPRScheme()
        plan = scheme.plan(ctx)
        store = initial_store_for(stripe, ctx.placement, failed)
        concrete = execute_plan(plan, ctx.cluster, store)
        simulated = simulate_repair(scheme, ctx, SIMICS_BANDWIDTH)
        ledger = TrafficLedger.from_sim(simulated.sim, ctx.cluster)
        assert concrete.ledger == ledger == plan.traffic(ctx.cluster)
        # Byte counts are integral end-to-end; equality is exact, no
        # tolerance.
        for value in (
            ledger.cross_rack_bytes,
            ledger.intra_rack_bytes,
            *ledger.uploaded_by_node.values(),
            *ledger.downloaded_by_node.values(),
            *ledger.cross_uploaded_by_rack.values(),
        ):
            assert type(value) is int

    @pytest.mark.parametrize("n,k,failed,scheme", driver_cases())
    def test_drivers_agree(self, n, k, failed, scheme):
        import copy

        from repro.cluster import SIMICS_BANDWIDTH
        from repro.live import run_plan_live_sync
        from repro.metrics import TrafficLedger
        from repro.repair import payload_compositions, simulate_repair

        ctx = make_context(n, k, failed=failed)
        stripe = make_stripe(ctx)
        simulated = simulate_repair(scheme, ctx, SIMICS_BANDWIDTH)
        plan = simulated.plan
        store = initial_store_for(stripe, ctx.placement, failed)

        expected = TrafficLedger.from_sim(simulated.sim, ctx.cluster)
        concrete = execute_plan(plan, ctx.cluster, copy.deepcopy(store))
        live = run_plan_live_sync(
            plan, ctx.cluster, store, bandwidth=None, recorder=wall_recorder()
        )
        session_recorder = wall_recorder()
        session_ledger, session_combines, session_recovered = run_sessions(
            plan, ctx, stripe, recorder=session_recorder
        )

        assert concrete.ledger == expected
        assert live.ledger == expected
        assert session_ledger == expected
        assert expected == plan.traffic(ctx.cluster)
        assert_same_picture(
            ctx.cluster, expected, simulated.telemetry(), live.telemetry,
            session_recorder.trace(),
        )
        assert (
            concrete.combine_count
            == live.combine_count
            == session_combines
            == len(plan.combines())
        )
        compositions = payload_compositions(plan, ctx.code)
        for bid in failed:
            lost = stripe.get_payload(bid)
            np.testing.assert_array_equal(concrete.recovered[bid], lost)
            np.testing.assert_array_equal(live.recovered[bid], lost)
            np.testing.assert_array_equal(session_recovered[bid], lost)
            # the symbolic run ends on the failed block's generator row
            np.testing.assert_array_equal(
                compositions[plan.outputs[bid][1]], ctx.code.generator_row(bid)
            )

    def test_to_dict_is_json_serializable(self, cluster):
        import json

        payload = np.zeros(4, dtype=np.uint8)
        plan = RepairPlan(block_size=4)
        plan.add_send("s", 0, 2, "x")
        plan.mark_output(0, 2, "x")
        result = execute_plan(plan, cluster, store_with(0, "x", payload))
        assert result.to_dict() == json.loads(json.dumps(result.to_dict()))
        data = result.to_dict()
        assert data["cross_rack_bytes"] == 4
        assert data["sends"] == 1
        assert data["uploaded_by_node"] == {"0": 4}
        assert data["cross_uploaded_by_rack"] == {"0": 4}
        assert data["recovered_blocks"] == [0]
