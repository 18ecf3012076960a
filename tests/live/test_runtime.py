"""Live runtime tests: byte oracle, executor-ledger equality, failure modes."""

import asyncio
import copy

import numpy as np
import pytest

from repro.cluster import Cluster, HierarchicalBandwidth
from repro.live import (
    LiveTimeoutError,
    run_plan_live,
    run_plan_live_sync,
)
from repro.live.runtime import _PortRegistry
from repro.repair import (
    ExecutionError,
    RepairPlan,
    RPRScheme,
    execute_plan,
    initial_store_for,
    missing_payload_message,
    simulate_repair,
)

from .conftest import live_scenario, lost_payloads

CODES = [(6, 3), (8, 3)]
SINGLE_SCHEMES = ["traditional", "car", "rpr"]


class TestByteOracle:
    @pytest.mark.parametrize("n,k", CODES)
    @pytest.mark.parametrize("scheme", SINGLE_SCHEMES)
    def test_unshaped_run_matches_executor(self, n, k, scheme):
        """Unshaped live run == byte executor: recovered bytes AND ledgers."""
        plan, env, stripe, store = live_scenario(n, k, [1], scheme)
        oracle = execute_plan(plan, env.cluster, copy.deepcopy(store))
        live = run_plan_live_sync(plan, env.cluster, store, bandwidth=None)
        for bid, payload in lost_payloads(stripe, [1]).items():
            np.testing.assert_array_equal(live.recovered[bid], payload)
            np.testing.assert_array_equal(oracle.recovered[bid], payload)
        assert live.ledger == oracle.ledger
        assert live.ledger.sends == len(plan.sends())
        assert live.combine_count == oracle.combine_count == len(plan.combines())

    @pytest.mark.parametrize("scheme", ["traditional", "rpr"])
    def test_multi_block_recovery(self, scheme):
        plan, env, stripe, store = live_scenario(6, 3, [0, 2], scheme)
        live = run_plan_live_sync(plan, env.cluster, store, bandwidth=None)
        for bid, payload in lost_payloads(stripe, [0, 2]).items():
            np.testing.assert_array_equal(live.recovered[bid], payload)

    def test_tcp_transport_recovers_bytes(self, scenario63):
        plan, env, stripe, store = scenario63
        live = run_plan_live_sync(plan, env.cluster, store, transport="tcp")
        np.testing.assert_array_equal(
            live.recovered[1], lost_payloads(stripe, [1])[1]
        )
        assert live.transport == "tcp"

    def test_every_op_gets_a_timing(self, scenario63):
        plan, env, stripe, store = scenario63
        live = run_plan_live_sync(plan, env.cluster, store)
        assert set(live.timings) == set(plan.ops)
        assert all(t.end >= t.start >= 0.0 for t in live.timings.values())
        assert live.makespan == pytest.approx(
            max(t.end for t in live.timings.values())
        )

    def test_result_to_dict_is_json_shaped(self, scenario63):
        import json

        plan, env, stripe, store = scenario63
        live = run_plan_live_sync(plan, env.cluster, store)
        dumped = json.loads(json.dumps(live.to_dict()))
        assert dumped["recovered_blocks"] == [1]
        assert dumped["shaped"] is False


class TestShapedRuns:
    def test_shaped_run_is_slower_and_still_correct(self, scenario63):
        plan, env, stripe, store = scenario63
        shaped_store = copy.deepcopy(store)
        fast = run_plan_live_sync(plan, env.cluster, store)
        bw = HierarchicalBandwidth(intra=8e6, cross=8e5)
        slow = run_plan_live_sync(
            plan, env.cluster, shaped_store, bandwidth=bw
        )
        np.testing.assert_array_equal(
            slow.recovered[1], lost_payloads(stripe, [1])[1]
        )
        assert slow.shaped and not fast.shaped
        assert slow.makespan > fast.makespan

    def test_timeout_raises_instead_of_hanging(self, scenario63):
        plan, env, stripe, store = scenario63
        bw = HierarchicalBandwidth(intra=200.0, cross=20.0)  # glacial links
        with pytest.raises(LiveTimeoutError, match="unfinished ops"):
            run_plan_live_sync(
                plan, env.cluster, store, bandwidth=bw, timeout=0.2
            )


class TestErrors:
    def test_missing_send_payload_message_shape(self):
        cluster = Cluster.homogeneous(2, 2)
        plan = RepairPlan(block_size=4)
        plan.add_send("s0", 0, 1, "block:9")
        plan.mark_output(9, 1, "block:9")
        with pytest.raises(ExecutionError) as err:
            run_plan_live_sync(plan, cluster, {}, timeout=5.0)
        assert str(err.value) == missing_payload_message(
            "send", "s0", 0, 1, ["block:9"], 0
        )

    def test_missing_combine_payloads_lists_full_set(self):
        cluster = Cluster.homogeneous(2, 2)
        plan = RepairPlan(block_size=4)
        plan.add_combine("c0", 1, "out", terms=(("a", 1), ("b", 2)))
        plan.mark_output(0, 1, "out")
        with pytest.raises(ExecutionError) as err:
            run_plan_live_sync(plan, cluster, {}, timeout=5.0)
        assert str(err.value) == missing_payload_message(
            "combine", "c0", 0, 1, ["a", "b"], 1
        )

    def test_async_entrypoint_is_directly_awaitable(self, scenario63):
        plan, env, stripe, store = scenario63

        async def _run():
            return await run_plan_live(plan, env.cluster, store)

        live = asyncio.run(_run())
        np.testing.assert_array_equal(
            live.recovered[1], lost_payloads(stripe, [1])[1]
        )


X, Y = ("up", 0), ("down", 1)


async def settle():
    """Let every runnable task reach its next wait."""
    for _ in range(5):
        await asyncio.sleep(0)


class TestPortRegistry:
    """A release hands ports to the queued claims in the order they queued
    — the engine's (ready-time, insertion-order) rule — before any task,
    the releasing one included, runs again."""

    def test_a_task_reclaiming_in_a_loop_cannot_overtake_a_queued_waiter(self):
        async def scenario():
            ports, order = _PortRegistry(), []

            async def waiter():
                async with ports.hold(X):
                    order.append("waiter")

            for i in range(3):
                async with ports.hold(X):
                    order.append(f"loop{i}")
                    if i == 0:
                        queued = asyncio.ensure_future(waiter())
                        await settle()
            await queued
            return order

        assert asyncio.run(scenario()) == ["loop0", "waiter", "loop1", "loop2"]

    def test_waiters_on_disjoint_ports_are_all_granted_by_one_release(self):
        async def scenario():
            ports, order, holding, together = _PortRegistry(), [], set(), []

            async def waiter(name, port):
                async with ports.hold(port):
                    order.append(name)
                    holding.add(name)
                    await asyncio.sleep(0.01)
                    together.append(set(holding))
                    holding.discard(name)

            async with ports.hold(X, Y):
                tasks = [asyncio.ensure_future(waiter("x", X)),
                         asyncio.ensure_future(waiter("y", Y))]
                await settle()
            async with ports.hold(X, Y):  # claimed straight back: queues
                order.append("again")
            await asyncio.gather(*tasks)
            return order, together

        order, together = asyncio.run(scenario())
        assert order == ["x", "y", "again"]
        assert together[0] == {"x", "y"}

    @pytest.mark.parametrize("cancelled", ["queued", "granted"])
    def test_a_cancelled_waiter_leaves_no_port_busy(self, cancelled):
        async def scenario():
            ports, order = _PortRegistry(), []

            async def waiter(name):
                async with ports.hold(X):
                    order.append(name)

            async with ports.hold(X, Y):
                doomed = asyncio.ensure_future(waiter("doomed"))
                await settle()
                later = asyncio.ensure_future(waiter("later"))
                await settle()
                if cancelled == "queued":
                    doomed.cancel()
                    await settle()
            if cancelled == "granted":
                doomed.cancel()  # the release above granted it X; it never ran
            async with ports.hold(X):
                order.append("again")
            await later
            assert doomed.cancelled()

            async def claim_all():
                async with ports.hold(X, Y):
                    pass

            await asyncio.wait_for(claim_all(), timeout=1.0)
            return order

        assert asyncio.run(scenario()) == ["later", "again"]


def port_order(plan, starts) -> dict:
    """Port → the parts that held it, in the order ``starts`` says they took it."""
    holders = {}
    for part in plan.all_parts():
        node = part.writes[0]
        ports = [("cpu", node)] if node == part.owner else [("up", part.owner), ("down", node)]
        for port in ports:
            holders.setdefault(port, []).append(part.op_id)
    return {port: sorted(ids, key=starts.__getitem__) for port, ids in holders.items()}


class TestLivePortOrder:
    """Shaped live runs of the sliced RPR plans take every port in the
    simulator's order.  A registry that let a releasing task re-claim its
    port first ran each aggregator's first intra-rack send to its last
    slice before the second send's first, and delayed the cross stage.

    Two predicted claims on one port can be 2 ms apart, and a host
    oversubscribed several times over can starve one task for longer
    than that, so a run gets up to three attempts: an ordering the
    runtime gets wrong by design (the old registry) fails every one."""

    ATTEMPTS = 3

    @pytest.mark.parametrize("transport", ["memory", "tcp"])
    @pytest.mark.parametrize("n,k", CODES)
    def test_every_port_is_held_in_the_simulators_order(self, n, k, transport):
        from repro.live import live_context, live_environment
        from repro.workloads import encoded_stripe

        env = live_environment(n, k)
        predicted = simulate_repair(RPRScheme(), live_context(env, [1]), env.bandwidth)
        assert predicted.plan.slices > 1
        simulated = port_order(
            predicted.plan, {jid: t.start for jid, t in predicted.sim.timings.items()}
        )
        for _ in range(self.ATTEMPTS):
            live = run_plan_live_sync(
                predicted.plan,
                env.cluster,
                initial_store_for(encoded_stripe(env.code, env.block_size), env.placement, [1]),
                bandwidth=env.bandwidth,
                transport=transport,
            )
            measured = port_order(
                predicted.plan, {oid: t.start for oid, t in live.timings.items()}
            )
            if measured == simulated:
                break
        assert measured == simulated
