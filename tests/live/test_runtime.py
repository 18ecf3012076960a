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
from repro.repair import (
    ExecutionError,
    RepairPlan,
    execute_plan,
    missing_payload_message,
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
