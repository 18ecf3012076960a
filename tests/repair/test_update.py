"""Tests for the parity-delta update path."""

import numpy as np
import pytest

from repro.cluster import SIMICS_BANDWIDTH
from repro.repair import (
    RepairPlanningError,
    apply_update_payloads,
    execute_plan,
    initial_store_for,
    plan_update,
)
from repro.sim import SimulationEngine

from ..codewords import is_codeword
from .conftest import make_context, make_stripe


def run_update(ctx, stripe, block_id, new_payload):
    plan = plan_update(ctx, block_id)
    store = initial_store_for(stripe, ctx.placement, failed_blocks=[])
    data_node = ctx.node_of_block(block_id)
    store.setdefault(data_node, {})[f"update:new:{block_id}"] = new_payload
    result = execute_plan(plan, ctx.cluster, store)
    return plan, result


class TestUpdateCorrectness:
    def test_parities_refreshed_correctly(self):
        ctx = make_context(6, 3, failed=[0])  # failed_blocks unused by updates
        stripe = make_stripe(ctx)
        rng = np.random.default_rng(5)
        new_payload = rng.integers(0, 256, ctx.block_size, dtype=np.uint8)
        _, result = run_update(ctx, stripe, 2, new_payload)
        expected = apply_update_payloads(ctx.code, stripe, 2, new_payload)
        for bid, payload in expected.items():
            np.testing.assert_array_equal(result.recovered[bid], payload)

    def test_updated_stripe_is_valid_codeword(self):
        """After applying the plan's outputs, re-encoding must agree."""
        ctx = make_context(8, 4, failed=[0])
        stripe = make_stripe(ctx, seed=9)
        rng = np.random.default_rng(10)
        new_payload = rng.integers(0, 256, ctx.block_size, dtype=np.uint8)
        _, result = run_update(ctx, stripe, 5, new_payload)
        for bid, payload in result.recovered.items():
            stripe.set_payload(bid, payload)
        assert is_codeword(ctx.code, stripe)

    def test_every_data_block_updatable(self):
        ctx = make_context(4, 2, failed=[0])
        stripe = make_stripe(ctx, seed=1)
        rng = np.random.default_rng(2)
        for block in range(4):
            new_payload = rng.integers(0, 256, ctx.block_size, dtype=np.uint8)
            _, result = run_update(ctx, stripe, block, new_payload)
            expected = apply_update_payloads(ctx.code, stripe, block, new_payload)
            for bid, payload in expected.items():
                np.testing.assert_array_equal(result.recovered[bid], payload)

    def test_identity_update_keeps_parities(self):
        """Rewriting identical content yields a zero delta: parities
        unchanged."""
        ctx = make_context(6, 2, failed=[0])
        stripe = make_stripe(ctx, seed=3)
        same = stripe.get_payload(1).copy()
        _, result = run_update(ctx, stripe, 1, same)
        for parity in [6, 7]:
            np.testing.assert_array_equal(
                result.recovered[parity], stripe.get_payload(parity)
            )


class TestUpdatePlanShape:
    def test_one_delta_send_per_remote_parity(self):
        ctx = make_context(6, 2, failed=[0])
        plan = plan_update(ctx, 1)
        sends = plan.sends()
        # both parities are remote from d1's node under either placement
        assert len(sends) == 2
        assert all(s.key == "update:delta:1" for s in sends)

    def test_same_node_parity_needs_no_send(self):
        """With RPR placement, P0 shares a rack (maybe a node? no — one
        block per node).  Construct a context where the updated block and
        P0 sit on the same node: impossible under one-block-per-node, so
        all parities always need a send; assert the invariant instead."""
        ctx = make_context(8, 4, failed=[0])
        plan = plan_update(ctx, 7)
        assert len(plan.sends()) == 4

    def test_parity_update_rejected(self):
        ctx = make_context(6, 2, failed=[0])
        with pytest.raises(RepairPlanningError):
            plan_update(ctx, 6)

    def test_outputs_cover_block_and_parities(self):
        ctx = make_context(6, 3, failed=[0])
        plan = plan_update(ctx, 4)
        assert set(plan.outputs) == {4, 6, 7, 8}


class TestUpdateTiming:
    def test_simulated_update_time(self):
        """Update time ~ slowest delta path (cross-rack transfer bound)."""
        ctx = make_context(6, 2, failed=[0])
        plan = plan_update(ctx, 1)
        graph = plan.to_job_graph(ctx.cost_model)
        sim = SimulationEngine(ctx.cluster, SIMICS_BANDWIDTH).run(graph)
        t_c = ctx.block_size / SIMICS_BANDWIDTH.cross
        # two serial cross sends from one uplink at worst + combines
        assert sim.makespan <= 2 * t_c + 1.0
        assert sim.makespan >= t_c

    def test_preplacement_update_traffic_not_worse(self):
        """§3.3's neutrality claim, measured on the update path: moving
        P0 next to data does not increase average cross-rack update
        traffic."""
        from repro.metrics import TrafficLedger

        def avg_cross_blocks(placement_kind):
            total = 0.0
            ctx0 = make_context(6, 2, failed=[0], placement=placement_kind)
            for block in range(6):
                plan = plan_update(ctx0, block)
                graph = plan.to_job_graph(ctx0.cost_model)
                sim = SimulationEngine(ctx0.cluster, SIMICS_BANDWIDTH).run(graph)
                ledger = TrafficLedger.from_sim(sim, ctx0.cluster)
                total += ledger.cross_rack_bytes / ctx0.block_size
            return total / 6

        assert avg_cross_blocks("rpr") <= avg_cross_blocks("contiguous") + 1e-9
