"""Tests for the extensions: RPR told the EC2 links, and degraded reads."""

from dataclasses import replace

import numpy as np
import pytest

from repro.cluster import SIMICS_BANDWIDTH
from repro.experiments import build_ec2_env, context_for
from repro.repair import (
    RepairPlanningError,
    RPRScheme,
    degraded_read_context,
    execute_plan,
    initial_store_for,
    plan_degraded_read,
    simulate_repair,
)
from repro.workloads import encoded_stripe, single_failure_scenarios

from .conftest import make_context, make_stripe


def told_the_links(env, failed):
    """The context of ``failed`` on ``env``, told its links."""
    return replace(context_for(env, failed), link_model=env.bandwidth)


def single_failures_on_ec2(n, k):
    """(env, paper context, context told the Table 1 links) per single failure."""
    env = build_ec2_env(n, k)
    for scenario in single_failure_scenarios(env.code):
        failed = scenario.failed_blocks
        yield env, context_for(env, failed), told_the_links(env, failed)


class TestHeterogeneityAwareRPR:
    """RPR told the EC2 links (``RepairContext.link_model``) against the
    paper's plan on the same links."""

    def test_reconstructs_correctly(self):
        # 1 MiB blocks: large enough that the EC2 links slice the chain.
        env = build_ec2_env(8, 2, block_size=1 << 20)
        ctx = told_the_links(env, [3])
        plan = RPRScheme().plan(ctx)
        assert plan.slices > 1
        stripe = encoded_stripe(env.code, ctx.block_size, seed=3)
        store = initial_store_for(stripe, env.placement, [3])
        result = execute_plan(plan, env.cluster, store)
        np.testing.assert_array_equal(result.recovered[3], stripe.get_payload(3))

    @pytest.mark.parametrize("n,k", [(6, 2), (8, 2), (12, 4)])
    def test_never_slower_than_plain_rpr_on_ec2(self, n, k):
        for env, ctx, told in single_failures_on_ec2(n, k):
            t = simulate_repair(RPRScheme(), told, env.bandwidth)
            p = simulate_repair(RPRScheme(), ctx, env.bandwidth)
            assert t.total_repair_time <= p.total_repair_time + 1e-9
            assert t.cross_rack_blocks == p.cross_rack_blocks

    def test_strict_gain_exists_somewhere(self):
        gains = [
            simulate_repair(RPRScheme(), ctx, env.bandwidth).total_repair_time
            - simulate_repair(RPRScheme(), told, env.bandwidth).total_repair_time
            for env, ctx, told in single_failures_on_ec2(12, 4)
        ]
        assert max(gains) > 1.0  # seconds saved on at least one position

    def test_identical_to_plain_on_uniform_links(self):
        """Told the uniform Simics links, a 512-byte block is too small to
        slice (≈ 41 µs across a rack, under the 10 ms slice floor), so RPR
        plans the paper's op list."""
        ctx = make_context(12, 4, failed=[1])
        told = replace(ctx, link_model=SIMICS_BANDWIDTH)
        assert RPRScheme().plan(told) == RPRScheme().plan(ctx)


class TestDegradedRead:
    def test_delivers_to_client(self):
        ctx = make_context(6, 3, failed=[2])
        # client: a spare node in a *different* rack than the failed block
        client_rack = (ctx.rack_of_block(2) + 1) % ctx.cluster.num_racks
        client = ctx.placement.spare_nodes_in_rack(ctx.cluster, client_rack)[0]
        plan = plan_degraded_read(RPRScheme(), ctx, client)
        node, _ = plan.outputs[2]
        assert node == client
        stripe = make_stripe(ctx)
        store = initial_store_for(stripe, ctx.placement, [2])
        result = execute_plan(plan, ctx.cluster, store)
        np.testing.assert_array_equal(result.recovered[2], stripe.get_payload(2))

    def test_client_rack_becomes_recovery_rack(self):
        """Helpers in the client's rack stream locally; aggregation lands
        at the client."""
        ctx = make_context(12, 4, failed=[1])
        client_rack = 2
        client = ctx.placement.spare_nodes_in_rack(ctx.cluster, client_rack)[0]
        plan = plan_degraded_read(RPRScheme(), ctx, client)
        local_sends = [
            op
            for op in plan.sends()
            if op.dst == client and ctx.cluster.same_rack(op.src, op.dst)
        ]
        assert local_sends  # rack-2 helpers go straight to the client

    def test_multi_failure_rejected(self):
        ctx = make_context(6, 3, failed=[0, 1])
        with pytest.raises(RepairPlanningError):
            degraded_read_context(ctx, 0)

    def test_client_holding_survivor_uses_it_in_place(self):
        """A client that stores a surviving block of the stripe consumes it
        with zero transfers (it is both helper holder and destination)."""
        ctx = make_context(6, 3, failed=[2])
        survivor_node = ctx.placement.node_of(0)
        plan = plan_degraded_read(RPRScheme(), ctx, survivor_node)
        # block 0 never moves: no send op carries its key.
        from repro.repair import block_key

        assert all(op.key != block_key(0) for op in plan.sends())
        stripe = make_stripe(ctx)
        store = initial_store_for(stripe, ctx.placement, [2])
        result = execute_plan(plan, ctx.cluster, store)
        np.testing.assert_array_equal(result.recovered[2], stripe.get_payload(2))

    def test_client_on_failed_node_allowed(self):
        """Reading at the failed block's own (replaced) node is a repair."""
        ctx = make_context(6, 3, failed=[2])
        failed_node = ctx.placement.node_of(2)
        retargeted = degraded_read_context(ctx, failed_node)
        assert retargeted.recovery_override == ((2, failed_node),)

    def test_unknown_client_rejected(self):
        ctx = make_context(6, 3, failed=[2])
        with pytest.raises(KeyError):
            degraded_read_context(ctx, 10_000)
