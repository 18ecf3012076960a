"""Tests for node-failure workloads and the multi-stripe scheduler."""

import numpy as np
import pytest

from repro.cluster import Cluster, FlatPlacement, SIMICS_BANDWIDTH
from repro.multistripe import (
    StripeStore,
    merge_plans,
    node_failure_contexts,
    pick_replacement_node,
    repair_node_failure,
)
from repro.repair import (
    CARRepair,
    RPRScheme,
    TraditionalRepair,
    execute_plan,
    initial_store_for,
)
from repro.rs import MB, DecodeCostModel, get_code
from repro.workloads import encoded_stripe

COST = DecodeCostModel(xor_speed=1000 * MB, matrix_build_factor=4.0)


@pytest.fixture
def store():
    cluster = Cluster.homogeneous(5, 6)
    return StripeStore.build(cluster, get_code(6, 2), num_stripes=15)


class TestNodeFailureContexts:
    def test_one_context_per_lost_block(self, store):
        failure, contexts = node_failure_contexts(store, 0)
        assert failure.stripes_affected == len(contexts)
        assert failure.stripes_affected > 0

    def test_replacement_mode_single_target(self, store):
        _, contexts = node_failure_contexts(store, 0, mode="replacement")
        targets = {ctx.recovery_override[0][1] for ctx in contexts}
        assert len(targets) == 1
        target = targets.pop()
        assert store.cluster.rack_of(target) == store.cluster.rack_of(0)

    def test_scatter_mode_spreads_targets(self, store):
        _, contexts = node_failure_contexts(store, 0, mode="scatter")
        targets = {ctx.recovery_override[0][1] for ctx in contexts}
        assert len(targets) > 1
        for target in targets:
            assert store.cluster.rack_of(target) == store.cluster.rack_of(0)

    def test_unknown_mode(self, store):
        with pytest.raises(ValueError):
            node_failure_contexts(store, 0, mode="nope")

    def test_node_with_no_blocks(self):
        cluster = Cluster.homogeneous(5, 6)
        store = StripeStore.build(cluster, get_code(6, 2), 1, rotate=False)
        empty_nodes = [n for n, c in store.blocks_per_node().items() if c == 0]
        failure, contexts = node_failure_contexts(store, empty_nodes[0])
        assert contexts == []
        assert failure.stripes_affected == 0

    def test_replacement_not_holding_affected_stripes(self, store):
        replacement = pick_replacement_node(store, 0)
        for sid, _ in store.blocks_on_node(0):
            assert store.stripe(sid).placement.block_at(replacement) is None


class TestMergePlans:
    def plans_for(self, store, node, scheme):
        _, contexts = node_failure_contexts(
            store, node, block_size=1024, cost_model=COST
        )
        return [scheme.plan(ctx) for ctx in contexts]

    def test_merged_graph_contains_all_ops(self, store):
        plans = self.plans_for(store, 0, RPRScheme())
        graph = merge_plans(plans, COST)
        assert len(graph) == sum(len(p.ops) for p in plans)
        graph.validate()

    def test_sequential_chains_stripes(self, store):
        plans = self.plans_for(store, 0, RPRScheme())
        graph = merge_plans(plans, COST, sequential=True)
        graph.validate()
        # Every root op of stripe 1 depends on something from stripe 0.
        s1_roots = [
            j
            for jid, j in graph.jobs.items()
            if jid.startswith("s1:")
            and all(not d.startswith("s1:") for d in j.deps)
        ]
        assert s1_roots
        for job in s1_roots:
            assert any(d.startswith("s0:") for d in job.deps)


class TestRepairNodeFailure:
    @pytest.mark.parametrize(
        "scheme", [TraditionalRepair(), RPRScheme()], ids=lambda s: s.name
    )
    def test_outcome_populated(self, store, scheme):
        outcome = repair_node_failure(store, 0, scheme, SIMICS_BANDWIDTH)
        assert outcome.makespan > 0
        assert outcome.total_cross_rack_bytes > 0
        assert len(outcome.plans) == outcome.failure.stripes_affected

    @pytest.mark.parametrize(
        "scheme", [TraditionalRepair(), RPRScheme()], ids=lambda s: s.name
    )
    def test_byte_totals_are_exact_ints(self, store, scheme):
        """Sim-side byte totals are integral and equal the per-plan sums.

        Every send moves exactly ``block_size`` bytes, so the aggregate is
        an exact integer multiple — a float total would mean the ledger
        drifted from the executor's int accounting.
        """
        outcome = repair_node_failure(store, 0, scheme, SIMICS_BANDWIDTH)
        assert type(outcome.total_cross_rack_bytes) is int
        assert type(outcome.total_intra_rack_bytes) is int
        expected_cross = sum(
            plan.block_size
            for plan in outcome.plans
            for op in plan.sends()
            if not store.cluster.same_rack(op.src, op.dst)
        )
        expected_intra = sum(
            plan.block_size
            for plan in outcome.plans
            for op in plan.sends()
            if store.cluster.same_rack(op.src, op.dst)
        )
        assert outcome.total_cross_rack_bytes == expected_cross
        assert outcome.total_intra_rack_bytes == expected_intra

    def test_parallel_never_slower_than_sequential(self, store):
        seq = repair_node_failure(
            store, 0, RPRScheme(), SIMICS_BANDWIDTH, mode="sequential"
        )
        par = repair_node_failure(
            store, 0, RPRScheme(), SIMICS_BANDWIDTH, mode="parallel"
        )
        assert par.makespan <= seq.makespan + 1e-9
        assert par.total_cross_rack_bytes == pytest.approx(
            seq.total_cross_rack_bytes
        )

    def test_scatter_faster_than_replacement_in_parallel(self, store):
        """Spreading rebuild targets removes the replacement node's
        download-port bottleneck."""
        single = repair_node_failure(
            store, 0, RPRScheme(), SIMICS_BANDWIDTH, rebuild="replacement"
        )
        scatter = repair_node_failure(
            store, 0, RPRScheme(), SIMICS_BANDWIDTH, rebuild="scatter"
        )
        assert scatter.makespan < single.makespan

    def test_rpr_beats_traditional_on_node_rebuild(self, store):
        tra = repair_node_failure(store, 0, TraditionalRepair(), SIMICS_BANDWIDTH)
        rpr = repair_node_failure(store, 0, RPRScheme(), SIMICS_BANDWIDTH)
        assert rpr.makespan < tra.makespan
        assert rpr.total_cross_rack_bytes < tra.total_cross_rack_bytes

    def test_balance_reduces_imbalance_on_flat_store(self):
        cluster = Cluster.homogeneous(10, 4)
        store = StripeStore.build(
            cluster, get_code(6, 2), 30, placement_policy=FlatPlacement()
        )
        for scheme in (CARRepair(), RPRScheme(prefer_xor=False)):
            plain = repair_node_failure(
                store, 0, scheme, SIMICS_BANDWIDTH, rebuild="scatter"
            )
            balanced = repair_node_failure(
                store, 0, scheme, SIMICS_BANDWIDTH, rebuild="scatter", balance=True
            )
            assert (
                balanced.rack_upload_imbalance["max_mean_ratio"]
                <= plain.rack_upload_imbalance["max_mean_ratio"]
            ), scheme.name
            assert balanced.total_cross_rack_bytes == pytest.approx(
                plain.total_cross_rack_bytes
            ), scheme.name

    def test_empty_node_rebuild(self):
        cluster = Cluster.homogeneous(5, 6)
        store = StripeStore.build(cluster, get_code(6, 2), 1, rotate=False)
        empty = [n for n, c in store.blocks_per_node().items() if c == 0][0]
        outcome = repair_node_failure(store, empty, RPRScheme(), SIMICS_BANDWIDTH)
        assert outcome.makespan == 0.0
        assert outcome.plans == []

    def test_unknown_mode(self, store):
        with pytest.raises(ValueError):
            repair_node_failure(
                store, 0, RPRScheme(), SIMICS_BANDWIDTH, mode="warp"
            )

    def test_byte_level_verification_of_every_stripe_plan(self, store):
        """Each per-stripe plan must reconstruct its stripe's lost block."""
        failure, contexts = node_failure_contexts(
            store, 0, block_size=256, cost_model=COST
        )
        for ctx, (stripe_id, block_id) in zip(contexts, failure.lost):
            stored = store.stripe(stripe_id)
            stripe = encoded_stripe(stored.code, 256, seed=stripe_id)
            plan = RPRScheme().plan(ctx)
            payload_store = initial_store_for(
                stripe, stored.placement, [block_id]
            )
            result = execute_plan(plan, store.cluster, payload_store)
            np.testing.assert_array_equal(
                result.recovered[block_id], stripe.get_payload(block_id)
            )


class TestRackFailure:
    @pytest.fixture
    def store(self):
        cluster = Cluster.homogeneous(5, 6)
        return StripeStore.build(cluster, get_code(6, 2), num_stripes=15)

    def test_contexts_cover_all_resident_blocks(self, store):
        from repro.multistripe import rack_failure_contexts

        failure, contexts = rack_failure_contexts(store, 0, block_size=1024, cost_model=COST)
        rack_nodes = set(store.cluster.nodes_in_rack(0))
        expected = sum(
            1
            for stored in store
            for node in stored.placement.block_to_node.values()
            if node in rack_nodes
        )
        assert failure.stripes_affected == expected
        assert sum(len(ctx.failed_blocks) for ctx in contexts) == expected

    def test_targets_avoid_failed_rack(self, store):
        from repro.multistripe import rack_failure_contexts

        _, contexts = rack_failure_contexts(store, 0, block_size=1024, cost_model=COST)
        for ctx in contexts:
            for _block, node in ctx.recovery_override:
                assert store.cluster.rack_of(node) != 0

    def test_repair_rack_failure_outcome(self, store):
        from repro.multistripe import repair_rack_failure

        tra = repair_rack_failure(store, 0, TraditionalRepair(), SIMICS_BANDWIDTH)
        rpr = repair_rack_failure(store, 0, RPRScheme(), SIMICS_BANDWIDTH)
        assert rpr.makespan < tra.makespan
        assert rpr.total_cross_rack_bytes <= tra.total_cross_rack_bytes

    def test_rack_failure_plans_reconstruct_bytes(self, store):
        from repro.multistripe import rack_failure_contexts

        _, contexts = rack_failure_contexts(store, 1, block_size=256, cost_model=COST)
        for ctx in contexts[:5]:
            sid = next(
                s.stripe_id
                for s in store
                if s.placement is ctx.placement
            )
            stripe = encoded_stripe(ctx.code, 256, seed=sid)
            plan = RPRScheme().plan(ctx)
            payload_store = initial_store_for(
                stripe, ctx.placement, ctx.failed_blocks
            )
            result = execute_plan(plan, store.cluster, payload_store)
            for b in ctx.failed_blocks:
                np.testing.assert_array_equal(
                    result.recovered[b], stripe.get_payload(b)
                )

    def test_empty_rack(self):
        from repro.multistripe import rack_failure_contexts

        cluster = Cluster.homogeneous(5, 6)
        store = StripeStore.build(cluster, get_code(6, 2), 1, rotate=False)
        used_racks = {store.cluster.rack_of(n)
                      for n in store.stripe(0).placement.block_to_node.values()}
        empty = next(r for r in cluster.rack_ids() if r not in used_racks)
        failure, contexts = rack_failure_contexts(store, empty)
        assert contexts == []
        assert failure.stripes_affected == 0

    def test_unknown_mode_rejected(self, store):
        from repro.multistripe import repair_rack_failure

        with pytest.raises(ValueError):
            repair_rack_failure(store, 0, RPRScheme(), SIMICS_BANDWIDTH, mode="warp")


class TestOrderRepairContexts:
    """The order repairs are taken in: a simulated rebuild plans the lost
    stripes in the order the node held them, and the store's queue
    (``StripeStore.degraded()``) puts the stripes closest to loss first."""

    def test_arrival_keeps_the_given_order(self, store):
        _, contexts = node_failure_contexts(store, 0, block_size=1024, cost_model=COST)
        outcome = repair_node_failure(
            store, 0, RPRScheme(), SIMICS_BANDWIDTH, block_size=1024, cost_model=COST
        )
        assert outcome.plans == [RPRScheme().plan(ctx) for ctx in contexts]

    @staticmethod
    def doubly_degraded(store):
        """Fail two holders of the last stripe: some stripes lose two blocks."""
        last = store.stripe(len(store) - 1).placement
        store.fail_node(last.node_of(0))
        store.fail_node(last.node_of(1))
        return store.degraded()

    def test_most_at_risk_puts_the_closest_to_loss_first(self, store):
        order = self.doubly_degraded(store)
        lost = [len(store.stripe(sid).missing) for sid in order]
        assert lost[0] == 2 and lost[-1] == 1
        assert lost == sorted(lost, reverse=True)

    def test_most_at_risk_is_stable_within_a_risk_level(self, store):
        order = self.doubly_degraded(store)
        for count in (2, 1):
            level = [sid for sid in order if len(store.stripe(sid).missing) == count]
            assert level == sorted(level)

    def test_input_is_not_mutated(self, store):
        order = self.doubly_degraded(store)
        missing = {sid: set(store.stripe(sid).missing) for sid in order}
        assert store.degraded() == order
        assert {sid: store.stripe(sid).missing for sid in order} == missing
