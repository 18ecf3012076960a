"""Property tests for scaling and composition invariants."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster, RPRPlacement, SIMICS_BANDWIDTH
from repro.multistripe import StripeStore, merge_plans, repair_node_failure
from repro.repair import (
    CARRepair,
    RepairContext,
    RPRScheme,
    TraditionalRepair,
    simulate_repair,
)
from repro.rs import MB, SIMICS_DECODE, get_code
from repro.sim import SimulationEngine

CODES = st.sampled_from([(4, 2), (6, 2), (6, 3), (8, 4), (12, 4)])
SCHEMES = st.sampled_from(
    [TraditionalRepair(), CARRepair(), RPRScheme()]
)


def context(n, k, failed, block_size):
    racks = -(-(n + k) // k) + 1
    cluster = Cluster.homogeneous(racks, 2 * k)
    placement = RPRPlacement().place(cluster, n, k)
    return RepairContext(
        code=get_code(n, k),
        cluster=cluster,
        placement=placement,
        failed_blocks=tuple(failed),
        block_size=block_size,
        cost_model=SIMICS_DECODE,
    )


class TestBlockSizeScaling:
    @given(CODES, SCHEMES, st.integers(0, 30), st.sampled_from([2, 4, 16, 100]))
    @settings(max_examples=40, deadline=None)
    def test_makespan_linear_in_block_size(self, nk, scheme, seed, factor):
        """With zero link latency, every duration is B/speed, so the whole
        schedule scales linearly with block size."""
        n, k = nk
        failed = [seed % n]
        small = simulate_repair(
            scheme, context(n, k, failed, 1 * MB), SIMICS_BANDWIDTH
        )
        large = simulate_repair(
            scheme, context(n, k, failed, factor * MB), SIMICS_BANDWIDTH
        )
        assert large.total_repair_time == pytest.approx(
            factor * small.total_repair_time, rel=1e-9
        )
        assert large.cross_rack_bytes == pytest.approx(
            factor * small.cross_rack_bytes
        )

    @given(CODES, SCHEMES, st.integers(0, 30))
    @settings(max_examples=30, deadline=None)
    def test_plan_structure_independent_of_block_size(self, nk, scheme, seed):
        n, k = nk
        failed = [seed % n]
        plan_small = scheme.plan(context(n, k, failed, 1 * MB))
        plan_large = scheme.plan(context(n, k, failed, 256 * MB))
        assert list(plan_small.ops.keys()) == list(plan_large.ops.keys())


class TestPlanDeterminism:
    @given(CODES, SCHEMES, st.integers(0, 50))
    @settings(max_examples=40, deadline=None)
    def test_same_context_same_plan(self, nk, scheme, seed):
        n, k = nk
        failed = [seed % (n + k)]
        ctx = context(n, k, failed, 4 * MB)
        a = scheme.plan(ctx)
        b = scheme.plan(ctx)
        assert list(a.ops.keys()) == list(b.ops.keys())
        for oid in a.ops:
            assert a.ops[oid] == b.ops[oid]
        assert a.outputs == b.outputs


class TestMultiStripeComposition:
    @given(st.integers(2, 12), st.integers(0, 3))
    @settings(max_examples=15, deadline=None)
    def test_parallel_rebuild_bounded_by_sum_of_parts(self, stripes, node):
        """The merged graph can only interleave work: its makespan is at
        most the sum of per-stripe makespans (sequential-like bound) and
        at least the largest single stripe's makespan."""
        cluster = Cluster.homogeneous(5, 6)
        store = StripeStore.build(cluster, get_code(6, 2), stripes)
        scheme = RPRScheme()
        parallel = repair_node_failure(
            store, node, scheme, SIMICS_BANDWIDTH, mode="parallel"
        )
        if not parallel.plans:
            return
        engine = SimulationEngine(cluster, SIMICS_BANDWIDTH)
        individual = [
            engine.run(merge_plans([plan], SIMICS_DECODE)).makespan
            for plan in parallel.plans
        ]
        assert parallel.makespan <= sum(individual) + 1e-6
        assert parallel.makespan >= max(individual) - 1e-6

    @given(st.integers(2, 10))
    @settings(max_examples=10, deadline=None)
    def test_sequential_equals_sum_within_overheads(self, stripes):
        """Sequential mode chains stripes, so its makespan is at least
        every individual makespan combined (it can exceed the plain sum
        only via rounding, never undercut it by more than epsilon)."""
        cluster = Cluster.homogeneous(5, 6)
        store = StripeStore.build(cluster, get_code(6, 2), stripes)
        scheme = RPRScheme()
        seq = repair_node_failure(
            store, 0, scheme, SIMICS_BANDWIDTH, mode="sequential"
        )
        if not seq.plans:
            return
        engine = SimulationEngine(cluster, SIMICS_BANDWIDTH)
        individual = [
            engine.run(merge_plans([plan], SIMICS_DECODE)).makespan
            for plan in seq.plans
        ]
        assert seq.makespan >= sum(individual) - 1e-6


class TestStructuralLowerBounds:
    @given(CODES, SCHEMES, st.integers(0, 40))
    @settings(max_examples=40, deadline=None)
    def test_makespan_respects_plan_structure(self, nk, scheme, seed):
        """The simulated makespan can never undercut the plan's structural
        lower bounds: chained cross transfers each cost a full t_c, and
        the longest op chain bounds from below as well."""
        from repro.repair import critical_path_hops

        n, k = nk
        failed = [seed % (n + k)]
        ctx = context(n, k, failed, 16 * MB)
        plan = scheme.plan(ctx)
        _, cross_depth = critical_path_hops(plan, ctx.cluster)
        outcome = simulate_repair(scheme, ctx, SIMICS_BANDWIDTH)
        t_c = ctx.block_size / SIMICS_BANDWIDTH.cross
        assert outcome.total_repair_time >= cross_depth * t_c - 1e-9
        # traffic identity: ledger equals plan structure exactly
        assert outcome.cross_rack_bytes == pytest.approx(plan.traffic(ctx.cluster).cross_rack_bytes)
