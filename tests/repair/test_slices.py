"""Slices are op-core semantics: every driver runs a sliced plan the same.

An op with ``slices=s`` runs in ``s`` byte ranges; what that means —
part ids, who waits for whom, which payloads are read as slices and
which through a view, how a block rebuilt in slices becomes one array —
is decided in ``repro.repair.plan`` and nowhere else.  The tests here
pin those decisions and then hold the simulator, the byte executor, the
live runtime (memory and TCP), the store's repair sessions and the
symbolic tracker to each other on sliced chain plans.
"""

import copy
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster, HierarchicalBandwidth, SIMICS_BANDWIDTH
from repro.live import run_plan_live_sync
from repro.metrics import TrafficLedger
from repro.repair import (
    PlanError,
    RPRScheme,
    RepairPlan,
    execute_plan,
    initial_store_for,
    payload_compositions,
    recovery_targets,
)
from repro.repair.plan import OpSlice, join_slices, op_from_dict, slice_bounds
from repro.repair.rpr.cross import MAX_SLICES, chain_slices
from repro.repair.selection import rack_aware_helpers
from repro.rs import PAPER_SINGLE_FAILURE_CODES, DecodeCostModel
from repro.sim import SimulationEngine, telemetry_from_sim

from .conftest import COST, make_context, make_stripe
from .test_executor import assert_same_picture, run_sessions, wall_recorder


def chain_plan(ctx, slices: int) -> RepairPlan:
    """RPR's plan with the cross stage chained in ``slices`` slices (the
    paper's tree when ``slices`` is 1 or there are not two racks to chain)."""
    scheme = RPRScheme()
    helpers = rack_aware_helpers(ctx, prefer_xor=scheme.prefer_xor)
    return scheme._build(ctx, helpers, recovery_targets(ctx), chain=slices)


def relay_plan(block_size: int, slices: int, with_matrix_build: bool = False) -> RepairPlan:
    """x on node 0 → node 2 (folds in w) → node 4 (folds in z), all sliced."""
    plan = RepairPlan(block_size=block_size)
    a = plan.add_send("a", 0, 2, "x", slices=slices)
    c = plan.add_combine(
        "c", 2, "y", [("x", 3), ("w", 1)], deps=[a], slices=slices,
        with_matrix_build=with_matrix_build,
    )
    b = plan.add_send("b", 2, 4, "y", deps=[c], slices=slices)
    plan.add_combine("f", 4, "out", [("y", 1), ("z", 7)], deps=[b], slices=slices)
    plan.mark_output(0, 4, "out")
    return plan


class TestSliceBounds:
    @given(nbytes=st.integers(1, 5000), slices=st.integers(1, 64))
    def test_array_split_sizes(self, nbytes, slices):
        bounds = slice_bounds(nbytes, slices)
        expected = [len(part) for part in np.array_split(np.arange(nbytes), slices)]
        assert [hi - lo for lo, hi in bounds] == expected
        assert bounds[0][0] == 0 and bounds[-1][1] == nbytes
        assert all(a[1] == b[0] for a, b in zip(bounds, bounds[1:]))

    def test_join_returns_a_lone_part_itself(self):
        whole = np.arange(5, dtype=np.uint8)
        assert join_slices([whole]) is whole
        np.testing.assert_array_equal(join_slices([whole[:2], whole[2:]]), whole)


class TestSlicedOps:
    def test_slices_is_absent_from_to_dict_when_one(self):
        plan = relay_plan(64, 1)
        assert all("slices" not in op.to_dict() for op in plan.ops.values())
        sliced = relay_plan(64, 4)
        assert all(op.to_dict()["slices"] == 4 for op in sliced.ops.values())

    def test_ops_and_slices_round_trip_through_to_dict(self):
        plan = relay_plan(70, 3)
        for op in plan.ops.values():
            assert op_from_dict(op.to_dict()) == op
        for parts in plan.parts().values():
            for part in parts:
                assert isinstance(part, OpSlice)
                assert op_from_dict(part.to_dict()) == part

    @pytest.mark.parametrize("slices", [0, -1])
    def test_slice_count_must_be_positive(self, slices):
        with pytest.raises(PlanError, match="slices"):
            relay_plan(64, slices)

    def test_more_slices_than_bytes_is_rejected(self):
        with pytest.raises(PlanError, match="9 slices of a 8-byte block"):
            relay_plan(8, 9).validate()

    def test_a_sliced_payload_cannot_be_read_whole(self):
        plan = RepairPlan(block_size=64)
        a = plan.add_send("a", 0, 2, "x", slices=4)
        plan.add_combine("c", 2, "y", [("x", 1)], deps=[a])
        plan.mark_output(0, 2, "y")
        with pytest.raises(PlanError, match="receives in 4 slices"):
            plan.validate()

    def test_an_unsliced_plan_is_its_own_parts(self):
        plan = relay_plan(64, 1)
        assert plan.slices == 1
        assert plan.parts() == {oid: (op,) for oid, op in plan.ops.items()}
        assert plan.output_keys(0) == ("out",)


class TestParts:
    def test_slice_j_waits_for_slice_j_the_whole_and_its_own_predecessor(self):
        plan = RepairPlan(block_size=100)
        raw = plan.add_send("raw", 1, 2, "w")  # whole, intra-rack style
        a = plan.add_send("a", 0, 2, "x", slices=3)
        plan.add_combine("c", 2, "y", [("x", 1), ("w", 1)], deps=[a, raw], slices=3)
        after = plan.add_send("after", 3, 5, "v", deps=["c"])  # ordering only
        plan.mark_output(0, 2, "y")
        parts = plan.parts()
        assert [p.op_id for p in parts["c"]] == ["c#0", "c#1", "c#2"]
        assert parts["c"][0].deps == ("a#0", "raw")
        assert parts["c"][2].deps == ("a#2", "raw", "c#1")
        # an unsliced op waits for a sliced one's last slice
        assert parts[after][0].deps == ("c#2",)
        assert parts[raw] == (plan.ops[raw],)

    def test_reads_resolve_to_slice_keys_or_views(self):
        plan = relay_plan(10, 3)
        first = plan.parts()["a"][1]
        assert first.reads == ("x",) and first.writes == (2, "x#1")
        fold = plan.parts()["c"][1]
        assert fold.reads == ("x#1", "w") and fold.writes == (2, "y#1")
        assert (fold.lo, fold.hi) == (4, 7)
        out = fold.apply([np.full(3, 5, np.uint8), np.arange(10, dtype=np.uint8)])
        np.testing.assert_array_equal(
            out, np.full(3, 15, np.uint8) ^ np.arange(4, 7, dtype=np.uint8)
        )
        assert plan.output_keys(0) == ("out#0", "out#1", "out#2")

    def test_span_attrs_name_the_op_and_the_slice(self):
        plan = relay_plan(10, 3)
        part = plan.parts()["b"][2]
        assert part.span_attrs == {
            "kind": "transfer", "node": 2, "peer": 4, "op": "b", "slice": 2, "slices": 3,
        }
        # every part names its plan op; an unsliced op is its own part
        assert part.op is plan.ops["b"] and plan.ops["b"].op is plan.ops["b"]

    @pytest.mark.parametrize("slices", [2, 3, 8])
    def test_matrix_build_is_paid_once_and_sums_to_the_whole(self, slices):
        cost = DecodeCostModel(xor_speed=100.0, matrix_build_factor=4.0)
        whole = relay_plan(203, 1, with_matrix_build=True).to_job_graph(cost)
        graph = relay_plan(203, slices, with_matrix_build=True).to_job_graph(cost)
        seconds = [graph.jobs[f"c#{j}"].seconds for j in range(slices)]
        assert sum(seconds) == pytest.approx(whole.jobs["c"].seconds)
        sizes = [hi - lo for lo, hi in slice_bounds(203, slices)]
        assert seconds[1:] == pytest.approx([n / 100.0 for n in sizes[1:]])
        assert seconds[0] == pytest.approx(sizes[0] / 100.0 + 3 * 203 / 100.0)

    def test_sliced_transfers_carry_their_bytes(self):
        graph = relay_plan(10, 3).to_job_graph(COST)
        assert [graph.jobs[f"a#{j}"].nbytes for j in range(3)] == [4, 3, 3]
        assert graph.jobs["b#1"].deps == ("c#1", "b#0")

    def test_a_chain_of_sliced_hops_costs_one_block_plus_a_slice_per_hop(self):
        cluster = Cluster.homogeneous(3, 2)
        free = DecodeCostModel(xor_speed=1e30, matrix_build_factor=1.0)
        links = HierarchicalBandwidth(intra=1e6, cross=1e5)
        engine = SimulationEngine(cluster, links)
        block = 8000
        one = block / 1e5
        assert engine.run(relay_plan(block, 1).to_job_graph(free)).makespan == pytest.approx(2 * one)
        assert engine.run(relay_plan(block, 8).to_job_graph(free)).makespan == pytest.approx(
            one * (1 + 1 / 8)
        )


    def test_merge_plans_compiles_the_same_parts(self):
        """Multi-stripe merging follows: prefixed part ids, sequential
        chaining onto the previous stripe's last slice."""
        from repro.multistripe import merge_plans

        plans = [relay_plan(10, 3), relay_plan(10, 3)]
        merged = merge_plans(plans, COST, sequential=True)
        single = plans[0].to_job_graph(COST)
        assert {jid.removeprefix("s0:") for jid in merged.jobs if jid.startswith("s0:")} == set(
            single.jobs
        )
        assert merged.jobs["s0:b#1"].deps == ("s0:c#1", "s0:b#0")
        # stripe 1's root waits for stripe 0's terminal op — its last slice —
        # and the root's later slices wait for it through their predecessor
        assert merged.jobs["s1:a#0"].deps == ("s0:f#2",)
        assert merged.jobs["s1:a#1"].deps == ("s1:a#0",)


class TestChainSlices:
    def test_live_defaults(self):
        assert chain_slices(64 * 1024, 8e5) == 8
        assert chain_slices(32 * 1024, 8e5) == 4
        assert chain_slices(4 * 1024, 8e5) == 1

    def test_capped(self):
        assert chain_slices(256_000_000, 12.5e6) == MAX_SLICES


class TestPlannerChoice:
    """What ``RPRScheme.plan`` does with a context that names its links."""

    BLOCK = 1 << 20  # 84 ms across racks at the Simics rates: 8 slices

    def linked(self, failed):
        ctx = make_context(8, 3, failed=failed, block_size=self.BLOCK)
        return ctx, replace(ctx, link_model=SIMICS_BANDWIDTH)

    def test_a_single_failure_with_two_remote_racks_chains(self):
        ctx, linked = self.linked([1])
        assert RPRScheme().plan(ctx).slices == 1
        assert RPRScheme().plan(linked).slices == 8

    def test_a_multi_block_failure_keeps_the_tree(self):
        ctx, linked = self.linked([1, 4])
        assert [op.to_dict() for op in RPRScheme().plan(linked).ops.values()] == [
            op.to_dict() for op in RPRScheme().plan(ctx).ops.values()
        ]

    def test_the_nopipe_ablation_keeps_its_direct_gather(self):
        ctx, linked = self.linked([1])
        scheme = RPRScheme(pipeline=False)
        assert [op.to_dict() for op in scheme.plan(linked).ops.values()] == [
            op.to_dict() for op in scheme.plan(ctx).ops.values()
        ]


def single_failures():
    for n, k in PAPER_SINGLE_FAILURE_CODES:
        for block in range(n + k):
            yield n, k, block


class TestDriversAgreeOnSlicedPlans:
    """simulator == byte executor == live (memory, tcp) == repair sessions."""

    @settings(max_examples=30, deadline=None)
    @given(
        case=st.sampled_from(list(single_failures())),
        slices=st.sampled_from([1, 2, 3, 4, 8]),
        block_size=st.integers(8, 700),
    )
    def test_every_driver_rebuilds_the_block_and_moves_the_same_bytes(
        self, case, slices, block_size
    ):
        n, k, failed_block = case
        failed = [failed_block]
        ctx = make_context(n, k, failed=failed, block_size=block_size)
        stripe = make_stripe(ctx, seed=block_size)
        lost = stripe.get_payload(failed_block)
        plan = chain_plan(ctx, slices)
        tree = chain_plan(ctx, 1)
        store = initial_store_for(stripe, ctx.placement, failed)

        sim = SimulationEngine(ctx.cluster, SIMICS_BANDWIDTH).run(
            plan.to_job_graph(ctx.cost_model)
        )
        expected = TrafficLedger.from_sim(sim, ctx.cluster)
        concrete = execute_plan(plan, ctx.cluster, copy.deepcopy(store))
        memory = run_plan_live_sync(
            plan, ctx.cluster, copy.deepcopy(store), bandwidth=None, recorder=wall_recorder()
        )
        tcp = run_plan_live_sync(
            plan, ctx.cluster, copy.deepcopy(store), bandwidth=None, transport="tcp"
        )
        session_recorder = wall_recorder()
        session_ledger, session_combines, session_recovered = run_sessions(
            plan, ctx, stripe, recorder=session_recorder
        )

        # whole ledgers — per node and per rack, and the send count — not just totals
        assert plan.traffic(ctx.cluster) == expected
        assert concrete.ledger == memory.ledger == tcp.ledger == session_ledger == expected
        assert expected.intra_rack_bytes == tree.traffic(ctx.cluster).intra_rack_bytes
        assert expected.cross_rack_bytes == tree.traffic(ctx.cluster).cross_rack_bytes
        assert set(memory.timings) == set(tcp.timings) == set(sim.timings)
        assert_same_picture(
            ctx.cluster, expected, telemetry_from_sim(sim, ctx.cluster),
            memory.telemetry, session_recorder.trace(),
        )
        assert (
            concrete.combine_count == memory.combine_count == tcp.combine_count
            == session_combines
            == sum(op.slices for op in plan.combines())
        )
        for recovered in (concrete, memory, tcp):
            assert recovered.recovered[failed_block].shape == (block_size,)
            np.testing.assert_array_equal(recovered.recovered[failed_block], lost)
        np.testing.assert_array_equal(session_recovered[failed_block], lost)
        # slicing is along bytes, not coefficients
        compositions = payload_compositions(plan, ctx.code)
        np.testing.assert_array_equal(
            compositions[plan.outputs[failed_block][1]],
            ctx.code.generator_row(failed_block),
        )

    def test_the_property_reaches_sliced_chains(self):
        """Not vacuous: most single failures have two remote racks to chain."""
        chained = [
            case for case in single_failures()
            if chain_plan(make_context(case[0], case[1], failed=[case[2]]), 4).slices == 4
        ]
        assert len(chained) > len(list(single_failures())) // 2

    def test_sliced_multi_failure_chains_decode(self):
        """Each equation chains its own racks; the plan still rebuilds both blocks."""
        ctx = make_context(8, 3, failed=[1, 4])
        stripe = make_stripe(ctx)
        plan = chain_plan(ctx, 4)
        assert plan.slices == 4
        result = execute_plan(plan, ctx.cluster, initial_store_for(stripe, ctx.placement, [1, 4]))
        for bid in (1, 4):
            np.testing.assert_array_equal(result.recovered[bid], stripe.get_payload(bid))
