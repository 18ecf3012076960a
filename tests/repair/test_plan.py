"""Tests for the RepairPlan op-DAG."""

import numpy as np
import pytest

from repro.cluster import Cluster
from repro.rs import DecodeCostModel
from repro.repair import CombineOp, PlanError, RepairPlan, SendOp, block_key, execute_plan
from repro.sim import ComputeJob, TransferJob


class TestOps:
    def test_block_key_format(self):
        assert block_key(3) == "block:3"

    def test_send_self_rejected(self):
        with pytest.raises(PlanError):
            SendOp(op_id="s", src=1, dst=1, key="block:0")

    def test_combine_needs_terms(self):
        with pytest.raises(PlanError):
            CombineOp(op_id="c", node=0, out_key="x", terms=())

    def test_combine_duplicate_inputs_rejected(self):
        with pytest.raises(PlanError):
            CombineOp(
                op_id="c", node=0, out_key="x", terms=(("a", 1), ("a", 2))
            )

    def test_combine_zero_coefficient_rejected(self):
        with pytest.raises(PlanError):
            CombineOp(op_id="c", node=0, out_key="x", terms=(("a", 0),))

    def test_combine_output_aliasing_input_rejected(self):
        with pytest.raises(PlanError):
            CombineOp(op_id="c", node=0, out_key="a", terms=(("a", 1),))


class TestPlanStructure:
    def make_plan(self):
        plan = RepairPlan(block_size=100)
        s = plan.add_send("s", 0, 1, block_key(0))
        plan.add_combine("c", 1, "out", [(block_key(0), 1)], deps=[s])
        plan.mark_output(0, 1, "out")
        return plan

    def test_valid_plan_passes(self):
        self.make_plan().validate()

    def test_duplicate_op_rejected(self):
        plan = self.make_plan()
        with pytest.raises(PlanError):
            plan.add_send("s", 0, 1, block_key(0))

    def test_dangling_dep_rejected(self):
        plan = RepairPlan(block_size=10)
        plan.add_send("s", 0, 1, "x", deps=["ghost"])
        plan.mark_output(0, 1, "x")
        with pytest.raises(PlanError):
            plan.validate()

    def test_no_outputs_rejected(self):
        plan = RepairPlan(block_size=10)
        plan.add_send("s", 0, 1, "x")
        with pytest.raises(PlanError):
            plan.validate()

    def test_duplicate_output_rejected(self):
        plan = self.make_plan()
        with pytest.raises(PlanError):
            plan.mark_output(0, 1, "out")

    def test_invalid_block_size(self):
        with pytest.raises(PlanError):
            RepairPlan(block_size=0)

    def test_sends_and_combines_accessors(self):
        plan = self.make_plan()
        assert len(plan.sends()) == 1
        assert len(plan.combines()) == 1

    def test_cycle_rejected(self):
        plan = RepairPlan(block_size=10)
        plan.add(SendOp(op_id="a", src=0, dst=1, key="x", deps=("b",)))
        plan.add(SendOp(op_id="b", src=1, dst=0, key="y", deps=("a",)))
        plan.mark_output(0, 1, "x")
        with pytest.raises(Exception):
            plan.validate()


class TestCompilation:
    def test_send_becomes_transfer(self):
        plan = RepairPlan(block_size=777)
        plan.add_send("s", 0, 1, "x")
        plan.mark_output(0, 1, "x")
        graph = plan.to_job_graph(DecodeCostModel(xor_speed=100.0))
        job = graph.jobs["s"]
        assert isinstance(job, TransferJob)
        assert job.nbytes == 777
        assert (job.src, job.dst) == (0, 1)

    def test_combine_duration_uses_cost_model(self):
        cost = DecodeCostModel(xor_speed=100.0, matrix_build_factor=4.0)
        plan = RepairPlan(block_size=200)
        plan.add_combine("fast", 0, "a", [("block:0", 1)], with_matrix_build=False)
        plan.add_combine("slow", 0, "b", [("block:1", 1)], with_matrix_build=True)
        plan.mark_output(0, 0, "a")
        graph = plan.to_job_graph(cost)
        assert isinstance(graph.jobs["fast"], ComputeJob)
        assert graph.jobs["fast"].seconds == pytest.approx(2.0)
        assert graph.jobs["slow"].seconds == pytest.approx(8.0)

    def test_deps_preserved(self):
        plan = RepairPlan(block_size=10)
        s = plan.add_send("s", 0, 1, "x")
        plan.add_combine("c", 1, "y", [("x", 1)], deps=[s])
        plan.mark_output(0, 1, "y")
        graph = plan.to_job_graph(DecodeCostModel(xor_speed=1.0))
        assert graph.jobs["c"].deps == ("s",)


class TestOpsDone:
    """Finished parts back to finished ops: what a faulted run commits."""

    def sliced_plan(self):
        plan = RepairPlan(block_size=90)
        a = plan.add_send("a", 0, 2, "x", slices=3)
        c = plan.add_combine("c", 2, "y", [("x", 1), ("w", 1)], deps=[a], slices=3)
        plan.add_send("b", 2, 4, "y", deps=[c], slices=3)
        plan.mark_output(0, 4, "y")
        return plan

    def test_an_op_is_done_when_every_slice_is(self):
        plan = self.sliced_plan()
        assert plan.ops_done(["a#0", "a#1", "a#2", "c#0", "c#1", "b#0"]) == {"a"}
        assert plan.ops_done([]) == set()

    def test_an_unsliced_op_is_its_own_part(self):
        plan = TestPlanStructure().make_plan()
        assert plan.ops_done(["s"]) == {"s"}

    def test_a_partial_commit_runs_each_done_op_whole(self):
        plan = self.sliced_plan()
        x, w = np.arange(90, dtype=np.uint8), np.full(90, 7, dtype=np.uint8)
        store = {0: {"x": x}, 2: {"w": w}}
        done = plan.ops_done(["a#0", "a#1", "a#2", "c#0", "c#1", "c#2", "b#0"])
        result = execute_plan(plan, Cluster.homogeneous(3, 2), store, ops=done)
        assert set(store[2]) == {"w", "x", "y"} and 4 not in store  # no slice keys
        np.testing.assert_array_equal(store[2]["y"], x ^ w)
        assert result.ledger.cross_rack_bytes == 90
