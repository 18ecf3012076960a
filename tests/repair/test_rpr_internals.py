"""Unit tests for RPR's inner-tree and cross-gather builders."""

import math

import numpy as np
import pytest

from repro.cluster import Cluster
from repro.repair import RepairPlan, RPRScheme, block_key, execute_plan
from repro.repair.rpr import (
    InnerResult,
    build_cross_gather,
    build_direct_gather,
    build_inner_trees,
)
from repro.gf import linear_combine, scale
from repro.cluster import ContiguousPlacement, RPRPlacement

from .conftest import make_context


@pytest.fixture
def cluster():
    return Cluster.homogeneous(4, 6)


def execute(plan, cluster, store):
    plan.mark_output(0, plan.combines()[-1].node, plan.combines()[-1].out_key)
    return execute_plan(plan, cluster, store)


class TestInnerTrees:
    def payloads(self, blocks, size=16, seed=0):
        rng = np.random.default_rng(seed)
        return {b: rng.integers(0, 256, size, dtype=np.uint8) for b in blocks}

    def test_empty_positions(self):
        plan = RepairPlan(block_size=16)
        results = build_inner_trees(plan, [], [{0: 1}], prefix="t")
        assert results == [None]
        assert len(plan.ops) == 0

    def test_single_block_no_ops(self):
        plan = RepairPlan(block_size=16)
        [result] = build_inner_trees(plan, [(5, 0)], [{0: 7}], prefix="t")
        assert result.key == block_key(0)
        assert result.node == 5
        assert result.dep is None
        assert result.coeff == 7  # pending, folded downstream
        assert len(plan.ops) == 0

    def test_pair_combines_at_first_node(self, cluster):
        plan = RepairPlan(block_size=16)
        [result] = build_inner_trees(
            plan, [(0, 0), (1, 1)], [{0: 1, 1: 1}], prefix="t"
        )
        assert result.node == 0
        assert result.coeff == 1
        sends = plan.sends()
        assert len(sends) == 1 and (sends[0].src, sends[0].dst) == (1, 0)
        assert len(plan.combines()) == 1

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 7, 8])
    def test_tree_depth_is_logarithmic(self, cluster, m):
        """Intra transfer *levels* = ceil(log2 m): disjoint pairs overlap."""
        plan = RepairPlan(block_size=16)
        positions = [(i, i) for i in range(m)]
        coeffs = [{i: 1 for i in range(m)}]
        build_inner_trees(plan, positions, coeffs, prefix="t")
        levels = {op.op_id.split(":")[1] for op in plan.sends()}
        assert len(levels) == math.ceil(math.log2(m))

    @pytest.mark.parametrize("m", [1, 2, 3, 5, 6])
    def test_tree_computes_linear_combination(self, cluster, m):
        plan = RepairPlan(block_size=16)
        positions = [(i, i) for i in range(m)]
        coeffs = {i: (i % 254) + 2 for i in range(m)}
        [result] = build_inner_trees(plan, positions, [coeffs], prefix="t")
        payloads = self.payloads(range(m))
        store = {i: {block_key(i): payloads[i]} for i in range(m)}
        if plan.ops:
            plan.mark_output(0, result.node, result.key)
            execute_plan(plan, cluster, store)
        got = scale(result.coeff, store[result.node][result.key])
        expected = linear_combine(
            [coeffs[i] for i in range(m)], [payloads[i] for i in range(m)]
        )
        np.testing.assert_array_equal(got, expected)

    def test_multi_equation_shares_raw_sends(self, cluster):
        """Two equations over the same four blocks: level-0 raw sends are
        emitted once, not twice."""
        plan = RepairPlan(block_size=16)
        positions = [(i, i) for i in range(4)]
        eq0 = {i: 1 for i in range(4)}
        eq1 = {i: 3 for i in range(4)}
        results = build_inner_trees(plan, positions, [eq0, eq1], prefix="t")
        assert all(r is not None for r in results)
        raw_sends = [
            op for op in plan.sends() if op.key.startswith("block:")
        ]
        assert len(raw_sends) == 2  # blocks 1 and 3 move once each at L0
        # combines are per-equation
        assert len(plan.combines()) == 2 * 3  # (4->2->1) = 3 merges per eq

    def test_equation_missing_some_blocks(self, cluster):
        """An equation whose coefficient for a block is zero simply omits
        it; the tree still produces the right combination."""
        plan = RepairPlan(block_size=16)
        positions = [(i, i) for i in range(3)]
        eq = {0: 5, 2: 9}  # block 1 absent
        [result] = build_inner_trees(plan, positions, [eq], prefix="t")
        payloads = self.payloads(range(3))
        store = {i: {block_key(i): payloads[i]} for i in range(3)}
        if plan.ops:
            plan.mark_output(0, result.node, result.key)
            execute_plan(plan, cluster, store)
        got = scale(result.coeff, store[result.node][result.key])
        expected = scale(5, payloads[0]) ^ scale(9, payloads[2])
        np.testing.assert_array_equal(got, expected)

    def test_all_equations_empty(self):
        plan = RepairPlan(block_size=16)
        results = build_inner_trees(plan, [(0, 0)], [{}, {}], prefix="t")
        assert results == [None, None]


class TestCrossGather:
    def sources(self, count):
        # Nodes 1..count of the 4x6 fixture cluster (node 0 is the target).
        return [
            InnerResult(key=f"im{i}", node=i + 1, dep=None) for i in range(count)
        ]

    def test_no_sources(self):
        plan = RepairPlan(block_size=16)
        assert build_cross_gather(plan, 0, [], prefix="x") == []
        assert len(plan.ops) == 0

    @pytest.mark.parametrize("m,rounds", [(1, 1), (2, 2), (3, 2), (4, 3), (7, 3), (8, 4)])
    def test_round_count_logarithmic(self, cluster, m, rounds):
        """Arrivals at the target = aggregation rounds = ceil(log2(m + 1))."""
        plan = RepairPlan(block_size=16)
        arrivals = build_cross_gather(plan, 0, self.sources(m), prefix="x")
        assert len(arrivals) == rounds == math.ceil(math.log2(m + 1))

    def test_direct_gather_one_send_per_source(self, cluster):
        plan = RepairPlan(block_size=16)
        arrivals = build_direct_gather(plan, 0, self.sources(5), prefix="x")
        assert len(arrivals) == 5
        assert all(op.dst == 0 for op in plan.sends())

    def test_gather_preserves_payload_value(self, cluster):
        """XOR of arrivals equals XOR of all source payloads."""
        rng = np.random.default_rng(1)
        m = 5
        sources = self.sources(m)
        payloads = {s.key: rng.integers(0, 256, 8, dtype=np.uint8) for s in sources}
        plan = RepairPlan(block_size=8)
        arrivals = build_cross_gather(plan, 0, sources, prefix="x")
        store = {s.node: {s.key: payloads[s.key]} for s in sources}
        plan.mark_output(0, 0, arrivals[0].key)
        execute_plan(plan, cluster, store)
        got = np.zeros(8, dtype=np.uint8)
        for a in arrivals:
            got ^= scale(a.coeff, store[0][a.key])
        expected = np.zeros(8, dtype=np.uint8)
        for p in payloads.values():
            expected ^= p
        np.testing.assert_array_equal(got, expected)

    def test_pending_coefficients_applied_in_pair_combines(self, cluster):
        rng = np.random.default_rng(2)
        sources = [
            InnerResult(key="a", node=6, dep=None, coeff=3),
            InnerResult(key="b", node=12, dep=None, coeff=1),
            InnerResult(key="c", node=18, dep=None, coeff=7),
        ]
        payloads = {s.key: rng.integers(0, 256, 8, dtype=np.uint8) for s in sources}
        plan = RepairPlan(block_size=8)
        arrivals = build_cross_gather(plan, 0, sources, prefix="x")
        store = {s.node: {s.key: payloads[s.key]} for s in sources}
        plan.mark_output(0, 0, arrivals[0].key)
        execute_plan(plan, cluster, store)
        got = np.zeros(8, dtype=np.uint8)
        for a in arrivals:
            got ^= scale(a.coeff, store[0][a.key])
        expected = (
            scale(3, payloads["a"]) ^ payloads["b"] ^ scale(7, payloads["c"])
        )
        np.testing.assert_array_equal(got, expected)


class TestPreplacementHelpers:
    """§3.3: pre-placement puts P0 in a rack of data blocks only, and a
    single data-block failure (or P0's) is repaired by XOR alone, with no
    decoding-matrix build; other failures build one."""

    def test_p0_rack_detection(self):
        cluster = Cluster.homogeneous(4, 4)

        def p0_rack_is_all_data(placement):
            p0_rack = placement.rack_of_block(cluster, 4)
            return all(b < 4 for b in placement.blocks_in_rack(cluster, p0_rack) if b != 4)

        assert p0_rack_is_all_data(RPRPlacement().place(cluster, 4, 2))
        assert not p0_rack_is_all_data(ContiguousPlacement().place(cluster, 4, 2))

    def test_fast_path_applicability(self):
        def matrix_builds(failed):
            plan = RPRScheme().plan(make_context(6, 3, failed))
            return sum(op.with_matrix_build for op in plan.combines())

        assert matrix_builds([2]) == 0
        assert matrix_builds([6]) == 0  # P0 is itself the XOR of the data
        assert matrix_builds([7]) > 0  # P1
        assert matrix_builds([0, 1]) > 0  # multi
