"""Plan partitioning: every scheme's plan must run data-driven across daemons."""

import zlib

import numpy as np
import pytest

from repro.cluster import Cluster, RPRPlacement
from repro.metrics import TrafficLedger
from repro.repair import (
    CARRepair,
    RepairContext,
    RepairPlan,
    RPRScheme,
    TraditionalRepair,
    block_key,
    pick_live_spares,
    simulate_repair,
)
from repro.rs import get_code
from repro.store.messages import StoreProtocolError
from repro.store.repair import (
    NodeAssignment,
    block_crc,
    ledger_from_reports,
    partition_plan,
    stored_block_key,
)

SCHEMES = [TraditionalRepair(), CARRepair(), RPRScheme()]


def make_ctx(failed=(0,), racks=3, per_rack=2, n=3, k=2, block_size=4096):
    cluster = Cluster.homogeneous(racks, per_rack)
    code = get_code(n, k)
    placement = RPRPlacement().place(cluster, n, k)
    dead = {placement.node_of(b) for b in failed}
    override = pick_live_spares(cluster, placement, failed, dead_nodes=dead)
    return RepairContext(
        code=code,
        cluster=cluster,
        placement=placement,
        failed_blocks=tuple(failed),
        block_size=block_size,
        recovery_override=override,
    )


class TestPartition:
    @pytest.mark.parametrize("scheme", SCHEMES, ids=lambda s: s.name)
    def test_every_op_lands_exactly_once(self, scheme):
        ctx = make_ctx()
        plan = scheme.plan(ctx)
        parts = partition_plan(plan, ctx.placement, 0, ctx.failed_blocks)
        assigned = [op.op_id for part in parts.values() for op in part.ops]
        assert sorted(assigned) == sorted(plan.ops)

    @pytest.mark.parametrize("scheme", SCHEMES, ids=lambda s: s.name)
    def test_outputs_land_at_recovery_nodes(self, scheme):
        ctx = make_ctx()
        plan = scheme.plan(ctx)
        parts = partition_plan(plan, ctx.placement, 7, ctx.failed_blocks)
        committed = {
            bid: (part.node, skey)
            for part in parts.values()
            for bid, _key, skey in part.outputs
        }
        assert set(committed) == set(ctx.failed_blocks)
        for bid, (node, skey) in committed.items():
            assert node == plan.outputs[bid][0]
            assert skey == stored_block_key(7, bid)

    @pytest.mark.parametrize("scheme", SCHEMES, ids=lambda s: s.name)
    def test_seeds_cover_every_read_surviving_block(self, scheme):
        ctx = make_ctx()
        plan = scheme.plan(ctx)
        parts = partition_plan(plan, ctx.placement, 0, ctx.failed_blocks)
        seeded = {key for part in parts.values() for key in part.seeds}
        read = set()
        for op in plan.ops.values():
            keys = [op.key] if hasattr(op, "key") else [k for k, _ in op.terms]
            read.update(keys)
        surviving_keys = {
            block_key(b)
            for b in range(ctx.code.width)
            if b not in ctx.failed_blocks
        }
        assert seeded == read & surviving_keys
        # ... and each seed sits at the node that actually holds the block.
        for part in parts.values():
            for key, skey in part.seeds.items():
                bid = int(key.split(":")[1])
                assert part.node == ctx.placement.node_of(bid)

    def test_double_failure_partitions_too(self):
        # per_rack=3: two dead nodes still leave distinct live spares.
        # CAR is single-failure only (paper §6), so it sits this one out.
        ctx = make_ctx(failed=(0, 1), per_rack=3)
        for scheme in [TraditionalRepair(), RPRScheme()]:
            plan = scheme.plan(ctx)
            parts = partition_plan(plan, ctx.placement, 0, ctx.failed_blocks)
            committed = {bid for p in parts.values() for bid, _, _ in p.outputs}
            assert committed == {0, 1}

    def test_pure_ordering_cross_node_dep_is_rejected(self):
        """A remote dep that carries no payload cannot run data-driven."""
        plan = RepairPlan(block_size=1024)
        plan.add_send("s0", src=0, dst=1, key=block_key(2))
        # Node 2's send depends on node 0's send, but s0 delivers to node
        # 1 — nothing ever arrives at node 2 to signal the dependency.
        plan.add_send("s1", src=2, dst=1, key=block_key(3), deps=("s0",))
        plan.mark_output(9, 1, block_key(3))
        cluster = Cluster.homogeneous(3, 2)
        placement = RPRPlacement().place(cluster, 3, 2)
        with pytest.raises(StoreProtocolError, match="does not deliver"):
            partition_plan(plan, placement, 0, (9,))


class TestAssignmentSerialization:
    @pytest.mark.parametrize("scheme", SCHEMES, ids=lambda s: s.name)
    def test_round_trips_through_json_shape(self, scheme):
        ctx = make_ctx()
        plan = scheme.plan(ctx)
        parts = partition_plan(plan, ctx.placement, 3, ctx.failed_blocks)
        for part in parts.values():
            back = NodeAssignment.from_dict(part.to_dict())
            assert back.node == part.node
            assert back.seeds == part.seeds
            assert back.outputs == part.outputs
            assert [op.op_id for op in back.ops] == [op.op_id for op in part.ops]
            for a, b in zip(back.ops, part.ops):
                assert a == b


class TestLedger:
    @pytest.mark.parametrize("scheme", SCHEMES, ids=lambda s: s.name)
    def test_plan_sends_aggregate_to_simulator_ledger(self, scheme):
        """Replaying the plan's sends as reports matches the simulator.

        This is the coordinator's cross-validation in miniature: the
        measured ledger is built from daemon op reports, and those
        reports are one entry per plan send — so a faithful execution
        must reproduce the simulator's byte counts exactly.
        """
        from repro.cluster import SIMICS_BANDWIDTH

        ctx = make_ctx()
        plan = scheme.plan(ctx)
        reports = [
            {
                "kind": "send",
                "src": op.src,
                "dst": op.dst,
                "nbytes": ctx.block_size,
            }
            for op in plan.sends()
        ]
        reports += [{"kind": "combine"} for _ in plan.combines()]
        ledger = ledger_from_reports(ctx.cluster, reports)
        outcome = simulate_repair(scheme, ctx, SIMICS_BANDWIDTH)
        assert ledger == TrafficLedger.from_sim(outcome.sim, ctx.cluster)
        assert ledger == plan.traffic(ctx.cluster)
        assert ledger.sends == len(plan.sends())


class TestBlockCrc:
    """``block_crc`` reads the payload in place and keeps the wire's values."""

    @staticmethod
    def copying_crc(payload) -> int:
        return zlib.crc32(payload.tobytes()) & 0xFFFFFFFF

    def test_read_only_frombuffer_payload(self):
        raw = np.random.default_rng(0).integers(0, 256, 4097, dtype=np.uint8).tobytes()
        payload = np.frombuffer(raw, dtype=np.uint8)
        assert not payload.flags.writeable
        assert block_crc(payload) == self.copying_crc(payload) == zlib.crc32(raw)

    def test_arena_rows_from_encode(self):
        code = get_code(6, 3)
        rng = np.random.default_rng(1)
        data = [rng.integers(0, 256, 1000, dtype=np.uint8) for _ in range(code.n)]
        for block in code.encode(data):
            assert block.base is not None  # a row of the arena, not its own array
            assert block_crc(block) == self.copying_crc(block)

    def test_strided_payload(self):
        payload = np.arange(64, dtype=np.uint8)[::2]
        assert block_crc(payload) == self.copying_crc(payload)
