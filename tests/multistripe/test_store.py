"""Tests for the stripe store and placement rotation."""

import pytest

from repro.cluster import Cluster, FlatPlacement, PlacementError, Rack, Node
from repro.multistripe import StripeStore, rotate_placement
from repro.rs import get_code

from ..cluster.test_placement import rack_histogram


def blocks_per_node(store):
    """Block count per node — the layout's balance."""
    return {nid: len(store.blocks_on_node(nid)) for nid in store.cluster.node_ids()}


@pytest.fixture
def cluster():
    return Cluster.homogeneous(5, 6)


class TestRotatePlacement:
    def test_identity_rotation(self, cluster):
        store = StripeStore.build(cluster, get_code(6, 2), 1, rotate=False)
        base = store.stripe(0).placement
        rotated = rotate_placement(cluster, base, rack_offset=0)
        assert rotated.block_to_node == dict(base.block_to_node)

    def test_full_cycle_is_identity(self, cluster):
        store = StripeStore.build(cluster, get_code(6, 2), 1, rotate=False)
        base = store.stripe(0).placement
        rotated = rotate_placement(cluster, base, rack_offset=cluster.num_racks)
        assert rotated.block_to_node == dict(base.block_to_node)

    def test_rack_shift(self, cluster):
        store = StripeStore.build(cluster, get_code(6, 2), 1, rotate=False)
        base = store.stripe(0).placement
        rotated = rotate_placement(cluster, base, rack_offset=2)
        for block in range(8):
            old_rack = base.rack_of_block(cluster, block)
            new_rack = rotated.rack_of_block(cluster, block)
            assert new_rack == (old_rack + 2) % cluster.num_racks

    def test_slot_shift_changes_nodes_not_racks(self, cluster):
        store = StripeStore.build(cluster, get_code(6, 2), 1, rotate=False)
        base = store.stripe(0).placement
        rotated = rotate_placement(cluster, base, rack_offset=0, slot_offset=1)
        for block in range(8):
            assert rotated.rack_of_block(cluster, block) == base.rack_of_block(
                cluster, block
            )
            assert rotated.node_of(block) != base.node_of(block)

    def test_heterogeneous_racks_rejected(self):
        cluster = Cluster(
            [
                Rack(0, nodes=[Node(0, 0), Node(1, 0)]),
                Rack(1, nodes=[Node(2, 1)]),
            ]
        )
        from repro.cluster import Placement

        placement = Placement(n=2, k=0, block_to_node={0: 0, 1: 2})
        with pytest.raises(PlacementError):
            rotate_placement(cluster, placement, 1)


class TestStripeStore:
    def test_build_shapes(self, cluster):
        store = StripeStore.build(cluster, get_code(6, 2), 12)
        assert len(store) == 12
        assert [s.stripe_id for s in store] == list(range(12))

    def test_rotation_declusters(self, cluster):
        """Enough rotated stripes load every node equally."""
        # 30 stripes over 5 racks x 6 slots: each node gets 8 blocks
        # (stripe width 8, 30 * 8 / 30 nodes).
        store = StripeStore.build(cluster, get_code(6, 2), 30)
        counts = blocks_per_node(store)
        assert set(counts.values()) == {8}

    def test_no_rotation_concentrates(self, cluster):
        store = StripeStore.build(cluster, get_code(6, 2), 10, rotate=False)
        counts = blocks_per_node(store)
        assert 0 in counts.values()
        assert max(counts.values()) == 10

    def test_blocks_on_node(self, cluster):
        store = StripeStore.build(cluster, get_code(6, 2), 5)
        found = store.blocks_on_node(0)
        for stripe_id, block_id in found:
            assert store.stripe(stripe_id).placement.node_of(block_id) == 0

    def test_blocks_on_unknown_node(self, cluster):
        store = StripeStore.build(cluster, get_code(6, 2), 2)
        with pytest.raises(KeyError):
            store.blocks_on_node(999)

    def test_flat_placement_store(self):
        cluster = Cluster.homogeneous(10, 3)
        store = StripeStore.build(
            cluster, get_code(6, 2), 4, placement_policy=FlatPlacement()
        )
        placement = store.stripe(0).placement
        assert all(v == 1 for v in rack_histogram(placement, cluster).values())

    def test_invalid_count(self, cluster):
        with pytest.raises(ValueError):
            StripeStore.build(cluster, get_code(6, 2), 0)

    def test_stripe_lookup_error(self, cluster):
        store = StripeStore.build(cluster, get_code(6, 2), 2)
        for unknown in (9, -1):  # ids are keys, not list positions
            with pytest.raises(KeyError):
                store.stripe(unknown)


class TestCatalogMutations:
    def test_allocate_is_what_build_loops_over(self, cluster):
        built = StripeStore.build(cluster, get_code(6, 2), 7)
        store = StripeStore(cluster, get_code(6, 2))
        for sid in range(7):
            stored = store.allocate()
            assert stored.stripe_id == sid and sid not in store.stripes
            assert stored.placement == built.stripe(sid).placement
            store.add(stored)
            with pytest.raises(ValueError, match="already"):
                store.add(stored)

    def test_removed_ids_are_gone_and_never_reused(self, cluster):
        store = StripeStore.build(cluster, get_code(6, 2), 3)
        store.remove(1)
        assert [s.stripe_id for s in store] == [0, 2]
        for lookup in (store.stripe, store.remove, store.repair_context):
            with pytest.raises(KeyError):
                lookup(1)
        assert store.allocate().stripe_id == 3

    def test_fail_node_is_idempotent(self, cluster):
        store = StripeStore.build(cluster, get_code(6, 2), 12)
        lost = store.fail_node(0)
        assert lost == store.blocks_on_node(0) and lost
        assert store.fail_node(0) == []
        assert sorted(store.degraded()) == sorted({sid for sid, _ in lost})
        with pytest.raises(KeyError):
            store.fail_node(999)

    def test_degraded_is_most_at_risk_first(self, cluster):
        store = StripeStore.build(cluster, get_code(6, 2), 12)
        last = store.stripe(11).placement
        store.fail_node(last.node_of(0))
        store.fail_node(last.node_of(1))
        order = store.degraded()
        lost = [len(store.stripe(sid).missing) for sid in order]
        assert lost[0] == 2 and lost[-1] == 1
        assert lost == sorted(lost, reverse=True)
        for count in (2, 1):  # stripe order within a risk level
            level = [sid for sid, n in zip(order, lost) if n == count]
            assert level == sorted(level)
        assert 11 in order[: lost.count(2)]

    def test_repair_context_covers_missing_and_dead_holders(self, cluster):
        store = StripeStore.build(cluster, get_code(6, 2), 1)
        placement = store.stripe(0).placement
        gone, unreachable = placement.node_of(0), placement.node_of(7)
        store.fail_node(gone)
        ctx = store.repair_context(0, {gone, unreachable}, block_size=512)
        assert ctx.failed_blocks == (0, 7) and ctx.block_size == 512
        assert store.lost_blocks(0) == {0}
        targets = dict(ctx.recovery_override)
        survivors = {placement.node_of(b) for b in range(1, 7)}
        assert len(set(targets.values())) == 2
        assert not set(targets.values()) & (survivors | {gone, unreachable})
        for bid, node in targets.items():
            assert cluster.rack_of(node) == placement.rack_of_block(cluster, bid)

    def test_relocate_repoints_and_clears_only_what_was_rebuilt(self, cluster):
        store = StripeStore.build(cluster, get_code(6, 2), 1)
        placement = store.stripe(0).placement
        store.fail_node(placement.node_of(0))
        ctx = store.repair_context(0, {placement.node_of(0)})
        store.fail_node(placement.node_of(7))  # a second death mid-repair
        store.relocate(0, dict(ctx.recovery_override))
        stored = store.stripe(0)
        assert stored.missing == {7}
        assert stored.placement.node_of(0) == ctx.recovery_override[0][1]
        assert stored.placement.node_of(7) == placement.node_of(7)
