"""Tests for stripe placement policies."""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import (
    Cluster,
    ContiguousPlacement,
    FlatPlacement,
    Placement,
    PlacementError,
    RPRPlacement,
)
from repro.rs import PAPER_SINGLE_FAILURE_CODES


def cluster_for(n, k, spares=2):
    """Cluster big enough for a contiguous placement with spare nodes."""
    per_rack = max(k, 1)
    racks = -(-(n + k) // per_rack) + 1  # one extra rack
    return Cluster.homogeneous(racks, per_rack + spares)


def rack_histogram(placement, cluster):
    """Blocks per rack."""
    return Counter(cluster.rack_of(node) for node in placement.block_to_node.values())


def single_rack_fault_tolerant(placement, cluster):
    """Losing any one rack loses at most ``k`` blocks (§2.3)."""
    return all(count <= placement.k for count in rack_histogram(placement, cluster).values())


class TestPlacementObject:
    def test_coverage_required(self):
        with pytest.raises(PlacementError):
            Placement(n=2, k=1, block_to_node={0: 0, 1: 1})

    def test_distinct_nodes_required(self):
        with pytest.raises(PlacementError):
            Placement(n=2, k=0, block_to_node={0: 0, 1: 0})

    def test_lookups(self):
        c = Cluster.homogeneous(3, 2)
        p = Placement(n=2, k=1, block_to_node={0: 0, 1: 2, 2: 4})
        assert p.node_of(1) == 2
        assert p.block_at(4) == 2
        assert p.block_at(1) is None
        assert p.rack_of_block(c, 2) == 2
        assert p.blocks_in_rack(c, 1) == [1]
        assert p.racks_used(c) == [0, 1, 2]

    def test_node_of_missing_block(self):
        p = Placement(n=1, k=0, block_to_node={0: 0})
        with pytest.raises(PlacementError):
            p.node_of(5)

    def test_spare_nodes(self):
        c = Cluster.homogeneous(2, 3)
        p = Placement(n=2, k=0, block_to_node={0: 0, 1: 3})
        assert p.spare_nodes_in_rack(c, 0) == [1, 2]
        assert p.spare_nodes_in_rack(c, 1) == [4, 5]


class TestFlatPlacement:
    def test_one_block_per_rack(self):
        c = Cluster.homogeneous(8, 2)
        p = FlatPlacement().place(c, 4, 2)
        hist = rack_histogram(p, c)
        assert all(v == 1 for v in hist.values())
        assert len(hist) == 6

    def test_insufficient_racks(self):
        c = Cluster.homogeneous(3, 2)
        with pytest.raises(PlacementError):
            FlatPlacement().place(c, 4, 2)


class TestContiguousPlacement:
    @pytest.mark.parametrize("n,k", PAPER_SINGLE_FAILURE_CODES)
    def test_at_most_k_per_rack(self, n, k):
        c = cluster_for(n, k)
        p = ContiguousPlacement().place(c, n, k)
        assert single_rack_fault_tolerant(p, c)

    def test_paper_fig3_layout(self):
        """(4,2) contiguous: r0={d0,d1}, r1={d2,d3}, r2={p0,p1}."""
        c = cluster_for(4, 2)
        p = ContiguousPlacement().place(c, 4, 2)
        assert p.blocks_in_rack(c, 0) == [0, 1]
        assert p.blocks_in_rack(c, 1) == [2, 3]
        assert p.blocks_in_rack(c, 2) == [4, 5]

    def test_explicit_per_rack(self):
        c = Cluster.homogeneous(6, 3)
        p = ContiguousPlacement(per_rack=1).place(c, 4, 2)
        assert all(v == 1 for v in rack_histogram(p, c).values())

    def test_per_rack_exceeding_k_rejected(self):
        c = Cluster.homogeneous(3, 8)
        with pytest.raises(PlacementError):
            ContiguousPlacement(per_rack=4).place(c, 4, 2)

    def test_invalid_per_rack(self):
        with pytest.raises(PlacementError):
            ContiguousPlacement(per_rack=0)

    def test_k_zero_needs_explicit_per_rack(self):
        c = Cluster.homogeneous(4, 4)
        with pytest.raises(PlacementError):
            ContiguousPlacement().place(c, 4, 0)
        p = ContiguousPlacement(per_rack=2).place(c, 4, 0)
        assert p.width == 4

    def test_insufficient_rack_capacity(self):
        c = Cluster.homogeneous(3, 1)
        with pytest.raises(PlacementError):
            ContiguousPlacement().place(c, 4, 2)


class TestRPRPlacement:
    @pytest.mark.parametrize("n,k", PAPER_SINGLE_FAILURE_CODES)
    def test_p0_rack_is_all_data(self, n, k):
        """The §3.3 property: P0 shares its rack only with data blocks."""
        c = cluster_for(n, k)
        p = RPRPlacement().place(c, n, k)
        p0_rack = p.rack_of_block(c, n)
        mates = [b for b in p.blocks_in_rack(c, p0_rack) if b != n]
        assert all(b < n for b in mates), mates

    @pytest.mark.parametrize("n,k", PAPER_SINGLE_FAILURE_CODES)
    def test_fault_tolerance_preserved(self, n, k):
        c = cluster_for(n, k)
        p = RPRPlacement().place(c, n, k)
        assert single_rack_fault_tolerant(p, c)

    @pytest.mark.parametrize("n,k", PAPER_SINGLE_FAILURE_CODES)
    def test_same_rack_histogram_as_contiguous(self, n, k):
        """§3.3: pre-placement changes no rack's load."""
        c = cluster_for(n, k)
        contiguous = ContiguousPlacement().place(c, n, k)
        rpr = RPRPlacement().place(c, n, k)
        assert rack_histogram(rpr, c) == rack_histogram(contiguous, c)

    def test_fig4_style_swap(self):
        """(4,2): P0 moves beside d2; d3 joins p1."""
        c = cluster_for(4, 2)
        p = RPRPlacement().place(c, 4, 2)
        assert p.blocks_in_rack(c, 0) == [0, 1]
        assert p.blocks_in_rack(c, 1) == [2, 4]  # d2, p0
        assert p.blocks_in_rack(c, 2) == [3, 5]  # d3, p1

    @given(st.integers(2, 12), st.integers(1, 4))
    @settings(max_examples=30, deadline=None)
    def test_placement_valid_for_arbitrary_codes(self, n, k):
        c = cluster_for(n, k)
        p = RPRPlacement().place(c, n, k)
        assert p.width == n + k
        assert single_rack_fault_tolerant(p, c)
