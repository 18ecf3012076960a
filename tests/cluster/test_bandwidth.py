"""Tests for bandwidth models."""

import pytest

from repro.cluster import (
    SIMICS_BANDWIDTH,
    Cluster,
    HierarchicalBandwidth,
    MatrixBandwidth,
    gbps,
    mbps,
)


class TestUnits:
    def test_gbps(self):
        assert gbps(1) == 125e6

    def test_mbps(self):
        assert mbps(8) == 1e6


class TestHierarchical:
    def test_rates_by_rack_relationship(self):
        c = Cluster.homogeneous(2, 2)
        bw = HierarchicalBandwidth(intra=100.0, cross=10.0)
        assert bw.rate(c, 0, 1) == 100.0
        assert bw.rate(c, 0, 2) == 10.0

    def test_self_transfer_rejected(self):
        c = Cluster.homogeneous(2, 2)
        with pytest.raises(ValueError):
            HierarchicalBandwidth(intra=10, cross=1).rate(c, 0, 0)

    def test_invalid_rates(self):
        with pytest.raises(ValueError):
            HierarchicalBandwidth(intra=0, cross=1)
        with pytest.raises(ValueError):
            HierarchicalBandwidth(intra=1, cross=-1)

    def test_cross_exceeding_intra_rejected(self):
        with pytest.raises(ValueError):
            HierarchicalBandwidth(intra=1, cross=2)

    def test_simics_constants(self):
        """§5.1: 1 Gb/s intra, 0.1 Gb/s cross, ratio 10."""
        c = Cluster.homogeneous(2, 2)
        assert SIMICS_BANDWIDTH.rate(c, 0, 1) == gbps(1)
        assert SIMICS_BANDWIDTH.rate(c, 0, 2) == gbps(0.1)


class TestMatrix:
    def make(self):
        return MatrixBandwidth(
            pair_rate={
                (0, 0): 100.0,
                (1, 1): 90.0,
                (0, 1): 10.0,
            }
        )

    def test_rates(self):
        c = Cluster.homogeneous(2, 2)
        bw = self.make()
        assert bw.rate(c, 0, 1) == 100.0
        assert bw.rate(c, 2, 3) == 90.0
        assert bw.rate(c, 0, 3) == 10.0
        assert bw.rate(c, 3, 0) == 10.0  # symmetric by construction

    def test_missing_pair(self):
        c = Cluster.homogeneous(3, 1)
        with pytest.raises(KeyError):
            self.make().rate(c, 0, 2)

    def test_unsorted_pair_rejected(self):
        with pytest.raises(ValueError):
            MatrixBandwidth(pair_rate={(1, 0): 5.0})

    def test_nonpositive_rate_rejected(self):
        with pytest.raises(ValueError):
            MatrixBandwidth(pair_rate={(0, 0): 0.0})

    def test_self_transfer_rejected(self):
        c = Cluster.homogeneous(2, 2)
        with pytest.raises(ValueError):
            self.make().rate(c, 1, 1)


class TestHierarchicalLatency:
    def test_default_latency_is_zero(self):
        c = Cluster.homogeneous(2, 2)
        bw = HierarchicalBandwidth(intra=100.0, cross=10.0)
        assert bw.latency(c, 0, 1) == 0.0
        assert bw.latency(c, 0, 2) == 0.0

    def test_latency_by_rack_relationship(self):
        c = Cluster.homogeneous(2, 2)
        bw = HierarchicalBandwidth(
            intra=100.0, cross=10.0, intra_latency=0.001, cross_latency=0.05
        )
        assert bw.latency(c, 0, 1) == 0.001
        assert bw.latency(c, 0, 2) == 0.05

    def test_negative_latency_rejected(self):
        with pytest.raises(ValueError):
            HierarchicalBandwidth(intra=10, cross=1, intra_latency=-0.1)
        with pytest.raises(ValueError):
            HierarchicalBandwidth(intra=10, cross=1, cross_latency=-0.1)

    def test_self_transfer_latency_rejected(self):
        c = Cluster.homogeneous(2, 2)
        with pytest.raises(ValueError):
            HierarchicalBandwidth(intra=10, cross=1).latency(c, 2, 2)


class TestMatrixAsymmetricPairs:
    def make_three_racks(self):
        """Three racks, every rack pair at a different rate — the EC2
        shape, where Table 1 gives each region pair its own bandwidth."""
        return MatrixBandwidth(
            pair_rate={
                (0, 0): 100.0,
                (1, 1): 90.0,
                (2, 2): 80.0,
                (0, 1): 10.0,
                (0, 2): 4.0,
                (1, 2): 2.0,
            }
        )

    def test_each_rack_pair_has_its_own_rate(self):
        c = Cluster.homogeneous(3, 2)
        bw = self.make_three_racks()
        assert bw.rate(c, 0, 2) == 10.0  # racks 0-1
        assert bw.rate(c, 0, 4) == 4.0   # racks 0-2
        assert bw.rate(c, 2, 4) == 2.0   # racks 1-2
        # Direction never matters: pairs are unordered.
        assert bw.rate(c, 4, 0) == bw.rate(c, 0, 4)

    def test_per_rack_intra_rates_differ(self):
        c = Cluster.homogeneous(3, 2)
        bw = self.make_three_racks()
        assert bw.rate(c, 0, 1) == 100.0
        assert bw.rate(c, 2, 3) == 90.0
        assert bw.rate(c, 4, 5) == 80.0


class TestMatrixLatency:
    def make(self):
        return MatrixBandwidth(
            pair_rate={(0, 0): 100.0, (1, 1): 90.0, (0, 1): 10.0},
            pair_latency={(0, 1): 0.08},
        )

    def test_latency_lookup(self):
        c = Cluster.homogeneous(2, 2)
        bw = self.make()
        assert bw.latency(c, 0, 2) == 0.08
        assert bw.latency(c, 2, 0) == 0.08  # unordered pairs

    def test_absent_pairs_default_to_zero(self):
        c = Cluster.homogeneous(2, 2)
        assert self.make().latency(c, 0, 1) == 0.0

    def test_no_latency_table_means_zero(self):
        c = Cluster.homogeneous(2, 2)
        bw = MatrixBandwidth(pair_rate={(0, 0): 1.0, (0, 1): 1.0, (1, 1): 1.0})
        assert bw.latency(c, 0, 2) == 0.0

    def test_negative_latency_rejected(self):
        with pytest.raises(ValueError):
            MatrixBandwidth(
                pair_rate={(0, 1): 1.0}, pair_latency={(0, 1): -0.5}
            )

    def test_unsorted_latency_pair_rejected(self):
        with pytest.raises(ValueError):
            MatrixBandwidth(
                pair_rate={(0, 1): 1.0}, pair_latency={(1, 0): 0.5}
            )

    def test_self_transfer_latency_rejected(self):
        c = Cluster.homogeneous(2, 2)
        with pytest.raises(ValueError):
            self.make().latency(c, 0, 0)


class TestMatrixRatioEdgeCases:
    def test_ratio_below_one_is_allowed(self):
        # MatrixBandwidth (unlike HierarchicalBandwidth) permits cross
        # links faster than intra ones — EC2 region pairs can beat a
        # congested local rack.
        c = Cluster.homogeneous(2, 2)
        bw = MatrixBandwidth(
            pair_rate={(0, 0): 5.0, (1, 1): 5.0, (0, 1): 50.0}
        )
        assert bw.rate(c, 0, 2) == 10 * bw.rate(c, 0, 1)
