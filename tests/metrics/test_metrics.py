"""Tests for traffic, repair-time reduction and load-balance metrics."""

import pytest

from repro.cluster import Cluster, HierarchicalBandwidth, SIMICS_BANDWIDTH
from repro.experiments import build_simics_environment, context_for
from repro.metrics import (
    TrafficLedger,
    coefficient_of_variation,
    imbalance_summary,
    max_mean_ratio,
    percent_reduction,
)
from repro.repair import RPRScheme, TraditionalRepair, simulate_repair
from repro.sim import JobGraph, SimulationEngine


@pytest.fixture
def engine():
    return SimulationEngine(
        Cluster.homogeneous(2, 2), HierarchicalBandwidth(intra=100.0, cross=10.0)
    )


class TestTrafficLedger:
    def test_split_and_per_node(self, engine):
        g = JobGraph()
        g.add_transfer("a", 0, 1, 100)  # intra
        g.add_transfer("b", 0, 2, 300)  # cross
        result = engine.run(g)
        ledger = TrafficLedger.from_sim(result, engine.cluster)
        assert ledger.intra_rack_bytes == 100
        assert ledger.cross_rack_bytes == 300
        assert ledger.uploaded_by_node[0] == 400
        assert ledger.downloaded_by_node[1] == 100
        assert ledger.downloaded_by_node[2] == 300
        assert ledger.cross_uploaded_by_rack == {0: 300}

    def test_cross_rack_blocks(self, engine):
        g = JobGraph()
        g.add_transfer("b", 0, 2, 300)
        ledger = TrafficLedger.from_sim(engine.run(g), engine.cluster)
        assert ledger.cross_rack_blocks(100) == pytest.approx(3.0)
        with pytest.raises(ValueError):
            ledger.cross_rack_blocks(0)

    def test_empty_run(self, engine):
        ledger = TrafficLedger.from_sim(engine.run(JobGraph()), engine.cluster)
        assert ledger.cross_rack_bytes == ledger.intra_rack_bytes == 0


class TestPercentReduction:
    def test_basic(self):
        assert percent_reduction(100.0, 25.0) == pytest.approx(75.0)

    def test_no_reduction(self):
        assert percent_reduction(10.0, 10.0) == 0.0

    def test_negative_means_regression(self):
        assert percent_reduction(10.0, 20.0) == pytest.approx(-100.0)

    def test_zero_baseline_rejected(self):
        with pytest.raises(ValueError):
            percent_reduction(0.0, 1.0)


class TestLoadBalance:
    def test_max_mean_ratio(self):
        assert max_mean_ratio([1, 1, 1, 1]) == pytest.approx(1.0)
        assert max_mean_ratio([4, 0, 0, 0]) == pytest.approx(4.0)

    def test_all_zero(self):
        assert max_mean_ratio([0, 0]) == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            max_mean_ratio([])
        with pytest.raises(ValueError):
            coefficient_of_variation([])

    def test_cv(self):
        assert coefficient_of_variation([5, 5, 5]) == pytest.approx(0.0)
        assert coefficient_of_variation([0, 10]) == pytest.approx(1.0)

    def test_summary(self):
        summary = imbalance_summary({"a": 4.0, "b": 0.0})
        assert summary["participants"] == 2
        assert summary["max_mean_ratio"] == pytest.approx(2.0)

    def test_summary_empty(self):
        assert imbalance_summary({})["participants"] == 0

    def test_rpr_balances_better_than_traditional(self):
        """§3.1's load-balance claim, measured: the per-node download
        concentration of traditional repair exceeds RPR's."""
        env = build_simics_environment(12, 4)
        ctx = context_for(env, [1])
        tra = simulate_repair(TraditionalRepair(), ctx, SIMICS_BANDWIDTH)
        rpr = simulate_repair(RPRScheme(), ctx, SIMICS_BANDWIDTH)
        tra_ledger = TrafficLedger.from_sim(tra.sim, env.cluster)
        rpr_ledger = TrafficLedger.from_sim(rpr.sim, env.cluster)
        assert max(rpr_ledger.downloaded_by_node.values()) < max(
            tra_ledger.downloaded_by_node.values()
        )
