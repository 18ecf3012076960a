"""Tests for utilization/critical-path metrics (repro.metrics.utilization)."""

import pytest

from repro.cluster import Cluster, HierarchicalBandwidth
from repro.experiments import build_simics_environment, run_scheme
from repro.metrics import UtilizationSummary
from repro.repair import RPRScheme, TraditionalRepair
from repro.rs import PAPER_SINGLE_FAILURE_CODES
from repro.sim import JobGraph, SimulationEngine
from repro.telemetry import RunTrace

from ..sim.test_tracing import view


@pytest.fixture
def engine():
    return SimulationEngine(
        Cluster.homogeneous(2, 2), HierarchicalBandwidth(intra=100.0, cross=10.0)
    )


class TestUtilizationSummary:
    def test_hand_built_graph(self, engine):
        g = JobGraph()
        g.add_transfer("a", 0, 1, 100)  # 1 s on n0:up and n1:down
        summary = UtilizationSummary.from_trace(view(engine.run(g), engine.cluster))
        assert summary.makespan == pytest.approx(1.0)
        assert summary.mean_port_utilization == pytest.approx(1.0)
        assert summary.peak_port_utilization == pytest.approx(1.0)
        # Rack 0 uploads the whole run; rack 1 (download only) never uploads.
        assert summary.rack_upload_idle[0] == pytest.approx(0.0)

    def test_empty_run(self, engine):
        summary = UtilizationSummary.from_trace(view(engine.run(JobGraph()), engine.cluster))
        assert summary.peak_resource == ""
        assert summary.mean_rack_upload_idle == 0.0

    @pytest.mark.parametrize("n,k", PAPER_SINGLE_FAILURE_CODES)
    def test_traditional_bottleneck_is_recovery_download(self, n, k):
        """§2.3 measured: the busiest resource of a traditional repair is
        the recovery node's download port, at near-total utilization."""
        env = build_simics_environment(n, k)
        out = run_scheme(env, TraditionalRepair(), [1])
        summary = UtilizationSummary.from_trace(out.trace())
        assert summary.peak_resource.endswith(":down")
        assert summary.peak_port_utilization > 0.9

    @pytest.mark.parametrize("n,k", PAPER_SINGLE_FAILURE_CODES)
    def test_rpr_less_idle_than_traditional(self, n, k):
        """Fig. 5's idle argument: RPR keeps racks uploading more of the
        repair than traditional does."""
        env = build_simics_environment(n, k)
        tra = UtilizationSummary.from_trace(
            view(run_scheme(env, TraditionalRepair(), [1]).sim, env.cluster)
        )
        rpr = UtilizationSummary.from_trace(
            view(run_scheme(env, RPRScheme(), [1]).sim, env.cluster)
        )
        assert rpr.mean_rack_upload_idle < tra.mean_rack_upload_idle


def attributed(breakdown):
    """The seconds ``path_attribution`` spreads over its four categories."""
    return sum(
        breakdown[key] for key in ("cross_transfer_s", "intra_transfer_s", "compute_s", "wait_s")
    )


class TestCriticalPathBreakdown:
    """The critical path's attribution (``RunTrace.path_attribution``)
    accounts for the whole makespan, once."""

    def test_percentages_sum_to_hundred(self):
        env = build_simics_environment(8, 2)
        trace = run_scheme(env, RPRScheme(), [1]).trace()
        breakdown = trace.path_attribution()
        assert attributed(breakdown) == pytest.approx(trace.makespan, rel=1e-6)
        assert breakdown["makespan_s"] == pytest.approx(trace.makespan)

    def test_cross_transfers_dominate_at_paper_scale(self):
        """At 256 MB blocks over 0.1 Gb/s cross links, the critical path is
        mostly cross-rack transfer for every scheme — the paper's premise."""
        env = build_simics_environment(6, 2)
        for scheme in (TraditionalRepair(), RPRScheme()):
            trace = run_scheme(env, scheme, [1]).trace()
            breakdown = trace.path_attribution()
            assert breakdown["cross_transfer_s"] > 0.5 * breakdown["makespan_s"]

    def test_empty_trace(self):
        breakdown = RunTrace(makespan=0.0).path_attribution()
        assert breakdown["cross_transfer_s"] == 0.0
        assert breakdown["wait_s"] == 0.0
