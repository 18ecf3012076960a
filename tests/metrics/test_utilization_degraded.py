"""Utilization rollups on multi-block and degraded (faulted) traces.

``UtilizationSummary`` and ``RunTrace.path_attribution`` were written
against clean single-failure runs; these tests pin their behavior on the
two harder trace shapes: multi-block repairs (several recovery targets,
heavier port contention) and degraded repairs (aborted occupancy
intervals with zero bytes, re-planned attempts).
"""

import pytest

from repro.experiments import build_simics_environment, context_for, run_scheme
from repro.metrics import UtilizationSummary
from repro.repair import RPRScheme, simulate_repair
from repro.sim import FaultPlan, NodeDeath

from ..sim.test_tracing import view
from .test_utilization import attributed


@pytest.fixture(scope="module")
def degraded():
    env = build_simics_environment(8, 3)
    ctx = context_for(env, [2])
    horizon = simulate_repair(RPRScheme(), ctx, env.bandwidth).total_repair_time
    faults = FaultPlan(deaths=(NodeDeath(6, 0.5 * horizon),))
    return simulate_repair(RPRScheme(), ctx, env.bandwidth, faults)


class TestMultiBlockRollups:
    @pytest.fixture(scope="class")
    def trace(self):
        env = build_simics_environment(8, 3)
        return run_scheme(env, RPRScheme(), [1, 2]).trace()

    def test_summary_bounds(self, trace):
        summary = UtilizationSummary.from_trace(trace)
        assert summary.makespan == pytest.approx(trace.makespan)
        assert 0.0 < summary.mean_port_utilization <= 1.0
        assert summary.mean_port_utilization <= summary.peak_port_utilization <= 1.0
        assert summary.peak_resource

    def test_rack_idle_fractions_are_fractions(self, trace):
        summary = UtilizationSummary.from_trace(trace)
        assert summary.rack_upload_idle
        for idle in summary.rack_upload_idle.values():
            assert 0.0 <= idle <= 1.0
        assert 0.0 <= summary.mean_rack_upload_idle <= 1.0

    def test_breakdown_sums_to_hundred(self, trace):
        assert attributed(trace.path_attribution()) == pytest.approx(trace.makespan)


class TestDegradedRollups:
    def test_summary_on_every_attempt(self, degraded):
        for attempt in range(degraded.attempts):
            summary = UtilizationSummary.from_trace(degraded.trace(attempt))
            assert summary.makespan > 0
            assert 0.0 < summary.peak_port_utilization <= 1.0
            assert summary.peak_resource

    def test_from_sim_matches_from_trace(self, degraded):
        direct = UtilizationSummary.from_trace(view(degraded.sims[0], degraded.cluster))
        via_trace = UtilizationSummary.from_trace(degraded.trace(0))
        assert direct == via_trace

    def test_breakdown_covers_the_aborted_attempt(self, degraded):
        # The aborted attempt's path ends on a job unblocked by an abort;
        # attribution must still account for the whole makespan.
        breakdown = degraded.trace(0).path_attribution()
        assert breakdown["makespan_s"] == pytest.approx(
            degraded.trace(0).makespan
        )
        assert attributed(breakdown) == pytest.approx(breakdown["makespan_s"])

    def test_aborted_bytes_stay_out_of_port_totals(self, degraded):
        # Attempt 0 aborts its R0 cross transfer: the sender's upload
        # port is busy until the death but carries zero bytes, so the
        # up-port totals equal exactly the completed-transfer ledgers.
        trace = degraded.trace(0)
        total_up = sum(r.nbytes for r in trace.resources if r.kind == "up")
        sim = degraded.sims[0]
        assert total_up == pytest.approx(
            sim.cross_rack_bytes() + sim.intra_rack_bytes()
        )

    def test_trace_requires_cluster(self, degraded):
        from dataclasses import replace

        stripped = replace(degraded, cluster=None)
        with pytest.raises(ValueError, match="cluster"):
            stripped.trace()
