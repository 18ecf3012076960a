"""Tests for the utilization view (repro.telemetry.view) over simulated runs.

The contracts documented in docs/OBSERVABILITY.md: per-resource timelines
sum to busy time, the critical path is contiguous from t=0 to the
makespan, the telemetry JSONL keeps enough to re-derive the view, and
the renderers stay text-only.
"""

import pytest

from repro.cluster import Cluster, HierarchicalBandwidth
from repro.experiments import build_simics_environment, run_scheme
from repro.metrics import TrafficLedger
from repro.repair import CARRepair, RPRScheme, TraditionalRepair
from repro.sim import JobGraph, SimulationEngine, telemetry_from_sim
from repro.telemetry import RunTrace, from_jsonl, render_gantt, render_report, to_jsonl


@pytest.fixture
def engine():
    return SimulationEngine(
        Cluster.homogeneous(2, 2), HierarchicalBandwidth(intra=100.0, cross=10.0)
    )


def view(result, cluster):
    return RunTrace.from_telemetry(telemetry_from_sim(result, cluster), cluster)


def assert_contiguous(trace):
    """Head at t=0, each hop starts at its predecessor's end, tail at makespan."""
    assert trace.path, "critical path is empty"
    assert trace.path[0].start == pytest.approx(0.0, abs=1e-9)
    for prev, cur in zip(trace.path, trace.path[1:]):
        assert cur.start == pytest.approx(prev.end, rel=1e-9, abs=1e-9)
    assert trace.path[-1].end == pytest.approx(trace.makespan, rel=1e-9)


class TestResourceTimelines:
    def test_busy_equals_interval_sum(self, engine):
        g = JobGraph()
        g.add_transfer("a", 0, 1, 100)          # intra, 1 s
        g.add_transfer("b", 0, 2, 300, deps=["a"])  # cross, 30 s
        g.add_compute("c", 2, 2.0, deps=["b"])
        trace = view(engine.run(g), engine.cluster)
        up0 = trace.resource("n0:up")
        assert up0.busy == pytest.approx(sum(iv.duration for iv in up0.intervals))
        assert up0.busy == pytest.approx(31.0)
        assert up0.nbytes == pytest.approx(400.0)
        assert trace.resource("n2:cpu").busy == pytest.approx(2.0)
        assert trace.resource("n2:cpu").nbytes == 0.0

    def test_total_busy_matches_time_breakdown(self):
        """The view and the raw op spans agree on aggregate busy time.

        Every transfer occupies exactly two ports, so port busy time is
        twice the summed transfer durations; CPU busy equals compute."""
        env = build_simics_environment(6, 2)
        out = run_scheme(env, RPRScheme(), [1])
        trace = out.trace()
        busy = {"transfer": 0.0, "compute": 0.0}
        for span in out.telemetry().op_spans().values():
            busy[span.attrs["kind"]] += span.duration
        port_busy = sum(r.busy for r in trace.resources if r.kind in ("up", "down"))
        cpu_busy = sum(r.busy for r in trace.resources if r.kind == "cpu")
        assert port_busy == pytest.approx(2 * busy["transfer"])
        assert cpu_busy == pytest.approx(busy["compute"])

    def test_port_bytes_match_traffic_ledger(self):
        env = build_simics_environment(6, 2)
        out = run_scheme(env, TraditionalRepair(), [1])
        trace = out.trace()
        ledger = TrafficLedger.from_sim(out.sim, env.cluster)
        for res in trace.resources:
            if res.kind == "up":
                assert res.nbytes == pytest.approx(ledger.uploaded_by_node[res.node])
            elif res.kind == "down":
                assert res.nbytes == pytest.approx(ledger.downloaded_by_node[res.node])

    def test_utilization_bounds(self):
        env = build_simics_environment(12, 4)
        trace = run_scheme(env, RPRScheme(), [1]).trace()
        for res in trace.resources:
            util = res.utilization(trace.makespan)
            assert 0.0 < util <= 1.0 + 1e-9
            assert res.idle(trace.makespan) == pytest.approx(
                trace.makespan - res.busy
            )

    def test_empty_run(self, engine):
        trace = view(engine.run(JobGraph()), engine.cluster)
        assert trace.resources == [] and trace.path == []
        assert render_report(trace) == "(empty trace)"
        assert render_gantt(trace) == "(empty trace)"


class TestCriticalPath:
    @pytest.mark.parametrize("scheme_cls", [TraditionalRepair, CARRepair, RPRScheme])
    @pytest.mark.parametrize("failed", [[1], [0, 3]])
    def test_path_ends_at_makespan(self, scheme_cls, failed):
        if scheme_cls is CARRepair and len(failed) > 1:
            pytest.skip("CAR is single-failure only")
        env = build_simics_environment(8, 4)
        out = run_scheme(env, scheme_cls(), failed)
        trace = out.trace()
        assert_contiguous(trace)
        assert sum(s.duration for s in trace.path) == pytest.approx(
            out.sim.makespan, rel=1e-9
        )

    def test_dependency_edge(self, engine):
        g = JobGraph()
        g.add_transfer("t", 0, 1, 100)
        g.add_compute("c", 1, 2.0, deps=["t"])
        path = view(engine.run(g), engine.cluster).path
        assert [s.job_id for s in path] == ["t", "c"]
        assert path[1].entered_via == "dependency"

    def test_resource_edge(self, engine):
        """Two independent transfers into one download port serialise; the
        second's start is attributed to the port release, not a dependency."""
        g = JobGraph()
        g.add_transfer("a", 0, 2, 100)
        g.add_transfer("b", 1, 2, 100)
        path = view(engine.run(g), engine.cluster).path
        assert [s.job_id for s in path] == ["a", "b"]
        assert path[0].entered_via == "start"
        assert path[1].entered_via == "resource"

    def test_completion_edge_under_cross_capacity(self):
        """With a capped switch, a job can wait on the cross-rack token of a
        transfer it shares no port or dependency with."""
        cluster = Cluster.homogeneous(3, 2)
        engine = SimulationEngine(
            cluster, HierarchicalBandwidth(intra=100.0, cross=10.0), cross_capacity=1
        )
        g = JobGraph()
        g.add_transfer("a", 0, 2, 100)  # rack0 -> rack1
        g.add_transfer("b", 1, 4, 100)  # rack0 -> rack2, blocked by the token
        path = view(engine.run(g), engine.cluster).path
        assert [s.job_id for s in path] == ["a", "b"]
        assert path[1].entered_via == "completion"

    def test_attribution_sums_to_makespan(self):
        env = build_simics_environment(6, 2)
        trace = run_scheme(env, RPRScheme(), [1]).trace()
        att = trace.path_attribution()
        covered = (
            att["cross_transfer_s"] + att["intra_transfer_s"] + att["compute_s"]
        )
        assert covered + att["wait_s"] == pytest.approx(trace.makespan, rel=1e-9)
        assert att["wait_s"] == pytest.approx(0.0, abs=1e-6)


class TestRackAccounting:
    def test_rack_activity_is_union_not_sum(self, engine):
        g = JobGraph()
        g.add_transfer("a", 0, 2, 100)  # n0 and n1 upload in parallel:
        g.add_transfer("b", 1, 3, 100)  # rack 0 is active 10 s, not 20
        trace = view(engine.run(g), engine.cluster)
        assert trace.rack_activity("up")[0] == pytest.approx(10.0)
        assert trace.rack_idle_fraction("up")[0] == pytest.approx(0.0)

    def test_pipeline_reduces_rack_idle(self):
        """The Fig. 5 argument, machine-checked: the pipelined cross stage
        leaves racks less idle than the direct all-to-recovery gather."""
        env = build_simics_environment(6, 2)
        piped = run_scheme(env, RPRScheme(pipeline=True), [1]).trace()
        direct = run_scheme(env, RPRScheme(pipeline=False), [1]).trace()

        def mean_idle(trace):
            idle = trace.rack_idle_fraction("up")
            return sum(idle.values()) / len(idle)

        assert mean_idle(piped) < mean_idle(direct)


class TestSwitchProfile:
    def test_totals_match_traffic_split(self):
        """The view's upload ports carry the run's bytes: a transfer whose
        download port is in another rack crossed the aggregation switch."""
        env = build_simics_environment(6, 2)
        out = run_scheme(env, RPRScheme(), [1])
        trace = out.trace()
        down_rack = {
            iv.job_id: res.rack for res in trace.resources if res.kind == "down"
            for iv in res.intervals
        }
        uploads = [
            (iv.nbytes, down_rack[iv.job_id] != res.rack)
            for res in trace.resources if res.kind == "up"
            for iv in res.intervals
        ]
        assert sum(n for n, cross in uploads if cross) == out.sim.cross_rack_bytes()
        assert sum(n for n, cross in uploads if not cross) == out.sim.intra_rack_bytes()


class TestExport:
    def test_json_lines_round_trip(self):
        """The telemetry JSONL keeps enough to re-derive the report — for a
        fault-free run and for both attempts of a faulted one."""
        from repro.experiments import context_for
        from repro.repair import simulate_repair
        from repro.sim import FaultPlan, NodeDeath

        env = build_simics_environment(6, 2)
        out = run_scheme(env, RPRScheme(), [1])
        restored = from_jsonl(to_jsonl(out.telemetry()))
        assert RunTrace.from_telemetry(restored, env.cluster) == out.trace()
        assert_contiguous(out.trace())

        env = build_simics_environment(8, 3)
        ctx = context_for(env, [2])
        horizon = simulate_repair(RPRScheme(), ctx, env.bandwidth).total_repair_time
        vias = set()
        for faults in (
            FaultPlan(deaths=(NodeDeath(6, 0.5 * horizon),)),
            FaultPlan(loss_probability=0.5, seed=0),
        ):
            degraded = simulate_repair(RPRScheme(), ctx, env.bandwidth, faults)
            for attempt, sim in enumerate(degraded.sims):
                restored = from_jsonl(to_jsonl(telemetry_from_sim(sim, env.cluster)))
                derived = RunTrace.from_telemetry(restored, env.cluster)
                assert derived == degraded.trace(attempt)
                vias |= {seg.entered_via for seg in derived.path}
        assert {"abort", "retry"} <= vias  # both fault hops survived the JSONL


class TestRenderers:
    def test_report_mentions_racks_and_path(self):
        env = build_simics_environment(6, 4)
        trace = run_scheme(env, RPRScheme(), [1]).trace()
        report = render_report(trace)
        assert "per-rack utilization" in report
        assert "critical path" in report
        assert "r0" in report and "x-rack" in report

    def test_gantt_shows_utilization_percent(self):
        env = build_simics_environment(6, 2)
        trace = run_scheme(env, TraditionalRepair(), [1]).trace()
        chart = render_gantt(trace, width=40)
        assert "%" in chart and "#" in chart
        with pytest.raises(ValueError):
            render_gantt(trace, width=5)

    def test_outcome_without_cluster_raises(self):
        from dataclasses import replace

        env = build_simics_environment(6, 2)
        out = run_scheme(env, RPRScheme(), [1])
        with pytest.raises(ValueError):
            replace(out, cluster=None).trace()
