"""Golden pins for critical-path extraction on faulted schedules.

``RunTrace`` (and with it ``rpr trace``) used to assume every started
job gets an *_END event; faulted runs break that (aborts end at the
death instant, lost transfers restart from a loss, cascade-skipped jobs
never appear).  These pins fix one RS(8,3) degraded repair — node 6
dies halfway through the fault-free schedule, killing the R0 cross
sender mid-stream and forcing a re-planned second attempt — and assert
exact path structure on both attempts, so path extraction across abort
and retry boundaries cannot silently regress.
"""

import pytest

from repro.experiments import build_simics_environment, context_for
from repro.repair import RPRScheme, simulate_repair
from repro.sim import FaultPlan, NodeDeath, telemetry_from_sim
from repro.telemetry import RunTrace

VICTIM = 6


@pytest.fixture(scope="module")
def outcome():
    env = build_simics_environment(8, 3)
    ctx = context_for(env, [2])
    horizon = simulate_repair(RPRScheme(), ctx, env.bandwidth).total_repair_time
    assert repr(horizon) == "45.568"
    faults = FaultPlan(deaths=(NodeDeath(VICTIM, 0.5 * horizon),))
    return simulate_repair(RPRScheme(), ctx, env.bandwidth, faults)


class TestPinnedDegradedOutcome:
    def test_shape(self, outcome):
        assert outcome.attempts == 2
        assert outcome.dead_nodes == {VICTIM: 22.784}
        assert outcome.total_repair_time == pytest.approx(146.688)


class TestAbortedAttemptPath:
    """Attempt 0 dies at t=22.784; its path must cross the abort."""

    def test_path_walks_across_the_abort(self, outcome):
        path = outcome.trace(0).path
        assert [(seg.job_id, seg.entered_via, seg.aborted) for seg in path] == [
            ("rpr:inner:r1:L0:p0:send:0", "start", False),
            ("rpr:inner:r1:L1:p0:send:0", "resource", False),
            ("rpr:inner:r1:L1:p0:eq0:combine", "dependency", False),
            ("rpr:eq0:cross:R0:to-target", "dependency", True),
            ("rpr:eq0:cross:R1:to-target", "abort", False),
        ]

    def test_aborted_segment_ends_at_the_death_instant(self, outcome):
        aborted = [seg for seg in outcome.trace(0).path if seg.aborted]
        assert len(aborted) == 1
        assert aborted[0].end == pytest.approx(22.784)

    def test_path_is_contiguous_to_the_makespan(self, outcome):
        trace = outcome.trace(0)
        assert trace.path[0].start == pytest.approx(0.0)
        assert trace.path[-1].end == pytest.approx(trace.makespan)
        for prev, nxt in zip(trace.path, trace.path[1:]):
            assert nxt.start == pytest.approx(prev.end)

    def test_aborted_occupancy_carries_no_bytes(self, outcome):
        # The abort holds its ports until the death but moved nothing the
        # ledgers count — byte totals stay conservation-exact.
        trace = outcome.trace(0)
        aborted_job = "rpr:eq0:cross:R0:to-target"
        intervals = [
            iv
            for resource in trace.resources
            for iv in resource.intervals
            if iv.job_id == aborted_job and iv.end == pytest.approx(22.784)
        ]
        assert intervals, "abort occupancy missing from the utilization view"
        assert all(iv.nbytes == 0.0 for iv in intervals)


class TestFinalAttemptPath:
    """Attempt 1 is the re-planned degraded gather — fault-free shape."""

    def test_default_trace_is_the_final_attempt(self, outcome):
        assert outcome.trace().path == outcome.trace(-1).path
        assert outcome.trace(1).makespan == pytest.approx(103.424)

    def test_path_structure(self, outcome):
        path = outcome.trace(1).path
        assert [seg.entered_via for seg in path] == [
            "start", "resource", "resource", "resource", "resource", "dependency",
        ]
        assert not any(seg.aborted for seg in path)
        assert path[-1].job_id == "rpr:degraded:a1:final:2"
        assert path[-1].end == pytest.approx(103.424)


class TestFaultFreePathUnchanged:
    """The faulted-path rewrite must not move a fault-free critical path."""

    def test_no_abort_vias_without_faults(self):
        env = build_simics_environment(8, 3)
        out = simulate_repair(RPRScheme(), context_for(env, [2]), env.bandwidth)
        trace = RunTrace.from_telemetry(
            telemetry_from_sim(out.sim, env.cluster), env.cluster
        )
        assert {seg.entered_via for seg in trace.path} <= {
            "start", "dependency", "resource", "completion",
        }
        assert not any(seg.aborted for seg in trace.path)
        assert trace.path[-1].end == pytest.approx(trace.makespan)


class TestStitchedTelemetry:
    def test_spans_and_fault_ledger(self, outcome):
        tel = outcome.telemetry()
        assert tel.clock == "sim"
        assert tel.extent == pytest.approx(outcome.total_repair_time)
        assert tel.counters["fault.deaths"] == pytest.approx(1.0)
        assert tel.counters["fault.aborts"] == pytest.approx(1.0)
        aborted = [s.op_id for s in tel.spans if s.category == "aborted"]
        assert aborted == ["rpr:eq0:cross:R0:to-target"]
        assert {e.name for e in tel.events} == {"fault.abort", "fault.death"}
