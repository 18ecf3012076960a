"""Engine fault-injection semantics: deaths, stragglers, lost transfers.

Scenarios use the same 3x4 cluster as the engine tests (intra 100 B/s,
cross 10 B/s: a 100-byte block takes 1 s / 10 s), so every expected time
is mentally checkable.  Contracts under test are spelled out in
docs/FAULTS.md and :mod:`repro.sim.faults`.
"""

import pytest

from repro.cluster import Cluster, HierarchicalBandwidth
from repro.sim import (
    FaultPlan,
    FaultReport,
    JobGraph,
    NodeDeath,
    SimulationEngine,
    Straggler,
    TransferLoss,
    random_fault_plan,
)


@pytest.fixture
def cluster():
    return Cluster.homogeneous(3, 4)


@pytest.fixture
def engine(cluster):
    return SimulationEngine(cluster, HierarchicalBandwidth(intra=100.0, cross=10.0))


def kill(node, time):
    return FaultPlan(deaths=(NodeDeath(node=node, time=time),))


class TestNodeDeath:
    def test_aborts_running_transfer(self, engine):
        g = JobGraph()
        g.add_transfer("t", 0, 1, 100)  # 1 s intra
        result = engine.run(g, kill(1, 0.5))
        report = result.faults
        assert report.aborted == {"t": 0.5}
        assert result.timings["t"].end == 0.5
        assert report.aborted_bytes == pytest.approx(50.0)
        assert not report.complete

    def test_dependents_of_aborted_job_are_skipped(self, engine):
        g = JobGraph()
        g.add_transfer("t", 0, 1, 100)
        g.add_compute("c", 2, 1.0, deps=["t"])
        g.add_compute("grandchild", 3, 1.0, deps=["c"])
        report = engine.run(g, kill(1, 0.5)).faults
        assert set(report.skipped) == {"c", "grandchild"}
        assert report.incomplete == {"t", "c", "grandchild"}

    def test_job_ready_after_death_fails_to_start(self, engine):
        g = JobGraph()
        g.add_compute("warmup", 0, 2.0)
        g.add_compute("doomed", 1, 1.0, deps=["warmup"])
        report = engine.run(g, kill(1, 0.5)).faults
        # "doomed" never ran: its node was already dead when it became
        # eligible at t=2.
        assert "doomed" in report.failed
        assert "doomed" not in report.aborted
        assert "warmup" not in report.incomplete

    def test_completion_beats_death_at_same_instant(self, engine):
        """Completions are processed before deaths at one instant."""
        g = JobGraph()
        g.add_transfer("t", 0, 1, 100)  # finishes exactly at t=1
        report = engine.run(g, kill(1, 1.0)).faults
        assert report.complete
        assert report.aborted == {}

    def test_death_after_makespan_changes_nothing(self, engine):
        g = JobGraph()
        g.add_transfer("t", 0, 1, 100)
        base = engine.run(g)
        faulted = engine.run(g, kill(1, 100.0))
        assert faulted.faults.complete
        assert faulted.faults.dead_nodes == {}
        assert repr(faulted.makespan) == repr(base.makespan)

    def test_unrelated_jobs_still_finish(self, engine):
        g = JobGraph()
        g.add_transfer("t", 0, 1, 100)
        g.add_transfer("other", 4, 5, 100)
        report = engine.run(g, kill(1, 0.5)).faults
        assert "other" not in report.incomplete

    def test_abort_frees_ports_for_other_work(self, engine):
        """A death mid-transfer releases the surviving endpoint's port."""
        g = JobGraph()
        g.add_transfer("dying", 4, 0, 100)  # cross, 10 s, holds 0:down
        g.add_transfer("queued", 8, 0, 100)  # waits on 0:down
        result = engine.run(g, kill(4, 2.0))
        assert result.timings["queued"].start == pytest.approx(2.0)
        assert result.faults.aborted == {"dying": 2.0}


class TestStraggler:
    def test_compute_slows_by_factor(self, engine):
        g = JobGraph()
        g.add_compute("c", 0, 2.0)
        plan = FaultPlan(stragglers=(Straggler(node=0, factor=3.0),))
        assert engine.run(g, plan).makespan == pytest.approx(6.0)

    def test_transfer_stretched_by_worse_endpoint(self, engine):
        g = JobGraph()
        g.add_transfer("t", 0, 1, 100)
        plan = FaultPlan(
            stragglers=(
                Straggler(node=0, factor=2.0),
                Straggler(node=1, factor=5.0),
            )
        )
        assert engine.run(g, plan).makespan == pytest.approx(5.0)

    def test_factors_multiply_per_node(self):
        plan = FaultPlan(
            stragglers=(
                Straggler(node=3, factor=2.0),
                Straggler(node=3, factor=3.0),
            )
        )
        assert plan.straggler_factor(3) == pytest.approx(6.0)
        assert plan.straggler_factor(0) == 1.0


class TestTransferLoss:
    def test_named_loss_retries_once(self, engine):
        g = JobGraph()
        g.add_transfer("t", 0, 1, 100)
        plan = FaultPlan(losses=(TransferLoss(job_id="t"),))
        result = engine.run(g, plan)
        # The lost attempt occupies the wire, then the retry runs.
        assert result.makespan == pytest.approx(2.0)
        assert result.faults.lost == {"t": 1}
        assert result.faults.retried_bytes == pytest.approx(100.0)
        assert result.faults.complete

    def test_multiple_lost_attempts(self, engine):
        g = JobGraph()
        g.add_transfer("t", 0, 1, 100)
        plan = FaultPlan(losses=(TransferLoss(job_id="t", attempts=2),))
        result = engine.run(g, plan)
        assert result.makespan == pytest.approx(3.0)
        assert result.faults.retry_count == 2

    def test_dependents_wait_for_successful_attempt(self, engine):
        g = JobGraph()
        g.add_transfer("t", 0, 1, 100)
        g.add_compute("c", 1, 1.0, deps=["t"])
        plan = FaultPlan(losses=(TransferLoss(job_id="t"),))
        result = engine.run(g, plan)
        assert result.timings["c"].start == pytest.approx(2.0)

    def test_random_losses_bounded_and_deterministic(self, engine):
        g = JobGraph()
        g.add_transfer("t", 0, 1, 100)
        plan = FaultPlan(loss_probability=0.999, seed=3, max_random_losses=2)
        a = engine.run(g, plan)
        b = engine.run(g, plan)
        # Near-certain loss still terminates after max_random_losses.
        assert a.faults.retry_count == 2
        assert a.faults.complete
        assert [(e.time, e.kind, e.job_id) for e in a.events] == [
            (e.time, e.kind, e.job_id) for e in b.events
        ]

    def test_is_lost_is_order_independent(self):
        plan = FaultPlan(loss_probability=0.5, seed=9)
        draws = [plan.is_lost("job-a", attempt) for attempt in range(2)]
        # Hash-based draws: re-querying in any order gives the same answer.
        assert [plan.is_lost("job-a", a) for a in (1, 0)] == draws[::-1]


class TestFaultPlanValidation:
    def test_empty_plan_is_falsy(self):
        assert not FaultPlan()
        assert FaultPlan(deaths=(NodeDeath(node=0, time=1.0),))

    def test_negative_death_time_rejected(self):
        with pytest.raises(ValueError):
            NodeDeath(node=0, time=-1.0)

    def test_nonpositive_straggler_factor_rejected(self):
        with pytest.raises(ValueError):
            Straggler(node=0, factor=0.0)

    def test_loss_attempts_below_one_rejected(self):
        with pytest.raises(ValueError):
            TransferLoss(job_id="t", attempts=0)

    def test_loss_probability_range(self):
        with pytest.raises(ValueError):
            FaultPlan(loss_probability=1.0)
        with pytest.raises(ValueError):
            FaultPlan(loss_probability=-0.1)

    def test_shifted_clamps_past_deaths(self):
        plan = FaultPlan(
            deaths=(NodeDeath(node=0, time=5.0), NodeDeath(node=1, time=20.0))
        )
        shifted = plan.shifted(10.0)
        assert shifted.death_times() == {0: 0.0, 1: 10.0}
        assert plan.shifted(0.0) is plan

    def test_earliest_death_per_node_wins(self):
        plan = FaultPlan(
            deaths=(NodeDeath(node=0, time=5.0), NodeDeath(node=0, time=2.0))
        )
        assert plan.death_times() == {0: 2.0}


class TestRandomFaultPlan:
    def test_seeded_and_deterministic(self):
        a = random_fault_plan(range(12), seed=4, deaths=2, stragglers=1)
        b = random_fault_plan(range(12), seed=4, deaths=2, stragglers=1)
        assert a == b
        assert len(a.deaths) == 2
        assert len(a.stragglers) == 1
        # deaths and stragglers never share a node
        assert not {d.node for d in a.deaths} & {s.node for s in a.stragglers}

    def test_too_many_picks_rejected(self):
        with pytest.raises(ValueError):
            random_fault_plan(range(3), deaths=2, stragglers=2)


class TestFaultReport:
    def test_fault_free_run_has_no_report(self, engine):
        g = JobGraph()
        g.add_transfer("t", 0, 1, 100)
        assert engine.run(g).faults is None
        # An empty (falsy) plan stays on the fault-free fast path.
        assert engine.run(g, FaultPlan()).faults is None

    def test_report_helpers(self):
        report = FaultReport(
            aborted={"a": 1.0}, failed={"b": 2.0}, skipped=("c",), lost={"t": 3}
        )
        assert report.incomplete == {"a", "b", "c"}
        assert not report.complete
        assert report.retry_count == 3
        assert FaultReport().complete
