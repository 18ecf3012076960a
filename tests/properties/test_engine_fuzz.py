"""Property fuzzing of the discrete-event engine with random job DAGs.

Generates random layered DAGs of transfers and computes, runs them, and
checks structural invariants that must hold for *any* graph:

* no resource (port/CPU) ever carries two jobs at once;
* every job starts at or after all of its dependencies' ends;
* the makespan is at least the critical-path lower bound and at most
  the serialised sum of all durations;
* total busy time per resource never exceeds the makespan.

Under a random :class:`~repro.sim.FaultPlan` (deaths, stragglers,
losses, with and without a cross-rack cap) the same loop must still
never double-book a resource — counting lost and aborted attempts —
never start anything on a dead node, and account for every job exactly
once as finished, aborted, failed or skipped.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster, HierarchicalBandwidth
from repro.sim import EventKind, JobGraph, SimulationEngine, random_fault_plan

CLUSTER = Cluster.homogeneous(4, 4)
BW = HierarchicalBandwidth(intra=100.0, cross=10.0)
ENGINE = SimulationEngine(CLUSTER, BW)
NODES = CLUSTER.num_nodes


def build_graph(seed: int, count: int):
    """One layered DAG of ``count`` jobs: jobs may only depend on earlier jobs.

    Plain and seeded so ``tests/sim/test_faults_golden.py`` can pin a
    fixed corpus of the same shapes the fuzzer explores.
    """
    rng = np.random.default_rng(seed)
    graph = JobGraph()
    ids = []
    durations = {}
    for i in range(count):
        jid = f"j{i}"
        max_deps = min(len(ids), 3)
        dep_count = int(rng.integers(0, max_deps + 1))
        deps = list(
            rng.choice(ids, size=dep_count, replace=False)
        ) if dep_count else []
        if rng.random() < 0.6:
            src = int(rng.integers(0, NODES))
            dst = int(rng.integers(0, NODES - 1))
            if dst >= src:
                dst += 1
            nbytes = float(rng.integers(1, 500))
            graph.add_transfer(jid, src, dst, nbytes, deps=deps)
            durations[jid] = nbytes / BW.rate(CLUSTER, src, dst)
        else:
            seconds = float(rng.integers(0, 50)) / 10.0
            graph.add_compute(jid, int(rng.integers(0, NODES)), seconds, deps=deps)
            durations[jid] = seconds
        ids.append(jid)
    return graph, durations


@st.composite
def random_graphs(draw):
    return build_graph(draw(st.integers(0, 2**31 - 1)), draw(st.integers(1, 25)))


def resource_intervals(graph, result):
    intervals: dict[tuple, list[tuple[float, float]]] = {}
    for jid, job in graph.jobs.items():
        timing = result.timings[jid]
        if hasattr(job, "src"):
            keys = [("up", job.src), ("down", job.dst)]
        else:
            keys = [("cpu", job.node)]
        for key in keys:
            intervals.setdefault(key, []).append((timing.start, timing.end))
    return intervals


class TestEngineFuzz:
    @given(random_graphs())
    @settings(max_examples=80, deadline=None)
    def test_invariants(self, case):
        graph, durations = case
        result = ENGINE.run(graph)

        # every job ran with its exact duration
        for jid, timing in result.timings.items():
            assert timing.end - timing.start == pytest.approx(durations[jid])

        # dependencies respected
        for jid, job in graph.jobs.items():
            for dep in job.deps:
                assert (
                    result.timings[jid].start
                    >= result.timings[dep].end - 1e-9
                )

        # no resource carries overlapping jobs
        for key, spans in resource_intervals(graph, result).items():
            spans = sorted(spans)
            for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
                assert s2 >= e1 - 1e-9, (key, spans)

        # makespan bounds
        total = sum(durations.values())
        # critical path over declared deps only (resources can only delay)
        longest: dict[str, float] = {}
        for jid, job in graph.jobs.items():  # insertion order is topological
            longest[jid] = durations[jid] + max(
                (longest[d] for d in job.deps), default=0.0
            )
        critical = max(longest.values(), default=0.0)
        assert result.makespan >= critical - 1e-9
        assert result.makespan <= total + 1e-9

        # trace completeness: one start and one end event per job
        starts = [e for e in result.events if e.kind.endswith("start")]
        ends = [
            e
            for e in result.events
            if e.kind in (EventKind.TRANSFER_END, EventKind.COMPUTE_END)
        ]
        assert len(starts) == len(graph.jobs)
        assert len(ends) == len(graph.jobs)


@st.composite
def faulted_cases(draw):
    graph, _ = build_graph(draw(st.integers(0, 2**31 - 1)), draw(st.integers(1, 40)))
    faults = random_fault_plan(
        range(NODES),
        seed=draw(st.integers(0, 2**31 - 1)),
        deaths=draw(st.integers(0, 3)),
        death_window=(0.0, 60.0),
        stragglers=draw(st.integers(0, 2)),
        loss_probability=draw(st.sampled_from([0.0, 0.3])),
    )
    return graph, faults, draw(st.sampled_from([None, 1, 2]))


class TestFaultedEngineFuzz:
    @given(faulted_cases())
    @settings(max_examples=120, deadline=None)
    def test_invariants(self, case):
        graph, faults, cross_capacity = case
        engine = SimulationEngine(CLUSTER, BW, cross_capacity=cross_capacity)
        result = engine.run(graph, faults)
        report = result.faults
        if report is None:  # the drawn plan was empty
            assert not faults
            return

        # every job is accounted for exactly once (a timing alone is not
        # completion: aborted jobs and lost-then-refused transfers have one)
        finished = {
            e.job_id
            for e in result.events
            if e.kind in (EventKind.TRANSFER_END, EventKind.COMPUTE_END)
        }
        assert finished == set(result.timings) - report.incomplete
        outcomes = [finished, set(report.aborted), set(report.failed), set(report.skipped)]
        assert sum(len(o) for o in outcomes) == len(graph.jobs)
        assert set().union(*outcomes) == set(graph.jobs)
        assert len(report.skipped) == len(set(report.skipped))

        # a finished job's dependencies all finished before it started
        for jid in finished:
            for dep in graph.jobs[jid].deps:
                assert dep in finished
                assert result.timings[jid].start >= result.timings[dep].end - 1e-9

        # every attempt (incl. lost and aborted ones) as a busy interval
        intervals: dict[tuple, list[tuple[float, float]]] = {}
        open_at: dict[str, float] = {}
        unopened: dict[str, float] = {}
        cross_open = cross_peak = 0
        for event in result.events:
            if event.kind == EventKind.NODE_DEATH:
                continue
            job = graph.jobs[event.job_id]
            nodes = (job.src, job.dst) if hasattr(job, "src") else (job.node,)
            if event.kind.endswith("start"):
                # nothing starts on a node that is already dead
                for node in nodes:
                    assert event.time < report.dead_nodes.get(node, float("inf"))
                if unopened.get(event.job_id) == event.time:
                    del unopened[event.job_id]  # zero-length: its end sorted first
                    continue
                open_at[event.job_id] = event.time
                cross_open += event.cross_rack
                cross_peak = max(cross_peak, cross_open)
            elif event.job_id in open_at:  # end, lost or mid-flight abort
                start = open_at.pop(event.job_id)
                cross_open -= event.cross_rack
                if hasattr(job, "src"):
                    keys = [("up", job.src), ("down", job.dst)]
                else:
                    keys = [("cpu", job.node)]
                for key in keys:
                    intervals.setdefault(key, []).append((start, event.time))
            else:
                unopened[event.job_id] = event.time
        assert not open_at
        assert set(unopened) == set(report.failed)  # refused, never started

        # no resource carries overlapping attempts; the switch cap holds
        for key, spans in intervals.items():
            spans = sorted(spans)
            for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
                assert s2 >= e1 - 1e-9, (key, spans)
        if cross_capacity is not None:
            assert cross_peak <= cross_capacity
