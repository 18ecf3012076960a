"""The per-resource timeline of a run: ``RunTrace.resources`` and its Gantt.

These ten cases were written against ``timeline_rows`` /
``render_timeline``; each now makes the same assertion, on the same
hand-built graph, against the one view and the one Gantt
(``render_gantt`` — the same chart behind a busy-% column).
"""

import pytest

from repro.cluster import Cluster, HierarchicalBandwidth
from repro.sim import JobGraph, SimulationEngine
from repro.telemetry import Interval, render_gantt

from .test_tracing import view


@pytest.fixture
def engine():
    return SimulationEngine(
        Cluster.homogeneous(2, 2), HierarchicalBandwidth(intra=100.0, cross=10.0)
    )


def rows(engine, graph):
    return view(engine.run(graph), engine.cluster).resources


def gantt(engine, graph, **kwargs):
    return render_gantt(view(engine.run(graph), engine.cluster), **kwargs)


class TestTimelineRows:
    def test_transfer_appears_on_both_ports(self, engine):
        g = JobGraph()
        g.add_transfer("t", 0, 1, 100)
        assert {r.label for r in rows(engine, g)} == {"n0:up", "n1:down"}

    def test_compute_on_cpu_row(self, engine):
        g = JobGraph()
        g.add_compute("c", 1, 2.0)
        (row,) = rows(engine, g)
        assert row.label == "n1:cpu"
        assert row.intervals == (Interval(0.0, 2.0, "c"),)

    def test_rows_sorted_by_node_then_kind(self, engine):
        g = JobGraph()
        g.add_compute("c0", 0, 1.0)
        g.add_transfer("t", 1, 0, 100)
        g.add_compute("c1", 1, 1.0)
        assert [r.label for r in rows(engine, g)] == [
            "n0:down", "n0:cpu", "n1:up", "n1:cpu"
        ]

    def test_intervals_sorted_by_start(self, engine):
        g = JobGraph()
        g.add_transfer("a", 2, 0, 100)
        g.add_transfer("b", 3, 0, 100)
        down = next(r for r in rows(engine, g) if r.label == "n0:down")
        starts = [iv.start for iv in down.intervals]
        assert len(starts) == 2 and starts == sorted(starts)


class TestRender:
    def test_empty_result(self, engine):
        assert gantt(engine, JobGraph()) == "(empty trace)"

    def test_busy_markers_cover_activity(self, engine):
        g = JobGraph()
        g.add_transfer("t", 0, 2, 100)  # whole makespan busy
        busy_line = gantt(engine, g, width=20).splitlines()[0]
        assert "#" * 19 in busy_line
        assert "100.0%" in busy_line

    def test_idle_markers_for_late_jobs(self, engine):
        g = JobGraph()
        g.add_transfer("t1", 0, 2, 100)            # 10 s
        g.add_compute("c", 2, 10.0, deps=["t1"])   # second half
        text = gantt(engine, g, width=20)
        cpu_line = next(l for l in text.splitlines() if "cpu" in l)
        cells = cpu_line.split("|")[1]
        assert cells[:8].count("#") == 0
        assert "#" in cells[10:]

    def test_scale_line_shows_makespan(self, engine):
        g = JobGraph()
        g.add_transfer("t", 0, 2, 100)
        assert "10.00s" in gantt(engine, g).splitlines()[-1]

    def test_narrow_width_rejected(self, engine):
        g = JobGraph()
        g.add_transfer("t", 0, 1, 100)
        with pytest.raises(ValueError):
            gantt(engine, g, width=4)

    def test_serialisation_visible(self, engine):
        """Two same-destination transfers occupy disjoint halves."""
        g = JobGraph()
        g.add_transfer("a", 2, 0, 100)
        g.add_transfer("b", 3, 0, 100)
        text = gantt(engine, g, width=20)
        down = next(l for l in text.splitlines() if "n0:down" in l)
        cells = down.split("|")[1]
        assert cells.count("#") >= 18  # busy nearly the whole span
