"""Tests for sim↔live trace diffing (repro.telemetry.diff)."""

import math

import pytest

from repro.telemetry import (
    CLOCK_SIM,
    CLOCK_WALL,
    OP_CATEGORY,
    OpAlignment,
    Span,
    TelemetryTrace,
    diff_traces,
    render_diff,
)


def trace_of(clock, durations: dict[str, tuple[float, float]]) -> TelemetryTrace:
    """Trace with one op span per entry: op_id -> (start, end)."""
    return TelemetryTrace(
        clock=clock,
        spans=[
            Span(op_id, start, end, category=OP_CATEGORY, op_id=op_id,
                 attrs={"kind": "transfer"})
            for op_id, (start, end) in durations.items()
        ],
    )


class TestOpAlignment:
    def test_ratio_and_divergence(self):
        a = OpAlignment("x", "transfer", 2.0, 4.0, 0.0, 0.0)
        assert a.ratio == pytest.approx(2.0)
        assert a.divergence == pytest.approx(math.log(2.0))
        # Divergence is symmetric: half speed is as bad as double speed.
        b = OpAlignment("y", "transfer", 2.0, 1.0, 0.0, 0.0)
        assert b.divergence == pytest.approx(math.log(2.0))

    def test_zero_prediction_edge_cases(self):
        assert OpAlignment("x", "", 0.0, 0.5, 0.0, 0.0).ratio == float("inf")
        assert OpAlignment("x", "", 0.0, 0.0, 0.0, 0.0).ratio == pytest.approx(1.0)


class TestDiffTraces:
    def test_full_alignment(self):
        sim = trace_of(CLOCK_SIM, {"a": (0.0, 1.0), "b": (1.0, 3.0)})
        live = trace_of(CLOCK_WALL, {"a": (0.0, 1.1), "b": (1.1, 3.5)})
        diff = diff_traces(sim, live)
        assert diff.all_aligned
        assert [a.op_id for a in diff.aligned] == ["a", "b"]
        assert diff.aligned[0].ratio == pytest.approx(1.1)
        assert diff.predicted_makespan == pytest.approx(3.0)
        assert diff.measured_makespan == pytest.approx(3.5)
        assert diff.makespan_ratio == pytest.approx(3.5 / 3.0)

    def test_one_sided_ops_are_reported(self):
        sim = trace_of(CLOCK_SIM, {"a": (0.0, 1.0), "sim-extra": (0.0, 2.0)})
        live = trace_of(CLOCK_WALL, {"a": (0.0, 1.0), "live-extra": (0.0, 2.0)})
        diff = diff_traces(sim, live)
        assert not diff.all_aligned
        assert diff.sim_only == ("sim-extra",)
        assert diff.live_only == ("live-extra",)

    def test_worst_ranks_by_divergence(self):
        sim = trace_of(CLOCK_SIM, {"near": (0.0, 1.0), "slow": (0.0, 1.0),
                                   "fast": (0.0, 1.0)})
        live = trace_of(CLOCK_WALL, {"near": (0.0, 1.05), "slow": (0.0, 3.0),
                                     "fast": (0.0, 0.25)})
        worst = diff_traces(sim, live).worst(2)
        # 4x-fast beats 3x-slow beats 1.05x.
        assert [a.op_id for a in worst] == ["fast", "slow"]

    def test_critical_path_delta(self):
        sim = trace_of(CLOCK_SIM, {"a": (0.0, 1.0), "b": (1.0, 3.0)})
        live = trace_of(CLOCK_WALL, {"a": (0.0, 1.5), "b": (1.5, 4.0)})
        diff = diff_traces(sim, live, path_ops=("a", "b", "missing"))
        delta = diff.critical_path_delta()
        assert delta["path_predicted_s"] == pytest.approx(3.0)
        assert delta["path_measured_s"] == pytest.approx(4.0)
        assert delta["delta_s"] == pytest.approx(1.0)

    @staticmethod
    def drifted():
        """Same durations on both sides; the live run waits between parts."""
        sim = trace_of(CLOCK_SIM, {"a": (0.0, 1.0), "b": (1.0, 2.0), "c": (2.0, 3.0)})
        live = trace_of(CLOCK_WALL, {"a": (0.0, 1.0), "b": (1.5, 2.5), "c": (3.0, 4.0)})
        return diff_traces(sim, live, path_ops=("a", "b", "c"))

    def test_waits_between_parts_carry_drift_the_durations_miss(self):
        diff = self.drifted()
        delta = diff.critical_path_delta()
        assert delta["delta_s"] == pytest.approx(0.0)
        assert delta["path_predicted_elapsed_s"] == pytest.approx(3.0)
        assert delta["path_measured_elapsed_s"] == pytest.approx(4.0)
        assert delta["path_predicted_wait_s"] == pytest.approx(0.0)
        assert delta["path_measured_wait_s"] == pytest.approx(1.0)
        assert delta["wait_delta_s"] == pytest.approx(1.0)
        assert diff.most_slipped().op_id == "c"
        path = diff.to_dict()["critical_path"]
        assert path["path_measured_wait_s"] == pytest.approx(1.0)
        assert path["most_slipped"]["op_id"] == "c"
        assert path["most_slipped"]["slip_s"] == pytest.approx(1.0)

    def test_render_names_the_waits_and_the_furthest_slip(self):
        text = render_diff(self.drifted())
        assert "delta +0.0000 s" in text
        assert "waits between path parts: predicted 0.0000 s, measured 1.0000 s" in text
        assert "furthest slip: c started +1.0000 s from its predicted start" in text

    def test_without_a_path_there_is_no_slip(self):
        sim = trace_of(CLOCK_SIM, {"a": (0.0, 1.0)})
        diff = diff_traces(sim, trace_of(CLOCK_WALL, {"a": (0.5, 1.5)}))
        assert diff.most_slipped() is None
        assert diff.to_dict()["critical_path"]["most_slipped"] is None
        assert diff.critical_path_delta()["path_measured_elapsed_s"] == 0.0

    def test_to_dict_shape(self):
        sim = trace_of(CLOCK_SIM, {"a": (0.0, 1.0)})
        live = trace_of(CLOCK_WALL, {"a": (0.0, 2.0)})
        data = diff_traces(sim, live, path_ops=("a",)).to_dict()
        assert data["all_aligned"] is True
        assert data["aligned"][0]["ratio"] == pytest.approx(2.0)
        assert data["critical_path"]["ops"] == ["a"]


class TestRenderDiff:
    def test_mentions_alignment_and_worst_ops(self):
        sim = trace_of(CLOCK_SIM, {"a": (0.0, 1.0), "b": (0.0, 1.0)})
        live = trace_of(CLOCK_WALL, {"a": (0.0, 2.0), "c": (0.0, 1.0)})
        text = render_diff(diff_traces(sim, live), top=3)
        assert "1 aligned, 1 sim-only, 1 live-only" in text
        assert "sim-only: b" in text
        assert "live-only: c" in text
        assert "worst divergers" in text


class TestAcceptanceRS63:
    """The PR's acceptance scenario: RS(6,3), one failure, RPR over the
    memory transport — every op must align with a finite ratio."""

    @pytest.fixture(scope="class")
    def diff(self):
        from repro.live import run_live_validation

        report = run_live_validation(
            6, 3, [1], schemes=["rpr"], block_size=8 * 1024, telemetry=True
        )
        return report.rows[0].diff

    def test_every_op_aligned(self, diff):
        assert diff is not None
        assert diff.all_aligned
        assert len(diff.aligned) == 9  # the RS(6,3) RPR plan's op count

    def test_ratios_are_finite_and_positive(self, diff):
        for a in diff.aligned:
            assert 0.0 < a.ratio < float("inf")

    def test_critical_path_threaded_through(self, diff):
        assert diff.path_ops
        delta = diff.critical_path_delta()
        assert delta["path_predicted_s"] > 0
        assert delta["path_measured_s"] > 0

    def test_render_includes_every_section(self, diff):
        text = render_diff(diff)
        assert "aligned, 0 sim-only, 0 live-only" in text
        assert "critical path" in text


class TestSlicedOps:
    """A sliced op aligns slice by slice — part ids are the join key on
    both sides — and is reported as one op with its slice count."""

    @staticmethod
    def traces():
        sim = trace_of(CLOCK_SIM, {"t#0": (0.0, 1.0), "t#1": (1.0, 2.0), "c": (2.0, 2.5)})
        live = TelemetryTrace(
            clock=CLOCK_WALL,
            spans=[
                Span("t#0", 0.0, 1.2, category=OP_CATEGORY, op_id="t#0",
                     attrs={"kind": "transfer", "op": "t", "slice": 0, "slices": 2}),
                Span("t#1", 1.3, 2.2, category=OP_CATEGORY, op_id="t#1",
                     attrs={"kind": "transfer", "op": "t", "slice": 1, "slices": 2}),
                Span("c", 2.2, 2.8, category=OP_CATEGORY, op_id="c",
                     attrs={"kind": "compute"}),
            ],
        )
        return sim, live

    def test_alignment_is_per_slice_and_folds_per_op(self):
        diff = diff_traces(*self.traces())
        assert diff.all_aligned
        assert [(a.op_id, a.op, a.slices) for a in diff.aligned] == [
            ("c", "c", 1), ("t#0", "t", 2), ("t#1", "t", 2),
        ]
        folded = {a.op_id: a for a in diff.ops()}
        assert set(folded) == {"c", "t"}
        assert folded["t"].slices == 2
        assert folded["t"].predicted_s == pytest.approx(2.0)
        assert folded["t"].measured_s == pytest.approx(1.2 + 0.9)
        assert folded["t"].measured_start == pytest.approx(0.0)
        assert diff.to_dict()["aligned"][1]["op"] == "t"

    def test_render_is_one_line_per_op_with_its_slice_count(self):
        text = render_diff(diff_traces(*self.traces()))
        assert "2 aligned, 0 sim-only, 0 live-only (3 parts" in text
        assert "slices" in text
        assert "t#0" not in text and "t#1" not in text

    @pytest.mark.parametrize("telemetry", [True, False])
    def test_sliced_chain_repair_aligns(self, telemetry):
        """RS(8,3) at the live defaults runs the 8-slice land-and-fold
        gather; with a recorder or from bare timings, every part finds its
        prediction."""
        from repro.live import live_context, live_environment, run_plan_live_sync
        from repro.repair import RPRScheme, initial_store_for, simulate_repair
        from repro.telemetry import TelemetryRecorder, diff_repair
        from repro.workloads import encoded_stripe

        env = live_environment(8, 3)
        predicted = simulate_repair(RPRScheme(), live_context(env, [1]), env.bandwidth)
        live = run_plan_live_sync(
            predicted.plan,
            env.cluster,
            initial_store_for(encoded_stripe(env.code, env.block_size), env.placement, [1]),
            recorder=TelemetryRecorder(CLOCK_WALL) if telemetry else None,
        )
        diff = diff_repair(predicted, live)
        assert diff.all_aligned
        assert len(diff.aligned) == 120 and len(diff.ops()) == len(predicted.plan.ops) == 15
        assert {a.op_id: a.slices for a in diff.ops()}["rpr:eq0:cross:G0:C0:send"] == 8
