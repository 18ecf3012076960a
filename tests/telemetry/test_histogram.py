"""Log-bucketed histograms, the stats registry, and the Prometheus path."""

import math

import pytest

from repro.telemetry import (
    LogHistogram,
    StatsRegistry,
    snapshots_to_prometheus,
    validate_prometheus_text,
)


class TestLogHistogram:
    def test_bucket_bounds_cover_observation(self):
        hist = LogHistogram()
        for value in (1e-7, 1e-6, 3e-4, 0.02, 1.5, 900.0):
            hist.observe(value)
            idx = hist.bucket_index(value)
            upper = hist.origin * hist.base**idx
            lower = hist.origin * hist.base ** (idx - 1)
            assert value <= upper * (1 + 1e-9)
            assert value > lower * (1 - 1e-9) or idx == hist.bucket_index(
                hist.origin
            )
        assert hist.count == 6

    def test_quantile_is_upper_bound(self):
        hist = LogHistogram()
        values = [0.001, 0.002, 0.004, 0.008, 0.1]
        for v in values:
            hist.observe(v)
        # The p100 estimate must bound the true max; p50 must bound the
        # true median.  Bucket width caps the overestimate at one base.
        assert hist.quantile(1.0) >= max(values)
        assert hist.quantile(1.0) <= max(values) * hist.base
        assert hist.quantile(0.5) >= 0.004
        assert LogHistogram().quantile(0.5) == 0.0

    def test_mean_and_merge(self):
        a = LogHistogram()
        for v in (0.01, 0.02, 0.04, 0.08, 0.16):
            a.observe(v)
        assert a.count == 5
        assert a.mean == pytest.approx((0.01 + 0.02 + 0.04 + 0.08 + 0.16) / 5)
        assert sum(n for _, n in a.cumulative())  # cumulative is populated

    def test_cumulative_is_monotonic(self):
        hist = LogHistogram()
        for i in range(50):
            hist.observe(0.001 * (1 + i % 7))
        cum = hist.cumulative()
        uppers = [u for u, _ in cum]
        counts = [c for _, c in cum]
        assert uppers == sorted(uppers)
        assert counts == sorted(counts)
        assert counts[-1] == hist.count

    def test_dict_round_trip(self):
        hist = LogHistogram()
        for v in (1e-5, 0.3, 0.3, 12.0):
            hist.observe(v)
        clone = LogHistogram.from_dict(hist.to_dict())
        assert clone.count == hist.count
        assert clone.sum == pytest.approx(hist.sum)
        assert clone.buckets == hist.buckets
        assert clone.to_dict() == hist.to_dict()


class TestStatsRegistry:
    def test_snapshot_shape(self):
        ticks = iter([0.0, 10.0])
        reg = StatsRegistry("node-7", clock=lambda: next(ticks))
        reg.count("rpc:block.get")
        reg.count("rpc:block.get")
        reg.gauge("blocks", 4.0)
        reg.latency("block.get", 0.002, cls="foreground")
        snap = reg.snapshot()
        assert snap["node"] == "node-7"
        assert snap["uptime_s"] == pytest.approx(10.0)
        assert snap["counters"]["rpc:block.get"] == 2
        assert snap["gauges"]["blocks"] == 4.0
        hist = LogHistogram.from_dict(
            snap["histograms"]["latency_s:block.get:foreground"]
        )
        assert hist.count == 1

    def test_prometheus_render_passes_validator(self):
        reg = StatsRegistry("coordinator")
        reg.count("repairs_done", 3)
        reg.gauge("degraded_stripes", 1.0)
        for v in (0.001, 0.004, 0.4):
            reg.latency("repair.stripe", v)
            reg.latency("block.get", v / 2, cls="foreground")
        text = snapshots_to_prometheus([reg.snapshot()])
        assert validate_prometheus_text(text) == []
        assert 'rpr_events_total{name="repairs_done",node="coordinator"} 3' in text
        assert "rpr_latency_seconds_bucket" in text
        assert 'le="+Inf"' in text
        assert 'class="foreground"' in text

    @pytest.mark.parametrize(
        "text, problem",
        [
            ("rpr_events_total{node=\"a\"} 1\n", "TYPE"),
            (
                "# TYPE rpr_events counter\nrpr_events{node=\"a\"} 1\n",
                "_total",
            ),
            (
                "# TYPE rpr_x_seconds histogram\n"
                'rpr_x_seconds_bucket{le="0.1"} 5\n'
                'rpr_x_seconds_bucket{le="0.2"} 3\n'
                'rpr_x_seconds_bucket{le="+Inf"} 5\n'
                "rpr_x_seconds_sum 1\n"
                "rpr_x_seconds_count 5\n",
                "monoton",
            ),
            (
                "# TYPE rpr_x_seconds histogram\n"
                'rpr_x_seconds_bucket{le="0.1"} 5\n'
                "rpr_x_seconds_sum 1\n"
                "rpr_x_seconds_count 5\n",
                "+Inf",
            ),
            ("rpr_bad{node='a'} 1\n", ""),
        ],
    )
    def test_validator_rejects_malformed(self, text, problem):
        errors = validate_prometheus_text(text)
        assert errors, f"expected problems in {text!r}"
        if problem:
            assert any(problem in e for e in errors), errors

    def test_histogram_quantile_error_bounded_by_base(self):
        # The documented accuracy contract: quantile() overestimates by
        # at most a factor of `base` (one geometric bucket).
        hist = LogHistogram()
        true_values = [0.001 * math.exp(i / 10) for i in range(100)]
        for v in true_values:
            hist.observe(v)
        for q in (0.5, 0.9, 0.99):
            true_q = sorted(true_values)[int(q * len(true_values)) - 1]
            assert true_q <= hist.quantile(q) <= true_q * hist.base * 1.01
