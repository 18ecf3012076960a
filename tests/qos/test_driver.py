"""Unit tests for the replay driver's measurement plumbing.

Pure-python pieces only — percentile math, phase classification, the
error/rejection split.  The live end of the driver (real sockets, real
kills) is covered by ``test_replay_live.py``.
"""

import asyncio

import pytest

from repro.qos import (
    ReplayReport,
    RequestSample,
    object_payload,
    percentiles,
    replay_trace,
)
from repro.store import Exists, NotFound, StoreError, Unavailable
from repro.workloads import RequestEvent


class TestPercentiles:
    def test_empty_input_serialises_cleanly(self):
        summary = percentiles([])
        assert summary["count"] == 0
        assert summary["p50"] is None and summary["max"] is None

    def test_single_sample_is_every_percentile(self):
        summary = percentiles([0.25])
        assert summary["p50"] == summary["p99"] == summary["max"] == 0.25
        assert summary["count"] == 1

    def test_nearest_rank_on_known_data(self):
        data = [i / 100 for i in range(1, 101)]  # 0.01 .. 1.00
        summary = percentiles(data)
        assert summary["p50"] == pytest.approx(0.50)
        assert summary["p90"] == pytest.approx(0.90)
        assert summary["p99"] == pytest.approx(0.99)
        assert summary["max"] == pytest.approx(1.00)
        assert summary["mean"] == pytest.approx(0.505)

    def test_order_independent(self):
        assert percentiles([3.0, 1.0, 2.0]) == percentiles([1.0, 2.0, 3.0])


def sample(op="get", start=0.0, latency=0.01, ok=True, degraded=False,
           rejected=False):
    return RequestSample(
        op=op, obj="obj-0", start=start, end=start + latency,
        latency=latency, ok=ok, degraded=degraded,
        error="" if ok else "boom", rejected=rejected,
    )


class TestReplayReport:
    def test_phase_classification_around_the_repair_window(self):
        report = ReplayReport(
            samples=[sample(start=t) for t in (0.1, 1.1, 2.5)],
            duration=3.0,
            repair_window=(1.0, 2.0),
        )
        phases = [report.phase_of(s) for s in report.samples]
        assert phases == ["pre", "repair", "post"]

    def test_open_ended_window_never_reaches_post(self):
        report = ReplayReport(
            samples=[sample(start=5.0)], duration=6.0, repair_window=(1.0, None)
        )
        assert report.phase_of(report.samples[0]) == "repair"

    def test_no_window_means_everything_is_pre(self):
        report = ReplayReport(samples=[sample(start=9.0)], duration=10.0)
        assert report.phase_of(report.samples[0]) == "pre"

    def test_rejections_are_not_errors(self):
        """Write unavailability during the degraded window is reported,
        but it must not fail a run the way a data-path error does."""
        report = ReplayReport(
            samples=[
                sample(op="put", ok=False, rejected=True),
                sample(op="get", ok=False),
                sample(op="get", ok=True, degraded=True),
            ],
            duration=1.0,
        )
        assert len(report.errors) == 1
        assert report.errors[0].op == "get"
        assert len(report.rejections) == 1
        assert report.degraded_gets == 1
        summary = report.to_dict()
        assert summary["errors"] == 1
        assert summary["rejected"] == 1
        assert summary["degraded_gets"] == 1

    def test_latencies_filter_by_op_and_phase(self):
        report = ReplayReport(
            samples=[
                sample(op="get", start=0.1, latency=0.010),
                sample(op="put", start=0.2, latency=0.020),
                sample(op="get", start=1.5, latency=0.040),
                sample(op="get", start=1.6, latency=0.080, ok=False),
            ],
            duration=3.0,
            repair_window=(1.0, 2.0),
        )
        assert report.latencies(op="get") == [0.010, 0.040]  # failures excluded
        assert report.latencies(op="get", phase="repair") == [0.040]
        assert report.summary(op="get", phase="repair")["count"] == 1

    def test_sample_is_frozen(self):
        s = sample()
        with pytest.raises(AttributeError):
            s.latency = 0.0


class TestObjectPayload:
    def test_deterministic_per_name_and_seed(self):
        assert object_payload("obj-1", 512, seed=7) == object_payload("obj-1", 512, seed=7)
        assert object_payload("obj-1", 512, seed=7) != object_payload("obj-2", 512, seed=7)
        assert object_payload("obj-1", 512, seed=7) != object_payload("obj-1", 512, seed=8)

    def test_exact_size(self):
        assert len(object_payload("obj-0", 12345)) == 12345


class FailingClient:
    """A store client whose every GET and PUT fails with ``exc``."""

    def __init__(self, exc):
        self.exc = exc

    async def status(self):
        return {"degraded": [], "repairing": False}

    async def put(self, name, data):
        raise self.exc

    async def get_with_report(self, name, *, degraded=False):
        raise self.exc

    get = get_with_report


def replay_one(op, exc, **kwargs) -> RequestSample:
    report = asyncio.run(
        replay_trace(FailingClient(exc), [RequestEvent(0.0, op, "obj-0")], **kwargs)
    )
    (sample,) = report.samples
    assert not sample.ok
    return sample


class TestFailureClassification:
    """A PUT the service cannot place is a rejection; a GET is held to the
    hard standard, so every failure of one is an error.  The split is
    made on the error's kind, never on its text."""

    @pytest.mark.parametrize(
        "exc",
        [
            Unavailable("stripe 3 would land on dead nodes [2]"),
            Unavailable("node 2 is not alive"),
            ConnectionRefusedError("refused"),
            OSError("reset"),
        ],
        ids=["dead-placement", "dead-at-commit", "refused", "oserror"],
    )
    def test_a_put_the_service_cannot_place_is_rejected(self, exc):
        assert replay_one("put", exc).rejected

    def test_an_unavailable_get_is_an_error(self):
        sample = replay_one("get", Unavailable("object 'obj-0' is degraded"))
        assert not sample.rejected
        assert sample.error == "Unavailable: object 'obj-0' is degraded"

    @pytest.mark.parametrize(
        "exc",
        [
            StoreError("internal error: KeyError('x')"),
            NotFound("daemon 2 holds no block 'b:0:1'"),
            Exists("put of 'obj-0' was superseded before its commit"),
            StoreError("Connection reset; died during put"),
        ],
        ids=["internal", "not-found", "exists", "old-text"],
    )
    def test_any_other_put_failure_is_an_error(self, exc):
        assert not replay_one("put", exc).rejected
