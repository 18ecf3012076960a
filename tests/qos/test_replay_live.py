"""Live replay tests: the QoS driver against a real in-process store.

Small traces (seconds, not minutes) — the full trade-off curve runs in
``benchmarks/bench_qos_tradeoff.py`` and the perf harness's
``qos_suite``; here we pin the driver's *contract*: every GET survives a
mid-trace kill, verification catches the right things, and both replay
modes drain the whole trace.
"""

import asyncio

import pytest

from repro.qos import preload_working_set, replay_trace
from repro.store import LocalService
from repro.workloads import zipf_object_trace

OBJECTS = 6
OBJECT_BYTES = 3 * 4096
SEED = 11


def test_replay_mode_validation():
    async def _run():
        with pytest.raises(ValueError, match="unknown replay mode"):
            await replay_trace(None, [], mode="batch")
        with pytest.raises(ValueError, match="kills given without a kill_fn"):
            await replay_trace(None, [], kills=[(0.1, 0)])

    asyncio.run(_run())


def test_closed_loop_replay_with_mid_trace_kill():
    """The acceptance-bar scenario: PUT working set, kill a daemon while
    the trace runs, and every replayed GET still returns written bytes —
    at least one of them via the degraded path."""

    async def _run():
        async with LocalService(
            block_size=4096, suspect_after=0.45, sweep_interval=0.05,
            heartbeat=0.1,
        ) as svc:
            expected = await preload_working_set(
                svc.client, OBJECTS, OBJECT_BYTES, seed=SEED
            )
            assert set(expected) == {f"obj-{i}" for i in range(OBJECTS)}
            events = zipf_object_trace(
                OBJECTS, 200, get_fraction=0.95, seed=SEED
            )
            # The victim holds block 0 of stripe 0 — obj-0's stripe, and
            # obj-0 is the Zipf head, so post-kill GETs keep hitting it.
            # Kill almost immediately: the closed-loop trace drains in
            # well under a second, and the kill must land inside it.
            victim = svc.coordinator.stripes[0].placement.node_of(0)
            report = await replay_trace(
                svc.client,
                events,
                mode="closed",
                concurrency=4,
                expected=expected,
                kills=[(0.05, victim)],
                kill_fn=svc.kill,
                object_bytes=OBJECT_BYTES,
                seed=SEED,
            )
            assert len(report.samples) == len(events)
            assert report.errors == [], [s.error for s in report.errors]
            assert report.degraded_gets > 0, (
                "the kill never pushed a GET onto the degraded path"
            )
            # A short trace can end before the failure detector fires,
            # so a repair window is optional here — but when the tracker
            # did see one it must be well-formed (opened after t0, and
            # closed no earlier than it opened).
            if report.repair_window is not None:
                opened, closed = report.repair_window
                assert opened >= 0
                assert closed is None or closed >= opened
            assert report.duration > 0
            summary = report.to_dict()
            assert summary["requests"] == len(events)
            assert summary["get"]["count"] > 0

    asyncio.run(_run())


def test_open_loop_replay_fires_the_whole_trace():
    """Open loop: arrivals follow the trace clock; nothing is dropped
    even with no failures to slow things down."""

    async def _run():
        async with LocalService(block_size=4096) as svc:
            expected = await preload_working_set(
                svc.client, OBJECTS, OBJECT_BYTES, seed=SEED
            )
            events = zipf_object_trace(
                OBJECTS, 40, rate=200.0, get_fraction=1.0, seed=SEED
            )
            report = await replay_trace(
                svc.client,
                events,
                mode="open",
                time_scale=0.5,
                expected=expected,
                object_bytes=OBJECT_BYTES,
                seed=SEED,
            )
            assert len(report.samples) == len(events)
            assert report.errors == []
            assert report.degraded_gets == 0
            # Open-loop arrivals respect the (scaled) trace schedule.
            for ev, s in zip(events, sorted(report.samples, key=lambda s: s.start)):
                assert s.start >= ev.time * 0.5 - 0.05

    asyncio.run(_run())


def test_kill_removes_the_daemon_and_its_heartbeat():
    async def _run():
        async with LocalService(block_size=4096) as svc:
            victim = next(iter(svc.daemons))
            await svc.kill(victim)
            assert victim not in svc.daemons
            # The detector eventually declares it dead — and the rest alive.
            deadline = asyncio.get_event_loop().time() + 10.0
            while True:
                status = await svc.client.status()
                entry = status["nodes"][str(victim)]
                if not entry["alive"]:
                    break
                assert asyncio.get_event_loop().time() < deadline
                await asyncio.sleep(0.05)

    asyncio.run(_run())
