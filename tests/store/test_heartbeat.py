"""Failure detector arithmetic (virtual time) and heartbeat registration."""

import asyncio

import pytest

from repro.store.heartbeat import FailureDetector, HeartbeatSender

from ..vtime import VirtualTimeLoop


class TestFailureDetector:
    def test_rejects_nonpositive_threshold(self):
        with pytest.raises(ValueError):
            FailureDetector(suspect_after=0.0)

    def test_first_beat_registers(self):
        async def _run():
            det = FailureDetector(suspect_after=1.0)
            entry = det.beat(3, "127.0.0.1", 4242, {"blocks": 0})
            assert entry.addr == ("127.0.0.1", 4242)
            assert det.alive_ids() == {3}

        VirtualTimeLoop().run(_run())

    def test_silence_past_threshold_is_death_reported_once(self):
        async def _run():
            det = FailureDetector(suspect_after=1.0)
            det.beat(0, "h", 1)
            det.beat(1, "h", 2)
            await asyncio.sleep(0.9)
            det.beat(1, "h", 2)
            await asyncio.sleep(0.6)  # node 0 silent for 1.5 > 1.0; node 1 for 0.6
            newly = det.sweep()
            assert [e.node_id for e in newly] == [0]
            assert set(det.nodes) - det.alive_ids() == {0}
            # A second sweep must not re-report the same death (repairs would
            # double-trigger).
            assert det.sweep() == []

        VirtualTimeLoop().run(_run())

    def test_beat_after_death_revives(self):
        async def _run():
            det = FailureDetector(suspect_after=1.0)
            det.beat(0, "h", 1)
            await asyncio.sleep(5.0)
            det.sweep()
            assert set(det.nodes) - det.alive_ids() == {0}
            det.beat(0, "h", 9)  # restarted daemon, new port
            assert det.alive_ids() == {0}
            assert det.entry(0).port == 9

        VirtualTimeLoop().run(_run())

    def test_a_hangup_is_a_suspect_until_a_sign_of_life(self):
        async def _run():
            det = FailureDetector(suspect_after=1.0)
            det.beat(0, "h", 1)
            det.beat(1, "h", 2)
            det.hangup(0)
            assert [e.node_id for e in det.suspects()] == [0]
            assert det.sweep() == [] and det.alive_ids() == {0, 1}
            det.answered(0)
            assert det.suspects() == []
            det.hangup(1)
            det.beat(1, "h", 2)
            assert det.suspects() == []

        VirtualTimeLoop().run(_run())

    def test_to_dict_reports_ages(self):
        async def _run():
            det = FailureDetector(suspect_after=10.0)
            det.beat(2, "h", 7, {"blocks": 4})
            await asyncio.sleep(3.0)
            snap = det.to_dict()
            assert snap["2"]["beat_age_s"] == pytest.approx(3.0)
            assert snap["2"]["meta"] == {"blocks": 4}

        VirtualTimeLoop().run(_run())


class TestHeartbeatSender:
    def test_beat_carries_identity_and_extra(self):
        calls = []

        async def fake_rpc(host, port, mtype, body, **kwargs):
            calls.append((host, port, mtype, body))
            return {}, b""

        sender = HeartbeatSender(5, ("coord", 99), port=1234, rpc=fake_rpc)
        ok = asyncio.run(sender.beat_once({"blocks": 2}))
        assert ok and sender.beats_sent == 1
        host, port, mtype, body = calls[0]
        assert (host, port, mtype) == ("coord", 99, "heartbeat")
        assert body == {"node_id": 5, "host": "127.0.0.1", "port": 1234, "blocks": 2}

    def test_failed_beat_is_counted_not_fatal(self):
        async def dead_rpc(*args, **kwargs):
            raise ConnectionRefusedError("nobody home")

        sender = HeartbeatSender(5, ("coord", 99), port=1234, rpc=dead_rpc)
        ok = asyncio.run(sender.beat_once())
        assert not ok
        assert sender.beats_failed == 1
