"""The in-process store in virtual time: kill → detect → repair → GET.

An unmodified :class:`repro.store.LocalService` over real loopback TCP,
run on a :class:`tests.vtime.VirtualTimeLoop` at the coordinator's
deployed timing (``suspect_after`` 2.0 s, a sweep every 0.25 s, beats
every :data:`~repro.store.DEFAULT_INTERVAL`).  Detection, pacing and
polling all wait on the loop's clock, so the seconds of silence a death
takes to notice cost a fraction of a second of wall time, and the run
replays exactly.
"""

import asyncio
import random

import pytest

from repro.store import DEFAULT_INTERVAL, PROBE_AFTER, LocalService

from ..vtime import VirtualTimeLoop

SUSPECT_AFTER = 2.0
SWEEP = 0.25
VICTIM = 1
OBJECTS = 6


def deployed(**qos) -> LocalService:
    """RS(3,2) on 3×2 nodes at the coordinator's deployed timing."""
    return LocalService(
        suspect_after=SUSPECT_AFTER, sweep_interval=SWEEP, heartbeat=DEFAULT_INTERVAL, **qos
    )


async def put_objects(svc: LocalService) -> dict[str, bytes]:
    """Six one-stripe objects; returns name -> bytes."""
    rng = random.Random(7)
    size = svc.coordinator.code.n * svc.coordinator.block_size
    objects = {f"o{i}": rng.randbytes(size) for i in range(OBJECTS)}
    for name, data in objects.items():
        await svc.client.put(name, data)
    return objects


def detection(svc: LocalService) -> dict[str, int]:
    """The coordinator's probe and death counters."""
    counters = svc.coordinator.stats.counters
    return {name: int(counters[name])
            for name in ("probes_sent", "deaths_refused", "deaths_silent")}


def kill_repair_get(**qos) -> tuple[float, int, float, dict[str, int]]:
    """PUT six one-stripe objects, kill node 1, read one of its objects
    degraded, wait until healthy, and read every object back; returns
    (virtual seconds from the kill to healthy, repairs, bytes the
    survivors' NICs paced as repair traffic, detection counters)."""
    loop = VirtualTimeLoop()

    async def _run():
        async with deployed(**qos) as svc:
            coordinator = svc.coordinator
            objects = await put_objects(svc)
            placements = {
                name: coordinator.stripes[info["stripe_ids"][0]].placement
                for name, info in coordinator.objects.items()
            }
            lost_data = next(name for name, placement in placements.items()
                             if placement.node_of(0) == VICTIM)
            killed_at = loop.time()
            await svc.kill(VICTIM)
            data, report = await svc.client.get_with_report(lost_data, degraded=True)
            assert data == objects[lost_data] and report["degraded"]
            held = [name for name, placement in placements.items()
                    if VICTIM in placement.block_to_node.values()]
            status = await svc.client.wait_healthy(timeout=30.0, min_repairs=len(held))
            healthy_after = loop.time() - killed_at
            for name, data in objects.items():
                assert await svc.client.get(name) == data, name
            assert len(status["repairs"]) == len(held)
            assert all(r["ledger_match"] for r in status["repairs"])
            paced = sum(d.link.sent["repair"] for d in svc.daemons.values() if d.link)
            return healthy_after, len(status["repairs"]), paced, detection(svc)

    return loop.run(_run())


#: One probe, one refusal: the kill is confirmed, not waited out.
CONFIRMED = {"probes_sent": 1, "deaths_refused": 1, "deaths_silent": 0}


class TestKillRepairGetInVirtualTime:
    def test_unshaped_cycle_replays_exactly(self):
        first = kill_repair_get()
        healthy_after, repairs, _, deaths = first
        # The killed daemon refuses its probe, so its death is known once
        # it has been silent PROBE_AFTER of suspect_after, not all of it.
        assert PROBE_AFTER * SUSPECT_AFTER <= healthy_after < SUSPECT_AFTER
        assert deaths == CONFIRMED
        assert repairs == 5  # rotated placement: node 1 holds 5 of 6 stripes
        assert kill_repair_get() == first

    def test_shaped_cycle_paces_the_repair_share(self):
        healthy_after, repairs, paced, deaths = kill_repair_get(
            link_rate=1.5e6, repair_share=0.2
        )
        assert PROBE_AFTER * SUSPECT_AFTER <= healthy_after < SUSPECT_AFTER
        assert deaths == CONFIRMED
        assert repairs == 5
        assert paced > 0


class TestStall:
    """The whole process stalls (a GC pause, a starved CPU), then resumes.

    On resume every node has been silent for the stall, longer than
    ``suspect_after`` at 2.3 s and 3.0 s; the sweep that is due first
    probes them, they answer, and nobody is declared dead.
    """

    @pytest.mark.parametrize("stall", [1.0, 2.3, 3.0])
    def test_a_stall_loses_nothing(self, stall):
        loop = VirtualTimeLoop()

        async def _run():
            async with deployed() as svc:
                objects = await put_objects(svc)
                loop.advance(stall)
                await asyncio.sleep(5.0)
                coordinator = svc.coordinator
                assert coordinator.repair_errors == []
                assert not [sid for sid, meta in coordinator.stripes.items() if meta.missing]
                assert coordinator.detector.alive_ids() == set(coordinator.cluster.node_ids())
                for name, data in objects.items():
                    assert await svc.client.get(name) == data, name
                # Every node was probed once on resume, and every one answered.
                assert detection(svc) == {
                    "probes_sent": len(svc.daemons), "deaths_refused": 0, "deaths_silent": 0,
                }

        loop.run(_run())

    def test_a_node_that_never_answers_dies_of_silence(self):
        """Accepting connections proves nothing: a daemon that stops beating
        and parks every ping is declared dead within ``suspect_after``
        plus one sweep, on silence, after one probe that timed out."""
        loop = VirtualTimeLoop()

        async def _run():
            async with deployed() as svc:
                daemon = svc.daemons[VICTIM]
                never = asyncio.Event()

                async def parked_ping(request):
                    await never.wait()

                daemon._rpc_ping = parked_ping
                daemon._hb_task.cancel()
                entry = svc.coordinator.detector.entry(VICTIM)
                while entry.alive:
                    await asyncio.sleep(0.01)
                assert loop.time() - entry.last_beat <= SUSPECT_AFTER + SWEEP + 0.01
                assert detection(svc) == {
                    "probes_sent": 1, "deaths_refused": 0, "deaths_silent": 1,
                }
                dead = [e.attrs for e in svc.coordinator.rec.trace().events
                        if e.name == "node.dead"]
                assert dead == [{"node": VICTIM, "evidence": "silence"}]

        loop.run(_run())
