"""The in-process store in virtual time: kill → detect → repair → GET.

An unmodified :class:`repro.store.LocalService` over real loopback TCP,
run on a :class:`tests.vtime.VirtualTimeLoop` at the coordinator's
deployed timing (``suspect_after`` 2.0 s, a sweep every 0.25 s, beats
every :data:`~repro.store.DEFAULT_INTERVAL`).  Detection, pacing and
polling all wait on the loop's clock, so the seconds of silence a death
takes to notice cost a fraction of a second of wall time, and the run
replays exactly.
"""

import random

from repro.store import DEFAULT_INTERVAL, LocalService

from ..vtime import VirtualTimeLoop

SUSPECT_AFTER = 2.0
VICTIM = 1
OBJECTS = 6


def kill_repair_get(**qos) -> tuple[float, int, float]:
    """PUT six one-stripe objects on RS(3,2) over 3×2 nodes, kill node 1,
    read one of its objects degraded, wait until healthy, and read every
    object back; returns (virtual seconds from the kill to healthy,
    repairs, bytes the survivors' NICs paced as repair traffic)."""
    loop = VirtualTimeLoop()

    async def _run():
        async with LocalService(
            suspect_after=SUSPECT_AFTER, sweep_interval=0.25, heartbeat=DEFAULT_INTERVAL, **qos
        ) as svc:
            coordinator = svc.coordinator
            rng = random.Random(7)
            size = coordinator.code.n * coordinator.block_size
            objects = {f"o{i}": rng.randbytes(size) for i in range(OBJECTS)}
            for name, data in objects.items():
                await svc.client.put(name, data)
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
            return healthy_after, len(status["repairs"]), paced

    return loop.run(_run())


class TestKillRepairGetInVirtualTime:
    def test_unshaped_cycle_replays_exactly(self):
        first = kill_repair_get()
        healthy_after, repairs, _ = first
        # Nothing is declared dead before it has been silent suspect_after.
        assert healthy_after >= SUSPECT_AFTER
        assert repairs == 5  # rotated placement: node 1 holds 5 of 6 stripes
        assert kill_repair_get() == first

    def test_shaped_cycle_paces_the_repair_share(self):
        healthy_after, repairs, paced = kill_repair_get(link_rate=1.5e6, repair_share=0.2)
        assert healthy_after >= SUSPECT_AFTER
        assert repairs == 5
        assert paced > 0
