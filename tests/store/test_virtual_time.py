"""The in-process store in virtual time: kill → detect → repair → GET.

An unmodified :class:`repro.store.LocalService` over real loopback TCP,
run on a :class:`tests.vtime.VirtualTimeLoop` at the coordinator's
deployed timing (``suspect_after`` 2.0 s, a sweep every 0.25 s, beats
every :data:`~repro.store.DEFAULT_INTERVAL`).  Detection, pacing and
polling all wait on the loop's clock, so the seconds of silence a death
takes to notice cost a fraction of a second of wall time, and the run
replays exactly.  A killed daemon drops the coordinator's watch on its
port at once, so the kill is a suspect within one sweep; what silence
alone can prove is tested here too, with the hangup taken away, and so
are repair windows: one ``repair.exec`` per daemon per window, and a
stripe that fails without failing the rest of its window.  So are a
delete while a holder is dead but not yet declared so, and two daemons
killed at once, whose two-block stripes are rebuilt.
"""

import asyncio
import functools
import math
import random

import pytest

from repro.cluster import SIMICS_BANDWIDTH
from repro.live.transport import connect_tcp
from repro.repair import simulate_repair
from repro.store import (
    DEFAULT_INTERVAL, PROBE_AFTER, LocalService, NotFound, StorageDaemon, Unrecoverable,
    plan_seed_blocks, stored_block_key,
)
from repro.store import coordinator as coordinator_module
from repro.store import heartbeat as heartbeat_module
from repro.store.coordinator import REPAIR_WINDOW

from ..vtime import VirtualTimeLoop

SUSPECT_AFTER = 2.0
SWEEP = 0.25
#: ``StoreClient.wait_healthy``'s poll interval.
HEALTH_POLL = 0.2
VICTIM = 1
OBJECTS = 6


def deployed(**qos) -> LocalService:
    """RS(3,2) on 3×2 nodes at the coordinator's deployed timing."""
    return LocalService(
        suspect_after=SUSPECT_AFTER, sweep_interval=SWEEP, heartbeat=DEFAULT_INTERVAL, **qos
    )


async def put_objects(svc: LocalService, count: int = OBJECTS) -> dict[str, bytes]:
    """``count`` one-stripe objects; returns name -> bytes."""
    rng = random.Random(7)
    size = svc.coordinator.code.n * svc.coordinator.block_size
    objects = {f"o{i}": rng.randbytes(size) for i in range(count)}
    for name, data in objects.items():
        await svc.client.put(name, data)
    return objects


def detection(svc: LocalService) -> dict[str, int]:
    """The coordinator's hangup, probe and death counters."""
    counters = svc.coordinator.stats.counters
    return {name: int(counters[name])
            for name in ("hangups", "probes_sent", "deaths_refused", "deaths_silent")}


def deaths(svc: LocalService) -> list[dict]:
    """The attributes of every ``node.dead`` event the coordinator recorded."""
    return [e.attrs for e in svc.coordinator.rec.trace().events if e.name == "node.dead"]


def kill_repair_get(**qos) -> tuple[float, float, int, float, dict[str, int]]:
    """PUT six one-stripe objects, kill node 1, read one of its objects
    degraded, wait until healthy, and read every object back; returns
    (virtual seconds from the kill to healthy, the repairs' summed wall
    seconds, repairs, bytes the survivors' NICs paced as repair traffic,
    detection counters)."""
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
            assert deaths(svc) == [{"node": VICTIM, "evidence": "refused", "after": "hangup"}]
            repair_s = sum(r["wall_seconds"] for r in status["repairs"])
            return healthy_after, repair_s, len(status["repairs"]), paced, detection(svc)

    return loop.run(_run())


#: One hangup, one probe, one refusal: the kill is seen, then confirmed.
CONFIRMED = {"hangups": 1, "probes_sent": 1, "deaths_refused": 1, "deaths_silent": 0}


def healthy_within_a_sweep(healthy_after: float, repair_s: float) -> bool:
    """The kill's hangup is probed at the next sweep, so the cluster is
    healthy one sweep, the repair and one health poll after the kill, and
    before the silence a probe would otherwise wait for."""
    return healthy_after <= SWEEP + repair_s + HEALTH_POLL < PROBE_AFTER * SUSPECT_AFTER


class TestKillRepairGetInVirtualTime:
    def test_unshaped_cycle_replays_exactly(self):
        first = kill_repair_get()
        healthy_after, repair_s, repairs, _, counters = first
        assert healthy_within_a_sweep(healthy_after, repair_s)
        assert counters == CONFIRMED
        assert repairs == 5  # rotated placement: node 1 holds 5 of 6 stripes
        assert kill_repair_get() == first

    def test_shaped_cycle_paces_the_repair_share(self):
        healthy_after, repair_s, repairs, paced, counters = kill_repair_get(
            link_rate=1.5e6, repair_share=0.2
        )
        assert healthy_within_a_sweep(healthy_after, repair_s)
        assert counters == CONFIRMED
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
                # Every node was probed once on resume, and every one
                # answered; a stall closes no socket, so nobody hung up.
                assert detection(svc) == {
                    "hangups": 0, "probes_sent": len(svc.daemons),
                    "deaths_refused": 0, "deaths_silent": 0,
                }

        loop.run(_run())

    def test_a_node_that_never_answers_dies_of_silence(self):
        """Accepting connections proves nothing: a daemon that stops beating
        and parks every ping is declared dead within ``suspect_after``
        plus one sweep, on silence, after one probe that timed out.  Its
        server still holds the watch, so it never hung up."""
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
                    "hangups": 0, "probes_sent": 1, "deaths_refused": 0, "deaths_silent": 1,
                }
                assert deaths(svc) == [{"node": VICTIM, "evidence": "silence", "after": "silence"}]

        loop.run(_run())


#: Nothing hung up, nobody probed, nobody died.
QUIET = {"hangups": 0, "probes_sent": 0, "deaths_refused": 0, "deaths_silent": 0}


class TestHangup:
    """The coordinator's watch on each daemon's port: a dropped connection
    makes a suspect for the sweep to probe, never a death by itself."""

    def test_a_dropped_watch_is_probed_and_reopened(self, monkeypatch):
        """The watch drops at the coordinator's end while the daemon still
        serves: the node is probed, answers, stays alive, and its next
        beat re-opens the watch."""
        watches: dict[int, list] = {}

        async def recording(host, port, **options):
            stream = await connect_tcp(host, port, **options)
            watches.setdefault(port, []).append(stream)
            return stream

        monkeypatch.setattr(heartbeat_module, "connect_tcp", recording)
        loop = VirtualTimeLoop()

        async def _run():
            async with deployed() as svc:
                port = svc.daemons[VICTIM].port
                entry = svc.coordinator.detector.entry(VICTIM)
                beats = entry.beats
                while entry.beats == beats:  # drop it just after a beat,
                    await asyncio.sleep(0.001)  # so a sweep comes before the next
                watches[port][-1].abort()
                await asyncio.sleep(2 * DEFAULT_INTERVAL)
                assert entry.alive and VICTIM in svc.coordinator.detector.alive_ids()
                assert detection(svc) == {**QUIET, "hangups": 1, "probes_sent": 1}
                assert deaths(svc) == []
                assert len(watches[port]) == 2 and not watches[port][-1].peer_closed()

        loop.run(_run())

    def test_a_replaced_daemon_survives_the_old_ports_hangup(self):
        """A daemon replaced on a new port: when the old process goes
        later, its hangup is not the new daemon's."""
        loop = VirtualTimeLoop()

        async def _run():
            async with deployed() as svc:
                old = svc.daemons[VICTIM]
                old._hb_task.cancel()
                new = await svc.start_daemon(VICTIM)
                await old.aclose()
                await asyncio.sleep(SUSPECT_AFTER)
                entry = svc.coordinator.detector.entry(VICTIM)
                assert entry.alive and entry.port == new.port != old.port
                assert detection(svc) == QUIET
                assert deaths(svc) == []

        loop.run(_run())

    def test_without_a_sweep_a_kill_declares_no_death(self):
        """Only the sweep declares a death: with it never running, a kill
        is a hangup and a suspect, and the death stays undeclared."""
        loop = VirtualTimeLoop()

        async def _run():
            async with LocalService(
                suspect_after=SUSPECT_AFTER, sweep_interval=1e9, heartbeat=DEFAULT_INTERVAL
            ) as svc:
                await put_objects(svc)
                await svc.kill(VICTIM)
                await asyncio.sleep(3 * SUSPECT_AFTER)
                coordinator = svc.coordinator
                assert VICTIM in coordinator.detector.alive_ids()
                assert coordinator.detector.entry(VICTIM).hung_up
                assert detection(svc) == {**QUIET, "hangups": 1}
                assert deaths(svc) == [] and coordinator.repairs == []
                assert not [sid for sid, meta in coordinator.stripes.items() if meta.missing]

        loop.run(_run())

    def test_a_graceful_stop_is_not_a_mass_death(self, monkeypatch):
        """Daemons that take a sweep each to stop, as separate processes
        may: the coordinator stops first, so no stop is a death."""
        aclose = StorageDaemon.aclose

        async def slow_aclose(daemon):
            await aclose(daemon)
            await asyncio.sleep(SWEEP)

        monkeypatch.setattr(StorageDaemon, "aclose", slow_aclose)
        loop = VirtualTimeLoop()

        async def _run():
            async with deployed() as svc:
                await put_objects(svc)
            assert detection(svc) == QUIET
            assert deaths(svc) == [] and svc.coordinator.repair_errors == []

        loop.run(_run())

    def test_shutdown_service_stops_the_coordinator_first(self):
        loop = VirtualTimeLoop()

        async def _run():
            async with deployed() as svc:
                stopped = []

                def recording(party):
                    async def shutdown(request):
                        stopped.append(party)
                        return {}, None
                    return shutdown

                svc.coordinator._rpc_shutdown = recording("coordinator")
                for nid, daemon in svc.daemons.items():
                    daemon._rpc_shutdown = recording(nid)
                await svc.client.shutdown_service()
                assert stopped == ["coordinator", *sorted(svc.daemons)]

        loop.run(_run())


#: One-stripe objects enough for the victim's stripes to fill more than
#: one repair window.
MANY = REPAIR_WINDOW + 4


#: The per-repair deadline of the tests that wait one out: a failed part
#: holds its window's replies that long, and every virtual second of it
#: costs real time in beats and sweeps.
SHORT_REPAIR_TIMEOUT = 3.0


@pytest.fixture
def short_repair_timeout(monkeypatch):
    monkeypatch.setattr(coordinator_module, "REPAIR_TIMEOUT", SHORT_REPAIR_TIMEOUT)
    return SHORT_REPAIR_TIMEOUT


def held_by(svc: LocalService, node_id: int) -> list[int]:
    """The stripes with a block on ``node_id``, in repair order."""
    return sorted(sid for sid, _bid in svc.coordinator.catalog.blocks_on_node(node_id))


class TestRepairWindows:
    """A wave goes out in windows of ``REPAIR_WINDOW`` stripes, with one
    ``repair.exec`` per daemon per window; a stripe fails alone."""

    def test_one_repair_exec_per_daemon_per_window(self, monkeypatch):
        participants: dict[int, set[int]] = {}
        partition_plan = coordinator_module.partition_plan

        def recording(plan, placement, stripe_id, failed_blocks):
            parts = partition_plan(plan, placement, stripe_id, failed_blocks)
            participants[stripe_id] = set(parts)
            return parts

        monkeypatch.setattr(coordinator_module, "partition_plan", recording)
        loop = VirtualTimeLoop()

        async def _run():
            async with deployed() as svc:
                objects = await put_objects(svc, MANY)
                held = held_by(svc, VICTIM)
                await svc.kill(VICTIM)
                status = await svc.client.wait_healthy(timeout=30.0, min_repairs=len(held))
                for name, data in objects.items():
                    assert await svc.client.get(name) == data, name
                served = sum(
                    d.stats.counters.get("rpc:repair.exec", 0) for d in svc.daemons.values()
                )
                return held, status["repairs"], served, dict(svc.coordinator.stats.counters)

        held, records, served, counters = loop.run(_run())
        assert sorted(r["sid"] for r in records) == held
        assert all(r["ledger_match"] for r in records)
        windows: dict[str, set[int]] = {}
        for record in records:
            windows.setdefault(record["window"], set()).update(participants[record["sid"]])
        assert len(windows) == math.ceil(len(held) / REPAIR_WINDOW) >= 2
        assert counters["repair_windows"] == len(windows)
        assert served == sum(len(nodes) for nodes in windows.values())
        assert served < sum(len(participants[sid]) for sid in held)
        assert not any(v for k, v in counters.items() if k.startswith("repair_failed:"))

    def test_a_missing_seed_fails_its_stripe_alone(self, short_repair_timeout):
        """A daemon that lost a seed block fails that stripe as
        ``not_found``; the peers left waiting on it time out as
        unavailable, which names the echo, not the cause.  The rest of
        its window commits."""
        loop = VirtualTimeLoop()

        async def _run():
            async with deployed() as svc:
                objects = await put_objects(svc, REPAIR_WINDOW)
                coordinator = svc.coordinator
                held = held_by(svc, VICTIM)
                doomed = held[0]
                plan = simulate_repair(
                    coordinator.scheme,
                    coordinator.catalog.repair_context(
                        doomed, {VICTIM}, block_size=coordinator.block_size
                    ),
                    SIMICS_BANDWIDTH,
                ).plan
                bid, node = min(plan_seed_blocks(plan).items())
                del svc.daemons[node].blocks[stored_block_key(doomed, bid)]
                await svc.kill(VICTIM)
                start = loop.time()
                while len(coordinator.repairs) + len(coordinator.repair_errors) < len(held):
                    assert loop.time() - start < 2 * short_repair_timeout
                    await asyncio.sleep(HEALTH_POLL)
                doomed_object = next(
                    name for name, info in coordinator.objects.items()
                    if info["stripe_ids"] == [doomed]
                )
                for name, data in objects.items():
                    if name != doomed_object:
                        assert await svc.client.get(name) == data, name
                return (held, coordinator.repairs, coordinator.repair_errors,
                        dict(coordinator.stats.counters))

        held, records, errors, counters = loop.run(_run())
        doomed, *rest = held
        assert [(e["sid"], e["kind"]) for e in errors] == [(doomed, "not_found")]
        assert sorted(r["sid"] for r in records) == rest
        assert all(r["ledger_match"] for r in records)
        assert len(rest) >= 2 and {r["window"] for r in records} == {"w0"}
        assert counters["repair_failed:not_found"] == 1
        assert counters["repair_failed:unavailable"] == 0

    def test_a_helper_that_dies_mid_window_is_repaired_around(self, short_repair_timeout):
        """A second death while a window is in flight: the stripes that
        needed the dead helper fail typed, the wave its death starts
        repairs them, and every object reads back."""
        loop = VirtualTimeLoop()

        async def _run():
            async with LocalService(
                racks=3, per_rack=4, n=6, k=3, suspect_after=SUSPECT_AFTER,
                sweep_interval=SWEEP, heartbeat=DEFAULT_INTERVAL,
                link_rate=1.5e6, repair_share=0.2,
            ) as svc:
                coordinator = svc.coordinator
                objects = await put_objects(svc, REPAIR_WINDOW)
                await svc.kill(VICTIM)
                while not (busy := sorted(n for n, d in svc.daemons.items() if d._sessions)):
                    await asyncio.sleep(0.01)
                await svc.kill(busy[0])
                killed_at = loop.time()
                status = await svc.client.wait_healthy(timeout=3 * short_repair_timeout)
                healthy_after = loop.time() - killed_at
                for name, data in objects.items():
                    assert await svc.client.get(name) == data, name
                failed = [e.attrs for e in coordinator.rec.trace().events
                          if e.name == "repair.failed"]
                # A failed stripe's rebuilt blocks were dropped where they
                # were committed: no daemon holds a block placed elsewhere.
                placed = {
                    stored_block_key(sid, bid): node
                    for sid, meta in coordinator.stripes.items()
                    for bid, node in meta.placement.block_to_node.items()
                }
                stray = sorted(
                    (node_id, key)
                    for node_id, daemon in svc.daemons.items()
                    for key in daemon.blocks
                    if placed.get(key) != node_id
                )
                return status, failed, healthy_after, stray

        status, failed, healthy_after, stray = loop.run(_run())
        assert stray == []
        assert failed and {f["kind"] for f in failed} == {"unavailable"}
        assert status["repair_errors"] == []
        assert {f["sid"] for f in failed} <= {r["sid"] for r in status["repairs"]}
        assert all(r["ledger_match"] for r in status["repairs"])
        assert healthy_after < 2 * short_repair_timeout

    def test_a_target_that_dies_after_it_committed_is_repaired_again(self, monkeypatch):
        """A spare commits its rebuilt block and replies, then dies while
        the rest of its window is still out.  Its death is declared
        before the window's stripes are recorded, so the catalog must
        mark the block it just placed there lost again, not trust it."""
        exec_window = StorageDaemon._rpc_repair_exec
        release = asyncio.Event()
        first_target: list[int] = []

        async def gated(daemon, request):
            reply = await exec_window(daemon, request)
            rebuilt = any(r.get("committed") for r in reply[0]["results"].values())
            if rebuilt and not first_target:
                first_target.append(daemon.node_id)
            elif not release.is_set():
                await release.wait()
            return reply

        monkeypatch.setattr(StorageDaemon, "_rpc_repair_exec", gated)
        loop = VirtualTimeLoop()

        async def _run():
            async with LocalService(
                racks=3, per_rack=4, n=6, k=3, suspect_after=SUSPECT_AFTER,
                sweep_interval=SWEEP, heartbeat=DEFAULT_INTERVAL,
            ) as svc:
                coordinator = svc.coordinator
                objects = await put_objects(svc, REPAIR_WINDOW)
                await svc.kill(VICTIM)
                while not first_target:
                    await asyncio.sleep(0.01)
                target = first_target[0]
                await svc.kill(target)
                while coordinator.detector.entry(target).alive:
                    await asyncio.sleep(0.01)
                release.set()
                await svc.client.wait_healthy(timeout=10.0)
                for name, data in objects.items():
                    assert await svc.client.get(name) == data, name
                alive = coordinator.detector.alive_ids()
                return {
                    sid: sorted(set(meta.placement.block_to_node.values()) - alive)
                    for sid, meta in coordinator.stripes.items()
                }

        dead_holders = loop.run(_run())
        assert dead_holders == {sid: [] for sid in dead_holders}


class TestDeleteWithAnUndeclaredDeath:
    """``object.delete`` while a holder is dead but not yet declared so."""

    @pytest.mark.parametrize("victim", [1, 2, 3, 4])
    def test_the_object_is_gone_and_every_survivor_dropped_its_blocks(self, victim):
        loop = VirtualTimeLoop()

        async def _run():
            async with LocalService(sweep_interval=1e9) as svc:
                await put_objects(svc)
                coordinator = svc.coordinator
                (sid,) = coordinator.objects["o0"]["stripe_ids"]
                placement = coordinator.stripes[sid].placement.block_to_node
                assert victim in placement.values()
                keys = {stored_block_key(sid, bid) for bid in placement}
                await svc.kill(victim)
                reply = await svc.client.delete("o0")
                listed = [o["name"] for o in await svc.client.list_objects()]
                held = {nid: sorted(keys & set(d.blocks)) for nid, d in svc.daemons.items()}
                with pytest.raises(NotFound, match="no object"):
                    await svc.client.get("o0")
                return reply, listed, held, len(placement)

        reply, listed, held, width = loop.run(_run())
        assert "o0" not in listed and len(listed) == OBJECTS - 1
        assert held == {nid: [] for nid in held}
        assert reply["dropped"] == width - 1


@functools.cache
def two_deaths(scheme: str) -> tuple[dict[str, int], list[dict], list[int], bool]:
    """24 one-stripe objects on 3 × 4 RS(6,3), nodes 0 and 5 killed at
    once; returns (detection counters, repair records, the stripes that
    lost two blocks, whether every object read back byte-identical)."""
    loop = VirtualTimeLoop()

    async def _run():
        async with LocalService(
            racks=3, per_rack=4, n=6, k=3, scheme=scheme, suspect_after=SUSPECT_AFTER,
            sweep_interval=SWEEP, heartbeat=DEFAULT_INTERVAL,
        ) as svc:
            objects = await put_objects(svc, 24)
            first, second = held_by(svc, 0), held_by(svc, 5)
            both = sorted(set(first) & set(second))
            await svc.kill(0)
            await svc.kill(5)
            status = await svc.client.wait_healthy(
                timeout=30.0, min_repairs=len(set(first) | set(second))
            )
            intact = all([await svc.client.get(name) == data for name, data in objects.items()])
            return detection(svc), status["repairs"], both, intact

    return loop.run(_run())


def two_block_cross_rack_bytes(scheme: str) -> int:
    _, records, both, _ = two_deaths(scheme)
    return sum(r["measured"]["cross_rack_bytes"] for r in records if r["sid"] in both)


class TestTwoDeathsAtOnce:
    """Two daemons killed together are declared dead in one sweep, and
    every stripe that lost two blocks is rebuilt in one repair."""

    @pytest.mark.parametrize("scheme", ["traditional", "rpr"])
    def test_two_block_stripes_are_repaired_byte_exact(self, scheme):
        counters, records, both, intact = two_deaths(scheme)
        assert counters["deaths_refused"] == 2 and counters["deaths_silent"] == 0
        assert intact
        assert all(r["ledger_match"] for r in records)
        assert len(both) == 12
        assert sorted(r["sid"] for r in records if len(r["failed_blocks"]) == 2) == both

    def test_rpr_moves_fewer_cross_rack_bytes_than_traditional(self):
        assert two_block_cross_rack_bytes("rpr") < two_block_cross_rack_bytes("traditional")

    def test_car_names_its_limit_and_loses_nothing(self):
        """CAR repairs one block per stripe (paper §6): the verdict says so,
        claims no data loss, and every object still reads back degraded."""
        loop = VirtualTimeLoop()

        async def _run():
            async with LocalService(
                racks=3, per_rack=4, n=6, k=3, scheme="car", suspect_after=SUSPECT_AFTER,
                sweep_interval=SWEEP, heartbeat=DEFAULT_INTERVAL,
            ) as svc:
                objects = await put_objects(svc, 24)
                lost = set(held_by(svc, 0)) | set(held_by(svc, 5))
                await svc.kill(0)
                await svc.kill(5)
                with pytest.raises(Unrecoverable) as verdict:
                    await svc.client.wait_healthy(timeout=30.0, min_repairs=len(lost))
                reads = [await svc.client.get(name, degraded=True) for name in objects]
                return str(verdict.value), reads == list(objects.values())

        verdict, intact = loop.run(_run())
        assert "CAR only supports single-block failures (paper §6)" in verdict
        assert "data loss" not in verdict
        assert intact
