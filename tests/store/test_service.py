"""End-to-end service tests: coordinator + daemons over real localhost TCP.

Everything here runs the *real* components — real sockets, real frames,
real GF arithmetic — only inside one process (separate asyncio tasks)
so failures are debuggable and CI-cheap.  The true multi-process path
is covered by ``test_launcher.py`` and the CI store-smoke job.
"""

import asyncio
import os
import subprocess
import sys
import threading
import time

import pytest

from repro.live import audit_store_repairs
from repro.metrics import TrafficLedger
from repro.multistripe import StripeStore
from repro.repair import simulate_repair
from repro.store import (
    SCHEMES,
    LocalService,
    StorageDaemon,
    StoreError,
    messages,
)
from repro.telemetry import (
    assemble_trace,
    build_tree,
    from_jsonl,
    to_chrome_trace,
    to_jsonl,
    snapshots_to_prometheus,
    validate_prometheus_text,
    trace_ids,
)

BLOCK = 2048
N, K = 3, 2


def service(**keywords) -> LocalService:
    return LocalService(block_size=BLOCK, **keywords)


class TestObjectPath:
    def test_put_get_delete_round_trip(self):
        async def _run():
            async with service() as svc:
                data = os.urandom(N * BLOCK * 2 + 777)  # 3 stripes, ragged tail
                await svc.client.put("obj", data)
                assert await svc.client.get("obj") == data
                listing = await svc.client.list_objects()
                assert [o["name"] for o in listing] == ["obj"]
                await svc.client.delete("obj")
                with pytest.raises(StoreError, match="no object"):
                    await svc.client.get("obj")
                # Daemons must actually be empty again.
                for daemon in svc.daemons.values():
                    assert daemon.blocks == {}

        asyncio.run(_run())

    def test_a_one_stripe_put_is_begin_block_puts_commit(self, monkeypatch):
        """The grant carries the code and block size: no ``status`` first."""
        from repro.store import client as client_mod

        real_call = client_mod.call
        sent = []

        async def recording_call(host, port, mtype, body=None, blob=None, **kw):
            sent.append(mtype)
            return await real_call(host, port, mtype, body, blob, **kw)

        async def _run():
            async with service() as svc:
                monkeypatch.setattr(client_mod, "call", recording_call)
                await svc.client.put("obj", os.urandom(N * BLOCK - 1))

        asyncio.run(_run())
        assert sent == ["put.begin", *["block.put"] * (N + K), "put.commit"]

    def test_put_begin_grants_the_stripes_the_size_needs(self):
        async def _run():
            async with service() as svc:
                grants = [
                    await svc.client._coordinator(
                        "put.begin", {"name": f"obj-{size}", "size": size}
                    )
                    for size in (0, N * BLOCK, N * BLOCK * 2 + 1)
                ]
                assert [len(g["stripes"]) for g in grants] == [1, 1, 3]
                with pytest.raises(StoreError, match="must not be negative"):
                    await svc.client._coordinator(
                        "put.begin", {"name": "neg", "size": -1}
                    )

        asyncio.run(_run())

    def test_duplicate_put_rejected(self):
        async def _run():
            async with service() as svc:
                await svc.client.put("obj", b"x" * 100)
                with pytest.raises(StoreError, match="already exists"):
                    await svc.client.put("obj", b"y" * 100)

        asyncio.run(_run())

    def test_commit_with_wrong_bytes_rejected(self):
        """The coordinator verifies daemons against claimed CRCs."""

        async def _run():
            async with service() as svc:
                client = svc.client
                grant = await client._coordinator(
                    "put.begin", {"name": "obj", "size": 10}
                )
                # Claim CRCs for blocks nobody ever wrote.
                claims = [{
                    "sid": grant["stripes"][0]["sid"],
                    "crcs": {str(b): 1 for b in range(N + K)},
                }]
                with pytest.raises(StoreError, match="holds no block"):
                    await client._coordinator(
                        "put.commit", {"name": "obj", "stripes": claims}
                    )

        asyncio.run(_run())

    def test_a_put_that_died_before_commit_does_not_block_its_name(self):
        """Only committed objects block a name: a grant whose client never
        reached put.commit is superseded by the retry."""

        async def _run():
            async with service() as svc:
                await svc.client._coordinator(
                    "put.begin", {"name": "obj", "size": 10}
                )  # ... and the client dies here.
                data = os.urandom(N * BLOCK + 5)
                await svc.client.put("obj", data)
                assert await svc.client.get("obj") == data
                with pytest.raises(StoreError, match="already exists"):
                    await svc.client.put("obj", data)

        asyncio.run(_run())

    def test_the_loser_of_two_racing_puts_fails_its_commit(self):
        async def _run():
            async with service() as svc:
                begin = {"name": "obj", "size": 10}
                loser = await svc.client._coordinator("put.begin", begin)
                data = os.urandom(100)
                await svc.client.put("obj", data)  # begins after, commits first
                claims = [{
                    "sid": loser["stripes"][0]["sid"],
                    "crcs": {str(b): 1 for b in range(N + K)},
                }]
                with pytest.raises(StoreError, match="no pending put"):
                    await svc.client._coordinator(
                        "put.commit", {"name": "obj", "stripes": claims}
                    )
                # The other interleaving: the winner has begun, not committed.
                loser = await svc.client._coordinator(
                    "put.begin", {**begin, "name": "obj2"}
                )
                await svc.client._coordinator("put.begin", {**begin, "name": "obj2"})
                claims[0]["sid"] = loser["stripes"][0]["sid"]
                with pytest.raises(StoreError, match="missing CRCs for stripe"):
                    await svc.client._coordinator(
                        "put.commit", {"name": "obj2", "stripes": claims}
                    )
                assert await svc.client.get("obj") == data
                assert sorted(svc.coordinator.objects) == ["obj"]

        asyncio.run(_run())


class TestKillAndRepair:
    @pytest.mark.parametrize("scheme", ["traditional", "car", "rpr"])
    def test_daemon_death_triggers_byte_exact_repair(self, scheme):
        async def _run():
            async with service(scheme=scheme) as svc:
                data = os.urandom(N * BLOCK + 99)  # 2 stripes
                await svc.client.put("obj", data)
                # Kill the daemon holding stripe 0's block 0.
                victim = svc.coordinator.stripes[0].placement.node_of(0)
                await svc.kill(victim)
                status = await svc.client.wait_healthy(
                    timeout=20.0, min_repairs=1
                )
                # Every repair record must be byte-ledger-exact vs the
                # simulator (CRC exactness is enforced inside the
                # coordinator: a mismatch fails the repair entirely).
                assert status["repairs"], "no repair ran"
                for record in status["repairs"]:
                    assert record["scheme"] == scheme
                    assert record["ledger_match"], record
                    assert (
                        record["measured"]["cross_rack_bytes"]
                        == record["simulated"]["cross_rack_bytes"]
                    )
                # The validate-layer audit must agree with the records.
                audit = audit_store_repairs(status["repairs"])
                assert audit.ledger_ok and audit.repairs == len(status["repairs"])
                assert (
                    audit.measured_cross_rack_bytes
                    == audit.simulated_cross_rack_bytes
                )
                # Placement no longer references the dead node...
                for meta in svc.coordinator.stripes.values():
                    assert victim not in meta.placement.block_to_node.values()
                # ...and the object reads back byte-identical.
                assert await svc.client.get("obj") == data

        asyncio.run(_run())

    def test_repair_lands_blocks_on_live_spares_only(self):
        async def _run():
            async with service() as svc:
                data = os.urandom(N * BLOCK)
                await svc.client.put("obj", data)
                victim = svc.coordinator.stripes[0].placement.node_of(0)
                await svc.kill(victim)
                await svc.client.wait_healthy(timeout=20.0, min_repairs=1)
                alive = svc.coordinator.detector.alive_ids()
                for meta in svc.coordinator.stripes.values():
                    assert set(meta.placement.block_to_node.values()) <= alive
                    assert not meta.missing
                # The rebuilt block physically exists on its new node.
                for record in svc.coordinator.repairs:
                    for bid_s, node in record["targets"].items():
                        key = f"b:{record['sid']}:{bid_s}"
                        assert key in svc.daemons[node].blocks

        asyncio.run(_run())

    @pytest.mark.parametrize("scheme", ["traditional", "car", "rpr"])
    def test_a_fresh_catalog_replays_the_repair_log(self, scheme):
        """The catalog *is* the coordinator's model: fed the same deaths
        offline, a fresh StripeStore queues the same stripes in the same
        order, picks the same targets, its contexts simulate to the same
        ledgers, and it ends on the coordinator's placements."""

        async def _run():
            async with service(scheme=scheme, racks=3, per_rack=4, n=6, k=3) as svc:
                await svc.client.put("a", os.urandom(6 * BLOCK * 4))
                await svc.client.put("b", os.urandom(6 * BLOCK * 3 + 1))
                victim = svc.coordinator.stripes[0].placement.node_of(0)
                await svc.kill(victim)
                await svc.client.wait_healthy(timeout=30.0, min_repairs=1)
                return svc.cluster, victim, svc.coordinator

        cluster, victim, coordinator = asyncio.run(_run())
        catalog = StripeStore.build(cluster, coordinator.code, len(coordinator.stripes))
        assert catalog.fail_node(victim)
        assert catalog.degraded() == [r["sid"] for r in coordinator.repairs]
        for record in coordinator.repairs:
            assert record["ledger_match"], record
            ctx = catalog.repair_context(record["sid"], {victim}, block_size=BLOCK)
            targets = dict(ctx.recovery_override)
            assert list(ctx.failed_blocks) == record["failed_blocks"]
            assert {str(b): node for b, node in targets.items()} == record["targets"]
            outcome = simulate_repair(SCHEMES[scheme](), ctx, coordinator.bandwidth)
            assert record["simulated"] == {
                **TrafficLedger.from_sim(outcome.sim, cluster).to_dict(),
                "combines": len(outcome.plan.combines()),
            }
            catalog.relocate(record["sid"], targets)
        assert catalog.degraded() == []
        for sid, stored in coordinator.stripes.items():
            assert catalog.stripe(sid).placement == stored.placement

    def test_telemetry_spans_cover_all_three_components(self):
        async def _run():
            async with service() as svc:
                data = os.urandom(N * BLOCK)
                await svc.client.put("obj", data)
                victim = svc.coordinator.stripes[0].placement.node_of(0)
                await svc.kill(victim)
                await svc.client.wait_healthy(timeout=20.0, min_repairs=1)
                await svc.client.get("obj")

                coord_trace = svc.coordinator.rec.trace()
                assert any(
                    s.category == "repair" for s in coord_trace.spans
                ), "coordinator recorded no repair span"
                daemon_spans = [
                    span
                    for daemon in svc.daemons.values()
                    for span in daemon.rec.trace().spans
                ]
                assert any(s.category == "op" for s in daemon_spans), (
                    "no daemon recorded repair op spans"
                )
                client_trace = svc.client.rec.trace()
                assert {s.attrs.get("op") for s in client_trace.spans if s.category == "client"} >= {"put", "get"}

        asyncio.run(_run())

    def test_kill_repair_yields_one_connected_distributed_trace(self):
        """ISSUE satellite c: after a kill→repair round, merging every
        component's telemetry must produce ONE connected tree per repair
        — the coordinator's ``repair:<rid>`` root with every daemon's
        repair spans descending from it — and the assembled trace must
        survive the JSONL and Perfetto exporters unchanged."""

        async def _run():
            async with service() as svc:
                data = os.urandom(N * BLOCK + 99)  # 2 stripes
                await svc.client.put("obj", data)
                victim = svc.coordinator.stripes[0].placement.node_of(0)
                # Grab the victim daemon before kill() pops it: its
                # pre-kill spans must participate in the assembly.
                victim_daemon = svc.daemons[victim]
                await svc.kill(victim)
                await svc.client.wait_healthy(timeout=20.0, min_repairs=1)

                merged = assemble_trace(
                    [
                        ("client", svc.client.rec.trace()),
                        ("coordinator", svc.coordinator.rec.trace()),
                        (f"node-{victim}", victim_daemon.rec.trace()),
                        *(
                            (f"node-{nid}", daemon.rec.trace())
                            for nid, daemon in svc.daemons.items()
                        ),
                    ]
                )

                repair_traces = 0
                for tid in trace_ids(merged):
                    roots = build_tree(merged, tid)
                    if not any(
                        r.span.name.startswith("repair:") for r in roots
                    ):
                        continue
                    repair_traces += 1
                    # One logical repair == one connected tree: every
                    # span in this trace id descends from a single root.
                    assert len(roots) == 1, [r.span.name for r in roots]
                    root = roots[0]
                    assert root.proc == "coordinator"
                    descendants = []
                    stack = list(root.children)
                    while stack:
                        node = stack.pop()
                        descendants.append(node)
                        stack.extend(node.children)
                    # The coordinator fanned out over the wire...
                    assert any(
                        n.span.name == "rpc:repair.exec" for n in descendants
                    )
                    # ...and every daemon-side repair span is linked in.
                    daemon_repairs = [
                        n
                        for n in descendants
                        if n.span.name.startswith("repair:")
                        and n.proc.startswith("node-")
                    ]
                    assert daemon_repairs, "no daemon repair spans in tree"
                    in_trace = [
                        s
                        for s in merged.spans
                        if s.attrs.get("trace_id") == tid
                        and s.name.startswith("repair:")
                        and str(s.attrs.get("proc", "")).startswith("node-")
                    ]
                    assert len(daemon_repairs) == len(in_trace)
                assert repair_traces >= 1, "no repair trace assembled"

                # The assembled trace is a plain TelemetryTrace: both
                # exporters must accept it, and JSONL must round-trip.
                clone = from_jsonl(to_jsonl(merged))
                assert to_jsonl(clone) == to_jsonl(merged)
                chrome = to_chrome_trace([("assembled", merged)])
                assert any(
                    e["ph"] == "X" and e["name"].startswith("repair:")
                    for e in chrome["traceEvents"]
                )

        asyncio.run(_run())

    def test_wait_healthy_fails_fast_when_the_service_cannot_self_heal(self):
        """Losing more blocks than k is a verdict, not something to poll.

        The pinned message matters: operators read it at 3am — it must
        say that waiting will not fix anything.
        """

        async def _run():
            async with service(suspect_after=30.0) as svc:
                data = os.urandom(N * BLOCK - 17)  # one stripe
                await svc.client.put("obj", data)
                placement = svc.coordinator.stripes[0].placement
                doomed = [placement.node_of(bid) for bid in range(K + 1)]
                svc.coordinator.on_nodes_dead(doomed)
                loop = asyncio.get_event_loop()
                start = loop.time()
                with pytest.raises(StoreError, match="cannot self-heal"):
                    await svc.client.wait_healthy(timeout=30.0)
                # Fail-fast, not a timeout wait: the planning-level
                # verdict must surface in a poll or two.
                assert loop.time() - start < 10.0

        asyncio.run(_run())

    def test_degraded_get_names_the_problem(self):
        """A GET during the degraded window fails loudly, never hangs."""

        async def _run():
            async with service(suspect_after=30.0) as svc:
                # suspect_after is huge: the coordinator will NOT notice
                # the death, freezing the degraded window open.
                data = os.urandom(N * BLOCK)
                await svc.client.put("obj", data)
                victim = svc.coordinator.stripes[0].placement.node_of(0)
                await svc.kill(victim)
                svc.coordinator.on_nodes_dead([])  # no-op: nothing detected
                # Mark missing manually (what detection would have done)
                # without triggering repair, to pin the degraded read path.
                svc.coordinator.stripes[0].missing.add(0)
                with pytest.raises(StoreError, match="degraded"):
                    await svc.client.get("obj")

        asyncio.run(_run())


class TestDegradedReads:
    """User GETs keep working while blocks are gone — the QoS plane's
    first pillar (docs/QOS.md).  The ISSUE acceptance matrix: every
    scheme on RS(6,3) and RS(8,3) (plus the default RS(3,2)) must serve
    byte-identical reads with a daemon dead."""

    #: (n, k, racks, per_rack): enough rack slots for the placement and
    #: at least one live spare per rack for the repair that follows.
    SHAPES = [(3, 2, 3, 2), (6, 3, 3, 4), (8, 3, 4, 4)]

    @pytest.mark.parametrize("scheme", ["traditional", "car", "rpr"])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_degraded_get_is_byte_identical_with_a_daemon_dead(self, scheme, shape):
        n, k, racks, per_rack = shape

        async def _run():
            # suspect_after is huge so detection/repair never races the
            # read: the window is frozen open, the GET must reconstruct.
            async with service(
                scheme=scheme, suspect_after=30.0,
                racks=racks, per_rack=per_rack, n=n, k=k,
            ) as svc:
                data = os.urandom(n * BLOCK + 123)  # 2 stripes, ragged tail
                await svc.client.put("obj", data)
                victim = svc.coordinator.stripes[0].placement.node_of(0)
                await svc.kill(victim)
                got, report = await svc.client.get_with_report(
                    "obj", degraded=True
                )
                assert got == data
                assert report["degraded"]
                assert report["reconstructed"]
                assert {e["mode"] for e in report["reconstructed"]} <= {
                    "plan", "decode",
                }

        asyncio.run(_run())

    @pytest.mark.parametrize("scheme", ["traditional", "car", "rpr"])
    def test_degraded_gets_stay_byte_identical_through_a_live_repair(self, scheme):
        """PUT → kill → read continuously until the repair finishes.

        Every read during the window must return the written bytes; at
        least the first must actually have reconstructed (the kill lands
        before detection, so block 0 is unreachable immediately).
        """

        async def _run():
            async with service(scheme=scheme) as svc:
                data = os.urandom(N * BLOCK + 99)
                await svc.client.put("obj", data)
                victim = svc.coordinator.stripes[0].placement.node_of(0)
                await svc.kill(victim)
                degraded_seen = 0
                deadline = asyncio.get_event_loop().time() + 20.0
                while True:
                    got, report = await svc.client.get_with_report(
                        "obj", degraded=True
                    )
                    assert got == data
                    degraded_seen += report["degraded"]
                    status = await svc.client.status()
                    healthy = (
                        not status["degraded"]
                        and not status["repairing"]
                        and status["repairs"]
                    )
                    if healthy:
                        break
                    assert asyncio.get_event_loop().time() < deadline, (
                        "repair never finished"
                    )
                    await asyncio.sleep(0.05)
                assert degraded_seen >= 1
                # Healthy again: the plain path serves the same bytes.
                assert await svc.client.get("obj") == data

        asyncio.run(_run())

    def test_rpr_degraded_get_prefers_the_scheme_plan(self):
        """Once the coordinator has marked the block missing, the lookup
        ships a degraded-read plan and the client executes it instead of
        falling back to a full decode."""

        async def _run():
            async with service(suspect_after=30.0) as svc:
                data = os.urandom(N * BLOCK - 5)  # one stripe
                await svc.client.put("obj", data)
                victim = svc.coordinator.stripes[0].placement.node_of(0)
                await svc.kill(victim)
                # What detection would have done, minus the repair kick:
                # the coordinator knows block 0 is gone and can plan.
                svc.coordinator.stripes[0].missing.add(0)
                got, report = await svc.client.get_with_report(
                    "obj", degraded=True
                )
                assert got == data
                assert [e["mode"] for e in report["reconstructed"]] == ["plan"]

        asyncio.run(_run())

    def test_degraded_get_reads_each_block_once(self):
        """The plan runs on the data blocks the client already holds: one
        RS(3,2) degraded GET reads the two survivors plus one parity seed,
        never a surviving data block twice."""

        def block_gets(svc):
            return sum(
                d.stats.snapshot()["counters"].get("rpc:block.get", 0)
                for d in svc.daemons.values()
            )

        async def _run():
            async with service(suspect_after=30.0) as svc:
                data = os.urandom(N * BLOCK - 5)  # one stripe
                await svc.client.put("obj", data)
                victim = svc.coordinator.stripes[0].placement.node_of(0)
                await svc.kill(victim)
                svc.coordinator.stripes[0].missing.add(0)
                before = block_gets(svc)
                got, report = await svc.client.get_with_report(
                    "obj", degraded=True
                )
                assert got == data
                assert [e["mode"] for e in report["reconstructed"]] == ["plan"]
                assert block_gets(svc) - before == 3

        asyncio.run(_run())

    def test_healthy_get_fetches_stripe_blocks_concurrently(self, monkeypatch):
        """All n data blocks of a stripe are fetched in parallel: each
        block.get blocks until every sibling is in flight, so a
        sequential client would deadlock here (and fail the timeout)."""
        from repro.store import client as client_mod

        real_call = client_mod.call
        gate = asyncio.Event()
        inflight = 0

        async def gated_call(host, port, mtype, body=None, blob=None, **kw):
            nonlocal inflight
            if mtype == "block.get":
                inflight += 1
                if inflight == N:
                    gate.set()
                await asyncio.wait_for(gate.wait(), timeout=5.0)
            return await real_call(host, port, mtype, body, blob, **kw)

        async def _run():
            async with service() as svc:
                data = os.urandom(N * BLOCK - 1)  # one stripe
                await svc.client.put("obj", data)
                monkeypatch.setattr(client_mod, "call", gated_call)
                assert await svc.client.get("obj") == data
                assert inflight == N

        asyncio.run(_run())


class TestBlockBytes:
    """A PUT hashes each block twice — the client's write-time CRC and
    the commit's ``block.stat`` — and a daemon stores the bytes it
    received: the request frame's own buffer, read-only, not a copy."""

    def test_one_stripe_put_computes_two_crcs_per_block(self, monkeypatch):
        from repro.store import client as client_mod
        from repro.store import daemon as daemon_mod

        real_crc = client_mod.block_crc
        crcs = 0

        def counting_crc(payload):
            nonlocal crcs
            crcs += 1
            return real_crc(payload)

        monkeypatch.setattr(client_mod, "block_crc", counting_crc)
        monkeypatch.setattr(daemon_mod, "block_crc", counting_crc)

        async def _run():
            async with service(racks=3, per_rack=3, n=6, k=3) as svc:
                data = os.urandom(6 * BLOCK - 1)  # one RS(6,3) stripe: 9 blocks
                await svc.client.put("obj", data)

        asyncio.run(_run())
        assert crcs == 2 * 9

    def test_block_put_and_repair_block_keep_the_frame_bytes(self):
        frame = bytearray(b"{}" + bytes(range(64)))
        blob = memoryview(frame)[2:]

        async def _run():
            daemon = StorageDaemon(0)
            await daemon._rpc_block_put(messages.Request("block.put", {"key": "b"}, blob))
            await daemon._rpc_repair_block(
                messages.Request("repair.block", {"rid": "r", "key": "s"}, blob)
            )
            return daemon.blocks["b"], daemon._early["r"][0][1]

        for block in asyncio.run(_run()):
            assert not block.flags.writeable
            frame[2] = 0xFF  # the frame's buffer *is* the block
            assert block[0] == 0xFF
            frame[2] = 0


class TestPersistentConnections:
    """The service on reused connections: bounded sockets, clean exits."""

    def test_connections_are_bounded_by_concurrency_not_by_requests(self):
        """200 PUTs are ~2000 RPCs; each daemon must end up holding a
        handful of inbound connections (the client's, the coordinator's),
        and the stats plane must say so."""

        async def _run():
            async with service(suspect_after=30.0) as svc:
                for i in range(200):
                    await svc.client.put(f"obj-{i}", os.urandom(N * BLOCK - 3))
                scrape = await svc.client.stats()
                for nid, daemon in svc.daemons.items():
                    snap = scrape["nodes"][str(nid)]
                    held = snap["gauges"]["open_connections"]
                    accepted = snap["counters"]["connections_accepted"]
                    assert held == daemon._rpc.open_connections
                    assert 1 <= held <= 4, (nid, held)
                    assert accepted <= 6, (nid, accepted)
                    assert snap["counters"]["rpc:block.put"] >= 50
                coord = scrape["coordinator"]
                # Client + one heartbeat connection per daemon, give or
                # take a beat that overlapped another.
                assert coord["gauges"]["open_connections"] <= len(svc.daemons) + 4
                assert coord["counters"]["connections_accepted"] <= len(svc.daemons) + 6
                prom = snapshots_to_prometheus(
                    [scrape["coordinator"], *scrape["nodes"].values()]
                )
                assert validate_prometheus_text(prom) == []
                assert 'name="open_connections"' in prom
                assert 'name="connections_accepted"' in prom

        asyncio.run(_run())

    @pytest.mark.parametrize("party", ["daemon", "coordinator"])
    def test_aclose_with_idle_inbound_connections_does_not_wait(self, party):
        """Idle inbound connections are closed at once on shutdown: the
        0.25 s grace is for requests in mid-flight only (and an aclose
        that awaited them first would hang on Python >= 3.12.1)."""

        async def _run():
            async with service(suspect_after=30.0) as svc:
                await svc.client.put("obj", os.urandom(N * BLOCK * 2))
                assert await svc.client.get("obj")
                if party == "daemon":
                    victim = svc.daemons.pop(0)
                else:
                    victim = svc.coordinator
                assert victim._rpc.open_connections >= 1
                start = time.perf_counter()
                await asyncio.wait_for(victim.aclose(), timeout=5.0)
                elapsed = time.perf_counter() - start
                assert victim._rpc.open_connections == 0
                return elapsed

        assert asyncio.run(_run()) < 0.12

    def test_kill_and_replace_on_a_new_port_keeps_working(self):
        """A replaced daemon listens elsewhere; its peers' pooled
        connections to the old port are dead weight that must neither
        break a later request nor pile up."""

        async def _run():
            async with service(suspect_after=0.6) as svc:
                data = os.urandom(N * BLOCK + 5)
                await svc.client.put("obj", data)
                victim = svc.coordinator.stripes[0].placement.node_of(0)
                old_port = svc.daemons[victim].port
                await svc.kill(victim)
                await svc.client.wait_healthy(timeout=20.0, min_repairs=1)
                reborn = await svc.start_daemon(victim)
                assert reborn.port != old_port
                assert await svc.client.get("obj") == data
                for i in range(6):  # new stripes land on the reborn node too
                    await svc.client.put(f"more-{i}", os.urandom(N * BLOCK))
                    assert len(await svc.client.get(f"more-{i}")) == N * BLOCK
                assert reborn.blocks
                idle = messages._IDLE[asyncio.get_running_loop()]
                assert ("127.0.0.1", old_port) not in idle

        asyncio.run(_run())


#: Run in a child interpreter under ``-W error::ResourceWarning``: a few
#: verbs, then no socket may be left open in that process.
_SYNC_CLIENT_SCRIPT = """
import gc, os, sys
from repro.store import StoreError, SyncStoreClient

client = SyncStoreClient("127.0.0.1", int(sys.argv[1]))
data = os.urandom(3 * 2048 * 2 + 1)
client.put("obj", data)
assert client.get("obj") == data
assert client.get("obj", degraded=True) == data
assert [o["name"] for o in client.list_objects()] == ["obj"]
assert client.stats()["coordinator"]["role"] == "coordinator"
try:
    client.get("nope")
except StoreError:
    pass
else:
    raise AssertionError("missing object did not raise")
client.delete("obj")
gc.collect()
links = [os.readlink(f"/proc/self/fd/{fd}") for fd in os.listdir("/proc/self/fd")
         if os.path.exists(f"/proc/self/fd/{fd}")]
sockets = [link for link in links if link.startswith("socket:")]
assert not sockets, sockets
print("clean")
"""


class TestSyncClientSockets:
    """``SyncStoreClient`` runs each verb on a loop of its own, so each
    verb must close the connections it opened: no socket and no
    ``ResourceWarning`` may outlive it."""

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc")
    def test_verbs_leave_no_sockets_and_no_resource_warnings(self):
        ready = threading.Event()
        box = {}

        def serve():
            async def _main():
                box["stop"] = asyncio.Event()
                box["loop"] = asyncio.get_running_loop()
                async with service(suspect_after=30.0) as svc:
                    box["port"] = svc.coordinator.port
                    ready.set()
                    await box["stop"].wait()

            asyncio.run(_main())

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        assert ready.wait(timeout=20.0)
        try:
            src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
            env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
            done = subprocess.run(
                [sys.executable, "-W", "error::ResourceWarning", "-c",
                 _SYNC_CLIENT_SCRIPT, str(box["port"])],
                capture_output=True, text=True, timeout=120, env=env,
            )
        finally:
            box["loop"].call_soon_threadsafe(box["stop"].set)
            thread.join(timeout=20.0)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "clean"
        # A ResourceWarning raised inside __del__ cannot propagate; it is
        # printed as "Exception ignored in ..." instead.
        assert "ResourceWarning" not in done.stderr, done.stderr
        assert not thread.is_alive()
