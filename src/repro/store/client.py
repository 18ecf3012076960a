"""Client API: PUT/GET/DELETE real objects against the store service.

The client does the data-path heavy lifting so the coordinator stays a
pure metadata service: it encodes stripes locally with the same
:class:`~repro.rs.RSCode` the cluster is configured for, writes blocks
*directly* to the daemons named by ``put.begin``, and only then commits
— the coordinator independently stats the daemons before accepting.
Reads are the mirror image: ``object.lookup`` for placement + routing,
then data blocks straight from the daemons, reassembled locally.

:class:`StoreClient` is the asyncio API; :class:`SyncStoreClient` wraps
it call-per-``asyncio.run`` for scripts, demos and the CLI.  RPC
connections are persistent and belong to the event loop that opened
them (:mod:`repro.store.messages`): an asyncio user closes the idle ones
with :meth:`StoreClient.aclose` before its loop ends; the sync facade
does so after every verb, because every verb runs on a loop of its own.
"""

from __future__ import annotations

import asyncio

import numpy as np

from ..cluster import Cluster, Node, Rack
from ..repair import ExecutionError, execute_plan
from ..repair.plan import block_key
from ..rs import get_code
from ..telemetry import CLOCK_WALL, TelemetryRecorder, TraceContext
from .messages import Corrupt, StoreError, Unavailable, Unrecoverable, call, close_idle_connections
from .objects import ObjectInfo, reassemble, split_into_stripes
from .repair import block_crc, plan_from_dict, stored_block_key

__all__ = ["StoreClient", "SyncStoreClient"]


def _cluster_from_dict(data: dict) -> Cluster:
    """Rebuild the coordinator's topology from a lookup reply.

    Only structure travels (node → rack); names are cosmetic and a
    client-side plan execution never looks at them.
    """
    by_rack: dict[int, list[Node]] = {}
    for nid, rack in data["nodes"].items():
        by_rack.setdefault(int(rack), []).append(
            Node(node_id=int(nid), rack_id=int(rack))
        )
    return Cluster(
        Rack(rack_id=rid, nodes=sorted(nodes, key=lambda nd: nd.node_id))
        for rid, nodes in sorted(by_rack.items())
    )


def _as_bytes_array(data) -> np.ndarray:
    if isinstance(data, (bytes, bytearray, memoryview)):
        data = np.frombuffer(bytes(data), dtype=np.uint8)
    return np.asarray(data, dtype=np.uint8).ravel()


class StoreClient:
    """Asyncio client for one coordinator (and its daemons)."""

    def __init__(
        self,
        host: str,
        port: int,
        *,
        recorder: TelemetryRecorder | None = None,
    ) -> None:
        self.host = host
        self.port = port
        self.rec = recorder if recorder is not None else TelemetryRecorder(
            CLOCK_WALL, meta={"component": "client", "node": "client"}
        )
        if recorder is None:
            # Own recorder: anchor t=0 so assembled traces can align
            # this client's spans with the service processes'.
            self.rec.set_origin(self.rec.raw_now())

    async def aclose(self) -> None:
        """Close the running loop's idle RPC connections (call it last)."""
        await close_idle_connections()

    async def _coordinator(
        self, mtype: str, body: dict | None = None, *, ctx: TraceContext | None = None
    ) -> dict:
        reply, _ = await call(self.host, self.port, mtype, body, ctx=ctx)
        return reply

    # -- object operations --------------------------------------------------

    async def put(self, name: str, data) -> dict:
        """Encode, place and commit one object; returns the commit reply."""
        payload = _as_bytes_array(data)
        ctx = TraceContext.root()
        start = self.rec.raw_now()
        grant = await self._coordinator(
            "put.begin", {"name": name, "size": int(payload.size)}, ctx=ctx.child()
        )
        code = get_code(grant["n"], grant["k"])
        stripes = split_into_stripes(payload, code.n, grant["block_size"])
        routing = grant["routing"]
        claims = []
        for spec, data_blocks in zip(grant["stripes"], stripes):
            sid = int(spec["sid"])
            placement = {int(bid): node for bid, node in spec["placement"].items()}
            crcs = {}
            writes = []
            for bid, block in enumerate(code.encode(data_blocks)):
                node = placement[bid]
                host, port = routing[str(node)]
                crcs[bid] = block_crc(block)
                writes.append(
                    call(
                        host, port, "block.put",
                        {"key": stored_block_key(sid, bid)},
                        blob=block.data,
                        ctx=ctx.child(),
                    )
                )
            await asyncio.gather(*writes)
            claims.append({"sid": sid, "crcs": {str(b): c for b, c in crcs.items()}})
        reply = await self._coordinator(
            "put.commit", {"name": name, "stripes": claims}, ctx=ctx.child()
        )
        self.rec.span(
            f"put:{name}", start, self.rec.raw_now(), category="client",
            op="put", nbytes=int(payload.size), **ctx.attrs(),
        )
        self.rec.count("client.put_bytes", int(payload.size))
        return reply

    async def get(self, name: str, *, degraded: bool = False) -> bytes:
        """Fetch and reassemble one object's bytes (data blocks only).

        With ``degraded=True`` the read survives dead daemons: lost data
        blocks are reconstructed client-side — preferably by executing
        the scheme's coordinator-planned degraded-read plan on fetched
        helper blocks, else by a full decode over any ``n`` survivors —
        and every reconstructed block is verified against its write-time
        CRC before the bytes are returned.
        """
        data, _ = await self.get_with_report(name, degraded=degraded)
        return data

    async def get_with_report(
        self, name: str, *, degraded: bool = False
    ) -> tuple[bytes, dict]:
        """Like :meth:`get`, plus a report of what reconstruction ran.

        The report carries ``degraded`` (any block was reconstructed)
        and ``reconstructed``: one ``{"sid", "block", "mode"}`` entry
        per rebuilt block, ``mode`` being ``"plan"`` (scheme plan
        executed locally) or ``"decode"`` (full RS decode fallback).
        """
        ctx = TraceContext.root()
        start = self.rec.raw_now()
        info = await self._coordinator(
            "object.lookup", {"name": name, "degraded": degraded}, ctx=ctx.child()
        )
        n = info["n"]
        cluster = (
            _cluster_from_dict(info["cluster"]) if "cluster" in info else None
        )
        code = get_code(n, int(info["k"])) if degraded else None
        stripe_blocks = []
        reconstructed: list[dict] = []
        for spec in info["stripes"]:
            if degraded:
                blocks, events = await self._degraded_stripe(
                    name, info, spec, cluster, code, ctx=ctx
                )
                reconstructed.extend(events)
            else:
                blocks = await self._healthy_stripe(name, info, spec, n, ctx=ctx)
            stripe_blocks.append(blocks)
        shape = ObjectInfo(
            name=name,
            size=int(info["size"]),
            stripe_ids=tuple(int(s["sid"]) for s in info["stripes"]),
            block_size=int(info["block_size"]),
            n=n,
        )
        out = reassemble(shape, stripe_blocks)
        self.rec.span(
            f"get:{name}", start, self.rec.raw_now(), category="client",
            op="get", nbytes=len(out), degraded=bool(reconstructed),
            **ctx.attrs(),
        )
        self.rec.count("client.get_bytes", len(out))
        if reconstructed:
            self.rec.count("client.degraded_gets")
        report = {
            "name": name,
            "degraded": bool(reconstructed),
            "reconstructed": reconstructed,
        }
        return out, report

    async def _fetch(
        self, routing: dict, node: int, sid: int, bid: int,
        ctx: TraceContext | None, *, lenient: bool = False,
    ) -> np.ndarray | None:
        """Stripe ``sid``'s block ``bid`` from its holder ``node``.

        A healthy read is strict: a holder it cannot reach raises.  A
        ``lenient`` (degraded) read tries twice and returns ``None``
        instead — an unrouted holder is known dead, and an undetected
        death looks like a refused connection — so the caller
        reconstructs around the block.
        """
        route = routing.get(str(node))
        try:
            if route is None:
                raise Unavailable(f"no route to node {node} (dead daemon?)")
            _, blob = await call(
                route[0], route[1], "block.get",
                {"key": stored_block_key(sid, bid)}, attempts=2 if lenient else 5,
                ctx=ctx.child() if ctx is not None else None,
            )
        except (StoreError, ConnectionError, OSError):
            if lenient:
                return None
            raise
        return np.frombuffer(blob, dtype=np.uint8)

    async def _healthy_stripe(
        self, name: str, info: dict, spec: dict, n: int,
        *, ctx: TraceContext | None = None,
    ) -> list[np.ndarray]:
        """One stripe's data blocks, fetched concurrently; strict on loss."""
        sid = int(spec["sid"])
        missing = set(spec["missing"])
        placement = {int(bid): node for bid, node in spec["placement"].items()}
        for bid in range(n):
            if bid in missing:
                raise Unavailable(
                    f"object {name!r} is degraded (stripe {sid} block {bid} "
                    f"missing); retry with degraded=True to reconstruct, or "
                    f"wait for repair to finish"
                )
        # gather preserves argument order, so blocks land data-order
        # even though the fetches race.
        return list(await asyncio.gather(
            *(self._fetch(info["routing"], placement[bid], sid, bid, ctx) for bid in range(n))
        ))

    async def _degraded_stripe(
        self, name: str, info: dict, spec: dict, cluster: Cluster, code,
        *, ctx: TraceContext | None = None,
    ) -> tuple[list[np.ndarray], list[dict]]:
        """One stripe's data blocks, reconstructing whatever is lost.

        Every block is read at most once: the data blocks first, then
        only those plan seeds (or, on the decode fallback, parity
        blocks) that are not already held.
        """
        sid = int(spec["sid"])
        n = code.n
        placement = {int(bid): node for bid, node in spec["placement"].items()}
        checksums = {
            int(bid): crc for bid, crc in spec.get("checksums", {}).items()
        }
        missing = set(spec["missing"])
        held: dict[int, np.ndarray] = {}

        async def fetch(holders: dict[int, int]) -> None:
            bids = [bid for bid in holders if bid not in missing and bid not in held]
            blocks = await asyncio.gather(*(
                self._fetch(info["routing"], holders[bid], sid, bid, ctx, lenient=True)
                for bid in bids
            ))
            held.update((bid, b) for bid, b in zip(bids, blocks) if b is not None)

        await fetch({bid: placement[bid] for bid in range(n)})
        lost = [bid for bid in range(n) if bid not in held]
        if not lost:
            return [held[bid] for bid in range(n)], []

        recovered: dict[int, np.ndarray] = {}
        mode = "plan"
        plan_info = spec.get("degraded_plan")
        if plan_info is not None and lost == [int(plan_info["block"])]:
            seeds = {int(bid): int(node) for bid, node in plan_info["seeds"].items()}
            await fetch(seeds)
            recovered = self._run_degraded_plan(plan_info, seeds, held, cluster)
        if not recovered:
            # Fallback: grab parity too and decode from any n survivors.
            mode = "decode"
            await fetch({bid: placement[bid] for bid in range(n, code.width)})
            if len(held) < n:
                raise Unrecoverable(
                    f"object {name!r} stripe {sid} is unrecoverable: only "
                    f"{len(held)} of {code.width} blocks reachable, "
                    f"need {n}"
                )
            recovered = code.decode_many(held, lost)
        data_blocks = [held.get(bid) for bid in range(n)]
        for bid in lost:
            block = np.ascontiguousarray(recovered[bid], dtype=np.uint8)
            want = checksums.get(bid)
            got = block_crc(block)
            if want is not None and got != want:
                raise Corrupt(
                    f"object {name!r} stripe {sid} block {bid}: degraded "
                    f"reconstruction produced wrong bytes "
                    f"(crc {got:#x} != {want:#x})"
                )
            data_blocks[bid] = block
        events = [{"sid": sid, "block": bid, "mode": mode} for bid in lost]
        return data_blocks, events

    def _run_degraded_plan(
        self, plan_info: dict, seeds: dict[int, int],
        held: dict[int, np.ndarray], cluster: Cluster,
    ) -> dict[int, np.ndarray]:
        """Execute a plan locally on its helper blocks (``seeds`` of ``held``).

        Returns ``{block_id: payload}`` on success, ``{}`` when any
        helper is unreachable or execution fails — the caller then falls
        back to the full-decode path.
        """
        if not seeds.keys() <= held.keys():
            return {}
        store: dict[int, dict[str, np.ndarray]] = {}
        for bid, node in seeds.items():
            store.setdefault(node, {})[block_key(bid)] = held[bid]
        try:
            result = execute_plan(plan_from_dict(plan_info["plan"]), cluster, store)
        except ExecutionError:
            return {}
        self.rec.count(
            "client.degraded_helper_bytes", sum(int(held[bid].nbytes) for bid in seeds)
        )
        target = int(plan_info["block"])
        return {target: np.asarray(result.recovered[target], dtype=np.uint8)}

    async def delete(self, name: str) -> dict:
        return await self._coordinator("object.delete", {"name": name})

    async def list_objects(self) -> list[dict]:
        return (await self._coordinator("object.list"))["objects"]

    async def status(self) -> dict:
        return await self._coordinator("status")

    async def stats(self) -> dict:
        """Scrape the whole cluster's metrics plane in one call.

        Hits the coordinator's ``stats`` RPC, then every daemon the
        coordinator believes is alive, in parallel.  A daemon that died
        between the status reply and our scrape shows up as
        ``{"error": ...}`` instead of a snapshot — the scrape itself
        must never fail because one node did.
        """
        status = await self.status()
        coord = await self._coordinator("stats")

        async def scrape(nid: str, info: dict) -> tuple[str, dict]:
            if not info["alive"]:
                return nid, {"error": "node is down", "alive": False}
            try:
                body, _ = await call(
                    info["host"], info["port"], "stats", attempts=1
                )
                return nid, body
            except (StoreError, ConnectionError, OSError) as exc:
                return nid, {"error": str(exc), "alive": True}

        pairs = await asyncio.gather(
            *(scrape(nid, info) for nid, info in status["nodes"].items())
        )
        return {"coordinator": coord, "nodes": dict(sorted(pairs))}

    # -- service-level helpers ----------------------------------------------

    async def wait_healthy(
        self, *, timeout: float = 30.0, min_repairs: int = 0
    ) -> dict:
        """Poll every 0.2 s until no stripe is degraded (and ``min_repairs``
        finished).

        Returns the final status; raises :class:`Unavailable` when
        ``timeout`` elapses first — a repair that should have happened
        and didn't is a test failure, not something to wait out forever.
        Fails *fast* (no timeout wait) with :class:`Unrecoverable` when
        the coordinator reports a repair error of that kind — too many
        losses, no live spares or a loss the scheme cannot repair (CAR
        repairs one block per stripe) are planning-level verdicts that
        more polling cannot change.  The verdict quotes each stripe's
        error, which names the cause, and claims no data loss of its own:
        a stripe beyond the scheme's limit still reads degraded.
        """
        loop = asyncio.get_event_loop()
        deadline = loop.time() + timeout
        while True:
            status = await self.status()
            fatal = [e for e in status["repair_errors"] if e["kind"] == Unrecoverable.kind]
            if fatal:
                details = "; ".join(
                    f"stripe {e['sid']}: {e['error']}" for e in fatal
                )
                raise Unrecoverable(
                    f"service cannot self-heal ({details}); waiting will not fix it"
                )
            healthy = (
                not status["degraded"]
                and not status["repairing"]
                and len(status["repairs"]) >= min_repairs
            )
            if healthy:
                return status
            if loop.time() >= deadline:
                raise Unavailable(
                    f"service still degraded after {timeout}s: "
                    f"degraded={status['degraded']} "
                    f"repairs={len(status['repairs'])}/{min_repairs}"
                )
            await asyncio.sleep(0.2)

    async def shutdown_service(self) -> None:
        """Gracefully stop the coordinator, then every daemon.

        The coordinator goes first: it watches each daemon's port, and a
        daemon that stopped under it would be declared dead and repaired.
        """
        status = await self.status()
        await self._coordinator("shutdown")
        for info in status["nodes"].values():
            if info["alive"]:
                try:
                    await call(info["host"], info["port"], "shutdown", attempts=1)
                except (StoreError, ConnectionError, OSError):
                    pass  # a daemon dying mid-shutdown is still shut down


class SyncStoreClient:
    """Blocking facade over :class:`StoreClient` for scripts and the CLI."""

    def __init__(self, host: str, port: int, *, recorder=None) -> None:
        self._client = StoreClient(host, port, recorder=recorder)

    def _run(self, verb):
        async def run():
            try:
                return await verb
            finally:
                # The loop ends with this verb; so must its connections.
                await self._client.aclose()

        return asyncio.run(run())

    def put(self, name: str, data) -> dict:
        return self._run(self._client.put(name, data))

    def get(self, name: str, *, degraded: bool = False) -> bytes:
        return self._run(self._client.get(name, degraded=degraded))

    def get_with_report(
        self, name: str, *, degraded: bool = False
    ) -> tuple[bytes, dict]:
        return self._run(self._client.get_with_report(name, degraded=degraded))

    def delete(self, name: str) -> dict:
        return self._run(self._client.delete(name))

    def list_objects(self) -> list[dict]:
        return self._run(self._client.list_objects())

    def status(self) -> dict:
        return self._run(self._client.status())

    def stats(self) -> dict:
        return self._run(self._client.stats())

    def wait_healthy(self, **kwargs) -> dict:
        return self._run(self._client.wait_healthy(**kwargs))

    def shutdown_service(self) -> None:
        self._run(self._client.shutdown_service())
