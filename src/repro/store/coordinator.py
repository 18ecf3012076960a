"""The coordinator: metadata, liveness, and repair orchestration.

The namenode half of the store service.  It owns every decision the
daemons are too dumb to make:

* **Metadata** — object → stripes, and for every stripe the one
  catalog record (:class:`repro.multistripe.StripeStore`: rotated
  placement, missing blocks, write-time CRC32 per block — which later
  *proves* a repair rebuilt the exact bytes).  Every placement and
  missing-block decision is the catalog's; this module adds RPC and
  the byte-level cross-checks.
* **Liveness** — the :class:`~repro.store.heartbeat.FailureDetector`'s;
  the coordinator runs its loop and reacts to each death it declares.
* **Repair** — on a death, affected stripes are re-planned with the
  configured scheme (traditional / CAR / RPR — the paper's three), the
  plan is partitioned across surviving daemons
  (:func:`~repro.store.repair.partition_plan`), executed by them with
  repair bytes flowing daemon→daemon, and cross-checked two ways:
  rebuilt CRCs against write-time CRCs (byte-exactness) and the
  measured transfer ledger against :func:`~repro.repair.simulate_repair`'s
  prediction for the same plan (the simulator cross-validation the live
  runtime already does in one process).  A wave goes out in windows of
  :data:`REPAIR_WINDOW` stripes: one ``repair.exec`` per daemon per
  window carries that daemon's part of every stripe of the window, and
  its reply holds one result per stripe, so a stripe fails alone.

Clients never proxy bytes through the coordinator: ``put.begin`` hands
out placements and routing, the client talks to daemons directly, and
``put.commit`` verifies the daemons actually hold what the client
claims to have written before any metadata becomes durable.
"""

from __future__ import annotations

import argparse
import asyncio
import functools
import itertools
import json
from dataclasses import dataclass
from pathlib import Path

from ..cluster import Cluster, Placement, SIMICS_BANDWIDTH
from ..metrics import TrafficLedger
from ..multistripe.store import StoredStripe, StripeStore
from ..repair import (
    SCHEMES,
    CombineOp,
    RepairContext,
    RepairOutcome,
    RepairPlanningError,
    plan_degraded_read,
    simulate_repair,
)
from ..rs import get_code
from ..telemetry import (
    CLOCK_WALL,
    StatsRegistry,
    StreamingRecorder,
    TelemetryRecorder,
    TraceContext,
)
from .heartbeat import FailureDetector
from .messages import (
    KINDS, Corrupt, Exists, NotFound, Request, RpcServer, StoreError, StoreProtocolError,
    Unavailable, Unrecoverable, call, close_idle_connections, dispatch, error_kind,
)
from .objects import stripe_count
from .repair import (
    NodeAssignment,
    ledger_from_reports,
    partition_plan,
    plan_seed_blocks,
    plan_to_dict,
    stored_block_key,
)

__all__ = ["Coordinator", "SCHEMES", "main"]

#: Per-repair deadline handed to daemons (seconds).
REPAIR_TIMEOUT = 30.0

#: Stripes per repair window.  A wave goes out in windows of this many
#: stripes, with one ``repair.exec`` per daemon per window carrying that
#: daemon's part of every stripe it helps with.  The window must be
#: bounded: each stripe in flight holds its payloads on every helper.  A
#: width sweep on ``node_repair`` (docs/PERFORMANCE.md) put 4, 8 and 16
#: on one throughput plateau and 32 past the peak-RSS bound.
REPAIR_WINDOW = 8

#: Category of a window's root span.  The per-stripe ``repair:<rid>``
#: spans alone carry category ``repair``: one span per unit of work.
WINDOW_CATEGORY = "repair.window"


def _placement_to_wire(placement: Placement) -> dict:
    return {str(bid): node for bid, node in placement.block_to_node.items()}


@dataclass
class _StripeRepair:
    """One stripe planned into a repair window."""

    rid: str
    meta: StoredStripe
    failed: tuple[int, ...]
    targets: dict[int, int]
    outcome: RepairOutcome
    parts: dict[int, NodeAssignment]
    #: the stripe's hop: its span, and the parent of its daemon sessions.
    ctx: TraceContext


def _node_failure(node_id: int, exc: BaseException) -> StoreError:
    """A daemon's failure as the typed error of its kind, naming the daemon."""
    detail = exc if isinstance(exc, StoreError) else repr(exc)
    return KINDS[error_kind(exc)](f"node {node_id}: {detail}")


def _stripe_reports(job: _StripeRepair, results: dict) -> list[dict]:
    """The stripe's session report from each of its daemons.

    ``results`` maps each daemon of the window to its per-rid results,
    or to the failure of its whole ``repair.exec``.  Raises when any of
    the stripe's daemons failed it: a failure of another kind before an
    ``unavailable``, since a peer left waiting on the failed part times
    out as unavailable too and names the echo, not the cause.
    """
    reports, failures = [], []
    for node_id in job.parts:
        result = results[node_id]
        if isinstance(result, StoreError):
            failures.append(result)
            continue
        result = result[job.rid]
        if "error" in result:
            failures.append(KINDS.get(result["kind"], StoreError)(
                f"node {node_id}: {result['error']}"
            ))
        else:
            reports.append(result)
    if failures:
        raise min(failures, key=lambda exc: exc.kind == Unavailable.kind)
    return reports


class Coordinator:
    """The store service's single metadata/orchestration process."""

    def __init__(
        self,
        cluster: Cluster,
        code,
        *,
        scheme: str = "rpr",
        block_size: int = 64 * 1024,
        host: str = "127.0.0.1",
        suspect_after: float = 2.0,
        sweep_interval: float = 0.25,
        recorder: TelemetryRecorder | None = None,
    ) -> None:
        if scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {scheme!r}; expected one of {sorted(SCHEMES)}")
        self.cluster = cluster
        self.code = code
        self.scheme_name = scheme
        self.scheme = SCHEMES[scheme]()
        self.block_size = block_size
        self.host = host
        self.sweep_interval = sweep_interval
        self.port: int | None = None
        self.rec = recorder if recorder is not None else TelemetryRecorder(
            CLOCK_WALL, meta={"component": "coordinator", "scheme": scheme}
        )
        if recorder is None:
            # Own recorder: anchor t=0 so assembly can align this
            # process's spans against the daemons' (meta["origin_unix"]).
            self.rec.set_origin(self.rec.raw_now())
        #: Live metrics for the ``stats`` RPC — always on.
        self.stats = StatsRegistry("coordinator")
        for name in ("repair_windows", *(f"repair_failed:{kind}" for kind in KINDS)):
            self.stats.count(name, 0)
        self.detector = FailureDetector(suspect_after=suspect_after)
        self.catalog = StripeStore(cluster, code)
        #: sid -> catalog record of every *committed* stripe.
        self.stripes = self.catalog.stripes
        self.objects: dict[str, dict] = {}
        self.repairs: list[dict] = []
        #: Repair failures per stripe as ``{sid, kind, error}``, for
        #: client fail-fast: kind ``unrecoverable`` marks planning-level
        #: outcomes (too many losses, no spares) that waiting cannot fix.
        #: Cleared per stripe on success.
        self.repair_errors: list[dict] = []
        self._pending_puts: dict[str, dict] = {}
        self._rid_counter = itertools.count()
        self._window_counter = itertools.count()
        self._rpc = RpcServer(functools.partial(dispatch, self, {}))
        self._repair_lock = asyncio.Lock()
        self._repair_tasks: set[asyncio.Task] = set()
        self._stopping = asyncio.Event()

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> int:
        self.port = await self._rpc.start(self.host)
        self.detector.start(self.sweep_interval, self.on_nodes_dead, self.stats, self.rec)
        return self.port

    async def run_until_shutdown(self) -> None:
        await self._stopping.wait()

    async def aclose(self) -> None:
        await self.detector.aclose()
        pending = {t for t in self._repair_tasks if not t.done()}
        while pending:
            for task in pending:
                task.cancel()
            await asyncio.wait(pending, timeout=0.25)
            pending = {t for t in pending if not t.done()}
        self._repair_tasks.clear()
        await self._rpc.aclose()

    # -- repair orchestration ------------------------------------------------

    def _dead_nodes(self) -> set[int]:
        """Every node not known alive — never registered counts as dead."""
        return set(self.cluster.node_ids()) - self.detector.alive_ids()

    def on_nodes_dead(self, node_ids) -> list[int]:
        """Mark blocks on dead nodes missing; kick off repair if needed.

        Returns the affected stripe ids.  The detector calls it with
        every death it declares, after recording the ``node.dead``
        event; public so tests (and an impatient operator RPC) can force
        the reaction without waiting for the sweep timer.
        """
        affected = []
        for node_id in node_ids:
            affected += [sid for sid, _bid in self.catalog.fail_node(node_id)]
        if affected:
            task = asyncio.ensure_future(self._repair_degraded())
            self._repair_tasks.add(task)
            task.add_done_callback(self._repair_tasks.discard)
        return affected

    async def _repair_degraded(self) -> None:
        # One repair wave at a time, in windows of REPAIR_WINDOW stripes:
        # a window's stripes run concurrently, and each daemon gets one
        # repair.exec carrying its part of every stripe of the window.
        # Most-at-risk first: a stripe one failure from data loss jumps
        # every singly-degraded stripe in the queue.
        # Stripes that lost the same blocks of the same placement to
        # the same spares share one simulated outcome within the wave.
        async with self._repair_lock:
            simulated: dict[tuple, RepairOutcome] = {}
            queue = self.catalog.degraded()
            for first in range(0, len(queue), REPAIR_WINDOW):
                await self._repair_window(queue[first:first + REPAIR_WINDOW], simulated)

    def _repair_failed(self, sid: int, exc: BaseException) -> None:
        kind = (Unrecoverable.kind if isinstance(exc, RepairPlanningError)
                else error_kind(exc))
        self.rec.event(
            "repair.failed", category="fault", sid=sid, error=str(exc), kind=kind,
        )
        self.stats.count(f"repair_failed:{kind}")
        self.repair_errors.append(
            {"sid": sid, "kind": kind, "error": f"{type(exc).__name__}: {exc}"}
        )

    def _plan_stripe(
        self, sid: int, simulated: dict[tuple, RepairOutcome], window: TraceContext
    ) -> _StripeRepair:
        meta = self.stripes[sid]
        repair_ctx = self.catalog.repair_context(
            sid, self._dead_nodes(), block_size=self.block_size
        )
        failed, targets = repair_ctx.failed_blocks, dict(repair_ctx.recovery_override)
        key = (
            tuple(sorted(meta.placement.block_to_node.items())),
            failed,
            tuple(sorted(targets.items())),
        )
        outcome = simulated.get(key)
        if outcome is None:
            outcome = simulated[key] = simulate_repair(self.scheme, repair_ctx, SIMICS_BANDWIDTH)
        return _StripeRepair(
            rid=f"r{next(self._rid_counter)}",
            meta=meta,
            failed=failed,
            targets=targets,
            outcome=outcome,
            parts=partition_plan(outcome.plan, meta.placement, sid, failed),
            ctx=window.child(),
        )

    async def _repair_window(
        self, sids: list[int], simulated: dict[tuple, RepairOutcome]
    ) -> None:
        """Plan ``sids``, run them as one window, and check each stripe.

        A stripe that fails to plan, or whose daemons report a failure,
        fails alone; a daemon whose whole ``repair.exec`` fails (it
        died) fails only the stripes it was part of.  Failed stripes
        stay degraded for the wave a later death starts.
        """
        window = f"w{next(self._window_counter)}"
        # Every heartbeat-triggered window is a trace entry point: its
        # root span parents each stripe's repair:<rid> span, each
        # daemon's repair.exec hop rides the RPC header, and each
        # daemon session descends from its stripe's span.
        ctx = TraceContext.root()
        # The loop's clock, not the recorder's: timed with spans off too.
        clock = asyncio.get_running_loop().time
        start = clock()
        jobs: list[_StripeRepair] = []
        routing: dict[str, list] = {}
        for sid in sids:
            if sid not in self.stripes or not self.stripes[sid].missing:
                continue  # deleted or healed since the wave began
            try:
                job = self._plan_stripe(sid, simulated, ctx)
                routing.update(self._routing(job.parts))
            except (StoreError, RepairPlanningError) as exc:
                self._repair_failed(sid, exc)
            else:
                jobs.append(job)
        if not jobs:
            return
        self.stats.count("repair_windows")
        by_node: dict[int, list[dict]] = {}
        for job in jobs:
            for node_id, part in job.parts.items():
                by_node.setdefault(node_id, []).append({
                    "rid": job.rid,
                    "assignment": part.to_dict(),
                    "tc": job.ctx.child().to_wire(),
                })
        replies = await asyncio.gather(
            *(
                call(
                    *routing[str(node_id)],
                    "repair.exec",
                    {
                        "repairs": items,
                        "routing": routing,
                        "block_size": self.block_size,
                        "timeout": REPAIR_TIMEOUT,
                    },
                    timeout=REPAIR_TIMEOUT + 10.0,
                    ctx=ctx.child(),
                )
                for node_id, items in by_node.items()
            ),
            return_exceptions=True,
        )
        end = clock()
        results: dict[int, dict | StoreError] = {}
        for node_id, reply in zip(by_node, replies):
            if isinstance(reply, (StoreError, OSError)):
                results[node_id] = _node_failure(node_id, reply)
            elif isinstance(reply, BaseException):
                raise reply
            else:
                results[node_id] = reply[0]["results"]
        share = (end - start) / len(jobs)
        orphans: dict[int, list[str]] = {}
        for job in jobs:
            try:
                self._commit_stripe(job, window, _stripe_reports(job, results), start, end, share)
            except StoreError as exc:
                self._repair_failed(job.meta.stripe_id, exc)
                for node_id in job.parts:
                    result = results[node_id]
                    if not isinstance(result, StoreError) and "error" not in result[job.rid]:
                        orphans.setdefault(node_id, []).extend(
                            out["stored_key"] for out in result[job.rid]["committed"]
                        )
        # A failed stripe's rebuilt blocks are in no catalog: drop them
        # where they were committed.
        await self._drop_blocks(orphans)
        self.rec.span(
            f"repair:{window}", start, clock(), category=WINDOW_CATEGORY,
            window=window, stripes=len(jobs), nodes=len(by_node), **ctx.attrs(),
        )

    def _commit_stripe(
        self, job: _StripeRepair, window: str, reports: list[dict],
        start: float, end: float, share: float,
    ) -> None:
        """Check one stripe of a finished window and record its repair.

        The record (one entry of ``repairs``) names the stripe, its
        window, the failed blocks and their targets, and the measured
        and simulated ledgers.  Its ``wall_seconds`` is the stripe's
        share of its window: the window's wall time divided by the
        stripes that went out in it, so the records of a wave sum to
        the wave's repair time, as the ``repair.stripe`` histogram does.
        Its ``repair:<rid>`` span covers the whole window it ran in.
        """
        meta, sid, rid, failed, plan = (
            job.meta, job.meta.stripe_id, job.rid, job.failed, job.outcome.plan
        )
        # Byte-exactness: every rebuilt block must carry its write-time CRC.
        crc_ok = True
        rebuilt = 0
        for report in reports:
            for committed in report["committed"]:
                bid = int(committed["block_id"])
                rebuilt += 1
                if committed["crc"] != meta.checksums[bid]:
                    crc_ok = False
                    self.rec.event(
                        "repair.crc_mismatch", category="fault",
                        sid=sid, block=bid, rid=rid,
                    )
        if rebuilt != len(failed):
            raise StoreError(
                f"repair {rid} committed {rebuilt} blocks, expected {len(failed)}"
            )
        if not crc_ok:
            raise Corrupt(f"repair {rid} rebuilt wrong bytes for stripe {sid}")

        # Ledger cross-check: the whole measured daemon→daemon ledger (per
        # link class, node and rack) and the op counts vs the simulator's.
        op_reports = [r for report in reports for r in report["reports"]]
        measured = {
            **ledger_from_reports(self.cluster, op_reports).to_dict(),
            "combines": sum(r["kind"] == CombineOp.kind for r in op_reports),
        }
        simulated = {
            **TrafficLedger.from_sim(job.outcome.sim, self.cluster).to_dict(),
            "combines": len(plan.combines()),
        }
        record = {
            "rid": rid,
            "sid": sid,
            "window": window,
            "scheme": self.scheme_name,
            "failed_blocks": list(failed),
            "targets": {str(bid): node for bid, node in job.targets.items()},
            "measured": measured,
            "simulated": simulated,
            "simulated_repair_time": job.outcome.total_repair_time,
            "ledger_match": measured == simulated,
            "wall_seconds": share,
        }
        self.repairs.append(record)
        self.rec.span(
            f"repair:{rid}", start, end, category="repair",
            rid=rid, sid=sid, window=window, scheme=self.scheme_name,
            cross_rack_bytes=measured["cross_rack_bytes"],
            ledger_match=record["ledger_match"],
            **job.ctx.attrs(),
        )
        self.stats.count("repairs_done")
        self.stats.count("repair_ledger_mismatch", 0 if record["ledger_match"] else 1)
        self.stats.count("repair_bytes_cross_rack", measured["cross_rack_bytes"])
        self.stats.latency("repair.stripe", share)

        if sid in self.stripes:  # not deleted while the daemons rebuilt it
            self.catalog.relocate(sid, job.targets)
            # A target declared dead after it committed, while the rest
            # of its window ran, took the rebuilt block with it.
            self.on_nodes_dead(sorted(set(job.targets.values()) & self._dead_nodes()))
        self.repair_errors = [e for e in self.repair_errors if e["sid"] != sid]

    async def _drop_blocks(self, by_node: dict[int, list[str]]) -> int:
        """``block.delete`` each live node's keys, all at once and best
        effort (a dead node took its blocks with it, and one that is not
        yet declared dead fails only its own delete); returns the blocks
        dropped."""
        alive = self.detector.alive_ids()
        replies = await asyncio.gather(
            *(call(*self.detector.entry(node).addr, "block.delete", {"keys": keys}, attempts=1)
              for node, keys in by_node.items() if keys and node in alive),
            return_exceptions=True,
        )
        return sum(r[0]["dropped"] for r in replies if not isinstance(r, BaseException))

    # -- RPC handlers (served by messages.dispatch) --------------------------

    async def _rpc_heartbeat(self, request: Request):
        body = request.body
        meta = {k: v for k, v in body.items() if k not in ("node_id", "host", "port")}
        self.detector.beat(int(body["node_id"]), body["host"], int(body["port"]), meta)
        return {"nodes": len(self.detector.nodes)}, None

    async def _rpc_status(self, request: Request):
        return {
            "scheme": self.scheme_name,
            "code": {"n": self.code.n, "k": self.code.k},
            "block_size": self.block_size,
            "cluster": {
                "racks": self.cluster.num_racks,
                "nodes": self.cluster.num_nodes,
            },
            "nodes": self.detector.to_dict(),
            "objects": {
                name: {"size": info["size"], "stripes": info["stripe_ids"]}
                for name, info in self.objects.items()
            },
            "degraded": sorted(self.catalog.degraded()),
            "repairing": bool(self._repair_tasks),
            "repairs": self.repairs,
            "repair_errors": self.repair_errors,
        }, None

    def _routing(self, node_ids) -> dict:
        routing = {}
        for node_id in node_ids:
            entry = self.detector.entry(node_id)
            if entry is None or not entry.alive:
                raise Unavailable(f"node {node_id} is not alive")
            routing[str(node_id)] = [entry.host, entry.port]
        return routing

    async def _rpc_put_begin(self, request: Request):
        body = request.body
        name, size = body["name"], int(body["size"])
        if name in self.objects:
            raise Exists(f"object {name!r} already exists")
        if size < 0:
            raise StoreProtocolError(f"object size must not be negative, got {size}")
        alive = self.detector.alive_ids()
        stripes = []
        for _ in range(stripe_count(size, self.code.n, self.block_size)):
            stored = self.catalog.allocate()
            lands_on = set(stored.placement.block_to_node.values())
            if not lands_on <= alive:
                raise Unavailable(
                    f"stripe {stored.stripe_id} would land on dead nodes "
                    f"{sorted(lands_on - alive)}; repair or restart them first"
                )
            stripes.append(stored)
        # Only a committed object blocks its name: a grant whose client
        # died before put.commit is superseded here, and of two racing
        # PUTs the earlier grant's commit no longer matches these stripes.
        self._pending_puts[name] = {"size": size, "stripes": stripes}
        involved = {n for s in stripes for n in s.placement.block_to_node.values()}
        return {
            "name": name,
            "block_size": self.block_size,
            "n": self.code.n,
            "k": self.code.k,
            "stripes": [
                {"sid": s.stripe_id, "placement": _placement_to_wire(s.placement)}
                for s in stripes
            ],
            "routing": self._routing(involved),
        }, None

    async def _verify_held(self, node: int, route, claims: dict[str, int]) -> None:
        """``block.stat`` one daemon: it must hold these keys with these CRCs."""
        found, _ = await call(*route, "block.stat", {"keys": list(claims)})
        for key, crc in claims.items():
            stat = found["found"].get(key)
            if stat is None:
                raise NotFound(
                    f"daemon {node} holds no block {key!r}; "
                    f"client must rewrite before committing"
                )
            if stat["crc"] != crc:
                raise Corrupt(
                    f"daemon {node} holds different bytes for {key!r}"
                )

    async def _rpc_put_commit(self, request: Request):
        body = request.body
        name = body["name"]
        pending = self._pending_puts.get(name)
        if pending is None:
            raise NotFound(f"no pending put for object {name!r}")
        claimed = {int(s["sid"]): {int(b): int(c) for b, c in s["crcs"].items()}
                   for s in body["stripes"]}
        # Trust nothing: stat the daemons and compare CRCs before the
        # metadata becomes durable.  One block.stat per holder, all in
        # flight at once: a commit waits one round trip, not one per
        # holder and stripe.
        by_node: dict[int, dict[str, int]] = {}
        for stored in pending["stripes"]:
            sid = stored.stripe_id
            if set(claimed.get(sid, {})) != set(range(self.code.width)):
                raise StoreProtocolError(f"put.commit missing CRCs for stripe {sid}")
            for bid, node in stored.placement.block_to_node.items():
                by_node.setdefault(node, {})[stored_block_key(sid, bid)] = claimed[sid][bid]
        routing = self._routing(by_node)
        await asyncio.gather(
            *(self._verify_held(node, routing[str(node)], claims)
              for node, claims in by_node.items())
        )
        if self._pending_puts.get(name) is not pending:
            # A newer put.begin took the name while the daemons were statted.
            raise Exists(f"put of {name!r} was superseded before its commit")
        for stored in pending["stripes"]:
            stored.checksums = claimed[stored.stripe_id]
            self.catalog.add(stored)
        self.objects[name] = {
            "size": pending["size"],
            "stripe_ids": [stored.stripe_id for stored in pending["stripes"]],
        }
        del self._pending_puts[name]
        self.rec.count("coordinator.objects_put")
        return {"name": name, "stripes": len(claimed)}, None

    def _degraded_plan(self, meta: StoredStripe, dead: set[int]) -> dict | None:
        """A client-executable degraded-read plan for one stripe, or None.

        Plannable when exactly one *data* block is unreachable: the
        scheme plans its reconstruction targeted at the dead holder's
        slot (always in the topology, holds nothing), and the client
        substitutes itself for that node when executing.  Multi-data
        loss or unplannable layouts return None — the client falls back
        to a full ``decode_many`` over any ``n`` survivors.
        """
        dead_blocks = self.catalog.lost_blocks(meta.stripe_id, dead)
        lost_data = sorted(bid for bid in dead_blocks if bid < self.code.n)
        if len(lost_data) != 1:
            return None
        target = lost_data[0]
        try:
            ctx = RepairContext(
                code=self.code,
                cluster=self.cluster,
                placement=meta.placement,
                failed_blocks=(target,),
                block_size=self.block_size,
                unavailable_blocks=tuple(sorted(dead_blocks - {target})),
            )
            plan = plan_degraded_read(
                self.scheme, ctx, meta.placement.node_of(target)
            )
            seeds = plan_seed_blocks(plan)
        except (RepairPlanningError, StoreError):
            return None
        if dead & set(seeds.values()):
            return None
        return {
            "block": target,
            "plan": plan_to_dict(plan),
            "seeds": {str(bid): node for bid, node in seeds.items()},
        }

    async def _rpc_object_lookup(self, request: Request):
        name = request.body["name"]
        degraded = bool(request.body.get("degraded"))
        info = self.objects.get(name)
        if info is None:
            raise NotFound(f"no object {name!r}")
        records = [self.stripes[sid] for sid in info["stripe_ids"]]
        stripes = [
            {
                "sid": stored.stripe_id,
                "placement": _placement_to_wire(stored.placement),
                "missing": sorted(stored.missing),
                "checksums": {str(bid): crc for bid, crc in stored.checksums.items()},
            }
            for stored in records
        ]
        involved = {
            node for stored in records for node in stored.placement.block_to_node.values()
        }
        if degraded:
            # Route only what answers; the client treats unrouted nodes
            # as dead and reconstructs around them.
            dead = self._dead_nodes()
            routing = self._routing(involved - dead)
            for entry, stored in zip(stripes, records):
                entry["degraded_plan"] = self._degraded_plan(stored, dead)
        else:
            routing = self._routing(involved)
        reply = {
            "name": name,
            "size": info["size"],
            "n": self.code.n,
            "k": self.code.k,
            "block_size": self.block_size,
            "stripes": stripes,
            "routing": routing,
        }
        if degraded:
            reply["cluster"] = {
                "nodes": {
                    str(nid): self.cluster.rack_of(nid)
                    for nid in self.cluster.node_ids()
                }
            }
        return reply, None

    async def _rpc_object_delete(self, request: Request):
        name = request.body["name"]
        # Out of the catalog before any daemon is asked: the object is
        # gone even when a holder cannot drop its blocks.
        info = self.objects.pop(name, None)
        if info is None:
            raise NotFound(f"no object {name!r}")
        by_node: dict[int, list[str]] = {}
        for sid in info["stripe_ids"]:
            meta = self.stripes[sid]
            for bid, node in meta.placement.block_to_node.items():
                if bid not in meta.missing:
                    by_node.setdefault(node, []).append(stored_block_key(sid, bid))
            self.catalog.remove(sid)
        return {"name": name, "dropped": await self._drop_blocks(by_node)}, None

    async def _rpc_object_list(self, request: Request):
        return {
            "objects": [
                {"name": name, "size": info["size"], "stripes": len(info["stripe_ids"])}
                for name, info in sorted(self.objects.items())
            ]
        }, None

    async def _rpc_stats(self, request: Request):
        """Coordinator-side metrics: repair plane + per-node liveness."""
        snap = self.stats.snapshot()
        snap["role"] = "coordinator"
        snap["gauges"]["objects"] = float(len(self.objects))
        snap["gauges"]["stripes"] = float(len(self.stripes))
        snap["degraded"] = sorted(self.catalog.degraded())
        snap["gauges"]["degraded_stripes"] = float(len(snap["degraded"]))
        snap["gauges"]["repairs_active"] = float(len(self._repair_tasks))
        snap["gauges"]["nodes_alive"] = float(len(self.detector.alive_ids()))
        snap["gauges"]["open_connections"] = float(self._rpc.open_connections)
        snap["counters"]["connections_accepted"] = float(self._rpc.accepted)
        for nid, info in self.detector.to_dict().items():
            age = info.get("beat_age_s")
            if age is not None:
                snap["gauges"][f"beat_age_s:node-{nid}"] = float(age)
        snap["repairs_done"] = len(self.repairs)
        return snap, None

    async def _rpc_shutdown(self, request: Request):
        self._stopping.set()
        return {}, None


async def _amain(args: argparse.Namespace) -> None:
    cluster = Cluster.homogeneous(args.racks, args.per_rack)
    recorder = None
    if args.telemetry:
        # Streaming append keeps the trace through a crash or kill.
        recorder = StreamingRecorder(
            args.telemetry,
            CLOCK_WALL,
            meta={"component": "coordinator", "node": "coordinator",
                  "scheme": args.scheme},
        )
        recorder.set_origin(recorder.raw_now())
    coordinator = Coordinator(
        cluster,
        get_code(args.n, args.k),
        scheme=args.scheme,
        block_size=args.block_size,
        suspect_after=args.suspect_after,
        sweep_interval=args.sweep_interval,
        recorder=recorder,
    )
    port = await coordinator.start()
    if args.state_file:
        # The launcher polls this file for the bound port; write-then-rename
        # so it never reads a half-written JSON.
        state = Path(args.state_file)
        tmp = state.with_suffix(".tmp")
        tmp.write_text(json.dumps({"host": coordinator.host, "port": port}))
        tmp.replace(state)
    print(json.dumps({"host": coordinator.host, "port": port}), flush=True)
    try:
        await coordinator.run_until_shutdown()
    finally:
        await coordinator.aclose()
        await close_idle_connections()
        if recorder is not None:
            recorder.close()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.store.coordinator",
        description="Metadata/repair coordinator of the repro object store.",
    )
    parser.add_argument("--racks", type=int, required=True)
    parser.add_argument("--per-rack", type=int, required=True)
    parser.add_argument("--n", type=int, required=True)
    parser.add_argument("--k", type=int, required=True)
    parser.add_argument("--scheme", choices=sorted(SCHEMES), default="rpr")
    parser.add_argument("--block-size", type=int, default=64 * 1024)
    parser.add_argument("--suspect-after", type=float, default=2.0)
    parser.add_argument("--sweep-interval", type=float, default=0.25)
    parser.add_argument(
        "--state-file", default=None,
        help="write {'host', 'port'} JSON here once the RPC port is bound",
    )
    parser.add_argument(
        "--telemetry", default=None,
        help="stream coordinator telemetry JSONL here (appended and "
             "flushed per span, crash-durable)",
    )
    args = parser.parse_args(argv)
    asyncio.run(_amain(args))
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    raise SystemExit(main())
