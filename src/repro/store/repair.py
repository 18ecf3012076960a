"""Distributed repair: partition a plan across daemons, execute locally.

The single-process live runtime (:mod:`repro.live.runtime`) holds every
node's payloads in one dict and runs every op as a task in one loop.
The store service crosses the process boundary: the coordinator
*partitions* a :class:`repro.repair.RepairPlan` into per-node
assignments — each daemon receives only the ops it owns (sends whose
``src`` it is, combines at its node) — and the daemons execute them
**data-driven**: an op fires once its input payloads exist locally and
its same-node predecessor ops are done.  Cross-node dependencies need no
control messages at all, because every remote dependency in a repair
plan *is* the send that delivers one of the op's inputs (partitioning
verifies this property and refuses plans that violate it); repair bytes
travelling daemon→daemon double as the dependency tokens, exactly like
the paper's testbed where pipelining emerges from data arrival.

Each daemon produces an op's payload with the op's own ``apply`` — what
the byte executor's op step calls — and delivers it by RPC or locally.
What a daemon is assigned are the plan's *parts*
(:meth:`repro.repair.RepairPlan.parts`): a sliced op arrives as its
slices, already resolved against the whole plan, and a daemon runs and
delivers a slice exactly as it does an op.
The coordinator's :class:`~repro.metrics.TrafficLedger` for a repair is
then assembled from the daemons' op reports and compared with ``==``
against the simulator's ledger for the same plan — the service-path half
of the live cross-validation story.
"""

from __future__ import annotations

import asyncio
import time
import zlib
from dataclasses import dataclass, field

import numpy as np

from ..cluster import Cluster, Placement
from ..gf import GFTables, get_tables
from ..live.transport import run_tasks
from ..metrics import TrafficLedger
from ..repair.plan import (
    CombineOp,
    OpSlice,
    PlanError,
    RepairPlan,
    SendOp,
    block_key,
    join_slices,
    op_from_dict,
)
from ..telemetry.distributed import TraceContext
from .messages import StoreError, StoreProtocolError, call

__all__ = [
    "stored_block_key",
    "block_crc",
    "NodeAssignment",
    "partition_plan",
    "plan_to_dict",
    "plan_from_dict",
    "plan_seed_blocks",
    "RepairSession",
    "ledger_from_reports",
]


def stored_block_key(stripe_id: int, block_id: int) -> str:
    """The daemon-store key of one committed stripe block."""
    return f"b:{stripe_id}:{block_id}"


def block_crc(payload: np.ndarray) -> int:
    """CRC-32 of a block payload, read in place.

    ``zlib.crc32`` takes any C-contiguous buffer, which every payload
    the store holds already is (arena rows, ``np.frombuffer`` views of a
    received frame), so nothing is copied; a strided array is made
    contiguous first.
    """
    return zlib.crc32(np.ascontiguousarray(payload)) & 0xFFFFFFFF


def _deserialize_op(data: dict) -> SendOp | CombineOp | OpSlice:
    try:
        return op_from_dict(data)
    except PlanError as exc:
        raise StoreProtocolError(str(exc)) from exc


def plan_to_dict(plan: RepairPlan) -> dict:
    """Serialize a whole plan for the wire (degraded-read delivery).

    The coordinator plans a degraded read server-side (it owns topology
    and scheme) and ships the plan to the client, which executes it
    locally on fetched helper blocks — see :mod:`repro.qos.degraded`.
    """
    return {
        "block_size": plan.block_size,
        "ops": [op.to_dict() for op in plan.ops.values()],
        "outputs": {
            str(bid): [node, key] for bid, (node, key) in plan.outputs.items()
        },
    }


def plan_from_dict(data: dict) -> RepairPlan:
    """Rebuild a :class:`RepairPlan` serialized by :func:`plan_to_dict`."""
    plan = RepairPlan(block_size=int(data["block_size"]))
    for op_data in data["ops"]:
        plan.add(_deserialize_op(op_data))
    for bid, (node, key) in data["outputs"].items():
        plan.mark_output(int(bid), int(node), key)
    return plan


def plan_seed_blocks(plan: RepairPlan) -> dict[int, int]:
    """The stripe blocks a plan reads but never produces: block id → node.

    These are the helper blocks a degraded-read client must fetch and
    place (at the named node, under :func:`repro.repair.plan.block_key`)
    before executing the plan locally.
    """
    produced = {op.writes for op in plan.ops.values()}
    required = {(op.owner, key) for op in plan.ops.values() for key in op.reads}
    seeds: dict[int, int] = {}
    for node, key in required - produced:
        prefix, _, bid = key.partition(":")
        if prefix != "block" or not bid.isdigit():
            raise StoreError(
                f"plan reads {key!r} on node {node}, which no op produces "
                f"and which is not a stripe block"
            )
        seeds[int(bid)] = node
    return seeds


@dataclass
class NodeAssignment:
    """Everything one daemon needs to play its part in one repair."""

    node: int
    #: the plan parts this node runs: whole ops, and slices of sliced ops.
    ops: list[SendOp | CombineOp | OpSlice] = field(default_factory=list)
    #: plan payload key -> committed store key, for blocks this node holds.
    seeds: dict[str, str] = field(default_factory=dict)
    #: outputs this node must commit: (block_id, plan keys holding the
    #: block in byte order, store key).
    outputs: list[tuple[int, tuple[str, ...], str]] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "node": self.node,
            "ops": [op.to_dict() for op in self.ops],
            "seeds": dict(self.seeds),
            "outputs": [[bid, list(keys), skey] for bid, keys, skey in self.outputs],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "NodeAssignment":
        return cls(
            node=int(data["node"]),
            ops=[_deserialize_op(o) for o in data["ops"]],
            seeds=dict(data["seeds"]),
            outputs=[
                (int(bid), tuple(keys), skey) for bid, keys, skey in data["outputs"]
            ],
        )


def partition_plan(
    plan: RepairPlan,
    placement: Placement,
    stripe_id: int,
    failed_blocks,
) -> dict[int, NodeAssignment]:
    """Split ``plan`` into per-daemon assignments.

    Every op lands at its owner (a send's source, a combine's node), as
    its :meth:`~repro.repair.RepairPlan.parts`.
    The partition is only sound if cross-node dependencies are carried
    by the data itself, so each remote dep is checked to be a send that
    delivers one of the dependent op's inputs to its owner; any other
    shape (e.g. a pure ordering edge between nodes) would need a control
    channel the service deliberately does not have, and raises
    :class:`StoreProtocolError` at planning time instead of deadlocking
    daemons at run time.
    """
    plan.validate()
    failed = set(failed_blocks)
    op_parts = plan.parts()
    parts: dict[int, NodeAssignment] = {}

    def part(node: int) -> NodeAssignment:
        found = parts.get(node)
        if found is None:
            found = parts[node] = NodeAssignment(node=node)
        return found

    for op in plan.ops.values():
        owner = op.owner
        for dep in op.deps:
            dep_op = plan.ops[dep]
            if dep_op.owner == owner:
                continue  # same daemon: ordinary local ordering
            landed_at, landed_key = dep_op.writes
            if landed_at == owner and landed_key in op.reads:
                continue  # the dependency IS the payload arrival
            raise StoreProtocolError(
                f"op {op.op_id!r} at node {owner} depends on remote op "
                f"{dep!r} that does not deliver any of its inputs; this "
                f"plan cannot run data-driven across daemons"
            )
        part(owner).ops.extend(op_parts[op.op_id])

    # Seed every holder of a surviving original block that the plan reads.
    read_keys = {key for op in plan.ops.values() for key in op.reads}
    for bid in range(placement.width):
        if bid in failed:
            continue
        key = block_key(bid)
        if key in read_keys:
            part(placement.node_of(bid)).seeds[key] = stored_block_key(stripe_id, bid)

    for bid, (node, _) in plan.outputs.items():
        part(node).outputs.append(
            (bid, plan.output_keys(bid), stored_block_key(stripe_id, bid))
        )
    return parts


def ledger_from_reports(cluster: Cluster, reports: list[dict]) -> TrafficLedger:
    """The traffic ledger of the sends in daemons' op reports."""
    ledger = TrafficLedger()
    for report in reports:
        if report["kind"] == SendOp.kind:
            ledger.add_send(
                cluster, int(report["src"]), int(report["dst"]), int(report["nbytes"])
            )
    return ledger


class RepairSession:
    """One repair's worth of work on one daemon.

    Owns the repair-scoped payload namespace, fires assigned ops as
    their inputs materialise, pushes sends to peer daemons as
    ``repair.block`` RPCs, and commits finished outputs into the
    daemon's block store.  ``deliver`` is the ingress the daemon calls
    for every inbound ``repair.block``; payloads may arrive *before*
    the session's assignment does (a fast peer), which is why the daemon
    buffers early arrivals and replays them into the session.
    """

    def __init__(
        self,
        rid: str,
        assignment: NodeAssignment,
        routing: dict[int, tuple[str, int]],
        *,
        block_size: int,
        tables: GFTables | None = None,
        rpc=call,
        recorder=None,
        throttle=None,
        ctx: TraceContext | None = None,
    ) -> None:
        self.rid = rid
        self.assignment = assignment
        self.routing = {int(nid): (host, int(port)) for nid, (host, port) in routing.items()}
        self.block_size = block_size
        self.tables = tables or get_tables()
        self.rpc = rpc
        self.rec = recorder if recorder else None
        #: Trace context of this daemon's repair span; every op span
        #: descends from it and every outbound ``repair.block`` carries a
        #: grandchild hop, so the assembled tree shows coordinator →
        #: daemon → op → peer daemon.  ``None`` = no propagation.
        self.ctx = ctx
        #: Optional pacing bucket (``await acquire(nbytes)``) charged
        #: before every outbound repair byte — the repair class of the
        #: daemon's QoS link split (docs/QOS.md).  ``None`` = unshaped.
        self.throttle = throttle
        self.payloads: dict[str, np.ndarray] = {}
        self._key_events: dict[str, asyncio.Event] = {}
        self._op_done: dict[str, asyncio.Event] = {
            op.op_id: asyncio.Event() for op in assignment.ops
        }
        self._local_ops = set(self._op_done)
        self.reports: list[dict] = []
        self.committed: list[dict] = []

    # -- payload plumbing ---------------------------------------------------

    def _event_for(self, key: str) -> asyncio.Event:
        event = self._key_events.get(key)
        if event is None:
            event = self._key_events[key] = asyncio.Event()
        return event

    def deliver(self, key: str, payload: np.ndarray) -> None:
        """An inbound payload (seed, repair.block, or combine output)."""
        self.payloads[key] = payload
        self._event_for(key).set()

    async def _await_key(self, key: str) -> np.ndarray:
        await self._event_for(key).wait()
        return self.payloads[key]

    # -- op execution -------------------------------------------------------

    async def _run_op(self, op: SendOp | CombineOp | OpSlice) -> None:
        for dep in op.deps:
            if dep in self._local_ops:
                await self._op_done[dep].wait()
        inputs = [await self._await_key(key) for key in op.reads]
        node, key = op.writes
        op_ctx = self.ctx.child() if self.ctx is not None else None
        span = op.span_attrs
        start = time.monotonic()
        payload = op.apply(inputs, self.tables)
        if node == op.owner:
            self.deliver(key, payload)
            facts = {"node": node, "out_key": key}
        else:
            try:
                host, port = self.routing[node]
            except KeyError:
                raise StoreError(
                    f"repair {self.rid}: send {op.op_id!r} targets node "
                    f"{node} with no route (dead or uninvolved daemon?)"
                ) from None
            payload = np.ascontiguousarray(payload)
            nbytes = int(payload.nbytes)
            if self.throttle is not None:
                await self.throttle.acquire(nbytes)
            kwargs = {"blob": payload.data}
            if op_ctx is not None:
                kwargs["ctx"] = op_ctx.child()
            start = time.monotonic()
            await self.rpc(
                host,
                port,
                "repair.block",
                {"rid": self.rid, "key": key},
                **kwargs,
            )
            facts = {"src": op.owner, "dst": node, "key": key, "nbytes": nbytes}
            span["nbytes"] = nbytes
        end = time.monotonic()
        self.reports.append(
            {"kind": op.kind, "op_id": op.op_id, **facts, "start": start, "end": end}
        )
        if self.rec is not None:
            self.rec.span(
                op.op_id, start, end, category="op", op_id=op.op_id, rid=self.rid,
                **span, **(op_ctx.attrs() if op_ctx is not None else {}),
            )
        self._op_done[op.op_id].set()

    async def _commit_output(self, block_id: int, keys, stored_key: str, blocks: dict) -> None:
        payload = join_slices([await self._await_key(key) for key in keys])
        blocks[stored_key] = payload
        self.committed.append(
            {
                "block_id": block_id,
                "stored_key": stored_key,
                "crc": block_crc(payload),
                "nbytes": int(payload.nbytes),
            }
        )

    async def run(self, blocks: dict, *, timeout: float) -> dict:
        """Execute every assigned op and commit outputs; returns the report.

        ``blocks`` is the daemon's committed store: seeds are read from
        it, rebuilt outputs land in it.  A deadline turns a stalled
        session (dead peer, partitioned plan bug) into a
        :class:`StoreError` naming the stuck ops — the distributed twin
        of the runtime's :class:`~repro.live.runtime.LiveTimeoutError`.
        """
        for key, stored_key in self.assignment.seeds.items():
            if stored_key in blocks:
                self.deliver(key, blocks[stored_key])
        tasks: dict[str, asyncio.Task] = {
            op.op_id: asyncio.ensure_future(self._run_op(op))
            for op in self.assignment.ops
        }
        for bid, keys, stored_key in self.assignment.outputs:
            tasks[f"commit:{bid}"] = asyncio.ensure_future(
                self._commit_output(bid, keys, stored_key, blocks)
            )
        stuck = await run_tasks(tasks, timeout)
        if stuck:
            raise StoreError(
                f"repair {self.rid} timed out after {timeout}s on node "
                f"{self.assignment.node}; unfinished: {stuck}"
            )
        return self.report()

    def report(self) -> dict:
        return {
            "node": self.assignment.node,
            "rid": self.rid,
            "reports": list(self.reports),
            "committed": list(self.committed),
        }
