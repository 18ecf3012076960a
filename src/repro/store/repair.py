"""Distributed repair: partition a plan across daemons, execute locally.

The coordinator *partitions* a :class:`repro.repair.RepairPlan` by
owner: each daemon receives only the parts it owns (a sliced op arrives
as its slices) and runs them in a :class:`RepairSession`, the per-node
executor (:class:`repro.live.node.NodeExecutor`) behind RPC.  Repair
bytes travelling daemon→daemon double as the dependency tokens, exactly
like the paper's testbed where pipelining emerges from data arrival.
The coordinator's :class:`~repro.metrics.TrafficLedger` for a repair is
built from the daemons' part reports and compared with ``==`` against
the simulator's ledger for the same plan — the service-path half of the
live cross-validation story.
"""

from __future__ import annotations

import asyncio
import zlib
from contextlib import asynccontextmanager
from dataclasses import dataclass, field

import numpy as np

from ..cluster import Placement
from ..live.node import NodeExecutor, split_by_owner
from ..live.transport import run_tasks
from ..metrics import ledger_from_reports
from ..repair.executor import ExecutionError
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
from .messages import NotFound, StoreError, StoreProtocolError, Unavailable, call

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
    locally on fetched helper blocks — ``StoreClient.get(degraded=True)``.
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

    Every op lands at its owner as its parts, by the live runtime's
    :func:`~repro.live.node.split_by_owner`: a plan whose cross-node
    dependency delivers no input (it would need a control channel the
    service deliberately does not have) raises
    :class:`StoreProtocolError` here instead of deadlocking daemons.
    """
    try:
        owned = split_by_owner(plan)
    except PlanError as exc:
        raise StoreProtocolError(str(exc)) from exc
    failed = set(failed_blocks)
    parts = {node: NodeAssignment(node=node, ops=ops) for node, ops in owned.items()}

    def part(node: int) -> NodeAssignment:
        return parts.setdefault(node, NodeAssignment(node=node))

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


class RepairSession(NodeExecutor):
    """One repair's worth of work on one daemon: the per-node executor
    behind RPC.  Seeds come from the daemon's committed blocks, sends go
    to peers as ``repair.block`` RPCs through ``rpc``, and outputs are
    committed with their CRC.  ``deliver`` is the ingress for every
    inbound ``repair.block`` (the daemon buffers payloads that beat the
    assignment and replays them).  A daemon is shipped only its own ops,
    so a missing-payload error names the part's position among those.
    """

    def __init__(
        self,
        rid: str,
        assignment: NodeAssignment,
        routing: dict[int, tuple[str, int]],
        *,
        block_size: int,
        rpc=call,
        recorder=None,
        throttle=None,
        ctx: TraceContext | None = None,
    ) -> None:
        self.rid = rid
        self.assignment = assignment
        self.routing = {int(nid): (host, int(port)) for nid, (host, port) in routing.items()}
        self.rpc = rpc
        #: Optional pacing callable (``await throttle(nbytes)``) charged
        #: before every outbound repair byte — the repair class of the
        #: daemon's QoS link split (docs/QOS.md).  ``None`` = unshaped.
        self.throttle = throttle
        self.committed: list[dict] = []
        parts = assignment.ops
        # A key a part or an output reads that no seed provides is
        # computed here or sent by a peer.
        reads = {key for part in parts for key in part.reads}
        reads.update(key for _, keys, _ in assignment.outputs for key in keys)
        # Every op span descends from this daemon's repair span (``ctx``)
        # and every outbound repair.block carries a grandchild hop, so the
        # assembled tree shows coordinator → daemon → op → peer daemon.
        super().__init__(
            RepairPlan(block_size=block_size, ops={part.op.op_id: part.op for part in parts}),
            assignment.node, parts, payloads={}, arrivals=reads - set(assignment.seeds),
            recorder=recorder, ctx=ctx, attrs={"rid": rid},
        )

    @asynccontextmanager
    async def channel(self, dst: int):
        """Sends to one peer: a ``repair.block`` RPC per part through
        ``rpc``, charged first to the daemon's repair share of its NIC."""
        if dst not in self.routing:
            raise Unavailable(
                f"repair {self.rid}: node {self.node} sends to node {dst}, which has "
                f"no route (dead or uninvolved daemon?)"
            )
        host, port = self.routing[dst]

        clock = asyncio.get_running_loop().time

        async def send(op_id: str, key: str, payload: np.ndarray, ctx):
            start = clock()
            if self.throttle is not None:
                await self.throttle(int(payload.nbytes))
            kwargs = {"blob": payload.data}
            if ctx is not None:
                kwargs["ctx"] = ctx.child()
            await self.rpc(host, port, "repair.block", {"rid": self.rid, "key": key}, **kwargs)
            return [("send.rpc", start, clock())]

        yield send

    async def _commit_output(self, block_id: int, keys, stored_key: str, blocks: dict) -> None:
        payload = join_slices([await self.payload(key) for key in keys])
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
        """Execute every assigned part and commit outputs; returns the report.

        ``blocks`` is the daemon's committed store: seeds are read from
        it, rebuilt outputs land in it.  A seed it no longer holds (a
        racing ``rm``, a loss) fails the part that reads it at once, as a
        :class:`NotFound` naming the stored key.  A deadline turns a
        stalled session (dead peer, partitioned plan bug) into an
        :class:`Unavailable` naming the stuck ops — the distributed twin of
        the runtime's :class:`~repro.live.runtime.LiveTimeoutError`.
        """
        node, seeds = self.assignment.node, self.assignment.seeds
        self.payloads.update({key: blocks[held] for key, held in seeds.items() if held in blocks})
        tasks = {oid: asyncio.ensure_future(self.run_parts(oid)) for oid in self.ops}
        for bid, keys, stored_key in self.assignment.outputs:
            tasks[f"commit:{bid}"] = asyncio.ensure_future(
                self._commit_output(bid, keys, stored_key, blocks)
            )
        try:
            stuck = await run_tasks(tasks, timeout)
        except ExecutionError as exc:
            absent = {key: held for key, held in seeds.items() if key not in self.payloads}
            lost = f"; seed blocks not held here: {absent}" if absent else ""
            raise NotFound(f"repair {self.rid} failed on node {node}: {exc}{lost}") from exc
        if stuck:
            raise Unavailable(
                f"repair {self.rid} timed out after {timeout}s on node "
                f"{node}; unfinished: {stuck}"
            )
        return {
            "node": node,
            "rid": self.rid,
            "reports": list(self.reports),
            "committed": list(self.committed),
        }
