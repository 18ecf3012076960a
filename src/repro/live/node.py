"""The per-node repair executor: one node's plan parts, on the wall clock.

The paper's testbed and ECPipe run one helper agent per node, which
executes that node's share of a repair and forwards results as they
arrive.  :class:`NodeExecutor` is that agent and the only code that runs
plan parts on the wall clock: :func:`repro.live.run_plan_live` runs one
per node in one process, and every store daemon runs one per repair
behind RPC (:class:`repro.store.repair.RepairSession`).
"""

from __future__ import annotations

import asyncio
from contextlib import nullcontext

import numpy as np

from ..gf import GFTables, get_tables
from ..repair.executor import run_op
from ..repair.plan import PlanError, RepairPlan
from ..telemetry.distributed import TraceContext
from ..telemetry.model import OP_CATEGORY, TelemetryRecorder

__all__ = ["NodeExecutor", "split_by_owner"]


def split_by_owner(plan: RepairPlan) -> dict[int, list]:
    """Node → the parts it runs, op by op in plan order (a send runs at
    its source, a combine at its node).

    Raises :class:`~repro.repair.PlanError` unless every cross-node
    dependency is the send that delivers one of the dependent op's
    inputs: a payload's arrival is the only signal that crosses nodes.
    """
    plan.validate()
    parts = plan.parts()
    owned: dict[int, list] = {}
    for op in plan.ops.values():
        inputs = {(op.owner, key) for key in op.reads}
        for dep in op.deps:
            dep_op = plan.ops[dep]
            if dep_op.owner != op.owner and dep_op.writes not in inputs:
                raise PlanError(
                    f"op {op.op_id!r} at node {op.owner} depends on remote op "
                    f"{dep!r} that does not deliver any of its inputs; this "
                    f"plan cannot run data-driven across nodes"
                )
        owned.setdefault(op.owner, []).extend(parts[op.op_id])
    return owned


class NodeExecutor:
    """Runs one node's parts of ``plan`` as their inputs arrive.

    ``payloads`` is the node's key → payload map, ``arrivals`` the keys
    still to come: sent by other nodes (:meth:`deliver`), or computed
    here and awaited by :meth:`payload`.  Each op is one task
    (:meth:`run_parts`) working through its parts in byte order: a part
    waits for its same-node dependencies and its arrivals, then computes
    with :func:`~repro.repair.run_op`, so an input neither here nor on
    its way fails it at once.  A combine holds ``("cpu", node)`` and keeps
    its result here; a send holds ``("up", node)`` and ``("down", dst)``
    (claims from the shared ``ports`` registry, if any) and goes out
    through the op's :meth:`channel`.  Each part appends one report
    (``kind``, ``op_id``, ``src``/``dst``/``key``/``nbytes`` or
    ``node``/``out_key``, ``start``/``end`` on the loop's clock) and, given a
    ``recorder``, one op span (``attrs`` added, a child of ``ctx``) over
    its wait phases and its channel's.
    """

    def __init__(
        self,
        plan: RepairPlan,
        node: int,
        parts: list,
        *,
        payloads: dict[str, np.ndarray],
        arrivals,
        connect=None,
        tables: GFTables | None = None,
        ports=None,
        recorder: TelemetryRecorder | None = None,
        ctx: TraceContext | None = None,
        attrs: dict | None = None,
    ) -> None:
        self.plan = plan
        self.node = node
        self.payloads = payloads
        self.connect = connect
        self.tables = tables or get_tables()
        self.hold = ports.hold if ports is not None else lambda *_: nullcontext()
        # A falsy recorder (NULL_RECORDER) collapses to None, so every
        # emission site is a single identity check when telemetry is off.
        self.rec = recorder if recorder else None
        self.ctx = ctx
        self.attrs = attrs or {}
        #: op id → its parts here, in byte order.
        self.ops: dict[str, list] = {}
        for part in parts:
            self.ops.setdefault(part.op.op_id, []).append(part)
        # Seeds are in ``payloads`` from the start; a key neither there
        # nor among the arrivals is missing.
        self._ready = {key: asyncio.Event() for key in arrivals}
        self._done = {part.op_id: asyncio.Event() for part in parts}
        self.reports: list[dict] = []

    def deliver(self, key: str, payload: np.ndarray) -> None:
        """Store a payload here: an arrival, or a combine's result."""
        self.payloads[key] = payload
        if key in self._ready:
            self._ready[key].set()

    async def payload(self, key: str) -> np.ndarray:
        """``key``'s payload, once it has arrived or been computed here."""
        if key in self._ready:
            await self._ready[key].wait()
        return self.payloads[key]

    def channel(self, dst: int):
        """``connect(node, dst)``: entered once per sent op, it yields
        ``await send(part_id, key, payload, ctx)`` → ``(phase, start, end)``
        spans."""
        return self.connect(self.node, dst)

    async def run_parts(self, op_id: str) -> None:
        """Execute op ``op_id``'s parts here, one after another."""
        parts = self.ops[op_id]
        dst = parts[0].writes[0]
        channel = nullcontext() if dst == self.node else self.channel(dst)
        clock = asyncio.get_running_loop().time
        async with channel as send:
            for part in parts:
                t_spawn = clock()
                for dep in part.deps:
                    if dep in self._done:
                        await self._done[dep].wait()
                for key in part.reads:
                    if key in self._ready:
                        await self._ready[key].wait()
                oid, key = part.op_id, part.writes[1]
                ctx = self.ctx.child() if self.ctx is not None else None
                if send is None:
                    t_ready = clock()
                    async with self.hold(("cpu", dst)):
                        start = clock()
                        # The GF pass is one C-speed numpy call; yield once
                        # around it so other tasks are not starved at
                        # combine-heavy moments.
                        await asyncio.sleep(0)
                        self.deliver(key, run_op(self.plan, part, self.payloads, self.tables))
                        end = clock()
                    facts = {"node": dst, "out_key": key}
                    phases = [("combine.dep_wait", t_spawn, t_ready),
                              ("combine.cpu_wait", t_ready, start)]
                else:
                    payload = np.ascontiguousarray(
                        run_op(self.plan, part, self.payloads, self.tables)
                    )
                    facts = {"src": self.node, "dst": dst, "key": key, "nbytes": payload.nbytes}
                    t_ready = clock()
                    async with self.hold(("up", self.node), ("down", dst)):
                        start = clock()
                        sent = await send(oid, key, payload, ctx)
                        end = clock()
                    phases = [("send.dep_wait", t_spawn, t_ready),
                              ("send.port_wait", t_ready, start), *sent]
                self.reports.append(
                    {"kind": part.kind, "op_id": oid, **facts, "start": start, "end": end}
                )
                self._done[oid].set()
                if self.rec is not None:
                    attrs = {**part.span_attrs, **self.attrs}
                    if send is not None:
                        attrs["nbytes"] = facts["nbytes"]
                    if ctx is not None:
                        attrs.update(ctx.attrs())
                    self.rec.span(oid, start, end, category=OP_CATEGORY, op_id=oid, **attrs)
                    for name, t0, t1 in phases:
                        self.rec.span(name, t0, t1, op_id=oid, parent=oid)
