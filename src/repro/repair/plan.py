"""Repair plans: the op-DAG every repair scheme emits, and what an op *is*.

A :class:`RepairPlan` describes a repair as a DAG of two op kinds over
named *payloads* (blocks and intermediate blocks):

* :class:`SendOp` — move a payload from one node to another.
* :class:`CombineOp` — GF-linear-combine payloads present on one node
  into a new payload (a partial or final decode).

The plan is the hinge of the whole library (DESIGN.md §3), and this
module is the only place that knows the two kinds apart.  Both expose
the same surface — ``owner`` (the node that runs the op), ``reads`` (the
payload keys it needs there), ``writes`` (the ``(node, key)`` its result
lands at; another node means the payload travels), :meth:`apply` (the
result, from the inputs), :meth:`to_job` (the simulator job),
``span_attrs`` (how traces name it) and :meth:`to_dict` — so every
interpreter of a plan (the simulator via
:meth:`RepairPlan.to_job_graph`, the byte executor, the live runtime,
the store's daemons, the symbolic composition tracker) drives ops
through that surface with its own clock and transport instead of
re-deriving op semantics.  A scheme therefore cannot report a repair
time for a plan that would not decode.

**Slices.**  An op with ``slices=s > 1`` works on its block in ``s``
byte ranges, one after another, so a chain of sliced ops pipelines at
sub-block granularity (ECPipe's repair pipelining).  What that means is
decided here and nowhere else: :meth:`RepairPlan.parts` hands every
driver, per op, the *parts* to run in its place — the op itself when
nothing is sliced, otherwise one :class:`OpSlice` per byte range, each
with the op surface above, its own id, resolved dependencies (slice *j*
waits for slice *j* of an equally sliced dependency, for the whole of
any other, and for its own slice *j − 1*) and resolved payload keys (a
payload written in slices is resident as ``key#j`` payloads; a whole
resident payload is read through a view).  A driver delivers a part's
result the way it delivers an op's.  :meth:`RepairPlan.output_keys` and
:func:`join_slices` turn a block rebuilt in slices back into one array;
:meth:`RepairPlan.ops_done` turns the parts a driver finished back into
the ops they complete.

Payload keys are strings; :func:`block_key` names original stripe blocks
and schemes mint their own keys for intermediates.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace
from typing import ClassVar, Iterable

import numpy as np

from ..cluster import Cluster
from ..gf import GFTables, linear_combine
from ..metrics import TrafficLedger
from ..rs import DecodeCostModel
from ..sim import ComputeJob, JobGraph, TransferJob

__all__ = [
    "PlanError",
    "SendOp",
    "CombineOp",
    "OpSlice",
    "RepairPlan",
    "block_key",
    "join_slices",
    "op_from_dict",
    "slice_bounds",
]


class PlanError(ValueError):
    """Raised for malformed repair plans."""


def block_key(block_id: int) -> str:
    """Payload key of an original stripe block."""
    return f"block:{block_id}"


def slice_bounds(nbytes: int, slices: int) -> list[tuple[int, int]]:
    """``[lo, hi)`` byte ranges cutting ``nbytes`` into ``slices`` parts.

    ``numpy.array_split`` sizes: the first ``nbytes % slices`` ranges are
    one byte longer, so any block size works with any slice count.
    """
    size, longer = divmod(nbytes, slices)
    bounds, lo = [], 0
    for index in range(slices):
        hi = lo + size + (index < longer)
        bounds.append((lo, hi))
        lo = hi
    return bounds


def join_slices(payloads) -> np.ndarray:
    """One array from a payload's parts in byte order (a lone part is returned as is)."""
    return payloads[0] if len(payloads) == 1 else np.concatenate(payloads)


def _slice_name(name: str, index: int) -> str:
    """Id of slice ``index`` of op ``name`` / key of slice ``index`` of payload ``name``."""
    return f"{name}#{index}"


def _check_slices(op) -> None:
    if op.slices < 1:
        raise PlanError(f"{op.kind} {op.op_id}: slices must be >= 1, got {op.slices}")


@dataclass(frozen=True)
class SendOp:
    """Move payload ``key`` from node ``src`` to node ``dst``, in ``slices`` byte ranges."""

    op_id: str
    src: int
    dst: int
    key: str
    deps: tuple[str, ...] = ()
    slices: int = 1

    kind: ClassVar[str] = "send"

    def __post_init__(self) -> None:
        if self.src == self.dst:
            raise PlanError(f"send {self.op_id}: src == dst == {self.src}")
        _check_slices(self)

    @property
    def op(self) -> "SendOp":
        """The plan op a part belongs to; an unsliced op is its own part."""
        return self

    @property
    def owner(self) -> int:
        return self.src

    @property
    def reads(self) -> tuple[str, ...]:
        return (self.key,)

    @property
    def writes(self) -> tuple[int, str]:
        return (self.dst, self.key)

    @property
    def span_attrs(self) -> dict:
        """How traces describe the op, in the simulator's job vocabulary."""
        return {"kind": "transfer", "node": self.src, "peer": self.dst}

    def apply(self, inputs, tables: GFTables | None = None):
        """The payload that travels: the one input, untouched."""
        return inputs[0]

    def to_job(
        self, block_size: int, cost_model: DecodeCostModel, prefix: str = "", extra_deps=()
    ) -> TransferJob:
        """A block-sized transfer; ``prefix`` namespaces the id and deps."""
        return TransferJob(
            job_id=prefix + self.op_id,
            src=self.src,
            dst=self.dst,
            nbytes=block_size,
            deps=tuple(prefix + dep for dep in self.deps) + tuple(extra_deps),
            tag=self.key,
        )

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "op_id": self.op_id,
            "src": self.src,
            "dst": self.dst,
            "key": self.key,
            "deps": list(self.deps),
            **({"slices": self.slices} if self.slices > 1 else {}),
        }


@dataclass(frozen=True)
class CombineOp:
    """Compute ``out_key = sum(coeff * payload)`` on ``node``.

    ``with_matrix_build`` marks the op that pays the decoding-matrix
    construction surcharge (§3.3); schemes set it on the final decode when
    the recovery equation needed ``M'^{-1}``.  ``slices`` computes the
    output in that many byte ranges, one after another.
    """

    op_id: str
    node: int
    out_key: str
    terms: tuple[tuple[str, int], ...]
    with_matrix_build: bool = False
    deps: tuple[str, ...] = ()
    slices: int = 1

    kind: ClassVar[str] = "combine"

    def __post_init__(self) -> None:
        if not self.terms:
            raise PlanError(f"combine {self.op_id}: no input terms")
        keys = self.reads
        if len(set(keys)) != len(keys):
            raise PlanError(f"combine {self.op_id}: duplicate input payload")
        if any(not 1 <= c <= 255 for _, c in self.terms):
            raise PlanError(f"combine {self.op_id}: coefficients must be in [1, 255]")
        if self.out_key in keys:
            raise PlanError(f"combine {self.op_id}: output aliases an input")
        _check_slices(self)

    @property
    def op(self) -> "CombineOp":
        """The plan op a part belongs to; an unsliced op is its own part."""
        return self

    @property
    def owner(self) -> int:
        return self.node

    @property
    def reads(self) -> tuple[str, ...]:
        return tuple(key for key, _ in self.terms)

    @property
    def writes(self) -> tuple[int, str]:
        return (self.node, self.out_key)

    @property
    def span_attrs(self) -> dict:
        """How traces describe the op, in the simulator's job vocabulary."""
        return {"kind": "compute", "node": self.node}

    def apply(self, inputs, tables: GFTables | None = None):
        """``sum(coeff * input)`` over GF(2^8), inputs in ``reads`` order.

        Works on anything :func:`repro.gf.linear_combine` does: block
        payloads, or length-``n`` composition vectors (symbolic runs).
        """
        return linear_combine([coeff for _, coeff in self.terms], inputs, tables)

    def to_job(
        self, block_size: int, cost_model: DecodeCostModel, prefix: str = "", extra_deps=()
    ) -> ComputeJob:
        """A compute job priced by ``cost_model`` (matrix build where flagged)."""
        return ComputeJob(
            job_id=prefix + self.op_id,
            node=self.node,
            seconds=cost_model.decode_time(
                block_size, with_matrix_build=self.with_matrix_build
            ),
            deps=tuple(prefix + dep for dep in self.deps) + tuple(extra_deps),
            tag=self.out_key,
        )

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "op_id": self.op_id,
            "node": self.node,
            "out_key": self.out_key,
            "terms": [[key, coeff] for key, coeff in self.terms],
            "mb": self.with_matrix_build,
            "deps": list(self.deps),
            **({"slices": self.slices} if self.slices > 1 else {}),
        }


@dataclass(frozen=True)
class OpSlice:
    """Bytes ``[lo, hi)`` of a sliced op — what a driver runs in the op's place.

    Has the op surface (``op_id``, ``deps``, ``owner``, ``reads``,
    ``writes``, :meth:`apply`, :meth:`to_job`, ``span_attrs``,
    :meth:`to_dict`), so a driver runs and delivers a slice exactly as it
    runs and delivers an op.  Built by :meth:`RepairPlan.parts`, which
    resolves everything that needs the rest of the plan:

    ``deps``
        Ids of the parts this slice waits for.
    ``sliced_reads``
        Which of ``op.reads`` are resident at the owner as slice payloads
        (read as ``key#index``); the others are whole payloads, read
        through a ``[lo:hi]`` view.
    """

    op: SendOp | CombineOp
    index: int
    lo: int
    hi: int
    deps: tuple[str, ...]
    sliced_reads: frozenset[str] = frozenset()

    @property
    def op_id(self) -> str:
        return _slice_name(self.op.op_id, self.index)

    @property
    def kind(self) -> str:
        return self.op.kind

    @property
    def owner(self) -> int:
        return self.op.owner

    @property
    def reads(self) -> tuple[str, ...]:
        return tuple(
            _slice_name(key, self.index) if key in self.sliced_reads else key
            for key in self.op.reads
        )

    @property
    def writes(self) -> tuple[int, str]:
        node, key = self.op.writes
        return (node, _slice_name(key, self.index))

    @property
    def span_attrs(self) -> dict:
        """The op's attributes plus which slice of it this is."""
        return {
            **self.op.span_attrs,
            "op": self.op.op_id,
            "slice": self.index,
            "slices": self.op.slices,
        }

    def apply(self, inputs, tables: GFTables | None = None):
        """The op's result over this slice's bytes, inputs in ``reads`` order."""
        window = slice(self.lo, self.hi)
        return self.op.apply(
            [
                payload if key in self.sliced_reads else payload[window]
                for key, payload in zip(self.op.reads, inputs)
            ],
            tables,
        )

    def to_job(
        self, block_size: int, cost_model: DecodeCostModel, prefix: str = "", extra_deps=()
    ) -> TransferJob | ComputeJob:
        """The op's job over ``hi - lo`` bytes, chained by ``deps``.

        A combine's matrix-build surcharge is a per-op cost: slice 0
        carries all of it, the rest decode at the plain rate, and the
        slices sum to the unsliced op's duration.
        """
        nbytes = self.hi - self.lo
        job = replace(
            self.op.to_job(nbytes, cost_model),
            job_id=prefix + self.op_id,
            deps=tuple(prefix + dep for dep in self.deps) + tuple(extra_deps),
        )
        if isinstance(job, ComputeJob) and self.op.with_matrix_build:
            seconds = cost_model.time_without_build(nbytes)
            if self.index == 0:
                seconds += cost_model.time_with_build(
                    block_size
                ) - cost_model.time_without_build(block_size)
            job = replace(job, seconds=seconds)
        return job

    def to_dict(self) -> dict:
        return {
            "kind": "slice",
            "of": self.op.to_dict(),
            "index": self.index,
            "lo": self.lo,
            "hi": self.hi,
            "deps": list(self.deps),
            "sliced_reads": sorted(self.sliced_reads),
        }


def op_from_dict(data: dict) -> SendOp | CombineOp | OpSlice:
    """Rebuild an op (or a slice of one) serialized by its ``to_dict``."""
    kind = data.get("kind")
    if kind == SendOp.kind:
        return SendOp(
            op_id=data["op_id"],
            src=int(data["src"]),
            dst=int(data["dst"]),
            key=data["key"],
            deps=tuple(data["deps"]),
            slices=int(data.get("slices", 1)),
        )
    if kind == CombineOp.kind:
        return CombineOp(
            op_id=data["op_id"],
            node=int(data["node"]),
            out_key=data["out_key"],
            terms=tuple((key, int(coeff)) for key, coeff in data["terms"]),
            with_matrix_build=bool(data.get("mb", False)),
            deps=tuple(data["deps"]),
            slices=int(data.get("slices", 1)),
        )
    if kind == "slice":
        if data["of"].get("kind") == "slice":
            raise PlanError("a slice of a slice")
        return OpSlice(
            op=op_from_dict(data["of"]),
            index=int(data["index"]),
            lo=int(data["lo"]),
            hi=int(data["hi"]),
            deps=tuple(data["deps"]),
            sliced_reads=frozenset(data["sliced_reads"]),
        )
    raise PlanError(f"unknown op kind {kind!r}")


@dataclass
class RepairPlan:
    """A complete repair: ops plus the mapping of outputs to targets.

    Attributes
    ----------
    block_size:
        Bytes per block (every payload in a repair is block-sized, incl.
        intermediates — §3.1).
    ops:
        Op id → op, insertion-ordered.
    outputs:
        Failed block id → ``(recovery_node, payload_key)`` where the
        reconstructed bytes must end up.
    """

    block_size: int
    ops: dict[str, SendOp | CombineOp] = field(default_factory=dict)
    outputs: dict[int, tuple[int, str]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.block_size < 1:
            raise PlanError(f"block_size must be positive, got {self.block_size}")

    # -- construction -------------------------------------------------------

    def add(self, op: SendOp | CombineOp) -> str:
        if op.op_id in self.ops:
            raise PlanError(f"duplicate op id {op.op_id!r}")
        self.ops[op.op_id] = op
        return op.op_id

    def add_send(
        self, op_id: str, src: int, dst: int, key: str, deps=(), slices: int = 1
    ) -> str:
        return self.add(
            SendOp(op_id=op_id, src=src, dst=dst, key=key, deps=tuple(deps), slices=slices)
        )

    def add_combine(
        self,
        op_id: str,
        node: int,
        out_key: str,
        terms: Iterable[tuple[str, int]],
        with_matrix_build: bool = False,
        deps=(),
        slices: int = 1,
    ) -> str:
        return self.add(
            CombineOp(
                op_id=op_id,
                node=node,
                out_key=out_key,
                terms=tuple(terms),
                with_matrix_build=with_matrix_build,
                deps=tuple(deps),
                slices=slices,
            )
        )

    def mark_output(self, block_id: int, node: int, key: str) -> None:
        if block_id in self.outputs:
            raise PlanError(f"output for block {block_id} already marked")
        self.outputs[block_id] = (node, key)

    # -- introspection ------------------------------------------------------

    def sends(self) -> list[SendOp]:
        return [op for op in self.ops.values() if isinstance(op, SendOp)]

    def combines(self) -> list[CombineOp]:
        return [op for op in self.ops.values() if isinstance(op, CombineOp)]

    def topo_order(self) -> list[str]:
        """Op ids in dependency order, insertion order among ready ops.

        The one order every interpreter that runs ops one at a time uses
        (byte executor, symbolic compositions), and the plan's cycle check.
        """
        indeg = {oid: len(set(op.deps)) for oid, op in self.ops.items()}
        children: dict[str, list[str]] = {oid: [] for oid in self.ops}
        for oid, op in self.ops.items():
            for dep in set(op.deps):
                children[dep].append(oid)
        order: list[str] = []
        ready = deque(oid for oid in self.ops if indeg[oid] == 0)
        while ready:
            oid = ready.popleft()
            order.append(oid)
            for child in children[oid]:
                indeg[child] -= 1
                if indeg[child] == 0:
                    ready.append(child)
        if len(order) != len(self.ops):
            raise PlanError("plan has a dependency cycle")
        return order

    def validate(self) -> list[str]:
        """Structural checks: dep integrity, outputs, slicing, acyclicity.

        Returns :meth:`topo_order`, which is what finds a cycle.
        """
        for op in self.ops.values():
            for dep in op.deps:
                if dep not in self.ops:
                    raise PlanError(f"op {op.op_id!r} depends on unknown {dep!r}")
        if not self.outputs:
            raise PlanError("plan reconstructs nothing (no outputs marked)")
        self._sliced_payloads()
        return self.topo_order()

    def traffic(self, cluster: Cluster) -> TrafficLedger:
        """The bytes this plan moves when every op runs exactly once.

        A sliced send is one send per slice, as in every driver's ledger.
        """
        ledger = TrafficLedger()
        for op in self.sends():
            for lo, hi in slice_bounds(self.block_size, op.slices):
                ledger.add_send(cluster, op.src, op.dst, hi - lo)
        return ledger

    # -- slices ---------------------------------------------------------------

    @property
    def slices(self) -> int:
        """The largest slice count of any op (1 = a whole-block plan)."""
        return max((op.slices for op in self.ops.values()), default=1)

    def _sliced_payloads(self) -> dict[tuple[int, str], int]:
        """``(node, key)`` → slice count of every payload written in slices.

        Raises :class:`PlanError` where slicing cannot be honoured: more
        slices than bytes, or a payload written in ``s`` slices and read
        by an op not sliced the same way (a slice has no whole to read).
        """
        sliced = {op.writes: op.slices for op in self.ops.values() if op.slices > 1}
        if not sliced:
            return sliced
        for op in self.ops.values():
            if op.slices > self.block_size:
                raise PlanError(
                    f"{op.kind} {op.op_id}: {op.slices} slices of a "
                    f"{self.block_size}-byte block"
                )
            for key in op.reads:
                written = sliced.get((op.owner, key), op.slices)
                if written != op.slices:
                    raise PlanError(
                        f"{op.kind} {op.op_id} ({op.slices} slices) reads {key!r}, "
                        f"which node {op.owner} receives in {written} slices"
                    )
        return sliced

    def parts(self) -> dict[str, tuple[SendOp | CombineOp | OpSlice, ...]]:
        """Op id → the parts a driver runs in that op's place, in byte order.

        An unsliced op is its own single part (with its dependencies
        pointed at the last slice of any sliced op it waits for); an op
        with ``slices=s`` becomes ``s`` chained :class:`OpSlice` parts.
        Part ids are the simulator's job ids, the live runtime's timing
        ids and the telemetry join key.
        """
        sliced = self._sliced_payloads()
        if not sliced:
            return {oid: (op,) for oid, op in self.ops.items()}
        last = {
            oid: _slice_name(oid, op.slices - 1) if op.slices > 1 else oid
            for oid, op in self.ops.items()
        }
        parts: dict[str, tuple] = {}
        for oid, op in self.ops.items():
            if op.slices == 1:
                deps = tuple(last[dep] for dep in op.deps)
                parts[oid] = (op if deps == op.deps else replace(op, deps=deps),)
                continue
            reads = frozenset(key for key in op.reads if (op.owner, key) in sliced)
            chain = []
            for index, (lo, hi) in enumerate(slice_bounds(self.block_size, op.slices)):
                deps = tuple(
                    _slice_name(dep, index)
                    if self.ops[dep].slices == op.slices
                    else last[dep]
                    for dep in op.deps
                )
                if index:
                    deps += (chain[-1].op_id,)
                chain.append(OpSlice(op, index, lo, hi, deps, reads))
            parts[oid] = tuple(chain)
        return parts

    def all_parts(self) -> Iterable[SendOp | CombineOp | OpSlice]:
        """Every part, op by op in insertion order — what a compiler walks.

        A plan that slices nothing is walked as its ops, building nothing.
        """
        if self.slices == 1:
            return self.ops.values()
        return [part for chain in self.parts().values() for part in chain]

    def ops_done(self, part_ids) -> set[str]:
        """Ids of the ops all of whose :meth:`parts` are in ``part_ids``.

        ``part_ids`` is what a driver reports finished (the engine's job
        ids).  When a driver honours part dependencies the result is
        dependency-closed: an op's last part waits, directly or through
        its own earlier slices, for the last part of every dependency.
        """
        done = set(part_ids)
        return {
            oid
            for oid, chain in self.parts().items()
            if all(part.op_id in done for part in chain)
        }

    def output_keys(self, block_id: int) -> tuple[str, ...]:
        """Keys, in byte order, holding rebuilt ``block_id`` at its recovery node.

        The marked output key, or its slice keys when a sliced op writes
        it; :func:`join_slices` of their payloads is the block.
        """
        node, key = self.outputs[block_id]
        count = self._sliced_payloads().get((node, key), 1)
        if count == 1:
            return (key,)
        return tuple(_slice_name(key, index) for index in range(count))

    # -- compilation ----------------------------------------------------------

    def to_job_graph(self, cost_model: DecodeCostModel) -> JobGraph:
        """Compile to simulator jobs, one per part.

        Sends become transfers of the part's bytes; combines become
        compute jobs whose duration comes from ``cost_model`` (with the
        matrix-build factor applied where flagged).
        """
        self.validate()
        graph = JobGraph()
        for part in self.all_parts():
            graph.add(part.to_job(self.block_size, cost_model))
        return graph
