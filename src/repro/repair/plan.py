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

Payload keys are strings; :func:`block_key` names original stripe blocks
and schemes mint their own keys for intermediates.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import ClassVar, Iterable

from ..cluster import Cluster
from ..gf import GFTables, linear_combine
from ..metrics import TrafficLedger
from ..rs import DecodeCostModel
from ..sim import ComputeJob, JobGraph, TransferJob

__all__ = [
    "PlanError",
    "SendOp",
    "CombineOp",
    "RepairPlan",
    "block_key",
    "op_from_dict",
]


class PlanError(ValueError):
    """Raised for malformed repair plans."""


def block_key(block_id: int) -> str:
    """Payload key of an original stripe block."""
    return f"block:{block_id}"


@dataclass(frozen=True)
class SendOp:
    """Move payload ``key`` from node ``src`` to node ``dst``."""

    op_id: str
    src: int
    dst: int
    key: str
    deps: tuple[str, ...] = ()

    kind: ClassVar[str] = "send"

    def __post_init__(self) -> None:
        if self.src == self.dst:
            raise PlanError(f"send {self.op_id}: src == dst == {self.src}")

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
        }


@dataclass(frozen=True)
class CombineOp:
    """Compute ``out_key = sum(coeff * payload)`` on ``node``.

    ``with_matrix_build`` marks the op that pays the decoding-matrix
    construction surcharge (§3.3); schemes set it on the final decode when
    the recovery equation needed ``M'^{-1}``.
    """

    op_id: str
    node: int
    out_key: str
    terms: tuple[tuple[str, int], ...]
    with_matrix_build: bool = False
    deps: tuple[str, ...] = ()

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
        }


def op_from_dict(data: dict) -> SendOp | CombineOp:
    """Rebuild an op serialized by its ``to_dict``."""
    if data.get("kind") == SendOp.kind:
        return SendOp(
            op_id=data["op_id"],
            src=int(data["src"]),
            dst=int(data["dst"]),
            key=data["key"],
            deps=tuple(data["deps"]),
        )
    if data.get("kind") == CombineOp.kind:
        return CombineOp(
            op_id=data["op_id"],
            node=int(data["node"]),
            out_key=data["out_key"],
            terms=tuple((key, int(coeff)) for key, coeff in data["terms"]),
            with_matrix_build=bool(data.get("mb", False)),
            deps=tuple(data["deps"]),
        )
    raise PlanError(f"unknown op kind {data.get('kind')!r}")


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

    def add_send(self, op_id: str, src: int, dst: int, key: str, deps=()) -> str:
        return self.add(SendOp(op_id=op_id, src=src, dst=dst, key=key, deps=tuple(deps)))

    def add_combine(
        self,
        op_id: str,
        node: int,
        out_key: str,
        terms: Iterable[tuple[str, int]],
        with_matrix_build: bool = False,
        deps=(),
    ) -> str:
        return self.add(
            CombineOp(
                op_id=op_id,
                node=node,
                out_key=out_key,
                terms=tuple(terms),
                with_matrix_build=with_matrix_build,
                deps=tuple(deps),
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
        """Structural checks: dep integrity, outputs, acyclicity.

        Returns :meth:`topo_order`, which is what finds a cycle.
        """
        for op in self.ops.values():
            for dep in op.deps:
                if dep not in self.ops:
                    raise PlanError(f"op {op.op_id!r} depends on unknown {dep!r}")
        if not self.outputs:
            raise PlanError("plan reconstructs nothing (no outputs marked)")
        return self.topo_order()

    def traffic(self, cluster: Cluster) -> TrafficLedger:
        """The bytes this plan moves when every op runs exactly once."""
        ledger = TrafficLedger()
        for op in self.sends():
            ledger.add_send(cluster, op.src, op.dst, self.block_size)
        return ledger

    # -- compilation ----------------------------------------------------------

    def to_job_graph(self, cost_model: DecodeCostModel) -> JobGraph:
        """Compile to simulator jobs.

        Sends become block-sized transfers; combines become compute jobs
        whose duration comes from ``cost_model`` (with the matrix-build
        factor applied where flagged).
        """
        self.validate()
        graph = JobGraph()
        for op in self.ops.values():
            graph.add(op.to_job(self.block_size, cost_model))
        return graph
