"""Concrete plan execution on real byte buffers, and the op step it shares.

This module is the correctness oracle: it executes a :class:`RepairPlan`
against a per-node payload store, performing every send as a copy between
node stores and every combine as a GF linear combination.  A plan passes
only if every declared output payload exists at its recovery node — and
integration tests additionally check the bytes equal the lost originals.

:func:`run_op` (one op's result from its owner's payloads, or the pinned
missing-payload diagnostic) and :func:`collect_outputs` are the steps
every interpreter that touches payloads shares: this executor, the
wall-clock one (:class:`repro.live.node.NodeExecutor`) and the symbolic
composition tracker differ only in clock and transport.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..cluster import Cluster, Placement
from ..metrics import TrafficLedger
from ..rs import Stripe
from .plan import CombineOp, OpSlice, RepairPlan, SendOp, block_key, join_slices

__all__ = [
    "ExecutionError",
    "ExecutionResult",
    "collect_outputs",
    "execute_plan",
    "initial_store_for",
    "missing_payload_message",
    "run_op",
]


class ExecutionError(RuntimeError):
    """Raised when a plan references payloads that do not exist when needed."""


def missing_payload_message(
    kind: str, op_id: str, op_index: int, op_count: int, missing, node: int
) -> str:
    """Message shape shared by every plan interpreter.

    Always names the *full* set of missing payload keys and the op's
    position in the plan, so an aborted run can be diagnosed without
    replaying it (the shape is pinned in ``tests/repair/test_executor.py``).
    """
    return (
        f"{kind} {op_id!r} (op {op_index + 1}/{op_count}): "
        f"missing payloads {sorted(missing)} on node {node}"
    )


@dataclass
class ExecutionResult:
    """Outcome of a concrete plan execution.

    Attributes
    ----------
    recovered:
        Failed block id → reconstructed payload.
    ledger:
        Bytes moved by the executed sends — the concrete counterpart of
        the simulator's :class:`~repro.metrics.TrafficLedger` (they must
        be ``==``; tests enforce it).
    combine_count:
        Number of (partial) decodes performed.
    """

    recovered: dict[int, np.ndarray]
    ledger: TrafficLedger = field(default_factory=TrafficLedger)
    combine_count: int = 0

    def to_dict(self) -> dict:
        """JSON-serializable summary (payload bytes omitted)."""
        return {
            "recovered_blocks": sorted(self.recovered),
            "combine_count": self.combine_count,
            **self.ledger.to_dict(),
        }


def initial_store_for(
    stripe: Stripe, placement: Placement, failed_blocks
) -> dict[int, dict[str, np.ndarray]]:
    """Build the per-node payload store before repair starts.

    Every surviving block's payload sits on its placement node; failed
    blocks contribute nothing (their bytes are gone).
    """
    failed = set(failed_blocks)
    store: dict[int, dict[str, np.ndarray]] = {}
    for bid in stripe.block_ids():
        if bid in failed:
            continue
        node = placement.node_of(bid)
        store.setdefault(node, {})[block_key(bid)] = stripe.get_payload(bid)
    return store


def run_op(
    plan: RepairPlan,
    op: SendOp | CombineOp | OpSlice,
    payloads: dict[str, np.ndarray],
):
    """The payload ``op`` produces from ``payloads``, its owner's key → payload map.

    ``op`` is an op of ``plan`` or one of its :meth:`RepairPlan.parts`.
    The caller delivers the result to ``op.writes`` by its own transport.

    Raises
    ------
    ExecutionError
        Naming every key in ``op.reads`` that ``payloads`` lacks
        (:func:`missing_payload_message`).
    """
    missing = [key for key in op.reads if key not in payloads]
    if missing:
        raise ExecutionError(
            missing_payload_message(
                op.kind,
                op.op_id,
                list(plan.ops).index(op.op.op_id),
                len(plan.ops),
                missing,
                op.owner,
            )
        )
    return op.apply([payloads[key] for key in op.reads])


def collect_outputs(
    plan: RepairPlan, store: dict[int, dict[str, np.ndarray]]
) -> dict[int, np.ndarray]:
    """Failed block id → payload, from where the plan declared its outputs.

    Raises
    ------
    ExecutionError
        If a declared output is not at its recovery node.
    """
    recovered = {}
    for block_id, (node, _) in plan.outputs.items():
        node_store = store.get(node, {})
        keys = plan.output_keys(block_id)
        for key in keys:
            if key not in node_store:
                raise ExecutionError(
                    f"output for block {block_id}: payload {key!r} missing on node {node}"
                )
        recovered[block_id] = join_slices([node_store[key] for key in keys])
    return recovered


def execute_plan(
    plan: RepairPlan,
    cluster: Cluster,
    store: dict[int, dict[str, np.ndarray]],
    ops=None,
) -> ExecutionResult:
    """Run ``plan`` against ``store`` (mutated in place) and collect outputs.

    Ops run in the plan's topological order, each as its
    :meth:`~repro.repair.RepairPlan.parts` in byte order.  Data-flow
    dependencies are enforced *strictly*: an op whose input payload is
    not yet present on its node fails, which catches planners that rely
    on scheduling accidents rather than declared dependencies.

    ``ops`` restricts the run to a dependency-closed subset of op ids —
    the byte-level mirror of a *partially completed* simulated run (fault
    injection): the engine reports which parts finished before a fault
    and :meth:`~repro.repair.RepairPlan.ops_done` the ops all of whose
    parts did.  Each of those runs *whole*, so the store holds whole
    payloads only (slices of an op that did not finish are dropped) and
    is in the state a degraded repair that re-plans at op granularity
    sees.  A partial run collects no outputs (it normally has not
    produced them) and its ledger covers only the executed ops.

    Raises
    ------
    ExecutionError
        On missing payloads or missing declared outputs, or if ``ops``
        names an unknown op or is not dependency-closed.
    """
    order = plan.validate()
    if ops is None:
        parts = plan.parts()
    else:
        wanted = set(ops)
        unknown = wanted - set(plan.ops)
        if unknown:
            raise ExecutionError(f"unknown ops {sorted(unknown)} in partial execution")
        for oid in wanted:
            unmet = set(plan.ops[oid].deps) - wanted
            if unmet:
                raise ExecutionError(
                    f"partial execution not dependency-closed: {oid!r} needs "
                    f"{sorted(unmet)}"
                )
        order = [oid for oid in order if oid in wanted]
        parts = {oid: (plan.ops[oid],) for oid in order}
    result = ExecutionResult(recovered={})
    for oid in order:
        for op in parts[oid]:
            payload = run_op(plan, op, store.get(op.owner, {}))
            node, key = op.writes
            store.setdefault(node, {})[key] = payload
            if node == op.owner:
                result.combine_count += 1
            else:
                result.ledger.add_send(cluster, op.owner, node, int(payload.nbytes))
    if ops is None:
        result.recovered = collect_outputs(plan, store)
    return result
