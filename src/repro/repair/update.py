"""Data-block updates via parity deltas (the CAU setting, §6 related work).

When a data block ``d_i`` is overwritten, every parity must absorb the
change: ``p_j' = p_j XOR e_{j,i} * delta`` with ``delta = d_i_old XOR
d_i_new`` (linearity of the code).  The update plan is therefore:

1. compute ``delta`` at the data node (one XOR pass),
2. stream ``delta`` to each parity node (cross- or intra-rack depending
   on placement),
3. combine at each parity: scale by the generator coefficient and XOR
   into the stored parity.

This module exists for two reasons: it completes the write path a real
store needs, and it lets us *measure* §3.3's claim that the RPR
pre-placement "has no negative effect on other performance metrics" —
update traffic included (see
:func:`repro.experiments.update_traffic_rows`).
Cross-rack-optimal update scheduling (CAU, Shen & Lee ICPP'18) is out of
scope; the plan here is the straightforward delta broadcast.
"""

from __future__ import annotations

import numpy as np

from ..gf import linear_combine
from ..rs import Stripe
from .base import RepairContext, RepairPlanningError
from .plan import RepairPlan, block_key

__all__ = ["plan_update", "apply_update_payloads"]

#: Payload key of the delta produced by an update of ``block_id``.
def _delta_key(block_id: int) -> str:
    return f"update:delta:{block_id}"


def _new_key(block_id: int) -> str:
    return f"update:new:{block_id}"


def plan_update(ctx: RepairContext, block_id: int) -> RepairPlan:
    """Plan the parity refresh for overwriting data block ``block_id``.

    The context's ``failed_blocks`` are ignored (an update is a healthy
    path operation) but its code/cluster/placement/cost model are used.
    The plan expects the payload ``update:new:<block>`` to be present at
    the data node (the freshly written content), alongside the old block.

    Outputs are marked for every parity (their refreshed payloads) and
    for the updated block itself.

    Raises
    ------
    RepairPlanningError
        If ``block_id`` is a parity (parities are derived, not updated)
        or the code has no parities to refresh.
    """
    code = ctx.code
    if not 0 <= block_id < code.n:
        raise RepairPlanningError(
            f"only data blocks can be updated; {block_id} is not one"
        )
    if code.k == 0:
        raise RepairPlanningError("code has no parities to refresh")

    data_node = ctx.node_of_block(block_id)
    plan = RepairPlan(block_size=ctx.block_size)

    # 1) delta = old XOR new, at the data node.
    delta_op = plan.add_combine(
        "upd:delta",
        node=data_node,
        out_key=_delta_key(block_id),
        terms=[(block_key(block_id), 1), (_new_key(block_id), 1)],
    )
    plan.mark_output(block_id, data_node, _new_key(block_id))

    # 2, 3) stream the delta to each parity and fold it in.
    for parity in range(code.n, code.width):
        parity_node = ctx.node_of_block(parity)
        coeff = int(code.generator[parity, block_id])
        deps = [delta_op]
        if parity_node != data_node:
            deps = [
                plan.add_send(
                    f"upd:send:p{parity - code.n}",
                    src=data_node,
                    dst=parity_node,
                    key=_delta_key(block_id),
                    deps=[delta_op],
                )
            ]
        plan.add_combine(
            f"upd:fold:p{parity - code.n}",
            node=parity_node,
            out_key=f"update:parity:{parity}",
            terms=[(block_key(parity), 1), (_delta_key(block_id), coeff)],
            deps=deps,
        )
        plan.mark_output(parity, parity_node, f"update:parity:{parity}")
    return plan


def apply_update_payloads(
    code, stripe: Stripe, block_id: int, new_payload: np.ndarray
) -> dict[int, np.ndarray]:
    """Reference implementation: the expected post-update stripe blocks.

    Computes ``delta`` and the refreshed parities directly (no plan), for
    tests to compare plan execution against.  ``code`` must be the
    :class:`repro.rs.RSCode` the stripe was encoded with.
    """
    old = stripe.get_payload(block_id)
    new_payload = np.asarray(new_payload, dtype=np.uint8)
    if new_payload.shape != old.shape:
        raise ValueError("replacement payload must match the block size")
    delta = old ^ new_payload
    expected: dict[int, np.ndarray] = {block_id: new_payload}
    for parity in range(stripe.n, stripe.width):
        coeff = int(code.generator[parity, block_id])
        expected[parity] = stripe.get_payload(parity) ^ linear_combine(
            [coeff], [delta]
        )
    return expected
