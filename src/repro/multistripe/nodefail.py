"""Node-failure workloads: from one dead node to a set of stripe repairs.

A storage-node failure loses one block from every stripe placed on it.
This module turns that event into per-stripe :class:`RepairContext`s,
choosing where the rebuilt blocks land:

* ``replacement`` mode — all blocks are rebuilt onto one designated
  replacement node (hot-spare semantics).  The replacement must be in
  the failed node's rack and hold no surviving block of any affected
  stripe.
* ``scatter`` mode — each stripe independently picks a spare in the
  failed node's rack (declustered rebuild; spreads the write load).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..repair import RepairContext, RepairPlanningError
from ..rs import MB, DecodeCostModel, SIMICS_DECODE
from .store import StripeStore

__all__ = [
    "NodeFailure",
    "node_failure_contexts",
    "pick_replacement_node",
    "rack_failure_contexts",
]


@dataclass(frozen=True)
class NodeFailure:
    """One node-failure event over a store."""

    failed_node: int
    lost: tuple[tuple[int, int], ...]  # (stripe_id, block_id)


def pick_replacement_node(store: StripeStore, failed_node: int) -> int:
    """A same-rack node holding no surviving block of any affected stripe.

    Raises
    ------
    RepairPlanningError
        If the rack has no such node.
    """
    rack = store.cluster.rack_of(failed_node)
    affected = [sid for sid, _ in store.blocks_on_node(failed_node)]
    blocked: set[int] = set()
    for sid in affected:
        placement = store.stripe(sid).placement
        for block, node in placement.block_to_node.items():
            if node != failed_node:
                blocked.add(node)
    for candidate in store.cluster.nodes_in_rack(rack):
        if candidate != failed_node and candidate not in blocked:
            return candidate
    raise RepairPlanningError(
        f"rack {rack} has no node free of the {len(affected)} affected stripes"
    )


def node_failure_contexts(
    store: StripeStore,
    failed_node: int,
    mode: str = "replacement",
    block_size: int = 256 * MB,
    cost_model: DecodeCostModel = SIMICS_DECODE,
) -> tuple[NodeFailure, list[RepairContext]]:
    """Build the repair contexts for every stripe hit by a node failure.

    Returns the failure description plus one context per affected stripe
    (empty when the node held nothing).

    Raises
    ------
    ValueError
        For an unknown mode.
    RepairPlanningError
        When ``replacement`` mode cannot find a replacement node.
    """
    if mode not in ("replacement", "scatter"):
        raise ValueError(f"unknown rebuild mode {mode!r}")
    lost = tuple(store.blocks_on_node(failed_node))
    failure = NodeFailure(failed_node=failed_node, lost=lost)
    if not lost:
        return failure, []

    replacement = (
        pick_replacement_node(store, failed_node) if mode == "replacement" else None
    )

    contexts = []
    for idx, (stripe_id, block_id) in enumerate(lost):
        stored = store.stripe(stripe_id)
        if replacement is not None:
            override = ((block_id, replacement),)
        else:
            # Scatter mode: rotate through the rack's spares so rebuilt
            # blocks (and their download load) spread across nodes
            # instead of all landing on the first spare.
            rack = store.cluster.rack_of(failed_node)
            spares = [
                node
                for node in stored.placement.spare_nodes_in_rack(
                    store.cluster, rack
                )
                if node != failed_node
            ]
            if not spares:
                raise RepairPlanningError(
                    f"rack {rack} has no spare for stripe {stripe_id}"
                )
            override = ((block_id, spares[idx % len(spares)]),)
        contexts.append(
            RepairContext(
                code=stored.code,
                cluster=store.cluster,
                placement=stored.placement,
                failed_blocks=(block_id,),
                block_size=block_size,
                cost_model=cost_model,
                recovery_override=override,
            )
        )
    return failure, contexts


def rack_failure_contexts(
    store: StripeStore,
    failed_rack: int,
    block_size: int = 256 * MB,
    cost_model: DecodeCostModel = SIMICS_DECODE,
) -> tuple[NodeFailure, list[RepairContext]]:
    """Build repair contexts for a whole-rack failure.

    Under the paper's single-rack-fault-tolerant placements a rack loss
    costs every resident stripe up to ``k`` blocks at once — the §4.3
    worst case, in store form.  Rebuilt blocks cannot return to the dead
    rack, so recovery targets scatter round-robin over the *surviving*
    racks, onto nodes that hold no surviving block of the stripe.

    Returns a :class:`NodeFailure` record (``failed_node`` is set to the
    rack's first node id as an identifier) plus one multi-block context
    per affected stripe.

    Raises
    ------
    RepairPlanningError
        If a stripe's failures exceed its tolerance (the placement was
        not single-rack fault tolerant) or no target node is available.
    """
    rack_nodes = set(store.cluster.nodes_in_rack(failed_rack))
    if not rack_nodes:
        raise RepairPlanningError(f"rack {failed_rack} has no nodes")

    lost: list[tuple[int, int]] = []
    per_stripe: dict[int, list[int]] = {}
    for stored in store:
        blocks = [
            bid
            for bid, node in sorted(stored.placement.block_to_node.items())
            if node in rack_nodes
        ]
        if blocks:
            per_stripe[stored.stripe_id] = blocks
            lost.extend((stored.stripe_id, bid) for bid in blocks)

    failure = NodeFailure(
        failed_node=min(rack_nodes), lost=tuple(lost)
    )
    if not per_stripe:
        return failure, []

    live_racks = [r for r in store.cluster.rack_ids() if r != failed_rack]
    contexts = []
    spread = 0
    for stripe_id, blocks in sorted(per_stripe.items()):
        stored = store.stripe(stripe_id)
        if len(blocks) > stored.code.k:
            raise RepairPlanningError(
                f"stripe {stripe_id} lost {len(blocks)} blocks to rack "
                f"{failed_rack}; RS({stored.code.n},{stored.code.k}) cannot "
                f"recover (placement was not single-rack fault tolerant)"
            )
        used = {
            node
            for bid, node in stored.placement.block_to_node.items()
            if bid not in blocks
        }
        override = []
        taken: set[int] = set()
        for bid in blocks:
            target = None
            for attempt in range(len(live_racks)):
                rack = live_racks[(spread + attempt) % len(live_racks)]
                candidates = [
                    node
                    for node in store.cluster.nodes_in_rack(rack)
                    if node not in used and node not in taken
                ]
                if candidates:
                    target = candidates[0]
                    break
            spread += 1
            if target is None:
                raise RepairPlanningError(
                    f"no live node available for block {bid} of stripe "
                    f"{stripe_id}"
                )
            override.append((bid, target))
            taken.add(target)
        contexts.append(
            RepairContext(
                code=stored.code,
                cluster=store.cluster,
                placement=stored.placement,
                failed_blocks=tuple(blocks),
                block_size=block_size,
                cost_model=cost_model,
                recovery_override=tuple(override),
            )
        )
    return failure, contexts
