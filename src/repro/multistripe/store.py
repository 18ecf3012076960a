"""The stripe catalog: which stripes exist, where each block is, what is lost.

Real deployments hold thousands of stripes; a node failure loses one
block from every stripe that touched the node, and the repair workload
is the *set* of those single-block repairs.  :class:`StripeStore` is the
one mutable model of that state — one record per stripe, read and
mutated by every repair path (the simulated node rebuilds in this
package and the store service's coordinator alike): it allocates
placements, marks a dead node's blocks missing, orders the degraded
stripes, builds their repair contexts and re-points a repaired block.
It knows nothing about liveness or bytes; callers pass the dead nodes in
and move the payloads themselves.

Placements are rotated round-robin across racks so stripes spread load —
the standard declustered layout that gives every rack both data and
parity duty.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator, Mapping

from ..cluster import Cluster, Placement, PlacementError, RPRPlacement
from ..repair import RepairContext, pick_live_spares
from ..rs import RSCode

__all__ = ["StoredStripe", "StripeStore", "rotate_placement"]


def rotate_placement(
    cluster: Cluster, placement: Placement, rack_offset: int, slot_offset: int = 0
) -> Placement:
    """Shift a placement by ``rack_offset`` racks and ``slot_offset`` slots.

    Requires homogeneous rack sizes (node ids rack-major, as built by
    :meth:`Cluster.homogeneous`).  Rotating by the rack count / rack size
    is the identity in that axis.  Rotating both axes as the stripe id
    advances declusters the layout: every node ends up holding blocks
    from many stripes, so a node failure spreads repair work evenly.
    """
    rack_ids = cluster.rack_ids()
    sizes = {cluster.rack(r).size for r in rack_ids}
    if len(sizes) != 1:
        raise PlacementError("rotation requires homogeneous rack sizes")
    rack_size = sizes.pop()
    num_racks = len(rack_ids)
    mapping = {}
    for block, node in placement.block_to_node.items():
        rack = cluster.rack_of(node)
        slot = cluster.nodes_in_rack(rack).index(node)
        new_rack = rack_ids[(rack_ids.index(rack) + rack_offset) % num_racks]
        new_slot = (slot + slot_offset) % rack_size
        mapping[block] = cluster.nodes_in_rack(new_rack)[new_slot]
    return Placement(n=placement.n, k=placement.k, block_to_node=mapping)


@dataclass
class StoredStripe:
    """One stripe's catalog record: identity, layout and what is lost.

    ``missing`` holds the blocks whose bytes are gone and not yet rebuilt
    (only :class:`StripeStore` mutates it); ``checksums`` the write-time
    CRC32 per block, where the writer recorded them.
    """

    stripe_id: int
    code: RSCode
    placement: Placement
    missing: set[int] = field(default_factory=set)
    checksums: dict[int, int] = field(default_factory=dict)


class StripeStore:
    """All stripes of one (code, cluster) deployment, keyed by stripe id.

    ``placement_policy`` defaults to the §3.3 pre-placement; with
    ``rotate`` (the default) stripe ``i``'s placement is the base one
    shifted ``i`` racks and ``i // num_racks`` slots.
    """

    def __init__(
        self, cluster: Cluster, code: RSCode, placement_policy=None, rotate: bool = True
    ) -> None:
        policy = placement_policy if placement_policy is not None else RPRPlacement()
        self.cluster = cluster
        self.code = code
        self.rotate = rotate
        self.stripes: dict[int, StoredStripe] = {}
        self._base = policy.place(cluster, code.n, code.k)
        self._next_id = 0

    @classmethod
    def build(
        cls,
        cluster: Cluster,
        code: RSCode,
        num_stripes: int,
        placement_policy=None,
        rotate: bool = True,
    ) -> "StripeStore":
        """A catalog of ``num_stripes`` freshly allocated stripes."""
        if num_stripes < 1:
            raise ValueError("num_stripes must be positive")
        store = cls(cluster, code, placement_policy, rotate)
        for _ in range(num_stripes):
            store.add(store.allocate())
        return store

    def __len__(self) -> int:
        return len(self.stripes)

    def __iter__(self) -> Iterator[StoredStripe]:
        return iter(self.stripes.values())

    def stripe(self, stripe_id: int) -> StoredStripe:
        try:
            return self.stripes[stripe_id]
        except KeyError:
            raise KeyError(f"no stripe {stripe_id} in store") from None

    # -- the catalog's mutations -------------------------------------------

    def allocate(self) -> StoredStripe:
        """The next stripe id and its placement, not yet in the catalog.

        A writer passes the record to :meth:`add` once the blocks are where the
        placement says; an id handed out and never added is just skipped.
        """
        sid = self._next_id
        self._next_id += 1
        placement = self._base
        if self.rotate:
            placement = rotate_placement(
                self.cluster,
                placement,
                rack_offset=sid % self.cluster.num_racks,
                slot_offset=sid // self.cluster.num_racks,
            )
        return StoredStripe(stripe_id=sid, code=self.code, placement=placement)

    def add(self, stored: StoredStripe) -> None:
        if stored.stripe_id in self.stripes:
            raise ValueError(f"stripe {stored.stripe_id} is already in the store")
        self.stripes[stored.stripe_id] = stored

    def remove(self, stripe_id: int) -> None:
        self.stripe(stripe_id)
        del self.stripes[stripe_id]

    def fail_node(self, node_id: int) -> list[tuple[int, int]]:
        """Mark everything ``node_id`` held missing.

        Returns the ``(stripe_id, block_id)`` pairs newly lost — empty
        when the node's blocks were already marked, so it is idempotent.
        """
        lost = [
            (sid, bid)
            for sid, bid in self.blocks_on_node(node_id)
            if bid not in self.stripes[sid].missing
        ]
        for sid, bid in lost:
            self.stripes[sid].missing.add(bid)
        return lost

    def relocate(self, stripe_id: int, targets: Mapping[int, int]) -> None:
        """Record a finished repair: each ``block -> node`` of ``targets``
        is where that block now lives, and it is no longer missing."""
        stored = self.stripe(stripe_id)
        stored.placement = replace(
            stored.placement,
            block_to_node={**stored.placement.block_to_node, **targets},
        )
        stored.missing.difference_update(targets)

    # -- what the repair paths read ----------------------------------------

    def degraded(self) -> list[int]:
        """Ids of stripes with missing blocks, most at risk first.

        A stripe one failure from data loss jumps every singly-degraded
        one; equally exposed stripes keep id order.
        """
        return sorted(
            (sid for sid, stored in self.stripes.items() if stored.missing),
            key=lambda sid: (-len(self.stripes[sid].missing), sid),
        )

    def lost_blocks(self, stripe_id: int, dead_nodes: Iterable[int] = ()) -> set[int]:
        """Blocks of a stripe nobody can read: missing, or on a dead holder."""
        stored = self.stripe(stripe_id)
        dead = set(dead_nodes)
        return stored.missing | {
            bid for bid, node in stored.placement.block_to_node.items() if node in dead
        }

    def repair_context(
        self, stripe_id: int, dead_nodes: Iterable[int] = (), **context
    ) -> RepairContext:
        """The repair of everything :meth:`lost_blocks` names, rebuilt onto
        live spares (:func:`~repro.repair.pick_live_spares`: the lost
        block's own rack first, any other rack when that one is full).

        ``context`` passes through to :class:`~repro.repair.RepairContext`
        (``block_size``, ``cost_model``, ``link_model``, ...).

        Raises
        ------
        RepairPlanningError
            When some lost block has no live free node anywhere.
        """
        stored = self.stripe(stripe_id)
        dead = set(dead_nodes)
        failed = tuple(sorted(self.lost_blocks(stripe_id, dead)))
        return RepairContext(
            code=stored.code,
            cluster=self.cluster,
            placement=stored.placement,
            failed_blocks=failed,
            recovery_override=pick_live_spares(
                self.cluster, stored.placement, failed, dead_nodes=dead
            ),
            **context,
        )

    def blocks_on_node(self, node_id: int) -> list[tuple[int, int]]:
        """All ``(stripe_id, block_id)`` pairs placed on ``node_id``."""
        self.cluster.node(node_id)
        found = []
        for stored in self:
            block = stored.placement.block_at(node_id)
            if block is not None:
                found.append((stored.stripe_id, block))
        return found
