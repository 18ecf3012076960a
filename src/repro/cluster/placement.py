"""Stripe placement policies.

A :class:`Placement` maps every block of one stripe to a distinct node.
Three policies are provided, mirroring the paper's §2.2–§2.3 and §3.3:

* :class:`FlatPlacement` — the classic one-block-per-rack layout that
  maximises rack fault tolerance but also cross-rack repair traffic.
* :class:`ContiguousPlacement` — the paper's baseline: up to ``k`` blocks
  of a stripe per rack (single-rack fault tolerance), racks filled in
  block order so parities end up grouped in the final rack(s), exactly as
  in Figures 3–5.
* :class:`RPRPlacement` — §3.3 pre-placement: contiguous, then ``P0`` is
  swapped with the last data block so ``P0`` shares a rack with data
  blocks only, enabling the eq. (6) XOR-only repair path without extra
  cross-rack traffic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .topology import Cluster

__all__ = [
    "Placement",
    "PlacementError",
    "FlatPlacement",
    "ContiguousPlacement",
    "RPRPlacement",
]


class PlacementError(ValueError):
    """Raised when a stripe cannot be placed on a cluster under a policy."""


@dataclass(frozen=True)
class Placement:
    """Immutable block→node assignment for one stripe.

    Attributes
    ----------
    n, k:
        The stripe's code parameters (data and parity counts).
    block_to_node:
        Mapping from block id (``0..n+k-1``) to node id.
    """

    n: int
    k: int
    block_to_node: Mapping[int, int]

    def __post_init__(self) -> None:
        width = self.n + self.k
        if set(self.block_to_node) != set(range(width)):
            raise PlacementError(
                f"placement must cover exactly blocks 0..{width - 1}"
            )
        nodes = list(self.block_to_node.values())
        if len(set(nodes)) != len(nodes):
            raise PlacementError("two blocks placed on the same node")

    @property
    def width(self) -> int:
        return self.n + self.k

    def node_of(self, block_id: int) -> int:
        try:
            return self.block_to_node[block_id]
        except KeyError:
            raise PlacementError(f"block {block_id} not in placement") from None

    def block_at(self, node_id: int) -> int | None:
        """The block stored on ``node_id``, or None if the node is spare."""
        for block, node in self.block_to_node.items():
            if node == node_id:
                return block
        return None

    def rack_of_block(self, cluster: Cluster, block_id: int) -> int:
        return cluster.rack_of(self.node_of(block_id))

    def blocks_in_rack(self, cluster: Cluster, rack_id: int) -> list[int]:
        return sorted(
            b
            for b, node in self.block_to_node.items()
            if cluster.rack_of(node) == rack_id
        )

    def racks_used(self, cluster: Cluster) -> list[int]:
        return sorted({cluster.rack_of(node) for node in self.block_to_node.values()})

    def spare_nodes_in_rack(self, cluster: Cluster, rack_id: int) -> list[int]:
        """Nodes in ``rack_id`` not holding any block of this stripe."""
        used = set(self.block_to_node.values())
        return [nid for nid in cluster.nodes_in_rack(rack_id) if nid not in used]

    def group_of_blocks(self, cluster: Cluster) -> dict[int, int]:
        """block id -> rack id, the grouping partial decoding slices by."""
        return {
            block: cluster.rack_of(node)
            for block, node in self.block_to_node.items()
        }


def _fill_racks(cluster: Cluster, order: list[int], per_rack: int, n: int, k: int) -> Placement:
    """Assign blocks (in ``order``) to racks, ``per_rack`` blocks per rack."""
    block_to_node: dict[int, int] = {}
    rack_ids = cluster.rack_ids()
    needed_racks = -(-len(order) // per_rack)  # ceil division
    if needed_racks > len(rack_ids):
        raise PlacementError(
            f"stripe of {len(order)} blocks at {per_rack}/rack needs "
            f"{needed_racks} racks; cluster has {len(rack_ids)}"
        )
    idx = 0
    for rack_pos in range(needed_racks):
        rack_id = rack_ids[rack_pos]
        nodes = cluster.nodes_in_rack(rack_id)
        chunk = order[idx : idx + per_rack]
        if len(nodes) < len(chunk):
            raise PlacementError(
                f"rack {rack_id} has {len(nodes)} nodes, needs {len(chunk)}"
            )
        for offset, block in enumerate(chunk):
            block_to_node[block] = nodes[offset]
        idx += per_rack
    return Placement(n=n, k=k, block_to_node=block_to_node)


class FlatPlacement:
    """One block per rack — the classic layout of §2.2 (q = n + k racks)."""

    def place(self, cluster: Cluster, n: int, k: int) -> Placement:
        return _fill_racks(cluster, list(range(n + k)), per_rack=1, n=n, k=k)


class ContiguousPlacement:
    """Up to ``per_rack`` blocks of a stripe per rack, in block-id order.

    ``per_rack`` defaults to ``k``, the maximum allowed under single-rack
    fault tolerance (§2.3); parities fall in the trailing rack(s), matching
    the paper's running examples.
    """

    def __init__(self, per_rack: int | None = None) -> None:
        if per_rack is not None and per_rack < 1:
            raise PlacementError(f"per_rack must be >= 1, got {per_rack}")
        self.per_rack = per_rack

    def _resolve_per_rack(self, k: int) -> int:
        per_rack = self.per_rack if self.per_rack is not None else k
        if per_rack < 1:
            raise PlacementError(
                "per_rack resolved to 0; codes with k=0 need an explicit per_rack"
            )
        return per_rack

    def place(self, cluster: Cluster, n: int, k: int) -> Placement:
        per_rack = self._resolve_per_rack(k)
        if per_rack > k > 0:
            raise PlacementError(
                f"per_rack={per_rack} exceeds k={k}: placement would not be "
                f"single-rack fault tolerant"
            )
        return _fill_racks(cluster, list(range(n + k)), per_rack, n, k)


class RPRPlacement(ContiguousPlacement):
    """§3.3 pre-placement: contiguous layout with ``P0`` beside data blocks.

    After the contiguous fill, if ``P0``'s rack would contain another
    parity (which happens exactly when ``k`` divides ``n``), ``P0`` is
    swapped with the last data block, so its rack holds data blocks plus
    ``P0`` — the condition eq. (6) exploits.  The paper's (4,2) example
    (swapping a data block into the parity rack) produces the same rack
    contents up to labels.

    The swap changes no rack's block *count*, so fault tolerance, load
    balance and I/O are untouched (§3.3's "no negative effect").
    """

    def place(self, cluster: Cluster, n: int, k: int) -> Placement:
        per_rack = self._resolve_per_rack(k)
        if per_rack > k > 0:
            raise PlacementError(
                f"per_rack={per_rack} exceeds k={k}: placement would not be "
                f"single-rack fault tolerant"
            )
        order = list(range(n + k))
        if k > 0 and n >= 1:
            p0_pos = n  # position of P0 in the contiguous order
            rack_start = (p0_pos // per_rack) * per_rack
            rack_slots = order[rack_start : rack_start + per_rack]
            other_parities = [b for b in rack_slots if b > n]
            if other_parities and n - 1 >= 0:
                # Swap P0 with the last data block: P0 joins an all-data rack.
                i, j = order.index(n), order.index(n - 1)
                order[i], order[j] = order[j], order[i]
        return _fill_racks(cluster, order, per_rack, n, k)
