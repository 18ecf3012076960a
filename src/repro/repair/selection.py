"""Helper-block selection policies.

Given a failure, a repair must pick exactly ``n`` surviving blocks to
decode from.  The choice drives both the traffic and the decode cost:

* :func:`first_n_helpers` — the traditional scheme's arbitrary pick (the
  lowest-id survivors), as in the paper's Fig. 3 example.
* :func:`rack_aware_helpers` — the rack-aware pick used by CAR and RPR:
  minimise the number of *remote* racks involved (each remote rack ships
  exactly one intermediate per recovery sub-equation after partial
  decoding), and — when asked — prefer the eq. (6) XOR-only helper set
  (all other data blocks + P0) whenever it is no worse in remote-rack
  count, unlocking the matrix-build-free decode path of §3.3.
"""

from __future__ import annotations

from typing import Iterable

from ..cluster import Cluster, Placement
from .base import RepairContext, RepairPlanningError

__all__ = [
    "first_n_helpers",
    "rack_aware_helpers",
    "group_survivors_by_rack",
    "remote_rack_count",
    "pick_live_spares",
]


def first_n_helpers(ctx: RepairContext) -> list[int]:
    """The ``n`` lowest-id surviving blocks (traditional repair's pick)."""
    return ctx.surviving_blocks[: ctx.code.n]


def group_survivors_by_rack(ctx: RepairContext) -> dict[int, list[int]]:
    """Surviving blocks grouped by the rack they live in."""
    groups: dict[int, list[int]] = {}
    for block in ctx.surviving_blocks:
        groups.setdefault(ctx.rack_of_block(block), []).append(block)
    return {rack: sorted(blocks) for rack, blocks in groups.items()}


def remote_rack_count(ctx: RepairContext, helpers) -> int:
    """Racks holding helpers that are not recovery racks of any failure.

    After partial decoding each such rack ships one intermediate block per
    recovery sub-equation, so this count *is* the per-equation cross-rack
    transfer volume in blocks.
    """
    recovery_racks = {ctx.rack_of_block(b) for b in ctx.failed_blocks}
    helper_racks = {ctx.rack_of_block(b) for b in helpers}
    return len(helper_racks - recovery_racks)


def _parity_preference(
    ctx: RepairContext, block: int, prefer_p0: bool
) -> tuple[int, int]:
    """Sort key for partial-rack picks.

    With ``prefer_p0`` (the §3.3-aware behaviour) data blocks come first,
    then P0, then other parities — raising the chance the derived equation
    degenerates to the XOR-only form.  Without it (modelling a scheme with
    no pre-placement awareness) parities are taken highest-id first, which
    forces a matrix-build decode whenever a parity is involved.
    """
    if block < ctx.code.n:
        return (0, block)
    if prefer_p0:
        return (1, block) if block == ctx.code.n else (2, block)
    return (1, -block)


def _greedy_rack_packing(ctx: RepairContext, prefer_p0: bool) -> list[int]:
    """Minimise remote racks: recovery racks first, then fullest racks."""
    n = ctx.code.n
    groups = group_survivors_by_rack(ctx)
    recovery_racks = {ctx.rack_of_block(b) for b in ctx.failed_blocks}

    helpers: list[int] = []
    # Local survivors are free of cross-rack cost — always take them all
    # (up to n).
    for rack in sorted(recovery_racks):
        for block in groups.get(rack, []):
            if len(helpers) < n:
                helpers.append(block)

    if ctx.rack_tiebreak is not None:
        priority = {rack: i for i, rack in enumerate(ctx.rack_tiebreak)}
        tiebreak = lambda r: (priority.get(r, len(priority)), r)  # noqa: E731
    else:
        tiebreak = lambda r: (0, r)  # noqa: E731
    remote = sorted(
        (rack for rack in groups if rack not in recovery_racks),
        key=lambda r: (-len(groups[r]), *tiebreak(r)),
    )
    for rack in remote:
        if len(helpers) >= n:
            break
        need = n - len(helpers)
        blocks = sorted(
            groups[rack], key=lambda b: _parity_preference(ctx, b, prefer_p0)
        )
        helpers.extend(blocks[:need])
    return sorted(helpers)


def _xor_candidate(ctx: RepairContext) -> list[int] | None:
    """The eq. (6) helper set, if applicable: other data blocks + P0.

    Only defined for a *single data-block* failure on a code with parity.
    """
    if len(ctx.failed_blocks) != 1 or ctx.code.k < 1:
        return None
    failed = ctx.failed_blocks[0]
    if failed >= ctx.code.n:  # parity failure: eq. (6) does not apply
        return None
    return sorted([b for b in range(ctx.code.n) if b != failed] + [ctx.code.n])


def rack_aware_helpers(ctx: RepairContext, prefer_xor: bool = True) -> list[int]:
    """Rack-aware helper pick; optionally prefer the XOR-only set.

    With ``prefer_xor`` the eq. (6) set (all other data + P0) replaces the
    greedy pick when it involves no more remote racks, and partial-rack
    picks favour P0 — together these realise the §3.3 fast path whenever
    placement makes it free.  Without it, the selection models a scheme
    with no pre-placement awareness: parities are taken highest-id first
    and the decode pays the matrix build.
    """
    greedy = _greedy_rack_packing(ctx, prefer_p0=prefer_xor)
    if len(greedy) < ctx.code.n:
        # Fewer survivors than n can only mean the context invariants were
        # violated upstream; recovery_equations will reject it anyway.
        return greedy
    if prefer_xor:
        xor_set = _xor_candidate(ctx)
        if (
            xor_set is not None
            # Degraded contexts may have lost part of the eq. (6) set to a
            # dead node; the XOR fast path only applies when all of it
            # survives.
            and set(xor_set) <= set(ctx.surviving_blocks)
            and remote_rack_count(ctx, xor_set) <= remote_rack_count(ctx, greedy)
        ):
            return xor_set
    return greedy


def pick_live_spares(
    cluster: Cluster,
    placement: Placement,
    failed_blocks: Iterable[int],
    *,
    dead_nodes: Iterable[int] = (),
) -> tuple[tuple[int, int], ...]:
    """Pick a live recovery node for every failed block.

    :func:`repro.repair.recovery_targets` implements the paper's pure
    policy — first spare in the failed block's rack — but assumes every
    node is alive.  Systems that actually lose nodes (everything built on
    :meth:`repro.multistripe.StripeStore.repair_context`, the
    multi-process store service included) need the same policy *minus
    dead nodes*: prefer a free live node in the failed block's own rack,
    fall back to any free live node when that rack is out of spares.  Nodes holding surviving blocks of
    the stripe are never candidates, and distinct failed blocks get
    distinct targets.

    Returns ``((block_id, node_id), ...)`` in ``failed_blocks`` order —
    directly usable as a :class:`~repro.repair.RepairContext`
    ``recovery_override``.

    Raises
    ------
    RepairPlanningError
        When some block has no live free node anywhere.
    """
    failed = list(failed_blocks)
    dead = set(dead_nodes)
    used = {
        node
        for bid, node in placement.block_to_node.items()
        if bid not in set(failed)
    }
    taken: set[int] = set()

    def free(nodes: Iterable[int]) -> list[int]:
        return [
            node
            for node in nodes
            if node not in used and node not in taken and node not in dead
        ]

    override: list[tuple[int, int]] = []
    for bid in failed:
        rack = cluster.rack_of(placement.node_of(bid))
        candidates = free(cluster.nodes_in_rack(rack)) or free(cluster.node_ids())
        if not candidates:
            raise RepairPlanningError(
                f"no live node available to rebuild block {bid}"
            )
        override.append((bid, candidates[0]))
        taken.add(candidates[0])
    return tuple(override)
