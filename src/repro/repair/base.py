"""Scheme interface and the repair context shared by all planners."""

from __future__ import annotations

from dataclasses import dataclass

from ..cluster import BandwidthModel, Cluster, Placement
from ..rs import MB, DecodeCostModel, RSCode, SIMICS_DECODE
from .plan import RepairPlan

__all__ = ["RepairContext", "RepairScheme", "RepairPlanningError", "recovery_targets"]


class RepairPlanningError(ValueError):
    """Raised when a repair cannot be planned (no spares, too many failures)."""


@dataclass(frozen=True)
class RepairContext:
    """Everything a scheme needs to plan one stripe repair.

    Attributes
    ----------
    code:
        The RS(n, k) code of the stripe.
    cluster:
        The data-center topology.
    placement:
        Block → node mapping of the stripe being repaired.
    failed_blocks:
        Block ids that were lost (1 to ``k`` of them).
    block_size:
        Bytes per block; defaults to the paper's 256 MB (§5.1.1).
    cost_model:
        Decode cost model used when compiling plans to simulator jobs.
    recovery_override:
        Optional explicit ``failed block -> recovery node`` mapping.  Used
        by multi-stripe orchestration (e.g. rebuilding a whole node onto a
        designated replacement) to pin where reconstructed blocks land;
        when absent, :func:`recovery_targets` picks spares in each failed
        block's rack.
    rack_tiebreak:
        Optional rack-id preference order used by the rack-aware helper
        selection when remote racks tie on survivor count.  Multi-stripe
        balancing (CAR's cross-stripe objective) passes racks ordered by
        their accumulated cross-rack upload so new repairs lean on the
        least-loaded racks.
    unavailable_blocks:
        Blocks that still exist but cannot serve as helpers — their host
        node died mid-repair (fault injection, :mod:`repro.repair.faults`)
        or is otherwise unreachable.  Unlike ``failed_blocks`` they are
        not repair targets; they are simply excluded from
        :attr:`surviving_blocks`, so every scheme's helper selection
        avoids them automatically.
    link_model:
        The links the repair will run on, when the caller knows them —
        the one way a planner learns link speeds.  ``None`` (every paper
        figure, the store) makes every scheme plan exactly as the paper
        describes.  Given one, :class:`repro.repair.rpr.RPRScheme` sizes
        a slice-pipelined chain against its binomial gather on these
        rates and plans whichever finishes sooner, in a first plan and in
        every re-plan after a fault alike.
    """

    code: RSCode
    cluster: Cluster
    placement: Placement
    failed_blocks: tuple[int, ...]
    block_size: int = 256 * MB
    cost_model: DecodeCostModel = SIMICS_DECODE
    recovery_override: tuple[tuple[int, int], ...] | None = None
    rack_tiebreak: tuple[int, ...] | None = None
    unavailable_blocks: tuple[int, ...] = ()
    link_model: BandwidthModel | None = None

    def __post_init__(self) -> None:
        failed = tuple(self.failed_blocks)
        # An empty failure set is legal at the context level: update plans
        # (repro.repair.update) reuse the context for healthy-path
        # operations.  Repair schemes reject it via recovery_targets.
        if len(set(failed)) != len(failed):
            raise RepairPlanningError("duplicate failed block ids")
        if len(failed) > self.code.k:
            raise RepairPlanningError(
                f"RS({self.code.n},{self.code.k}) cannot repair {len(failed)} failures"
            )
        for b in failed:
            if not 0 <= b < self.code.width:
                raise RepairPlanningError(f"failed block {b} outside stripe")
        if self.placement.n != self.code.n or self.placement.k != self.code.k:
            raise RepairPlanningError("placement shape does not match code")
        unavailable = tuple(self.unavailable_blocks)
        if len(set(unavailable)) != len(unavailable):
            raise RepairPlanningError("duplicate unavailable block ids")
        for b in unavailable:
            if not 0 <= b < self.code.width:
                raise RepairPlanningError(f"unavailable block {b} outside stripe")
            if b in failed:
                raise RepairPlanningError(
                    f"block {b} is both failed and unavailable; failed blocks "
                    "are already excluded from helpers"
                )

    @property
    def surviving_blocks(self) -> list[int]:
        gone = set(self.failed_blocks) | set(self.unavailable_blocks)
        return [b for b in range(self.code.width) if b not in gone]

    def rack_of_block(self, block_id: int) -> int:
        return self.placement.rack_of_block(self.cluster, block_id)

    def node_of_block(self, block_id: int) -> int:
        return self.placement.node_of(block_id)


def recovery_targets(ctx: RepairContext) -> dict[int, int]:
    """Pick the recovery node for every failed block.

    Policy (matching the paper's "recovery node/rack"): the replacement
    node lives in the failed block's own rack — the first spare node
    there.  Distinct failed blocks get distinct spares.  An explicit
    ``ctx.recovery_override`` wins over the policy (the override node
    may hold other stripes' data but must not hold a surviving block of
    *this* stripe).

    Raises
    ------
    RepairPlanningError
        If the context has no failed blocks, or some rack has no spare
        node left for its failed block(s).
    """
    if not ctx.failed_blocks:
        raise RepairPlanningError("no failed blocks to repair")
    if ctx.recovery_override is not None:
        override = dict(ctx.recovery_override)
        missing = set(ctx.failed_blocks) - set(override)
        if missing:
            raise RepairPlanningError(
                f"recovery_override lacks targets for blocks {sorted(missing)}"
            )
        for block in ctx.failed_blocks:
            ctx.cluster.node(override[block])  # raises KeyError when unknown
        # Note: an override target MAY hold a surviving block of the same
        # stripe (degraded reads deliver to arbitrary clients; schemes
        # treat a helper resident on the target as a zero-cost local
        # input).  Durable-repair callers that care about placement
        # invariants pick genuine spares.
        return {block: override[block] for block in ctx.failed_blocks}

    taken: set[int] = set()
    targets: dict[int, int] = {}
    for block in ctx.failed_blocks:
        rack = ctx.rack_of_block(block)
        spares = [
            node
            for node in ctx.placement.spare_nodes_in_rack(ctx.cluster, rack)
            if node not in taken
        ]
        if not spares:
            raise RepairPlanningError(
                f"rack {rack} has no spare node to host recovered block {block}"
            )
        targets[block] = spares[0]
        taken.add(spares[0])
    return targets


class RepairScheme:
    """Interface: plan a repair for a context.

    Concrete schemes: :class:`repro.repair.traditional.TraditionalRepair`,
    :class:`repro.repair.car.CARRepair`,
    :class:`repro.repair.rpr.RPRScheme`.
    """

    #: Human-readable scheme name, used in benchmark output rows.
    name: str = "abstract"

    def plan(self, ctx: RepairContext) -> RepairPlan:
        raise NotImplementedError

    def replan(self, ctx: RepairContext, snapshot=None) -> RepairPlan:
        """Plan a repair after a mid-repair fault.

        ``ctx`` carries the post-fault world: dead helpers appear in
        ``ctx.unavailable_blocks`` and recovery targets are re-pinned via
        ``ctx.recovery_override``.  ``snapshot`` is a
        :class:`repro.repair.faults.RepairSnapshot` describing payloads
        already delivered by the failed attempt.

        The default re-plans from scratch with fresh helper selection
        (traditional and CAR have no reusable intermediate state worth
        chasing); :class:`repro.repair.rpr.RPRScheme` overrides this to
        reuse already-delivered partial sums.
        """
        return self.plan(ctx)
