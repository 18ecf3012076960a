"""Degraded repair: re-planning around helpers that die mid-repair.

This is the robustness layer the paper's evaluation skips: its schemes
assume every helper survives the whole repair.
:func:`repro.repair.simulate_repair` runs a repair under an injected
:class:`repro.sim.FaultPlan`; when a helper node dies mid-gather it
commits the completed prefix of the plan and asks the scheme to re-plan
via :meth:`RepairScheme.replan` with a :class:`RepairSnapshot` of what
survived — including already-delivered intermediates.  This module is
that re-planning.

Traditional and CAR re-plan from scratch with fresh helper selection
(their intermediate state is a half-summed buffer on a node that may be
gone).  RPR's partial sums are first-class reusable state: its ``replan``
routes through :func:`plan_degraded_gather`, which treats every surviving
payload — raw block or delivered intermediate — as a known GF(256)
linear combination of the data blocks and solves for coefficients that
re-express the failed block, preferring payloads already at the recovery
node, then delivered partial sums, then raw blocks.  A repair below the
decode threshold (no payload combination spans the failed block) raises
the typed :class:`IrrecoverableError`.  :func:`simulate_fault_scenario`
anchors a fault scenario to the repair's own fault-free makespan.
See ``docs/FAULTS.md`` for the full model.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from ..cluster import BandwidthModel
from ..gf import GFTables, get_tables, gf_mul
from ..gf.matrix import mat_solve
from ..rs import InsufficientHelpersError, Stripe
from ..sim import FaultPlan, NodeDeath, Straggler, random_fault_plan
from .base import RepairContext, RepairPlanningError, RepairScheme, recovery_targets
from .executor import run_op
from .plan import RepairPlan

if TYPE_CHECKING:  # pragma: no cover - simulate imports this module
    from .simulate import RepairOutcome

__all__ = [
    "IrrecoverableError",
    "RepairSnapshot",
    "payload_compositions",
    "plan_degraded_gather",
    "simulate_fault_scenario",
]


class IrrecoverableError(RuntimeError):
    """The repair cannot complete: survivors are below the decode threshold.

    Raised when no GF-linear combination of the payloads still reachable
    (raw blocks on live nodes plus delivered intermediates) expresses a
    failed block, when a recovery rack has no live spare left, or when
    the bounded retry budget is exhausted.

    Attributes
    ----------
    failed_blocks / attempt:
        What was being repaired and on which attempt the repair gave up.
    """

    def __init__(
        self, message: str, failed_blocks: tuple[int, ...] = (), attempt: int = 0
    ) -> None:
        super().__init__(message)
        self.failed_blocks = tuple(failed_blocks)
        self.attempt = attempt


@dataclass(frozen=True)
class RepairSnapshot:
    """Surviving payload state after a fault, handed to ``replan``.

    Attributes
    ----------
    payloads:
        Live node → payload key → *composition*: the payload's GF(256)
        coefficient vector over the ``n`` data blocks.  Raw block ``i``
        has composition ``code.generator_row(i)``; a delivered
        intermediate has the combination its combine chain computed.
        This is symbolic state — schemes can re-plan without touching
        bytes, and the byte-level mirror stays a separate concern.
    dead_nodes:
        Every node that has died so far (cumulative across attempts).
    attempt:
        1-based index of the re-plan this snapshot feeds (used to
        namespace re-planned payload keys).
    """

    payloads: dict[int, dict[str, np.ndarray]]
    dead_nodes: frozenset[int]
    attempt: int

    def intermediates(self) -> list[str]:
        """Keys of surviving non-raw payloads (delivered partial sums)."""
        return sorted(
            {
                key
                for keys in self.payloads.values()
                for key in keys
                if not key.startswith("block:")
            }
        )


def payload_compositions(
    plan: RepairPlan,
    code,
    base: dict[str, np.ndarray] | None = None,
    tables: GFTables | None = None,
) -> dict[str, np.ndarray]:
    """Composition of every payload key a plan touches, in the data basis.

    The plan run symbolically: raw ``block:i`` keys start from
    ``code.generator_row(i)`` and every op is applied, in the plan's
    topological order, to compositions instead of bytes — a composition
    is a length-``n`` uint8 vector, so a combine is the same GF-linear
    combination its byte run performs.  ``base`` supplies compositions
    of keys minted by earlier plans (re-planned repairs consume
    intermediates across attempts).

    Raises
    ------
    ExecutionError
        If an op reads a key whose composition is unknown.
    """
    t = tables or get_tables()
    comps: dict[str, np.ndarray] = dict(base) if base else {}
    for op in plan.ops.values():
        for key in op.reads:
            if key.startswith("block:") and key not in comps:
                comps[key] = code.generator_row(int(key.split(":", 1)[1]))
    for oid in plan.topo_order():
        op = plan.ops[oid]
        comps[op.writes[1]] = run_op(plan, op, comps, t)
    return comps


def plan_degraded_gather(
    ctx: RepairContext,
    snapshot: RepairSnapshot,
    prefix: str = "degraded",
    tables: GFTables | None = None,
) -> RepairPlan:
    """Re-plan a repair from surviving payloads via a GF(256) solve.

    For each failed block the planner greedily selects a minimal
    rank-increasing set of surviving payloads whose span contains the
    block's generator row, ordered by cost: payloads already resident on
    the recovery node, then delivered intermediates (heaviest — most
    blocks summed — first, since each one replaces several raw sends),
    then raw blocks.  :func:`repro.gf.matrix.mat_solve` pivots columns in
    that order, so the returned coefficients are biased toward reusing
    what earlier attempts already moved.  Selected payloads are shipped
    straight to the recovery node and combined there — the degraded path
    favours completing the repair over re-building the full pipeline.

    Raises
    ------
    IrrecoverableError
        When the surviving payloads do not span a failed block.
    """
    t = tables or get_tables()
    code = ctx.code
    targets = recovery_targets(ctx)
    plan = RepairPlan(block_size=ctx.block_size)
    attempt = snapshot.attempt
    sent: dict[tuple[str, int], str] = {}

    for failed in ctx.failed_blocks:
        target = targets[failed]
        want = code.generator_row(failed)

        # One location per key: prefer a copy already on the target, else
        # the lowest live node id (deterministic).
        locations: dict[str, tuple[int, np.ndarray]] = {}
        for node in sorted(snapshot.payloads):
            for key, comp in snapshot.payloads[node].items():
                held = locations.get(key)
                if held is None or (node == target and held[0] != target):
                    locations[key] = (node, comp)

        def order_key(item):
            key, (node, comp) = item
            return (
                0 if node == target else 1,
                1 if key.startswith("block:") else 0,
                -int(np.count_nonzero(comp)),
                key,
            )

        candidates = sorted(locations.items(), key=order_key)

        # Greedy rank-increasing selection until `want` is in the span.
        echelon: dict[int, np.ndarray] = {}  # pivot index -> normalised row
        selected: list[tuple[str, int, np.ndarray]] = []
        solution: np.ndarray | None = None
        for key, (node, comp) in candidates:
            vec = comp.copy()
            for pivot, row in echelon.items():
                if vec[pivot]:
                    vec ^= gf_mul(int(vec[pivot]), row, t)
            nz = np.nonzero(vec)[0]
            if nz.size == 0:
                continue  # linearly dependent on the selection so far
            pivot = int(nz[0])
            lead = int(vec[pivot])
            if lead != 1:
                inv = int(mat_solve(
                    np.array([[lead]], dtype=np.uint8),
                    np.array([1], dtype=np.uint8),
                    t,
                )[0])
                vec = gf_mul(inv, vec, t)
            echelon[pivot] = vec
            selected.append((key, node, comp))
            a = np.stack([c for _, _, c in selected], axis=1)
            solution = mat_solve(a, want, t)
            if solution is not None:
                break
        if solution is None:
            raise IrrecoverableError(
                f"block {failed} is below the decode threshold: the "
                f"{len(locations)} surviving payloads do not span it "
                f"(dead nodes: {sorted(snapshot.dead_nodes)})",
                failed_blocks=ctx.failed_blocks,
                attempt=attempt,
            )

        terms: list[tuple[str, int]] = []
        deps: list[str] = []
        for (key, node, _), coeff in zip(selected, solution):
            if coeff == 0:
                continue
            terms.append((key, int(coeff)))
            if node == target:
                continue
            send_key = (key, target)
            if send_key not in sent:
                sent[send_key] = plan.add_send(
                    f"{prefix}:a{attempt}:send:{key}-to-n{target}",
                    src=node,
                    dst=target,
                    key=key,
                )
            deps.append(sent[send_key])
        out_key = f"{prefix}:a{attempt}:recovered:{failed}"
        plan.add_combine(
            f"{prefix}:a{attempt}:final:{failed}",
            node=target,
            out_key=out_key,
            terms=terms,
            with_matrix_build=True,
            deps=deps,
        )
        plan.mark_output(failed, target, out_key)
    return plan


def _retarget(
    plan: RepairPlan, ctx: RepairContext, dead: set[int], attempt: int
) -> tuple[tuple[int, int], ...]:
    """Recovery targets for a re-plan: keep live ones, replace dead ones.

    Replacement policy matches :func:`repro.repair.base.recovery_targets`:
    the first live spare in the failed block's own rack.
    """
    override: list[tuple[int, int]] = []
    taken = {node for _, (node, _) in plan.outputs.items() if node not in dead}
    for block, (node, _) in sorted(plan.outputs.items()):
        if node not in dead:
            override.append((block, node))
            continue
        rack = ctx.rack_of_block(block)
        spares = [
            spare
            for spare in ctx.placement.spare_nodes_in_rack(ctx.cluster, rack)
            if spare not in dead and spare not in taken
        ]
        if not spares:
            raise IrrecoverableError(
                f"rack {rack} has no live spare left to host recovered "
                f"block {block} (dead nodes: {sorted(dead)})",
                failed_blocks=ctx.failed_blocks,
                attempt=attempt,
            )
        override.append((block, spares[0]))
        taken.add(spares[0])
    return tuple(override)


def _replan(
    scheme: RepairScheme,
    ctx: RepairContext,
    plan: RepairPlan,
    sym: dict[int, dict[str, np.ndarray]],
    dead: dict[int, float],
    attempt: int,
) -> RepairPlan:
    """``scheme``'s re-plan of ``ctx`` after ``plan`` lost the ``dead`` nodes.

    The re-plan sees the post-fault world — the dead nodes' blocks
    unavailable, dead recovery targets replaced (:func:`_retarget`) — and
    a :class:`RepairSnapshot` of the surviving compositions ``sym``.
    """
    unavailable = tuple(
        sorted(
            block
            for block in range(ctx.code.width)
            if block not in ctx.failed_blocks and ctx.placement.node_of(block) in dead
        )
    )
    override = _retarget(plan, ctx, set(dead), attempt)
    snapshot = RepairSnapshot(
        payloads={node: dict(keys) for node, keys in sym.items()},
        dead_nodes=frozenset(dead),
        attempt=attempt,
    )
    try:
        return scheme.replan(
            replace(ctx, unavailable_blocks=unavailable, recovery_override=override),
            snapshot,
        )
    except (InsufficientHelpersError, RepairPlanningError) as exc:
        raise IrrecoverableError(
            f"re-planning failed after node deaths {sorted(dead)}: {exc}",
            failed_blocks=ctx.failed_blocks,
            attempt=attempt,
        ) from exc


def simulate_fault_scenario(
    scheme: RepairScheme,
    ctx: RepairContext,
    bandwidth: BandwidthModel,
    *,
    kill=(),
    slow=(),
    loss_probability: float = 0.0,
    deaths: int = 0,
    seed: int = 0,
    stripe: Stripe | None = None,
    max_attempts: int = 3,
) -> tuple[float, RepairOutcome]:
    """One repair under faults anchored to its own fault-free makespan.

    ``kill`` is ``(node, fraction)`` pairs: the node dies at that
    fraction of the fault-free makespan of ``ctx`` itself, so a scenario
    means the same thing at any block size and on any testbed.  ``slow``
    is ``(node, slowdown factor)`` pairs.  With none of ``kill`` /
    ``slow`` / ``loss_probability`` given, ``deaths`` seeded random nodes
    die at uniform times inside the fault-free makespan, so every draw
    can strike while the repair is in flight.

    Returns ``(fault-free makespan, degraded outcome)``; raises what
    :func:`~repro.repair.simulate_repair` raises.
    """
    from .simulate import simulate_repair  # it imports this module's re-planning

    horizon = simulate_repair(scheme, ctx, bandwidth).total_repair_time
    if kill or slow or loss_probability:
        faults = FaultPlan(
            deaths=tuple(NodeDeath(node, fraction * horizon) for node, fraction in kill),
            stragglers=tuple(Straggler(node, factor) for node, factor in slow),
            loss_probability=loss_probability,
            seed=seed,
        )
    else:
        faults = random_fault_plan(
            ctx.cluster.node_ids(), seed=seed, deaths=deaths, death_window=(0.0, horizon)
        )
    return horizon, simulate_repair(
        scheme, ctx, bandwidth, faults, stripe=stripe, max_attempts=max_attempts
    )
