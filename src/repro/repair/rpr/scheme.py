"""The RPR scheme: pre-placement + Inner + Cross, single and multi failure.

This planner realises the full pipeline of §3:

1. **Helper selection** — rack-aware, preferring the eq. (6) XOR-only set
   when pre-placement makes it free (§3.3).
2. **Recovery equations** — eq. (6) fast path or eq. (8) via ``M'^{-1}``;
   one sub-equation per failed block (§3.4).
3. **Inner** (Alg. 1 / Alg. 3) — per rack, per equation: pairwise partial
   decoding trees producing one intermediate per (rack, equation), with
   raw-block movements shared between equations.
4. **Cross** (Alg. 2 / Alg. 4) — per equation: greedy binomial pipeline of
   the remote racks' intermediates onto that failure's recovery node —
   or, when the context carries a link model that says it is faster, the
   slice-pipelined gather: each remote rack lands on its own helper in
   the recovery rack, which folds its block in and forwards
   (:mod:`repro.repair.rpr.cross`; the remote inner trees are sliced too).
5. **Final decode** — XOR of the arrivals plus the recovery rack's own
   partial; pays the matrix-build surcharge only when the equations
   required ``M'^{-1}``.

The emitted plan is pure data: the simulation engine provides timing and
the port contention that makes the pipeline matter; the concrete executor
proves the plan decodes the genuinely lost bytes.
"""

from __future__ import annotations

from ...rs import (
    InsufficientHelpersError,
    RecoveryEquation,
    recovery_equations,
    slice_equation_by_group,
)
from ...sim import SimulationEngine
from ..base import RepairContext, RepairPlanningError, RepairScheme, recovery_targets
from ..faults import plan_degraded_gather
from ..plan import RepairPlan, block_key
from ..selection import rack_aware_helpers
from .cross import build_chain_gather, build_cross_gather, build_direct_gather, chain_slices
from .inner import InnerResult, build_inner_trees

__all__ = ["RPRScheme"]


class RPRScheme(RepairScheme):
    """Rack-aware Pipeline Repair (the paper's contribution).

    Parameters
    ----------
    prefer_xor:
        Enable the §3.3 XOR-only helper preference (the pre-placement fast
        path).  Disable for the ablation of pre-placement's decode effect.
    pipeline:
        Enable the Algorithm 2 greedy cross-rack pipeline.  Disabled, every
        remote rack sends its intermediate straight to the recovery node —
        Fig. 5's schedule 1 — for the scheduling ablation.
    """

    name = "rpr"

    def __init__(self, prefer_xor: bool = True, pipeline: bool = True) -> None:
        self.prefer_xor = prefer_xor
        self.pipeline = pipeline
        if not pipeline:
            self.name = "rpr-nopipe"

    def plan(self, ctx: RepairContext) -> RepairPlan:
        """The paper's plan — or, under a link model, the faster of it and the pipeline.

        Without ``ctx.link_model`` this is Algorithms 1–4 and nothing
        else.  With one, the repair is also built slice-pipelined (slice
        count from the block size and the slowest cross-rack rate among
        the nodes involved): remote inner trees and cross stage in
        slices, each remote rack landing on its own helper in the
        recovery rack.  Both plans are simulated on the model and the
        pipelined one is kept only when it is strictly faster — blocks
        too small to slice keep the tree.  So does every multi-block
        failure, without sizing anything: its aggregators upload one
        block per equation either way, so the pipeline has nothing to
        shorten until equations spread over different aggregators
        (ROADMAP follow-on).
        """
        helpers = rack_aware_helpers(ctx, prefer_xor=self.prefer_xor)
        targets = recovery_targets(ctx)
        plan = self._build(ctx, helpers, targets, chain=1)
        if ctx.link_model is None or not self.pipeline or len(targets) > 1:
            return plan
        nodes = [ctx.node_of_block(b) for b in helpers] + list(targets.values())
        slowest = min(
            (
                ctx.link_model.rate(ctx.cluster, a, b)
                for a in nodes
                for b in nodes
                if not ctx.cluster.same_rack(a, b)
            ),
            default=None,
        )
        chain = chain_slices(ctx.block_size, slowest) if slowest else 1
        if chain == 1:
            return plan
        chained = self._build(ctx, helpers, targets, chain=chain)
        engine = SimulationEngine(ctx.cluster, ctx.link_model)

        def makespan(candidate: RepairPlan) -> float:
            return engine.run(candidate.to_job_graph(ctx.cost_model)).makespan

        return chained if makespan(chained) < makespan(plan) else plan

    def _build(
        self, ctx: RepairContext, helpers, targets: dict[int, int], chain: int
    ) -> RepairPlan:
        """Inner + Cross + final decode; ``chain > 1`` runs the remote
        racks' inner trees and the cross stage in that many slices, landing
        the remote racks on the recovery rack's helpers (land and fold)."""
        equations = recovery_equations(ctx.code, list(ctx.failed_blocks), helpers)
        groups = ctx.placement.group_of_blocks(ctx.cluster)

        plan = RepairPlan(block_size=ctx.block_size)

        # eq_rack_terms[e][rack] -> {block: coeff}
        eq_rack_terms: list[dict[int, dict[int, int]]] = []
        racks_involved: set[int] = set()
        for eq in equations:
            by_rack = slice_equation_by_group(eq, groups)
            eq_rack_terms.append(
                {rack: dict(part.terms) for rack, part in by_rack.items()}
            )
            racks_involved.update(by_rack.keys())

        target_rack_of_eq = [
            ctx.cluster.rack_of(targets[eq.target]) for eq in equations
        ]

        helper_racks = sorted(racks_involved)
        # positions per rack, deterministic order by block id.
        rack_positions = {
            rack: [
                (ctx.node_of_block(b), b)
                for b in sorted(h for h in helpers if groups[h] == rack)
            ]
            for rack in helper_racks
        }

        # -- Inner stage: one tree per rack covering the equations whose
        # recovery node is NOT in that rack.  Helpers local to an equation's
        # recovery rack stream raw to the recovery node instead (Fig. 4's
        # timestep 1): they are ready at time zero, the recovery node's
        # download port is idle until the first cross arrival, and the raw
        # sends are shared between equations targeting the same node.
        rack_results: dict[int, list[InnerResult | None]] = {}
        for rack in helper_racks:
            coeffs_per_eq = [
                rack_terms.get(rack, {}) if target_rack_of_eq[e] != rack else {}
                for e, rack_terms in enumerate(eq_rack_terms)
            ]
            rack_results[rack] = build_inner_trees(
                plan,
                positions=rack_positions[rack],
                eq_coeffs=coeffs_per_eq,
                prefix=f"rpr:inner:r{rack}",
                slices=chain,
            )

        # Raw local streams, deduplicated per (block, target node).
        raw_sends: dict[tuple[int, int], str] = {}

        # -- Cross stage + final decode, per equation.
        for eq_idx, eq in enumerate(equations):
            self._finish_equation(
                ctx,
                plan,
                eq,
                eq_idx,
                targets[eq.target],
                eq_rack_terms[eq_idx],
                rack_results,
                raw_sends,
                chain,
            )
        return plan

    def replan(self, ctx: RepairContext, snapshot=None) -> RepairPlan:
        """Re-plan after a mid-repair fault, reusing delivered partial sums.

        RPR's intermediates are GF-linear combinations of data blocks with
        known coefficients, so any partial sum a failed attempt already
        delivered is first-class decode input.  When the snapshot holds at
        least one surviving intermediate the re-plan routes through
        :func:`repro.repair.faults.plan_degraded_gather`, which solves for
        a decode expression biased toward those intermediates instead of
        re-shipping the raw blocks they summarise.  With nothing delivered
        (or no snapshot) a fresh pipeline plan is at least as good; if the
        fresh plan is infeasible (fewer than ``n`` raw survivors) the
        gather solve over the surviving payload span is the last resort.
        """
        if snapshot is not None and snapshot.intermediates():
            return plan_degraded_gather(ctx, snapshot, prefix="rpr:degraded")
        try:
            return self.plan(ctx)
        except (InsufficientHelpersError, RepairPlanningError):
            if snapshot is None:
                raise
            return plan_degraded_gather(ctx, snapshot, prefix="rpr:degraded")

    def _finish_equation(
        self,
        ctx: RepairContext,
        plan: RepairPlan,
        eq: RecoveryEquation,
        eq_idx: int,
        target: int,
        rack_terms: dict[int, dict[int, int]],
        rack_results: dict[int, list[InnerResult | None]],
        raw_sends: dict[tuple[int, int], str],
        chain: int,
    ) -> None:
        target_rack = ctx.cluster.rack_of(target)
        final_terms: list[tuple[str, int]] = []
        final_deps: list[str] = []

        # Remote racks enter the gather in rack-id order (Algorithm 2).
        remote = [
            results[eq_idx]
            for rack, results in sorted(rack_results.items())
            if rack != target_rack and results[eq_idx] is not None
        ]

        # A sliced cross stage lands each remote rack on its own local
        # helper, which folds its block in on the way to the recovery node.
        local = sorted(rack_terms.get(target_rack, {}).items())
        landings = []
        if chain > 1:
            landings = [
                InnerResult(block_key(block), ctx.node_of_block(block), None, coeff)
                for block, coeff in local
                if ctx.node_of_block(block) != target
            ][: len(remote)]
        landed = {landing.key for landing in landings}

        # Other local helpers stream raw to the recovery node (shared
        # across equations); their coefficients apply in the final
        # combine.  A helper resident on the recovery node itself
        # (degraded-read override) is consumed in place, transfer-free.
        for block, coeff in local:
            if block_key(block) in landed:
                continue
            src = ctx.node_of_block(block)
            final_terms.append((block_key(block), coeff))
            if src == target:
                continue
            key = (block, target)
            if key not in raw_sends:
                raw_sends[key] = plan.add_send(
                    f"rpr:local:b{block}-to-{target}",
                    src=src,
                    dst=target,
                    key=block_key(block),
                )
            final_deps.append(raw_sends[key])

        prefix = f"rpr:eq{eq_idx}:cross"
        if chain > 1 and remote:
            arrivals = build_chain_gather(
                plan, target, remote, prefix, slices=chain, landings=landings
            )
        else:
            gather = build_cross_gather if self.pipeline else build_direct_gather
            arrivals = gather(plan, target_node=target, sources=remote, prefix=prefix)
        for arrival in arrivals:
            final_terms.append((arrival.key, arrival.coeff))
            final_deps.append(arrival.dep)

        out_key = f"rpr:recovered:{eq.target}"
        plan.add_combine(
            f"rpr:eq{eq_idx}:final",
            node=target,
            out_key=out_key,
            terms=final_terms,
            with_matrix_build=eq.requires_matrix_build,
            deps=final_deps,
            slices=max((arrival.slices for arrival in arrivals), default=1),
        )
        plan.mark_output(eq.target, target, out_key)
