"""LRC repair planner: local-first, pipelined when repair goes wide.

``LRCLocalRepair`` plans against the same :class:`RepairContext` /
:class:`RepairPlan` machinery as the RS schemes, so the executor,
simulator, metrics and benchmarks apply unchanged:

* equations come from :func:`repro.lrc.decode.lrc_recovery_equations`
  (group-XOR when the pattern allows, general solve otherwise);
* within each rack, helpers combine through the same pairwise inner
  trees as RPR (Algorithm 1 is equation-agnostic);
* across racks, intermediates aggregate through RPR's greedy binomial
  pipeline (Algorithm 2) toward the recovery node.

In other words: LRC brings the smaller helper sets, RPR brings the
scheduling — :func:`repro.experiments.lrc_rows` (``rpr extension lrc``)
quantifies the combination against RS(12,4)+RPR.
"""

from __future__ import annotations

from ..repair.base import RepairContext, RepairScheme, recovery_targets
from ..repair.plan import RepairPlan, block_key
from ..repair.rpr.cross import build_cross_gather
from ..repair.rpr.inner import build_inner_trees
from ..rs import slice_equation_by_group
from .code import LRCCode
from .decode import lrc_recovery_equations

__all__ = ["LRCLocalRepair"]


class LRCLocalRepair(RepairScheme):
    """Locality-first LRC repair with RPR-style cross-rack pipelining."""

    name = "lrc-local"

    def plan(self, ctx: RepairContext) -> RepairPlan:
        code = ctx.code
        if not isinstance(code, LRCCode):
            raise TypeError("LRCLocalRepair requires an LRCCode context")
        targets = recovery_targets(ctx)
        equations = lrc_recovery_equations(
            code, list(ctx.failed_blocks), ctx.surviving_blocks
        )
        groups = ctx.placement.group_of_blocks(ctx.cluster)

        plan = RepairPlan(block_size=ctx.block_size)
        raw_sends: dict[tuple[int, int], str] = {}

        # Rack trees are built per equation here (helper sets differ per
        # equation under locality, unlike the shared-set RS case).
        for eq_idx, eq in enumerate(equations):
            target = targets[eq.target]
            target_rack = ctx.cluster.rack_of(target)
            slices = slice_equation_by_group(eq, groups)

            final_terms: list[tuple[str, int]] = []
            final_deps: list[str] = []

            local_terms = (
                sorted(dict(slices[target_rack].terms).items())
                if target_rack in slices
                else []
            )
            for block, coeff in local_terms:
                src = ctx.node_of_block(block)
                final_terms.append((block_key(block), coeff))
                if src == target:
                    continue
                key = (block, target)
                if key not in raw_sends:
                    raw_sends[key] = plan.add_send(
                        f"lrc:local:b{block}-to-{target}",
                        src=src,
                        dst=target,
                        key=block_key(block),
                    )
                final_deps.append(raw_sends[key])

            remote = []
            for rack in sorted(slices):
                if rack == target_rack:
                    continue
                positions = [
                    (ctx.node_of_block(b), b)
                    for b in sorted(h for h, _ in slices[rack].terms)
                ]
                [result] = build_inner_trees(
                    plan,
                    positions,
                    [dict(slices[rack].terms)],
                    prefix=f"lrc:eq{eq_idx}:r{rack}",
                )
                if result is not None:
                    remote.append(result)

            arrivals = build_cross_gather(
                plan,
                target_node=target,
                sources=remote,
                prefix=f"lrc:eq{eq_idx}:cross",
            )
            for arrival in arrivals:
                final_terms.append((arrival.key, arrival.coeff))
                final_deps.append(arrival.dep)

            out_key = f"lrc:recovered:{eq.target}"
            plan.add_combine(
                f"lrc:eq{eq_idx}:final",
                node=target,
                out_key=out_key,
                terms=final_terms,
                with_matrix_build=eq.requires_matrix_build,
                deps=final_deps,
            )
            plan.mark_output(eq.target, target, out_key)
        return plan
