"""RPR cross-rack pipeline scheduling — the paper's Algorithm 2 (*Cross*).

Given one finished intermediate per remote rack, the greedy pipeline
aggregates them to the recovery node in ``ceil(log2 (r + 1))`` cross-rack
timesteps instead of the ``r`` serial timesteps a direct all-to-recovery
gather costs (Fig. 5, schedule 2 vs schedule 1):

* each round pairs every idle holder with another idle holder (no rack
  sits on an occupied port), honouring the algorithm's "start a
  cross-rack transfer with any other rack which has no cross-rack
  transfer";
* the recovery node is a holder from the start, so it receives one
  intermediate per round while other racks combine in parallel;
* a rack sends the moment its own payload is ready — the *pipeline*:
  nothing waits for a global barrier, only for its dependencies (the
  simulation engine's port model supplies the rest).

Algorithm 2 pipelines *whole blocks*, so the recovery node's download
port still carries ``ceil(log2 (r + 1))`` blocks back to back.
:func:`build_chain_gather` is the sub-block alternative (ECPipe's repair
pipelining, Li et al.): every hop moves its block in ``s`` slices, so
slice *j* crosses hop *i + 1* while slice *j + 1* crosses hop *i*.  The
remote racks do not queue on one port: each lands its intermediate on
its own helper in the recovery rack (*land and fold*), which folds its
block into the arriving slices and streams the partial sum to the
recovery node over the rack's fast links.  The cross-rack uploads run
side by side and the gather costs one cross-rack block time plus a few
slices; only racks beyond the recovery rack's helper count still chain
(``1 + (g - 1) / s`` block times for a group of ``g``).  Both gathers
move one block out of every remote rack; which one a repair uses is
decided by :class:`~repro.repair.rpr.RPRScheme` from the link model.

The builders emit sends/combines; they perform no timing themselves.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from ..plan import RepairPlan
from .inner import InnerResult

__all__ = [
    "CrossArrival",
    "MAX_SLICES",
    "MIN_SLICE_SECONDS",
    "build_chain_gather",
    "build_cross_gather",
    "build_direct_gather",
    "chain_slices",
]

#: Shortest cross-rack transfer worth making a slice of.  Every live
#: transfer pays a fixed cost the simulator does not model (port claim,
#: frame header, ack round trip, task wake-ups: ~1.7 ms measured when
#: each slice was sent like a whole transfer, ``docs/LIVE.md`` §3.1); at
#: 10 ms per slice that stays under a fifth of the slice.
MIN_SLICE_SECONDS = 0.010

#: Most slices a block is cut into.  A chain of ``r`` hops costs
#: ``1 + (r - 1) / s`` block times: at 32 slices even four remote racks
#: sit within 10 % of the one-block floor, and each further doubling
#: buys half as much for twice the per-slice overhead.
MAX_SLICES = 32


def chain_slices(block_size: int, rate: float) -> int:
    """Slices per block for a chain whose slowest cross-rack hop runs at ``rate``.

    As many as keep one slice's transfer at or above
    :data:`MIN_SLICE_SECONDS`, capped at :data:`MAX_SLICES`; 1 means the
    block is too small to slice (64 KiB at 0.8 MB/s → 8, 4 KiB → 1).
    """
    return max(1, min(MAX_SLICES, int(block_size / rate / MIN_SLICE_SECONDS)))


@dataclass(frozen=True)
class CrossArrival:
    """One payload landed on the recovery node by the cross stage.

    ``coeff`` is the pending coefficient the final combine must apply
    (1 for anything a partial decode already touched); ``slices`` is how
    the payload arrives, which is how the final combine must read it.
    """

    key: str
    dep: str
    coeff: int = 1
    slices: int = 1


def build_direct_gather(
    plan: RepairPlan,
    target_node: int,
    sources: list[InnerResult],
    prefix: str,
) -> list[CrossArrival]:
    """Schedule 1 of Fig. 5: every rack sends straight to the recovery node.

    The no-pipeline baseline used by the scheduling ablation — all sends
    contend for the recovery node's download port and serialise
    (``r * t_c`` for ``r`` remote racks).
    """
    arrivals = []
    for idx, source in enumerate(sources):
        op = plan.add_send(
            f"{prefix}:direct{idx}",
            src=source.node,
            dst=target_node,
            key=source.key,
            deps=[source.dep] if source.dep else [],
        )
        arrivals.append(CrossArrival(key=source.key, dep=op, coeff=source.coeff))
    return arrivals


def build_cross_gather(
    plan: RepairPlan,
    target_node: int,
    sources: list[InnerResult],
    prefix: str,
) -> list[CrossArrival]:
    """Binomial-tree gather of rack intermediates onto ``target_node``.

    Parameters
    ----------
    plan:
        Plan being built.
    target_node:
        The recovery node (Algorithm 2's repair rack endpoint).
    sources:
        One intermediate per remote rack (key, holder node, producing op).
    prefix:
        Unique op-id prefix for this equation.

    Returns
    -------
    The payloads that ended up on ``target_node`` (one per aggregation
    round; combined with any recovery-rack-local partials they
    reconstruct the failed block).  Intermediates merged at non-target
    racks are combined there, applying any coefficient still pending from
    a raw single-block contribution.
    """
    holders: list[InnerResult] = list(sources)
    arrivals: list[CrossArrival] = []
    round_no = 0

    while holders:
        # holders[0] pairs with the target; remaining holders pair among
        # themselves: (1,2), (3,4), ... senders are the higher indices.
        to_target = holders[0]
        op = plan.add_send(
            f"{prefix}:R{round_no}:to-target",
            src=to_target.node,
            dst=target_node,
            key=to_target.key,
            deps=[to_target.dep] if to_target.dep else [],
        )
        arrivals.append(
            CrossArrival(key=to_target.key, dep=op, coeff=to_target.coeff)
        )

        next_holders: list[InnerResult] = []
        rest = holders[1:]
        for pair_idx in range(0, len(rest) - 1, 2):
            recv, send = rest[pair_idx], rest[pair_idx + 1]
            send_op = plan.add_send(
                f"{prefix}:R{round_no}:pair{pair_idx // 2}:send",
                src=send.node,
                dst=recv.node,
                key=send.key,
                deps=[send.dep] if send.dep else [],
            )
            out_key = f"{prefix}:R{round_no}:pair{pair_idx // 2}:im"
            deps = [send_op]
            if recv.dep:
                deps.append(recv.dep)
            combine = plan.add_combine(
                f"{prefix}:R{round_no}:pair{pair_idx // 2}:combine",
                node=recv.node,
                out_key=out_key,
                terms=[(recv.key, recv.coeff), (send.key, send.coeff)],
                deps=deps,
            )
            next_holders.append(InnerResult(key=out_key, node=recv.node, dep=combine))
        if len(rest) % 2 == 1:
            next_holders.append(rest[-1])
        holders = next_holders
        round_no += 1

    return arrivals


def build_chain_gather(
    plan: RepairPlan,
    target_node: int,
    sources: list[InnerResult],
    prefix: str,
    slices: int,
    landings: Sequence[InnerResult] = (),
) -> list[CrossArrival]:
    """Slice-pipelined chains of rack intermediates ending at ``target_node``.

    Without ``landings`` this is one chain: ``sources[0]`` sends its
    intermediate to ``sources[1]``'s node, which folds in its own and
    sends on, and so on to the recovery node; every send and every fold
    runs in ``slices`` slices, so the hops overlap.

    ``landings`` are helpers in the recovery rack (raw blocks with their
    coefficients, at most one per source).  The sources are spread over
    them in contiguous groups and each group chains into its landing as
    above — the landing is the chain's last link: it folds its own block
    into the arriving slices and forwards the partial sum to the recovery
    node.  So the groups' cross-rack uploads run side by side, no port
    carries more than one cross-rack block, and the recovery node's
    download port only receives intra-rack slices.  With more sources
    than landings the extra sources still chain within their group.

    Returns one payload per chain that reaches ``target_node``.
    """
    if not landings:
        return [_chain(plan, target_node, sources, prefix, slices)]
    size, longer = divmod(len(sources), len(landings))
    arrivals, start = [], 0
    for group, landing in enumerate(landings):
        end = start + size + (group < longer)
        chain = [*sources[start:end], landing]
        arrivals.append(_chain(plan, target_node, chain, f"{prefix}:G{group}", slices))
        start = end
    return arrivals


def _chain(
    plan: RepairPlan,
    target_node: int,
    sources: list[InnerResult],
    prefix: str,
    slices: int,
) -> CrossArrival:
    """``sources`` folded hop by hop in ``slices`` slices, then sent on to ``target_node``."""
    carried = sources[0]
    for hop, here in enumerate(sources[1:]):
        send_op = plan.add_send(
            f"{prefix}:C{hop}:send",
            src=carried.node,
            dst=here.node,
            key=carried.key,
            deps=[carried.dep] if carried.dep else [],
            slices=slices,
        )
        out_key = f"{prefix}:C{hop}:im"
        deps = [send_op]
        if here.dep:
            deps.append(here.dep)
        combine = plan.add_combine(
            f"{prefix}:C{hop}:combine",
            node=here.node,
            out_key=out_key,
            terms=[(here.key, here.coeff), (carried.key, carried.coeff)],
            deps=deps,
            slices=slices,
        )
        carried = InnerResult(key=out_key, node=here.node, dep=combine)
    op = plan.add_send(
        f"{prefix}:C{len(sources) - 1}:to-target",
        src=carried.node,
        dst=target_node,
        key=carried.key,
        deps=[carried.dep] if carried.dep else [],
        slices=slices,
    )
    return CrossArrival(key=carried.key, dep=op, coeff=carried.coeff, slices=slices)
