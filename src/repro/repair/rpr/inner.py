"""RPR inner-rack partial decoding — the paper's Algorithm 1 (*Inner*).

Within one rack, surviving helper blocks are combined pair-wise in a
binary tree: each level moves one block of every pair to its partner's
node (disjoint node pairs, so all of a level's intra-rack transfers run
in parallel) and XOR/GF-combines there.  Depth is ``ceil(log2 m)`` for
``m`` helpers, the source of eq. (11)'s logarithmic inner-transfer term.

The builder is *multi-equation aware* (Algorithm 3, *Inner-multi*): for
``l`` simultaneous failures each rack must produce ``l`` intermediates —
one per recovery sub-equation of eq. (9) — from the same local blocks.
The tree's *sends* of raw blocks are shared across equations (the bytes
only need to reach the combining node once); only the per-equation
combines (whose coefficients differ) are duplicated.  Higher tree levels
carry per-equation intermediates, so their sends are per-equation.

With ``slices=s > 1`` every send and combine of the tree runs in ``s``
byte ranges, so a remote rack's intermediate streams into the
slice-pipelined cross stage (:func:`~repro.repair.rpr.cross.build_chain_gather`)
slice by slice: the first cross-rack slice leaves after one intra-rack
slice per tree level, not after the whole tree.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..plan import RepairPlan, block_key

__all__ = ["InnerResult", "build_inner_trees"]


@dataclass(frozen=True)
class InnerResult:
    """Where one equation's rack intermediate ends up.

    Attributes
    ----------
    key:
        Payload key of the finished intermediate.
    node:
        Node holding it (the rack "gateway" for the cross stage).
    dep:
        Op id producing it, or None when it is a raw unmodified block.
    coeff:
        Pending GF coefficient still to be applied to this payload.  A
        rack whose tree actually combined something always yields 1; a
        rack contributing a single raw block carries that block's
        equation coefficient here, to be folded into the next downstream
        combine instead of paying a local scaling pass.
    """

    key: str
    node: int
    dep: str | None
    coeff: int = 1


@dataclass
class _EqState:
    """Per-equation running payload at one tree position."""

    key: str
    coeff: int
    dep: str | None


def build_inner_trees(
    plan: RepairPlan,
    positions: list[tuple[int, int]],
    eq_coeffs: list[dict[int, int]],
    prefix: str,
    slices: int = 1,
) -> list[InnerResult | None]:
    """Emit the pairwise inner tree for one rack, for all equations at once.

    Parameters
    ----------
    plan:
        Plan being built (ops are appended).
    positions:
        ``(node, block_id)`` for each local helper, in deterministic order.
    eq_coeffs:
        One mapping per recovery sub-equation: ``block_id -> coefficient``
        for the blocks of this rack that participate in that equation
        (blocks may be absent when their coefficient is zero).
    prefix:
        Unique op-id prefix for this rack.
    slices:
        Byte ranges every send and combine of the tree runs in; a sliced
        tree's intermediates must be read by equally sliced ops.

    Returns
    -------
    One :class:`InnerResult` per equation (None when no local block
    participates in that equation).  Each result's payload equals
    ``sum(coeff * block)`` over the equation's local terms.
    """
    if not positions:
        return [None] * len(eq_coeffs)

    # states[pos][eq] — the equation's partial payload at that position.
    states: list[list[_EqState | None]] = []
    nodes: list[int] = []
    for node, block in positions:
        nodes.append(node)
        states.append(
            [
                _EqState(key=block_key(block), coeff=coeffs[block], dep=None)
                if block in coeffs
                else None
                for coeffs in eq_coeffs
            ]
        )

    level = 0
    while len(nodes) > 1:
        next_states: list[list[_EqState | None]] = []
        next_nodes: list[int] = []
        pair_count = len(nodes) // 2
        for p in range(pair_count):
            recv, send = 2 * p, 2 * p + 1
            merged = _merge_positions(
                plan,
                recv_node=nodes[recv],
                send_node=nodes[send],
                recv_states=states[recv],
                send_states=states[send],
                prefix=f"{prefix}:L{level}:p{p}",
                slices=slices,
            )
            next_nodes.append(nodes[recv])
            next_states.append(merged)
        if len(nodes) % 2 == 1:
            # Odd position carries to the next level unchanged (the
            # algorithm's trailing-element fold, one level deferred).
            next_nodes.append(nodes[-1])
            next_states.append(states[-1])
        nodes, states = next_nodes, next_states
        level += 1

    return [
        None
        if state is None
        else InnerResult(
            key=state.key, node=nodes[0], dep=state.dep, coeff=state.coeff
        )
        for state in states[0]
    ]


def _merge_positions(
    plan: RepairPlan,
    recv_node: int,
    send_node: int,
    recv_states: list[_EqState | None],
    send_states: list[_EqState | None],
    prefix: str,
    slices: int,
) -> list[_EqState | None]:
    """Move the sender position's payloads to the receiver and combine.

    Distinct payload keys are sent once each (raw blocks are shared by all
    equations; per-equation intermediates are separate keys and transfer
    separately, as they would in a real system).
    """
    # Which payloads must cross from send_node to recv_node?
    send_ops: dict[str, str] = {}
    for state in send_states:
        if state is None or state.key in send_ops:
            continue
        op = plan.add_send(
            f"{prefix}:send:{len(send_ops)}",
            src=send_node,
            dst=recv_node,
            key=state.key,
            deps=[state.dep] if state.dep else [],
            slices=slices,
        )
        send_ops[state.key] = op

    merged: list[_EqState | None] = []
    for eq_idx, (a, b) in enumerate(zip(recv_states, send_states)):
        if a is None and b is None:
            merged.append(None)
        elif b is None:
            merged.append(a)
        elif a is None:
            # Payload arrived at recv_node; it keeps its pending coefficient.
            merged.append(_EqState(key=b.key, coeff=b.coeff, dep=send_ops[b.key]))
        else:
            out_key = f"{prefix}:eq{eq_idx}:im"
            deps = [send_ops[b.key]]
            if a.dep:
                deps.append(a.dep)
            op = plan.add_combine(
                f"{prefix}:eq{eq_idx}:combine",
                node=recv_node,
                out_key=out_key,
                terms=[(a.key, a.coeff), (b.key, b.coeff)],
                deps=deps,
                slices=slices,
            )
            merged.append(_EqState(key=out_key, coeff=1, dep=op))
    return merged
