"""Byte-level payloads for whole stores: batched encode and rebuild.

The planning layers in this package are placement-only; this module is
their concrete counterpart.  It materialises every stripe's payload bytes
and rebuilds a failed node's blocks, routing all bulk work through the
batched coding stack (:meth:`repro.rs.code.RSCode.encode_many` /
:meth:`~repro.rs.code.RSCode.decode_many`) instead of looping the
single-stripe kernels: one store-wide encode pass, and one decode pass
per distinct lost block id.

Grouping by lost block id is what makes the decode batchable: stripes in
a store share one code, and every stripe that lost the same block id
repairs with the same recovery equations, so their helper payloads stack
into one matrix application (the declustered rotation in
:mod:`repro.multistripe.store` spreads a node's blocks across ids, giving
a few large groups rather than many singletons).
"""

from __future__ import annotations

import numpy as np

from .store import StripeStore

__all__ = ["encode_store_payloads", "rebuild_node_payloads"]


def encode_store_payloads(
    store: StripeStore, block_size: int, seed: int = 0
) -> np.ndarray:
    """Deterministic payload bytes for every stripe of ``store``.

    Returns a ``(num_stripes, n + k, block_size)`` uint8 array — stripe
    ``sid``'s blocks at index ``sid`` — produced by one batched
    :meth:`~repro.rs.code.RSCode.encode_many` pass over seeded random
    data.
    """
    if block_size < 1:
        raise ValueError("block_size must be positive")
    if not len(store):
        raise ValueError("store has no stripes")
    code = store.code
    rng = np.random.default_rng(seed)
    data = rng.integers(
        0, 256, size=(len(store), code.n, block_size), dtype=np.uint8
    )
    return code.encode_many(data)


def rebuild_node_payloads(
    store: StripeStore, failed_node: int, payloads: np.ndarray
) -> dict[int, np.ndarray]:
    """Reconstruct every block lost with ``failed_node``, batched.

    Parameters
    ----------
    store:
        The placement store the payloads belong to.
    failed_node:
        Node whose blocks are gone.
    payloads:
        ``(num_stripes, n + k, block_size)`` store payloads as built by
        :func:`encode_store_payloads` (the failed node's entries are
        treated as lost and never read).

    Returns
    -------
    ``stripe_id -> rebuilt payload`` for every affected stripe,
    byte-identical to a per-stripe decode.
    """
    lost = store.blocks_on_node(failed_node)
    if not lost:
        return {}
    code = store.code
    if payloads.shape != (len(store), code.width, payloads.shape[2]):
        raise ValueError(
            f"payloads shape {payloads.shape} does not match store of "
            f"{len(store)} stripes of width {code.width}"
        )
    by_block: dict[int, list[int]] = {}
    for sid, bid in lost:
        by_block.setdefault(bid, []).append(sid)

    rebuilt: dict[int, np.ndarray] = {}
    for bid, sids in by_block.items():
        # One stacked decode per lost block id: same failure, same
        # helpers, same recovery equation across the whole group.
        stack = payloads[sids]  # (group, width, B)
        available = {
            b: np.ascontiguousarray(stack[:, b, :])
            for b in range(code.width)
            if b != bid
        }
        recovered = code.decode_many(available, [bid])[bid]
        for row, sid in enumerate(sids):
            rebuilt[sid] = recovered[row]
    return rebuilt
