"""Locally Repairable Codes — the Azure (12, 2, 2) family (§4.3.1).

The paper cites Windows Azure's LRC(12, 2, 2) as an industry code worth
supporting.  An ``LRC(n, l, g)`` splits the ``n`` data blocks into ``l``
equal local groups, adds one XOR parity per group, and ``g`` global
parities with Reed--Solomon-style coefficients:

* block ids ``0..n-1`` — data;
* ``n..n+l-1`` — local parities (``L_j`` = XOR of group ``j``);
* ``n+l..n+l+g-1`` — global parities.

The selling point is cheap common-case repair: a single data-block loss
is fixed from its local group (``n/l`` helpers) instead of ``n`` — at
the same storage overhead as an MDS code with ``l + g`` parities.  The
price is weaker worst-case tolerance: not every ``l + g``-failure
pattern is recoverable (LRC is not MDS); the decoder in
:mod:`repro.lrc.decode` reports unrecoverable patterns explicitly.

Global-parity coefficients come from the systematic Vandermonde coding
rows *after* the all-ones row: the XOR of all local parities already
equals the all-ones combination, so including it would waste a parity.

**Construction caveat** — production LRCs (Azure's) pick global
coefficients to be *maximally recoverable*: every failure pattern that
is information-theoretically decodable decodes.  Generic Vandermonde
rows are close but not maximal: for LRC(12,2,2), 5 of the 1820
four-failure patterns (certain 2+2 splits across the groups) are
decodable in principle but singular under these coefficients.  The
exhaustive census lives in ``tests/lrc/test_lrc.py``.
"""

from __future__ import annotations

import numpy as np

from ..gf import apply_matrix_to_blocks, mat_identity, systematic_vandermonde_generator
from ..rs import Stripe

__all__ = ["LRCCode"]


class LRCCode:
    """A systematic LRC(n, l, g) code over GF(2^8).

    The public surface mirrors :class:`repro.rs.RSCode` where the
    concepts coincide (``n``, ``k = l + g``, ``width``, ``generator``,
    ``encode``, ``verify_stripe``), so cluster/placement machinery works
    unchanged.
    """

    def __init__(self, n: int, l: int, g: int) -> None:
        if n < 1 or l < 1 or g < 0:
            raise ValueError(f"invalid LRC parameters n={n}, l={l}, g={g}")
        if n % l != 0:
            raise ValueError(f"l={l} must divide n={n} (equal local groups)")
        if n + l + g > 256:
            raise ValueError("LRC over GF(256) needs n + l + g <= 256")
        self.n = n
        self.l = l
        self.g = g
        self.group_size = n // l

        generator = np.zeros((n + l + g, n), dtype=np.uint8)
        generator[:n] = mat_identity(n)
        for j in range(l):
            generator[n + j, self.group(j)] = 1
        if g > 0:
            # Vandermonde coding rows 1..g (row 0 is the all-ones row the
            # local parities already span).
            rs = systematic_vandermonde_generator(n, g + 1)
            generator[n + l :] = rs[n + 1 :]
        self.generator = generator
        self.generator.setflags(write=False)

    # -- structure -------------------------------------------------------

    @property
    def k(self) -> int:
        """Total parity count, ``l + g`` (RSCode-compatible)."""
        return self.l + self.g

    @property
    def width(self) -> int:
        return self.n + self.k

    @property
    def storage_overhead(self) -> float:
        return self.k / self.n

    def group(self, j: int) -> list[int]:
        """Data block ids of local group ``j``."""
        if not 0 <= j < self.l:
            raise ValueError(f"no local group {j} (l={self.l})")
        return list(range(j * self.group_size, (j + 1) * self.group_size))

    def group_of(self, block_id: int) -> int | None:
        """Local group of a data block or local parity; None for globals."""
        if 0 <= block_id < self.n:
            return block_id // self.group_size
        if self.n <= block_id < self.n + self.l:
            return block_id - self.n
        if block_id < self.width:
            return None
        raise ValueError(f"block {block_id} outside code of width {self.width}")

    def local_parity(self, j: int) -> int:
        """Block id of group ``j``'s local parity."""
        if not 0 <= j < self.l:
            raise ValueError(f"no local group {j} (l={self.l})")
        return self.n + j

    def is_global_parity(self, block_id: int) -> bool:
        return self.n + self.l <= block_id < self.width

    def generator_row(self, block_id: int) -> np.ndarray:
        if not 0 <= block_id < self.width:
            raise ValueError(f"block {block_id} outside code of width {self.width}")
        return self.generator[block_id]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"LRCCode(n={self.n}, l={self.l}, g={self.g})"

    # -- encoding ------------------------------------------------------------

    def encode(self, data_blocks) -> list[np.ndarray]:
        """Encode ``n`` data blocks into all ``n + l + g`` stripe blocks."""
        data_blocks = list(data_blocks)
        if len(data_blocks) != self.n:
            raise ValueError(f"expected {self.n} data blocks, got {len(data_blocks)}")
        return apply_matrix_to_blocks(self.generator, data_blocks)

    def encode_stripe(self, data_blocks, block_size: int | None = None) -> Stripe:
        blocks = self.encode(data_blocks)
        size = block_size if block_size is not None else len(blocks[0])
        stripe = Stripe(self.n, self.k, size)
        for bid, payload in enumerate(blocks):
            stripe.set_payload(bid, payload)
        return stripe

    def verify_stripe(self, stripe: Stripe) -> bool:
        if stripe.n != self.n or stripe.k != self.k:
            raise ValueError("stripe shape does not match code")
        data = [stripe.get_payload(i) for i in range(self.n)]
        expected = self.encode(data)
        return all(
            np.array_equal(expected[bid], stripe.get_payload(bid))
            for bid in range(self.width)
        )
