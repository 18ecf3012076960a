"""Stripe abstraction: the unit of erasure-coded placement and repair.

A *stripe* is the set of ``n + k`` dependent blocks produced by encoding
``n`` data blocks with an RS(n, k) code (paper §1).  Block identifiers are
integers: ``0 .. n-1`` are data blocks, ``n .. n+k-1`` are parity blocks
(so block ``n`` is ``P0``, the XOR parity).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

__all__ = ["BlockKind", "block_kind", "Stripe"]


class BlockKind:
    """Symbolic names for the two block roles within a stripe."""

    DATA = "data"
    PARITY = "parity"


def block_kind(block_id: int, n: int) -> str:
    """Classify ``block_id`` as data or parity for an RS(n, k) stripe."""
    if block_id < 0:
        raise ValueError(f"negative block id {block_id}")
    return BlockKind.DATA if block_id < n else BlockKind.PARITY


@dataclass
class Stripe:
    """One encoded stripe: code parameters plus (optionally) block payloads.

    The payloads are optional because most of the library manipulates
    stripes *symbolically* — placement, scheduling, and traffic accounting
    do not need bytes.  The concrete executor attaches real payloads to
    verify that repair plans actually reconstruct data.

    Attributes
    ----------
    n:
        Number of data blocks.
    k:
        Number of parity blocks.
    block_size:
        Size of every block in bytes (all blocks in a stripe are equal-sized).
    payloads:
        Optional mapping ``block_id -> uint8 array``; absent entries model
        lost or never-materialised blocks.
    """

    n: int
    k: int
    block_size: int
    payloads: dict[int, np.ndarray] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.n < 1 or self.k < 0:
            raise ValueError(f"invalid stripe shape n={self.n}, k={self.k}")
        if self.block_size < 1:
            raise ValueError(f"block_size must be positive, got {self.block_size}")
        for bid, payload in self.payloads.items():
            self._check_payload(bid, payload)

    # -- identity helpers -------------------------------------------------

    @property
    def width(self) -> int:
        """Total number of blocks, ``n + k``."""
        return self.n + self.k

    def block_ids(self) -> Iterator[int]:
        """All block ids in the stripe, data first then parity."""
        return iter(range(self.width))

    def kind(self, block_id: int) -> str:
        self._check_id(block_id)
        return block_kind(block_id, self.n)

    # -- payload management -----------------------------------------------

    def set_payload(self, block_id: int, payload: np.ndarray) -> None:
        self._check_id(block_id)
        self._check_payload(block_id, payload)
        self.payloads[block_id] = payload

    def get_payload(self, block_id: int) -> np.ndarray:
        self._check_id(block_id)
        try:
            return self.payloads[block_id]
        except KeyError:
            raise KeyError(f"block {block_id} has no payload attached") from None

    # -- validation --------------------------------------------------------

    def _check_id(self, block_id: int) -> None:
        if not 0 <= block_id < self.width:
            raise ValueError(
                f"block id {block_id} outside stripe of width {self.width}"
            )

    def _check_payload(self, block_id: int, payload: np.ndarray) -> None:
        payload = np.asarray(payload)
        if payload.dtype != np.uint8 or payload.ndim != 1:
            raise ValueError(f"payload for block {block_id} must be a 1-D uint8 array")
        if payload.shape[0] != self.block_size:
            raise ValueError(
                f"payload for block {block_id} has {payload.shape[0]} bytes, "
                f"expected {self.block_size}"
            )
