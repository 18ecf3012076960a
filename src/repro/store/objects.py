"""Object model: user data mapped onto erasure-coded stripes.

An object is split into fixed-size stripes of ``n * block_size`` user
bytes; the final stripe is zero-padded (the true length is kept in the
object's metadata so reads return exactly the original bytes).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["ObjectInfo", "reassemble", "split_into_stripes", "stripe_count"]


@dataclass(frozen=True)
class ObjectInfo:
    """Metadata for one stored object."""

    name: str
    size: int
    stripe_ids: tuple[int, ...]
    block_size: int
    n: int

    @property
    def stripe_capacity(self) -> int:
        """User bytes per stripe."""
        return self.n * self.block_size


def stripe_count(size: int, n: int, block_size: int) -> int:
    """Stripes a ``size``-byte object spans (at least one)."""
    return -(-max(size, 1) // (n * block_size))


def split_into_stripes(data: np.ndarray, n: int, block_size: int) -> list[list[np.ndarray]]:
    """Split raw bytes into per-stripe lists of ``n`` data blocks.

    The last stripe is zero-padded to full block boundaries.  Empty
    objects still occupy one (all-zero) stripe so their metadata has a
    stripe to anchor to.
    """
    data = np.asarray(data, dtype=np.uint8).ravel()
    capacity = n * block_size
    num_stripes = stripe_count(len(data), n, block_size)
    padded = np.zeros(num_stripes * capacity, dtype=np.uint8)
    padded[: len(data)] = data
    stripes = []
    for s in range(num_stripes):
        base = s * capacity
        stripes.append(
            [
                padded[base + b * block_size : base + (b + 1) * block_size]
                for b in range(n)
            ]
        )
    return stripes


def reassemble(info: ObjectInfo, stripe_blocks: list[list[np.ndarray]]) -> np.ndarray:
    """Concatenate per-stripe data blocks and strip the padding."""
    if len(stripe_blocks) != len(info.stripe_ids):
        raise ValueError(
            f"object {info.name!r} spans {len(info.stripe_ids)} stripes, "
            f"got {len(stripe_blocks)}"
        )
    flat = np.concatenate([b for blocks in stripe_blocks for b in blocks])
    return flat[: info.size]
