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


def stripe_count(size: int, n: int, block_size: int) -> int:
    """Stripes a ``size``-byte object spans (at least one)."""
    return -(-max(size, 1) // (n * block_size))


def split_into_stripes(data: np.ndarray, n: int, block_size: int) -> list[list[np.ndarray]]:
    """Split raw bytes into per-stripe lists of ``n`` data blocks.

    The blocks of full stripes are views of ``data``, not copies; only
    the last stripe, when ``data`` ends inside it, is a zero-padded copy.
    Empty objects still occupy one (all-zero) stripe so their metadata
    has a stripe to anchor to.
    """
    data = np.asarray(data, dtype=np.uint8).ravel()
    capacity = n * block_size
    full = len(data) // capacity * capacity
    stripes = [
        [data[base + b * block_size : base + (b + 1) * block_size] for b in range(n)]
        for base in range(0, full, capacity)
    ]
    if full < len(data) or not stripes:
        tail = np.zeros(capacity, dtype=np.uint8)
        tail[: len(data) - full] = data[full:]
        stripes.append([tail[b * block_size : (b + 1) * block_size] for b in range(n)])
    return stripes


def reassemble(info: ObjectInfo, stripe_blocks: list[list[np.ndarray]]) -> bytes:
    """The object's bytes: its stripes' data blocks joined, padding cut.

    One copy: each block contributes a view of the bytes it carries
    before the end of the object.
    """
    if len(stripe_blocks) != len(info.stripe_ids):
        raise ValueError(
            f"object {info.name!r} spans {len(info.stripe_ids)} stripes, "
            f"got {len(stripe_blocks)}"
        )
    views = []
    left = info.size
    for block in (b for blocks in stripe_blocks for b in blocks):
        if left <= 0:
            break
        view = memoryview(np.ascontiguousarray(block, dtype=np.uint8))
        views.append(view[:left])
        left -= len(view)
    return b"".join(views)
