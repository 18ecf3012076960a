"""Synthetic payload generation for concrete (byte-level) experiments.

The paper's testbeds fill 256 MB blocks with file data; any byte content
exercises the same GF paths, so we provide seeded generators with a few
character profiles (uniform random, compressible text-like, zero-heavy)
to keep correctness tests honest about edge patterns.
"""

from __future__ import annotations

import numpy as np

from ..rs import RSCode, Stripe

__all__ = ["random_blocks", "patterned_blocks", "encoded_stripe"]


def random_blocks(n: int, block_size: int, seed: int = 0) -> list[np.ndarray]:
    """``n`` uniform-random uint8 blocks."""
    if n < 1 or block_size < 1:
        raise ValueError("need at least one block of at least one byte")
    rng = np.random.default_rng(seed)
    return [rng.integers(0, 256, block_size, dtype=np.uint8) for _ in range(n)]


def patterned_blocks(
    n: int, block_size: int, pattern: str = "text", seed: int = 0
) -> list[np.ndarray]:
    """Blocks with non-uniform byte statistics.

    Patterns
    --------
    ``text``:
        ASCII-range bytes (compressible, low entropy).
    ``zeros``:
        Mostly zero with sparse random bytes (sparse-file-like).
    ``ramp``:
        Deterministic position-dependent bytes (catches index mix-ups).
    """
    if n < 1 or block_size < 1:
        raise ValueError("need at least one block of at least one byte")
    rng = np.random.default_rng(seed)
    blocks = []
    for i in range(n):
        if pattern == "text":
            blocks.append(rng.integers(32, 127, block_size, dtype=np.uint8))
        elif pattern == "zeros":
            block = np.zeros(block_size, dtype=np.uint8)
            hot = rng.integers(0, block_size, max(1, block_size // 64))
            block[hot] = rng.integers(1, 256, hot.size, dtype=np.uint8)
            blocks.append(block)
        elif pattern == "ramp":
            blocks.append(
                ((np.arange(block_size) + i * 17) % 256).astype(np.uint8)
            )
        else:
            raise ValueError(f"unknown pattern {pattern!r}")
    return blocks


def encoded_stripe(
    code: RSCode, block_size: int, seed: int = 0, pattern: str | None = None
) -> Stripe:
    """Convenience: generate data and encode a full stripe."""
    if pattern is None:
        data = random_blocks(code.n, block_size, seed)
    else:
        data = patterned_blocks(code.n, block_size, pattern, seed)
    return code.encode_stripe(data)
