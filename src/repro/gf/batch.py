"""The GF(2^8) block matmul: one coefficient matrix, many stacked blocks.

Every coded byte goes through :func:`gf_matmul_blocks` — RS encode and
decode, the one-row linear combinations partial decoding and the repair
executors reduce to, and the store's batched node rebuild.  Callers with
many stripes stack them along a leading axis so every non-zero
coefficient becomes one bulk table lookup over the whole stack instead
of one call per stripe; callers with one stripe pay the same path with a
stack of one.

Two implementation choices matter for throughput here (measured on this
numpy build; see docs/PERFORMANCE.md):

* The row/term loops are *tiled* along the flattened block axis so each
  source tile is loaded from memory once and then reused by every output
  row while still cache-resident.  The tile size adapts to the working
  set — ``(num_blocks + num_rows) * tile`` bytes is held near a fixed
  cache budget — so wide recovery matrices shrink their tiles and skinny
  parity matrices grow them.
* Multiply-XOR is fused inside the tile combiner
  (:func:`repro.gf.splittable.combine_tile`): the first non-trivial term
  of each row is written straight into the output and later terms
  accumulate through pooled chunk scratch, so no term ever allocates a
  block-sized temporary.

Zero coefficients are skipped outright, and unit coefficients (the
XOR-parity row, eq. (2), and every eq. (6) recovery row) bypass the
multiplication tables entirely and reduce to ``bitwise_xor`` passes.
"""

from __future__ import annotations

import numpy as np

from .splittable import combine_tile
from .tables import GFTables, get_tables

__all__ = ["gf_matmul_blocks", "adaptive_tile"]

#: Cache budget the tile working set is sized against.  One tile's
#: working set is every input block tile plus every output row tile:
#: ``(num_blocks + num_rows) * tile`` bytes.  2 MiB sits inside typical
#: L2/LLC slices while keeping tiles large enough to amortise dispatch.
_TILE_BUDGET = 2 * 1024 * 1024

#: Tile clamp range.  Below 32 KiB per-tile Python dispatch dominates;
#: above 1 MiB tiling stops paying for itself on realistic shapes.
_TILE_MIN = 32 * 1024
_TILE_MAX = 1024 * 1024


def adaptive_tile(num_blocks: int, num_rows: int, size: int) -> int:
    """Elements per cache tile for an ``num_rows x num_blocks`` matmul.

    Sized so the tile working set (all block tiles + all row tiles)
    stays near the cache budget, clamped to a sane range, rounded to a
    4 KiB multiple so split-pair kernels see even-length tiles and
    gathers stay page-aligned.  A ``size`` smaller than one tile runs
    untiled.
    """
    streams = max(1, num_blocks + num_rows)
    tile = _TILE_BUDGET // streams
    tile = max(_TILE_MIN, min(_TILE_MAX, tile))
    tile &= ~0xFFF
    return tile if tile < size else size


def _block_rows(blocks) -> list[np.ndarray]:
    """Normalise ``blocks`` into equal-shaped contiguous uint8 arrays.

    Contiguous inputs pass through as views; only strided views (e.g. a
    stripe-major slice) pay a copy, which the tiled kernel needs so block
    tiles can be sliced out of a flat layout.
    """
    if isinstance(blocks, np.ndarray):
        if blocks.ndim < 2:
            raise ValueError(
                "blocks array must have at least 2 dims (block axis first)"
            )
        return [np.ascontiguousarray(row, dtype=np.uint8) for row in blocks]
    rows = [np.ascontiguousarray(b, dtype=np.uint8) for b in blocks]
    if not rows:
        raise ValueError("gf_matmul_blocks needs at least one block")
    shape = rows[0].shape
    if any(r.shape != shape for r in rows):
        raise ValueError("all blocks must share one shape")
    return rows


def gf_matmul_blocks(
    matrix,
    blocks,
    tables: GFTables | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Apply an ``r x c`` GF matrix to ``c`` stacked block arrays at once.

    ``out[i] = sum_j matrix[i, j] * blocks[j]`` over GF(256), where each
    ``blocks[j]`` may have any shape (typically ``(block_size,)`` for one
    stripe or ``(num_stripes, block_size)`` for a stripe stack) as long as
    all of them agree: one bulk multiply per non-zero coefficient per
    tile, XOR-only rows touch no tables.

    Parameters
    ----------
    matrix:
        ``r x c`` coefficient matrix (anything `_as_u8`-compatible).
    blocks:
        A sequence of ``c`` equal-shaped uint8 arrays, or one array whose
        leading axis indexes the ``c`` blocks.
    out:
        Optional pre-allocated ``(r, *block_shape)`` uint8 output.  The
        whole array need not be contiguous — each row ``out[i]`` must
        be, which is what a stripe-range slice ``arena[:, lo:hi]`` of a
        shared output arena provides.

    Returns
    -------
    ``(r, *block_shape)`` uint8 array of output blocks.
    """
    m = np.asarray(matrix, dtype=np.uint8)
    if m.ndim != 2:
        raise ValueError(f"matrix must be 2-D, got shape {m.shape}")
    rows = _block_rows(blocks)
    if m.shape[1] != len(rows):
        raise ValueError(
            f"matrix shape {m.shape} incompatible with {len(rows)} blocks"
        )
    block_shape = rows[0].shape
    num_rows = m.shape[0]
    out_shape = (num_rows,) + block_shape
    if out is None:
        out = np.empty(out_shape, dtype=np.uint8)
    elif out.shape != out_shape or out.dtype != np.uint8:
        raise ValueError(f"out buffer must be uint8 with shape {out_shape}")
    elif not out.flags.c_contiguous and not all(
        out[i].flags.c_contiguous for i in range(num_rows)
    ):
        raise ValueError("every out row must be C-contiguous")

    t = tables or get_tables()
    num_blocks = len(rows)
    coeffs = m.tolist()  # Python ints once, not per tile

    flat_blocks = [b.reshape(-1) for b in rows]
    size = flat_blocks[0].size if num_blocks else 0
    # Per-row flat views: reshape of a contiguous row is always a view,
    # even when the row stride makes the stacked array non-contiguous.
    flat_out = [out[i].reshape(-1) for i in range(num_rows)]
    tile = adaptive_tile(num_blocks, num_rows, size) or 1

    for lo in range(0, size, tile):
        hi = lo + tile
        if hi > size:
            hi = size
        combine_tile(
            coeffs,
            [b[lo:hi] for b in flat_blocks],
            [f[lo:hi] for f in flat_out],
            t,
        )
    return out
