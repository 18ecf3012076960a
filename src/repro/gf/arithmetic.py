"""Vectorised GF(2^8) arithmetic kernels.

All kernels operate on ``uint8`` numpy arrays (scalars are accepted and
broadcast).  Addition in GF(2^m) is XOR; element-wise multiplication and
division go through the log/antilog tables built in
:mod:`repro.gf.tables`.

The bulk block operations — ``scale``, ``scale_accumulate``,
``linear_combine`` — own no multiply loop of their own: they validate
their arguments and hand the bytes to the one kernel of the tree
(:func:`repro.gf.batch.gf_matmul_blocks` and the tile combiner under it
in :mod:`repro.gf.splittable`), so a single-block caller and a
64-stripe batch run the same code at the same speed per byte.
"""

from __future__ import annotations

import numpy as np

from .batch import gf_matmul_blocks
from .splittable import combine_tile
from .tables import get_tables

__all__ = [
    "gf_add",
    "gf_sub",
    "gf_mul",
    "gf_div",
    "gf_inv",
    "gf_pow",
    "scale",
    "scale_accumulate",
    "linear_combine",
]


def _as_u8(a) -> np.ndarray:
    """Coerce to uint8, range-checking non-uint8 inputs.

    Sits on every kernel call, so the common cases must not scan: uint8
    passes through untouched, bool and other integer dtypes whose whole
    value range fits in [0, 255] convert without any element inspection,
    and wider integer dtypes are checked with min/max reductions (no
    materialised comparison temporaries).
    """
    arr = np.asarray(a)
    dtype = arr.dtype
    if dtype == np.uint8:
        return arr
    if dtype.kind in "iu":
        info = np.iinfo(dtype)
        if info.min < 0 or info.max > 255:
            if arr.size and (int(arr.min()) < 0 or int(arr.max()) > 255):
                raise ValueError("GF(256) elements must be in [0, 255]")
        return arr.astype(np.uint8)
    if dtype.kind == "b":
        return arr.astype(np.uint8)
    # Non-integer input: match the historical behaviour (values compared
    # after integer truncation, then cast).
    as_int = np.asarray(arr, dtype=np.int64)
    if arr.size and (int(as_int.min()) < 0 or int(as_int.max()) > 255):
        raise ValueError("GF(256) elements must be in [0, 255]")
    return arr.astype(np.uint8)


def gf_add(a, b) -> np.ndarray:
    """Field addition (== subtraction): element-wise XOR."""
    return np.bitwise_xor(_as_u8(a), _as_u8(b))


# In characteristic 2, subtraction is addition.
gf_sub = gf_add


def gf_mul(a, b) -> np.ndarray:
    """Element-wise field multiplication via the full product table."""
    return get_tables().mul_table[_as_u8(a).astype(np.intp), _as_u8(b).astype(np.intp)]


def gf_inv(a) -> np.ndarray:
    """Element-wise multiplicative inverse.

    Raises
    ------
    ZeroDivisionError
        If any element is zero.
    """
    arr = _as_u8(a)
    if np.any(arr == 0):
        raise ZeroDivisionError("0 has no multiplicative inverse in GF(256)")
    return get_tables().inv[arr.astype(np.intp)]


def gf_div(a, b) -> np.ndarray:
    """Element-wise field division ``a / b``.

    Raises
    ------
    ZeroDivisionError
        If any element of ``b`` is zero.
    """
    return gf_mul(a, gf_inv(b))


def gf_pow(a, e: int) -> np.ndarray:
    """Element-wise exponentiation ``a ** e`` for an integer ``e >= 0``.

    ``0 ** 0`` is defined as 1, matching the Vandermonde convention.
    """
    if e < 0:
        raise ValueError("negative exponents are not supported; invert first")
    t = get_tables()
    arr = _as_u8(a)
    if e == 0:
        return np.ones_like(arr)
    # a^e = exp[(log a * e) mod 255] for a != 0; zero stays zero.
    out = np.zeros_like(arr)
    nz = arr != 0
    logs = t.log[arr[nz].astype(np.intp)].astype(np.int64)
    out[nz] = t.exp[(logs * e) % 255]
    return out


def scale(coeff: int, block: np.ndarray) -> np.ndarray:
    """Multiply every byte of ``block`` by the scalar ``coeff``.

    Returns a fresh array of ``block``'s shape: the one-term case of the
    tile combiner (zero and unit coefficients reduce to fill and copy
    there).
    """
    if not 0 <= coeff <= 255:
        raise ValueError(f"coefficient {coeff} outside GF(256)")
    src = np.ascontiguousarray(block, dtype=np.uint8)
    out = np.empty_like(src)
    combine_tile([[int(coeff)]], [src.reshape(-1)], [out.reshape(-1)])
    return out


def scale_accumulate(
    acc: np.ndarray,
    coeff: int,
    block: np.ndarray,
) -> np.ndarray:
    """``acc ^= coeff * block`` in place; returns ``acc``.

    ``acc`` must be a writable ``uint8`` array with the same shape as
    ``block``.  Expressed as the two-term combine
    ``acc = 1 * acc ^ coeff * block`` so the accumulate shares the tile
    combiner's pooled scratch and allocates nothing; the leading unit
    term is a same-buffer no-op.
    """
    if acc.dtype != np.uint8 or not acc.flags.writeable:
        raise ValueError("accumulator must be a writable uint8 array")
    if not 0 <= coeff <= 255:
        raise ValueError(f"coefficient {coeff} outside GF(256)")
    block = np.asarray(block, dtype=np.uint8)
    if acc.shape != block.shape:
        raise ValueError(f"shape mismatch: acc {acc.shape} vs block {block.shape}")
    if coeff == 0:
        return acc
    if not acc.flags.c_contiguous:
        # A strided accumulator has no flat view to combine into.
        np.bitwise_xor(acc, scale(coeff, block), out=acc)
        return acc
    src = np.ascontiguousarray(block)
    flat = acc.reshape(-1)
    combine_tile([[1, int(coeff)]], [flat, src.reshape(-1)], [flat])
    return acc


def linear_combine(
    coeffs,
    blocks,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Return ``sum_i coeffs[i] * blocks[i]`` over GF(256).

    This is the primitive every (partial) decode reduces to: an intermediate
    block is a linear combination of locally available blocks.  It is the
    one-row case of :func:`repro.gf.batch.gf_matmul_blocks`.

    Parameters
    ----------
    coeffs:
        Iterable of coefficients in ``[0, 255]``.
    blocks:
        Sequence of equal-shaped ``uint8`` arrays.
    out:
        Optional pre-allocated C-contiguous output buffer (overwritten).
    """
    coeffs = [int(c) for c in coeffs]
    blocks = list(blocks)
    if len(coeffs) != len(blocks):
        raise ValueError(
            f"{len(coeffs)} coefficients for {len(blocks)} blocks"
        )
    if not blocks:
        raise ValueError("linear_combine needs at least one block")
    if any(not 0 <= c <= 255 for c in coeffs):
        raise ValueError("GF(256) elements must be in [0, 255]")
    if out is None:
        return gf_matmul_blocks([coeffs], blocks)[0]
    gf_matmul_blocks([coeffs], blocks, out=out[None])
    return out
