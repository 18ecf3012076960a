"""Matrix algebra over GF(2^8).

Provides the small-matrix operations Reed--Solomon coding needs:

* matrix-matrix and matrix-"block vector" products,
* Gauss--Jordan inversion (the paper's ``M'^{-1}`` decoding matrix),
* systematic Vandermonde generator construction in the Jerasure style,
  where the first coding row is normalised to all-ones so the first
  parity is the plain XOR parity (paper eq. (2)).

Matrices are dense ``uint8`` numpy arrays.  Dimensions here are tiny
(``n + k`` is at most a few dozen), so clarity wins over micro-tuning;
the bulk work happens in :func:`repro.gf.batch.gf_matmul_blocks` when
matrices are applied to data blocks.
"""

from __future__ import annotations

import numpy as np

from .arithmetic import gf_div, gf_inv, gf_mul, gf_pow
from .batch import gf_matmul_blocks
from .tables import GFTables, get_tables

__all__ = [
    "SingularMatrixError",
    "mat_mul",
    "mat_identity",
    "mat_inv",
    "mat_solve",
    "vandermonde",
    "systematic_vandermonde_generator",
    "apply_matrix_to_blocks",
]


class SingularMatrixError(ValueError):
    """Raised when a matrix has no inverse over GF(256)."""


def mat_identity(size: int) -> np.ndarray:
    """The ``size x size`` identity matrix over GF(256)."""
    return np.eye(size, dtype=np.uint8)


def mat_mul(a: np.ndarray, b: np.ndarray, tables: GFTables | None = None) -> np.ndarray:
    """Matrix product over GF(256).

    Implemented as a log-domain gather + XOR reduction, fully vectorised:
    for uint8 operands the product ``a[i,l] * b[l,j]`` is
    ``exp[log a + log b]`` and the sum over ``l`` is a bitwise XOR
    reduction.
    """
    t = tables or get_tables()
    a = np.asarray(a, dtype=np.uint8)
    b = np.asarray(b, dtype=np.uint8)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ValueError(f"incompatible shapes {a.shape} x {b.shape}")
    # products[i, l, j] = a[i, l] * b[l, j]; sentinel logs make zero rows/cols
    # land in the zero tail of exp.
    log_a = t.log[a.astype(np.intp)]
    log_b = t.log[b.astype(np.intp)]
    products = t.exp[log_a[:, :, None] + log_b[None, :, :]]
    return np.bitwise_xor.reduce(products, axis=1)


def mat_inv(m: np.ndarray, tables: GFTables | None = None) -> np.ndarray:
    """Invert a square matrix over GF(256) by Gauss--Jordan elimination.

    Raises
    ------
    SingularMatrixError
        If the matrix is singular.
    """
    t = tables or get_tables()
    m = np.asarray(m, dtype=np.uint8)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"matrix must be square, got {m.shape}")
    size = m.shape[0]
    work = m.astype(np.uint8).copy()
    inv = mat_identity(size)

    for col in range(size):
        # Partial "pivoting": any non-zero pivot works in a field.
        pivot_rows = np.nonzero(work[col:, col])[0]
        if pivot_rows.size == 0:
            raise SingularMatrixError(f"matrix is singular (column {col})")
        pivot = col + int(pivot_rows[0])
        if pivot != col:
            work[[col, pivot]] = work[[pivot, col]]
            inv[[col, pivot]] = inv[[pivot, col]]

        pivot_inv = int(gf_inv(work[col, col], t))
        work[col] = gf_mul(work[col], pivot_inv, t)
        inv[col] = gf_mul(inv[col], pivot_inv, t)

        # Eliminate the column everywhere else (Jordan step).
        for row in range(size):
            if row == col:
                continue
            factor = int(work[row, col])
            if factor:
                work[row] ^= gf_mul(factor, work[col], t)
                inv[row] ^= gf_mul(factor, inv[col], t)
    return inv


def mat_solve(
    a: np.ndarray, b: np.ndarray, tables: GFTables | None = None
) -> np.ndarray | None:
    """Solve ``a @ x = b`` over GF(256); return one solution or None.

    ``a`` is ``r x c`` (possibly rectangular, possibly rank-deficient),
    ``b`` a length-``r`` vector.  Gaussian elimination with columns
    pivoted in their given order, free variables set to zero — so callers
    can bias *which* solution comes back by ordering the columns (used by
    the LRC decoder to prefer local-group helpers).
    """
    t = tables or get_tables()
    a = np.asarray(a, dtype=np.uint8)
    b = np.asarray(b, dtype=np.uint8)
    if a.ndim != 2 or b.ndim != 1 or a.shape[0] != b.shape[0]:
        raise ValueError(f"incompatible shapes {a.shape} and {b.shape}")
    rows, cols = a.shape
    work = np.concatenate([a.copy(), b.reshape(-1, 1)], axis=1)

    pivot_col_of_row: list[int] = []
    row = 0
    for col in range(cols):
        if row >= rows:
            break
        pivots = np.nonzero(work[row:, col])[0]
        if pivots.size == 0:
            continue
        pivot = row + int(pivots[0])
        if pivot != row:
            work[[row, pivot]] = work[[pivot, row]]
        inv = int(gf_inv(work[row, col], t))
        work[row] = gf_mul(work[row], inv, t)
        for other in range(rows):
            if other != row and work[other, col]:
                work[other] ^= gf_mul(int(work[other, col]), work[row], t)
        pivot_col_of_row.append(col)
        row += 1

    # Inconsistent system: a zero row with non-zero RHS.
    for r in range(row, rows):
        if work[r, cols] != 0:
            return None

    x = np.zeros(cols, dtype=np.uint8)
    for r, col in enumerate(pivot_col_of_row):
        x[col] = work[r, cols]
    return x


def vandermonde(rows: int, cols: int, tables: GFTables | None = None) -> np.ndarray:
    """The ``rows x cols`` Vandermonde matrix ``V[i, j] = i^j`` over GF(256)."""
    t = tables or get_tables()
    if rows > 256:
        raise ValueError("at most 256 distinct evaluation points exist in GF(256)")
    out = np.empty((rows, cols), dtype=np.uint8)
    points = np.arange(rows, dtype=np.uint8)
    for j in range(cols):
        out[:, j] = gf_pow(points, j, t)
    return out


def systematic_vandermonde_generator(
    n: int, k: int, tables: GFTables | None = None
) -> np.ndarray:
    """Jerasure-style systematic generator matrix for an RS(n, k) code.

    Returns an ``(n + k) x n`` matrix whose top ``n`` rows are the identity
    and whose bottom ``k`` rows are the coding matrix.  Construction follows
    Jerasure's ``jerasure_matrix_vandermonde``: build an ``(n + k) x n``
    Vandermonde matrix, reduce it by elementary column operations so the top
    becomes the identity, then scale each coding row by the inverse of its
    first element so **the first coding row is all ones**.  That last
    normalisation is what makes parity ``P0`` the plain XOR of the data
    blocks (paper eq. (2)) and enables the pre-placement fast path
    (paper eq. (6)).

    Notes
    -----
    ``n`` is the number of data blocks and ``k`` the number of parities,
    matching the paper's (n, k) convention (which is the reverse of the
    classical coding-theory one).
    """
    t = tables or get_tables()
    if n < 1 or k < 0:
        raise ValueError(f"invalid code parameters n={n}, k={k}")
    if n + k > 256:
        raise ValueError(f"RS over GF(256) supports at most 256 blocks, got {n + k}")

    m = vandermonde(n + k, n, t)

    # Column-reduce so the top n x n block becomes the identity.  Elementary
    # column operations preserve the MDS property (any n rows invertible).
    for i in range(n):
        # Ensure m[i, i] != 0 by swapping columns if needed.
        if m[i, i] == 0:
            swap = next(
                (j for j in range(i + 1, n) if m[i, j] != 0),
                None,
            )
            if swap is None:  # pragma: no cover - Vandermonde rows are independent
                raise SingularMatrixError("Vandermonde reduction failed")
            m[:, [i, swap]] = m[:, [swap, i]]
        diag = int(m[i, i])
        if diag != 1:
            m[:, i] = gf_div(m[:, i], diag, t)
        for j in range(n):
            if j != i and m[i, j] != 0:
                m[:, j] ^= gf_mul(int(m[i, j]), m[:, i], t)

    # Normalise the coding block column-wise so the first coding row becomes
    # all ones.  Scaling column ``j`` of the coding block by a non-zero
    # constant multiplies every minor of the coding block by a non-zero
    # constant, so the systematic-MDS criterion (all square submatrices of
    # the coding block non-singular) is preserved, and the identity rows are
    # untouched.
    if k > 0:
        for j in range(n):
            lead = int(m[n, j])
            if lead == 0:
                raise SingularMatrixError(
                    f"reduced Vandermonde has a zero in its first coding row "
                    f"(column {j}); RS({n},{k}) is not constructible this way"
                )
            if lead != 1:
                m[n:, j] = gf_div(m[n:, j], lead, t)
    return m


def apply_matrix_to_blocks(
    matrix: np.ndarray, blocks, tables: GFTables | None = None
) -> list[np.ndarray]:
    """Apply an ``r x c`` GF matrix to ``c`` data blocks, yielding ``r`` blocks.

    Each output block ``i`` is ``sum_j matrix[i, j] * blocks[j]`` — the
    block-level matrix-vector product used for encoding and decoding.
    The returned blocks are the rows of one fresh array (see
    :func:`repro.gf.batch.gf_matmul_blocks`); none aliases an input.
    """
    return list(gf_matmul_blocks(matrix, list(blocks), tables))
