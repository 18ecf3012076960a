"""Galois-field GF(2^8) substrate.

Pure-numpy reimplementation of the coding kernels the paper takes from the
Jerasure C library: field arithmetic, bulk block scaling, and the small
matrix algebra (Vandermonde construction, Gauss--Jordan inversion) that
Reed--Solomon encoding and decoding are built from.
"""

from .arithmetic import (
    gf_add,
    gf_div,
    gf_inv,
    gf_mul,
    gf_pow,
    gf_sub,
    linear_combine,
    scale,
    scale_accumulate,
)
from .batch import adaptive_tile, gf_matmul_blocks
from .bufferpool import DEFAULT_POOL_MAX_BYTES, BufferPool, scratch_pool
from .matrix import (
    SingularMatrixError,
    apply_matrix_to_blocks,
    mat_identity,
    mat_inv,
    mat_mul,
    mat_solve,
    systematic_vandermonde_generator,
    vandermonde,
)
from .splittable import TableCache, table_cache
from .tables import DEFAULT_PRIM_POLY, FIELD_SIZE, GFTableError, GFTables, get_tables

__all__ = [
    "BufferPool",
    "DEFAULT_POOL_MAX_BYTES",
    "DEFAULT_PRIM_POLY",
    "FIELD_SIZE",
    "GFTableError",
    "GFTables",
    "SingularMatrixError",
    "TableCache",
    "adaptive_tile",
    "apply_matrix_to_blocks",
    "get_tables",
    "gf_add",
    "gf_div",
    "gf_inv",
    "gf_matmul_blocks",
    "gf_mul",
    "gf_pow",
    "gf_sub",
    "linear_combine",
    "mat_identity",
    "mat_inv",
    "mat_mul",
    "mat_solve",
    "scale",
    "scale_accumulate",
    "scratch_pool",
    "table_cache",
    "systematic_vandermonde_generator",
    "vandermonde",
]
