"""Reed--Solomon coding substrate.

Systematic RS(n, k) codes over GF(2^8) with Jerasure-style Vandermonde
generators, recovery-equation derivation (eq. (8)), partial decoding into
per-rack intermediate blocks (eq. (9)), and decode-time cost models.
"""

from .code import (
    PAPER_NONWORST_MULTI_CODES,
    PAPER_SINGLE_FAILURE_CODES,
    PAPER_WORST_CASE_CODES,
    RSCode,
    get_code,
)
from .costmodel import EC2_DECODE, MB, SIMICS_DECODE, DecodeCostModel
from .decode import (
    InsufficientHelpersError,
    RecoveryEquation,
    decode_blocks,
    recovery_equations,
)
from .partial import PartialSlice, slice_equation_by_group
from .stripe import BlockKind, Stripe, block_kind

__all__ = [
    "BlockKind",
    "DecodeCostModel",
    "EC2_DECODE",
    "InsufficientHelpersError",
    "MB",
    "PAPER_NONWORST_MULTI_CODES",
    "PAPER_SINGLE_FAILURE_CODES",
    "PAPER_WORST_CASE_CODES",
    "PartialSlice",
    "RSCode",
    "RecoveryEquation",
    "SIMICS_DECODE",
    "Stripe",
    "block_kind",
    "decode_blocks",
    "get_code",
    "recovery_equations",
    "slice_equation_by_group",
]
