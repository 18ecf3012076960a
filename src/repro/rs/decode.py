"""Decoding: recovery equations and the decoding matrix ``M'^{-1}``.

The central object is the :class:`RecoveryEquation` — the paper's eq. (8):
one failed block expressed as a GF linear combination of surviving helper
blocks.  Everything downstream (partial decoding, rack scheduling, the
concrete executor) consumes equations, never raw matrices, which is what
lets a repair be split into per-rack intermediate blocks (eq. (9)).

``requires_matrix_build`` records whether producing the equation needed the
inversion of ``M'`` — the step §3.3 observes can take up to 75 % of decode
time and that the pre-placement optimisation avoids for ``1/n`` of single
data-block failures (eq. (6)).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..gf import mat_inv, mat_mul
from .code import RSCode

__all__ = [
    "RecoveryEquation",
    "InsufficientHelpersError",
    "xor_recovery_equation",
    "recovery_equations",
    "decode_blocks",
]


class InsufficientHelpersError(ValueError):
    """Raised when fewer than ``n`` helpers are supplied for a decode."""


@dataclass(frozen=True)
class RecoveryEquation:
    """``target = sum(coeff * helper)`` over GF(2^8) — one row of eq. (8).

    Attributes
    ----------
    target:
        Block id being reconstructed.
    terms:
        ``(helper_block_id, coefficient)`` pairs with non-zero coefficients,
        sorted by helper id.
    requires_matrix_build:
        True when deriving the coefficients required inverting the decoding
        matrix (cost-model hook for §3.3 / the EC2 decode-time gap).
    """

    target: int
    terms: tuple[tuple[int, int], ...]
    requires_matrix_build: bool = True

    def __post_init__(self) -> None:
        ids = [h for h, _ in self.terms]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate helper in equation for block {self.target}")
        if any(not 1 <= c <= 255 for _, c in self.terms):
            raise ValueError("equation coefficients must be non-zero GF elements")
        if self.target in set(ids):
            raise ValueError(f"block {self.target} cannot help repair itself")

    @property
    def helper_ids(self) -> tuple[int, ...]:
        return tuple(h for h, _ in self.terms)

    @property
    def is_xor_only(self) -> bool:
        """True when every coefficient is 1 — pure-XOR reconstruction."""
        return all(c == 1 for _, c in self.terms)

    def coefficient(self, helper_id: int) -> int:
        for h, c in self.terms:
            if h == helper_id:
                return c
        return 0

    def restricted_to(self, helper_subset) -> "RecoveryEquation":
        """Sub-equation over only the helpers in ``helper_subset``.

        Used by partial decoding to slice one recovery equation into
        per-rack pieces; the restriction keeps ``requires_matrix_build``
        because the *coefficients* came from the same derivation.
        """
        subset = set(helper_subset)
        return RecoveryEquation(
            target=self.target,
            terms=tuple((h, c) for h, c in self.terms if h in subset),
            requires_matrix_build=self.requires_matrix_build,
        )


def _equation_from_row(
    target: int, helper_ids, row: np.ndarray, requires_matrix_build: bool
) -> RecoveryEquation:
    terms = tuple(
        (int(h), int(c))
        for h, c in sorted(zip(helper_ids, row.tolist()))
        if c != 0
    )
    return RecoveryEquation(
        target=target, terms=terms, requires_matrix_build=requires_matrix_build
    )


def xor_recovery_equation(code: RSCode, failed_data_id: int) -> RecoveryEquation:
    """The eq. (6) fast path: repair one data block via P0 with XOR only.

    ``D_f = D_0 ^ ... ^ D_{f-1} ^ D_{f+1} ^ ... ^ D_{n-1} ^ P_0``.

    Valid because the generator's first coding row is all ones.  No decoding
    matrix is built, so ``requires_matrix_build`` is False — the whole point
    of the §3.3 pre-placement.

    Raises
    ------
    ValueError
        If ``failed_data_id`` is not a data block or the code has no parity.
    """
    if not 0 <= failed_data_id < code.n:
        raise ValueError(
            f"XOR fast path only repairs data blocks; {failed_data_id} is not one"
        )
    if code.k < 1:
        raise ValueError("code has no parity; nothing can be repaired")
    helpers = [i for i in range(code.n) if i != failed_data_id] + [code.n]
    terms = tuple((h, 1) for h in sorted(helpers))
    return RecoveryEquation(
        target=failed_data_id, terms=terms, requires_matrix_build=False
    )


def recovery_equations(
    code: RSCode, failed_ids, helper_ids
) -> list[RecoveryEquation]:
    """Derive eq. (8): one recovery equation per failed block.

    Parameters
    ----------
    code:
        The RS(n, k) code.
    failed_ids:
        Blocks to reconstruct (any mix of data and parity ids).
    helper_ids:
        Exactly ``n`` surviving block ids, disjoint from ``failed_ids``.

    Returns
    -------
    list of RecoveryEquation, in ``failed_ids`` order.

    Notes
    -----
    The helpers' generator rows form ``M'``; inverting it recovers the data
    vector, and composing with generator rows re-expresses any failed block
    (data or parity) over the helpers.  When the failed block is a single
    data block and the resulting row is all ones the equation is marked as
    not requiring a matrix build — this happens exactly for the eq. (6)
    helper set, so the fast path is detected rather than special-cased.
    """
    failed_ids = list(failed_ids)
    helper_ids = sorted(set(helper_ids))
    if len(failed_ids) != len(set(failed_ids)):
        raise ValueError("duplicate failed block ids")
    if len(failed_ids) > code.k:
        raise ValueError(
            f"RS({code.n},{code.k}) tolerates at most {code.k} failures, "
            f"got {len(failed_ids)}"
        )
    if len(helper_ids) != code.n:
        raise InsufficientHelpersError(
            f"decoding needs exactly n={code.n} helpers, got {len(helper_ids)}"
        )
    overlap = set(failed_ids) & set(helper_ids)
    if overlap:
        raise ValueError(f"blocks {sorted(overlap)} are both failed and helpers")
    for bid in list(failed_ids) + helper_ids:
        if not 0 <= bid < code.width:
            raise ValueError(f"block id {bid} outside code of width {code.width}")

    # M' rows express each helper over the data blocks; M'^{-1} expresses each
    # data block over the helpers.
    m_prime = code.generator[helper_ids]
    m_inv = mat_inv(m_prime)

    equations = []
    for target in failed_ids:
        # generator_row(target) expresses the target over the data blocks;
        # composing with m_inv expresses it over the helpers (eq. (8)).
        row = mat_mul(code.generator_row(target)[None, :], m_inv)[0]
        eq = _equation_from_row(target, helper_ids, row, requires_matrix_build=True)
        if len(failed_ids) == 1 and eq.is_xor_only:
            # Same coefficients as eq. (6): the decode could have skipped the
            # matrix build entirely.  Reflect that in the cost flag.
            eq = RecoveryEquation(
                target=eq.target, terms=eq.terms, requires_matrix_build=False
            )
        equations.append(eq)
    return equations


def decode_blocks(code: RSCode, available: dict, failed_ids) -> dict:
    """Reference decoder: reconstruct ``failed_ids`` from available payloads.

    ``available`` maps block id to payload array.  Any ``n`` of them are
    used.  This is the ground truth the repair planners are tested against.
    """
    from ..gf import linear_combine

    failed_ids = list(failed_ids)
    candidates = sorted(set(available) - set(failed_ids))
    if len(candidates) < code.n:
        raise InsufficientHelpersError(
            f"only {len(candidates)} surviving blocks; need {code.n}"
        )
    helpers = candidates[: code.n]
    equations = recovery_equations(code, failed_ids, helpers)
    out = {}
    for eq in equations:
        coeffs = [c for _, c in eq.terms]
        blocks = [available[h] for h, _ in eq.terms]
        out[eq.target] = linear_combine(coeffs, blocks)
    return out
