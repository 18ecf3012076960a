"""RS(n, k) code objects: generator matrices and encoding.

Follows the paper's parameter convention: an RS(n, k) code has ``n``
original data chunks and ``k`` parity chunks; any ``l <= k`` failures are
recoverable from any ``n`` surviving chunks (§2.1.1).

The generator is the Jerasure-style systematic Vandermonde matrix from
:func:`repro.gf.matrix.systematic_vandermonde_generator`; in particular its
first coding row is all ones, so parity ``P0`` is the plain XOR of the data
blocks — the property both eq. (2) and the §3.3 pre-placement optimisation
rely on.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ..gf import get_tables, gf_matmul_blocks, systematic_vandermonde_generator
from .stripe import Stripe

__all__ = [
    "RSCode",
    "PAPER_SINGLE_FAILURE_CODES",
    "PAPER_NONWORST_MULTI_CODES",
    "PAPER_WORST_CASE_CODES",
]

#: The six RS configurations of the paper's single-failure evaluation
#: (Figures 7, 8 and 12).
PAPER_SINGLE_FAILURE_CODES: tuple[tuple[int, int], ...] = (
    (4, 2),
    (6, 2),
    (8, 2),
    (6, 3),
    (8, 4),
    (12, 4),
)

#: Codes used in the non-worst-case multi-failure evaluation (Figures 9, 10
#: and 13): those with k > 2 so that a 2..k-1 failure count exists.
PAPER_NONWORST_MULTI_CODES: tuple[tuple[int, int], ...] = ((6, 3), (8, 4), (12, 4))

#: Codes used in the worst-case (k failures) evaluation (Figures 11 and 14):
#: those with (n + k) / k > 3.
PAPER_WORST_CASE_CODES: tuple[tuple[int, int], ...] = ((6, 2), (8, 2), (12, 4))


class RSCode:
    """A systematic Reed--Solomon code over GF(2^8).

    Parameters
    ----------
    n:
        Number of data blocks per stripe.
    k:
        Number of parity blocks per stripe.

    ``generator`` is the systematic Vandermonde matrix (the construction
    the paper's Jerasure prototype uses) and ``tables`` the field's
    lookup tables (:func:`repro.gf.get_tables`).
    """

    def __init__(self, n: int, k: int) -> None:
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        if k < 0:
            raise ValueError(f"k must be >= 0, got {k}")
        if n + k > 256:
            raise ValueError(f"n + k must be <= 256 over GF(256), got {n + k}")
        self.n = n
        self.k = k
        self.tables = get_tables()
        self.generator = systematic_vandermonde_generator(n, k)
        self.generator.setflags(write=False)

    # -- structural properties ---------------------------------------------

    @property
    def width(self) -> int:
        """Stripe width, ``n + k``."""
        return self.n + self.k

    @property
    def storage_overhead(self) -> float:
        """Extra storage as a fraction of original data, ``k / n``."""
        return self.k / self.n

    def coding_matrix(self) -> np.ndarray:
        """The ``k x n`` coding sub-matrix (bottom rows of the generator)."""
        return self.generator[self.n :]

    def generator_row(self, block_id: int) -> np.ndarray:
        """Row of the generator expressing ``block_id`` over the data blocks."""
        if not 0 <= block_id < self.width:
            raise ValueError(f"block id {block_id} outside code of width {self.width}")
        return self.generator[block_id]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RSCode(n={self.n}, k={self.k})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, RSCode) and (other.n, other.k) == (self.n, self.k)

    def __hash__(self) -> int:
        return hash((self.n, self.k))

    # -- encoding ------------------------------------------------------------

    def _fill_parity(self, stripe: np.ndarray) -> None:
        """Compute the ``k`` parity rows of one ``(n + k, ...)`` stripe in place.

        ``stripe[:n]`` is a contiguous stack of the data blocks and
        ``stripe[n:]`` a contiguous target, so the kernel runs copy-free.
        """
        if self.k:
            gf_matmul_blocks(
                self.generator[self.n :],
                stripe[: self.n],
                out=stripe[self.n :],
            )

    def encode(self, data_blocks) -> list[np.ndarray]:
        """Encode ``n`` data blocks into the full ``n + k`` stripe blocks.

        Returns the ``n`` data blocks followed by the ``k`` parities.  All
        ``n + k`` returned blocks are rows of one freshly allocated arena:
        the data is *copied* in (the code is systematic, so its rows need
        no arithmetic), the parities are computed next to it, and no
        returned block aliases a caller's input — writing to one never
        changes ``data_blocks``.  This is the single-stripe case of
        :meth:`encode_many`.
        """
        blocks = [np.asarray(b, dtype=np.uint8) for b in data_blocks]
        if len(blocks) != self.n:
            raise ValueError(f"expected {self.n} data blocks, got {len(blocks)}")
        shape = blocks[0].shape
        if any(b.shape != shape for b in blocks):
            raise ValueError("all data blocks must share one shape")
        stripe = np.empty((self.width,) + shape, dtype=np.uint8)
        for j, block in enumerate(blocks):
            stripe[j] = block
        self._fill_parity(stripe)
        return list(stripe)

    def encode_many(
        self, data: "np.ndarray", out: "np.ndarray | None" = None
    ) -> np.ndarray:
        """Encode many stripes in one batched kernel pass.

        Parameters
        ----------
        data:
            ``(num_stripes, n, block_size)`` uint8 array (or nested
            sequence coercible to one): stripe-major stacks of data
            blocks.
        out:
            Optional pre-allocated ``(num_stripes, n + k, block_size)``
            C-contiguous uint8 destination.  Reusing one arena across
            calls matters at stack sizes past the allocator's mmap
            threshold (~32 MiB), where a fresh output pays page-fault
            and unmap churn on every call.

        Returns
        -------
        ``(num_stripes, n + k, block_size)`` uint8 array with data blocks
        first and parities last, byte-identical to running
        :meth:`encode` per stripe.

        The code is systematic, so the ``n`` identity rows of the
        generator reduce to one bulk copy of the data into the output
        stack; only the ``k`` parity rows are computed, stripe tile by
        stripe tile, through :func:`repro.gf.batch.gf_matmul_blocks` so
        every slice the kernel touches is contiguous in the stripe-major
        layout (no transpose copies of the stack are ever made).
        """
        arr = np.ascontiguousarray(np.asarray(data, dtype=np.uint8))
        if arr.ndim != 3 or arr.shape[1] != self.n:
            raise ValueError(
                f"expected (num_stripes, {self.n}, block_size) data, "
                f"got shape {arr.shape}"
            )
        num_stripes, _, block_size = arr.shape
        out_shape = (num_stripes, self.width, block_size)
        if out is None:
            out = np.empty(out_shape, dtype=np.uint8)
        elif (
            out.shape != out_shape
            or out.dtype != np.uint8
            or not out.flags.c_contiguous
        ):
            raise ValueError(
                f"out buffer must be C-contiguous uint8 with shape {out_shape}"
            )
        out[:, : self.n] = arr
        for s in range(num_stripes):
            self._fill_parity(out[s])
        return out

    def decode_many(self, available: dict, failed_ids) -> dict:
        """Batched counterpart of :func:`repro.rs.decode.decode_blocks`.

        Parameters
        ----------
        available:
            Block id -> stacked payloads.  Every array must share one
            shape; the natural layout is ``(num_stripes, block_size)``,
            but any common shape works (a single stripe's ``(block_size,)``
            included).
        failed_ids:
            Blocks to reconstruct.

        Returns
        -------
        Failed block id -> reconstructed stack, byte-identical to
        decoding stripe by stripe.

        The recovery equations (eq. (8)) are derived once — helpers are
        shared across the whole stack because every stripe uses the same
        code — and applied as one coefficient matrix over the stacked
        helper blocks.
        """
        from .decode import InsufficientHelpersError, recovery_equations

        failed_ids = list(failed_ids)
        candidates = sorted(set(available) - set(failed_ids))
        if len(candidates) < self.n:
            raise InsufficientHelpersError(
                f"only {len(candidates)} surviving blocks; need {self.n}"
            )
        helpers = candidates[: self.n]
        equations = recovery_equations(self, failed_ids, helpers)
        matrix = np.zeros((len(equations), self.n), dtype=np.uint8)
        for row, eq in enumerate(equations):
            for helper, coeff in eq.terms:
                matrix[row, helpers.index(helper)] = coeff
        blocks = [np.asarray(available[h], dtype=np.uint8) for h in helpers]
        recovered = gf_matmul_blocks(matrix, blocks)
        return {eq.target: recovered[i] for i, eq in enumerate(equations)}

    def encode_stripe(self, data_blocks, block_size: int | None = None) -> Stripe:
        """Encode and package into a :class:`Stripe` with payloads attached."""
        blocks = self.encode(data_blocks)
        size = block_size if block_size is not None else len(blocks[0])
        stripe = Stripe(self.n, self.k, size)
        for bid, payload in enumerate(blocks):
            stripe.set_payload(bid, payload)
        return stripe

    def verify_stripe(self, stripe: Stripe) -> bool:
        """Check that a fully-populated stripe is a valid codeword."""
        if stripe.n != self.n or stripe.k != self.k:
            raise ValueError("stripe shape does not match code")
        data = [stripe.get_payload(i) for i in range(self.n)]
        expected = self.encode(data)
        return all(
            np.array_equal(expected[bid], stripe.get_payload(bid))
            for bid in range(self.width)
        )


@lru_cache(maxsize=64)
def _cached_code(n: int, k: int) -> RSCode:
    return RSCode(n, k)


def get_code(n: int, k: int) -> RSCode:
    """Shared, cached code instance for (n, k)."""
    return _cached_code(n, k)
