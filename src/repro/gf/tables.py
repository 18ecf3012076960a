"""Log/antilog table construction for GF(2^8).

The Reed--Solomon stack operates over the finite field GF(2^8), the same
field Jerasure uses for its ``w = 8`` codes.  The field is realised as
polynomials over GF(2) modulo an irreducible polynomial; we use the
standard polynomial

    x^8 + x^4 + x^3 + x^2 + 1   (0x11D)

whose root ``x`` (i.e. the element ``2``) generates the multiplicative
group of the field.  Multiplication is implemented through discrete
logarithm tables: ``a * b = exp[log[a] + log[b]]`` for non-zero ``a, b``.

The tables are built once at import time and shared, read-only, by the
vectorised kernels in :mod:`repro.gf.arithmetic`.  There is no other
field to select: kernels read :func:`get_tables` rather than taking a
table set as an argument.  Table construction is pure Python (256
iterations) and therefore costs microseconds; all hot paths are table
lookups via numpy fancy indexing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

#: The irreducible polynomial for GF(2^8) (Jerasure / AES-adjacent
#: storage convention).  Bit ``i`` is the coefficient of ``x^i``; the value
#: includes the leading ``x^8`` term.
DEFAULT_PRIM_POLY = 0x11D

#: Order of the multiplicative group of GF(2^8).
GROUP_ORDER = 255

#: Number of field elements.
FIELD_SIZE = 256


class GFTableError(ValueError):
    """Raised when table construction is asked for an invalid polynomial."""


def _is_generator(prim_poly: int) -> bool:
    """Return True if ``x`` (element 2) generates GF(256)* under ``prim_poly``.

    This doubles as an irreducibility check that is sufficient for our use:
    if ``x`` has multiplicative order 255, the 255 powers of ``x`` are
    distinct and non-zero, which is exactly what the log/exp construction
    requires.
    """
    seen = set()
    value = 1
    for _ in range(GROUP_ORDER):
        if value in seen:
            return False
        seen.add(value)
        value <<= 1
        if value & 0x100:
            value ^= prim_poly
    return value == 1 and len(seen) == GROUP_ORDER


@dataclass(frozen=True)
class GFTables:
    """Immutable lookup tables for one GF(2^8) realisation.

    Attributes
    ----------
    prim_poly:
        The irreducible polynomial the tables were built from.
    exp:
        ``exp[i] = x^i`` for ``i`` in ``[0, 509]``.  The table is doubled
        in length so that ``exp[log[a] + log[b]]`` never needs an explicit
        ``% 255`` on the hot path.
    log:
        ``log[a]`` = discrete log of ``a`` base ``x``; ``log[0]`` is a
        sentinel (``2 * 255``) that indexes into a zero region of ``exp``
        so multiplication by zero yields zero without branching.
    inv:
        ``inv[a] = a^{-1}`` for ``a != 0``; ``inv[0] = 0`` as a sentinel.
    mul_table:
        Full 256x256 product table, ``mul_table[a, b] = a * b``.  Used by
        the array kernels: one gather instead of three.
    """

    prim_poly: int
    exp: np.ndarray = field(repr=False)
    log: np.ndarray = field(repr=False)
    inv: np.ndarray = field(repr=False)
    mul_table: np.ndarray = field(repr=False)

    @classmethod
    def build(cls, prim_poly: int = DEFAULT_PRIM_POLY) -> "GFTables":
        """Construct the tables for ``prim_poly``.

        Raises
        ------
        GFTableError
            If ``prim_poly`` does not describe a degree-8 polynomial under
            which ``x`` generates the multiplicative group.
        """
        if not (0x100 <= prim_poly <= 0x1FF):
            raise GFTableError(
                f"prim_poly must be a degree-8 polynomial (0x100..0x1FF), got {prim_poly:#x}"
            )
        if not _is_generator(prim_poly):
            raise GFTableError(
                f"x is not a generator under {prim_poly:#x}; polynomial is not usable"
            )

        # exp has a padded tail of zeros so that any sum of two log values —
        # including two log[0] sentinels (2 * 510 = 1020) — lands in a region
        # that returns 0.
        exp = np.zeros(4 * GROUP_ORDER + 4, dtype=np.uint8)
        log = np.zeros(FIELD_SIZE, dtype=np.int32)

        value = 1
        for i in range(GROUP_ORDER):
            exp[i] = value
            log[value] = i
            value <<= 1
            if value & 0x100:
                value ^= prim_poly
        # Double the cyclic part: exp[i + 255] == exp[i].
        exp[GROUP_ORDER : 2 * GROUP_ORDER] = exp[:GROUP_ORDER]
        # log[0] sentinel points past the doubled cyclic region into zeros.
        log[0] = 2 * GROUP_ORDER

        inv = np.zeros(FIELD_SIZE, dtype=np.uint8)
        nz = np.arange(1, FIELD_SIZE)
        inv[nz] = exp[(GROUP_ORDER - log[nz]) % GROUP_ORDER]

        a = np.arange(FIELD_SIZE, dtype=np.int32)
        mul_table = exp[log[a][:, None] + log[a][None, :]].copy()

        tables = cls(
            prim_poly=prim_poly, exp=exp, log=log, inv=inv, mul_table=mul_table
        )
        for arr in (tables.exp, tables.log, tables.inv, tables.mul_table):
            arr.setflags(write=False)
        return tables


#: The one field every code in the tree works over.
_TABLES = GFTables.build()


def get_tables() -> GFTables:
    """Return the GF(2^8) tables under :data:`DEFAULT_PRIM_POLY`."""
    return _TABLES
