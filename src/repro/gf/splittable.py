"""The GF(2^8) bulk multiply: the split-pair tile combiner and its table cache.

Every coded byte in the tree — encode, decode, partial decode, repair
combine — is produced by one primitive: combine ``c`` source blocks into
``r`` output rows as ``out[i] = xor_j coeff[i][j] * src[j]`` over one
cache tile.  :func:`combine_tile` is that primitive;
:func:`repro.gf.batch.gf_matmul_blocks` tiles whole blocks over it and
the scalar helpers in :mod:`repro.gf.arithmetic` call it directly.

The kernel is the 16-bit split-table gather: the coefficient's 256-entry
product row is widened into a 65536-entry ``uint16`` table holding *two*
products per entry (``pair[hi*256+lo] = mul[lo] | mul[hi] << 8``), and
the block is gathered through it two bytes at a time via ``np.take`` —
half the lookups of any byte-wide scheme.  This is the word-splitting
idea GF-Complete calls SPLIT multiplication (there realised with
PSHUFB); in numpy the win comes from halving the index stream.

The tile-level combine is where the fusion happens: unit coefficients
(most of what repair plans carry) are whole-tile copy/XOR passes done
first, with no table and no scratch; then each source block's
``uint16 -> intp`` index widening is done once per chunk and reused by
every output row that multiplies it, each row's first term is written
straight into the output while later terms accumulate through
chunk-sized pooled scratch — no term ever allocates a block-sized
temporary.

:func:`combine_tile_reference` is the same contract implemented with one
256-entry table through ``bytes.translate``.  It is the oracle the
equivalence tests hold the kernel against and is never called at run
time (see docs/PERFORMANCE.md for the measurements that retired the
other variants).

Built tables are held in one process-wide byte-budgeted LRU
(:data:`table_cache`): a pair table is 128 KiB, so an unbounded dict
would grow with every distinct coefficient a workload touches; the LRU
keeps the hot generator / recovery coefficients resident and evicts the
rest.  ``tests/repair/test_table_budget.py`` checks that every
single-failure plan of the paper's codes fits the budget without an
eviction.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

import numpy as np

from .bufferpool import scratch_pool
from .tables import get_tables

__all__ = [
    "TableCache",
    "table_cache",
    "pair_table",
    "translate_table",
    "combine_tile",
    "combine_tile_reference",
]

#: Pairs per gather chunk (uint16 elements, so 128 KiB of payload per
#: chunk).  The pooled ``intp`` index buffer for one chunk is 512 KiB —
#: big enough to amortise the per-chunk numpy dispatch, small enough to
#: stay cache-warm next to the 128 KiB table.
_SPLIT_CHUNK = 64 * 1024

#: Bytes of one chunk's widened index buffer.
_IDX_BYTES = _SPLIT_CHUNK * np.dtype(np.intp).itemsize


#: Default table budget: 128 pair tables.  Sized to the widest code of
#: the paper: the single-failure plans of RS(12,4) use 66 distinct
#: non-unit coefficients between them (8.25 MiB of tables; RS(6,3) uses
#: 29, RS(8,3) 31), and an LRU one table short of a working set that is
#: walked in a cycle misses every time.
DEFAULT_TABLE_BYTES = 16 * 1024 * 1024


class TableCache:
    """Byte-budgeted LRU for built multiply tables.

    Keys are ``(kind, coeff)``; values are whatever the
    builder produced (bytes for translate tables, arrays for the rest).
    ``get`` refreshes recency; inserting past ``max_bytes`` evicts the
    least recently used entries first.  A lock serialises the structural
    updates so kernel callers on different threads can share one cache
    (tables are immutable once built, so readers only race on recency).
    """

    def __init__(self, max_bytes: int = DEFAULT_TABLE_BYTES) -> None:
        if max_bytes < 1:
            raise ValueError("max_bytes must be positive")
        self.max_bytes = max_bytes
        self._entries: OrderedDict[tuple, tuple[object, int]] = OrderedDict()
        self._retained = 0
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key: tuple):
        with self._lock:
            found = self._entries.get(key)
            if found is None:
                self.misses += 1
                return None
            self.hits += 1
            self._entries.move_to_end(key)
            return found[0]

    def put(self, key: tuple, value, nbytes: int) -> None:
        with self._lock:
            if key in self._entries:
                _, old = self._entries.pop(key)
                self._retained -= old
            self._entries[key] = (value, nbytes)
            self._retained += nbytes
            while self._retained > self.max_bytes and len(self._entries) > 1:
                _, (_, dropped) = self._entries.popitem(last=False)
                self._retained -= dropped
                self.evictions += 1

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._retained = 0

    def __len__(self) -> int:
        return len(self._entries)

    def stats(self) -> dict:
        return {
            "entries": len(self._entries),
            "retained_bytes": self._retained,
            "max_bytes": self.max_bytes,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }


#: The process-wide table LRU the combiners below draw from.
table_cache = TableCache()


def pair_table(coeff: int) -> np.ndarray:
    """The 65536-entry uint16 split-pair table for ``coeff`` (cached).

    ``pair[hi_byte * 256 + lo_byte] = mul[lo_byte] | mul[hi_byte] << 8``
    — exactly what a little-endian ``uint16`` load of two payload bytes
    must map to.  Built from the coefficient's product-table row with
    one outer OR (~50 µs); planned traffic reuses a few dozen
    coefficients, so steady state is all cache hits.
    """
    key = ("split16", coeff)
    found = table_cache.get(key)
    if found is None:
        row = get_tables().mul_table[coeff].astype(np.uint16)
        found = (row[None, :] | (row[:, None] << 8)).reshape(-1)
        found.setflags(write=False)
        table_cache.put(key, found, found.nbytes)
    return found


def translate_table(coeff: int) -> bytes:
    """The 256-byte ``bytes.translate`` table for ``coeff`` (cached).

    Only :func:`combine_tile_reference` reads it.
    """
    key = ("translate", coeff)
    found = table_cache.get(key)
    if found is None:
        found = get_tables().mul_table[coeff].tobytes()
        table_cache.put(key, found, len(found))
    return found


# -- tile combiners ----------------------------------------------------------
#
# Both combiners compute ``outs[i][:] = xor_j coeffs[i][j] * srcs[j]``
# over flat, C-contiguous, equal-length uint8 tile views.  Zero
# coefficients are skipped, unit coefficients reduce to copy/XOR, each
# row's first surviving term overwrites instead of accumulating, and
# all-zero rows are zero-filled.  Per-block preparation work is shared
# across every output row.
#
# Aliasing contract: an output may alias a source only as the *first*
# unit-coefficient term of its own row (the ``acc ^= ...`` pattern of
# scale_accumulate, where the first action is a same-buffer no-op
# copy); outputs must otherwise be disjoint from all sources.


def _odd_tail(coeffs, srcs, outs, pos: int) -> None:
    """Scalar combine of the single unpaired trailing byte."""
    mul = get_tables().mul_table
    for i, row in enumerate(coeffs):
        val = 0
        for j, coeff in enumerate(row):
            if coeff:
                val ^= int(mul[coeff, int(srcs[j][pos])])
        outs[i][pos] = val


def combine_tile(coeffs, srcs, outs) -> None:
    """``outs[i][:] = xor_j coeffs[i][j] * srcs[j]`` over one tile.

    ``coeffs`` is an ``r x c`` list of Python ints, ``srcs`` are ``c``
    flat contiguous uint8 views and ``outs`` ``r`` more, all the same
    length.  This is the one bulk multiply of the tree (the split-pair
    gather described in the module docstring).
    """
    n = srcs[0].size
    even = n & ~1
    # Unit coefficients first: whole-tile copy / XOR passes that need
    # neither tables nor scratch.  The repair plans' eq. (6) rows and
    # every XOR merge of intermediates are nothing else.
    written = []
    for row, out in zip(coeffs, outs):
        started = False
        for coeff, src in zip(row, srcs):
            if coeff == 1:
                if started:
                    np.bitwise_xor(out, src, out=out)
                else:
                    np.copyto(out, src)
                    started = True
        written.append(started)
    # Table terms, grouped by source block so a chunk's index widening
    # is shared by every row that multiplies it.
    gathers = []
    for j, src in enumerate(srcs):
        rows = [
            (i, pair_table(row[j])) for i, row in enumerate(coeffs) if row[j] > 1
        ]
        if rows:
            gathers.append((src[:even].view(np.uint16), rows))
    if gathers:
        d16 = [o[:even].view(np.uint16) for o in outs]
        pairs = even >> 1
        # One pooled buffer carries both the widened indices and the
        # term scratch of a chunk.
        scratch = scratch_pool.take(_IDX_BYTES + 2 * _SPLIT_CHUNK)
        try:
            idx_full = scratch[:_IDX_BYTES].view(np.intp)
            tmp_full = scratch[_IDX_BYTES:].view(np.uint16)
            for lo in range(0, pairs, _SPLIT_CHUNK):
                hi = min(lo + _SPLIT_CHUNK, pairs)
                idx = idx_full[: hi - lo]
                tmp = tmp_full[: hi - lo]
                started = list(written)
                for s16, rows in gathers:
                    # uint16 -> intp once per (chunk, block); np.take
                    # would otherwise build a fresh full-size intp
                    # temporary per term.
                    np.copyto(idx, s16[lo:hi])
                    for i, table in rows:
                        dst = d16[i][lo:hi]
                        if started[i]:
                            np.take(table, idx, out=tmp, mode="clip")
                            np.bitwise_xor(dst, tmp, out=dst)
                        else:
                            np.take(table, idx, out=dst, mode="clip")
                            started[i] = True
        finally:
            scratch_pool.give(scratch)
        if even != n:
            _odd_tail(coeffs, srcs, outs, n - 1)
    for row, out in zip(coeffs, outs):
        if not any(row):
            out[...] = 0


def combine_tile_reference(coeffs, srcs, outs) -> None:
    """:func:`combine_tile`'s contract through ``bytes.translate``.

    The test oracle: one 256-entry table per coefficient pushed through
    CPython's translation loop, sharing no code with the split-pair
    gather.  Nothing at run time calls it.
    """
    num_rows = len(outs)
    written = [False] * num_rows
    for j in range(len(srcs)):
        src = srcs[j]
        src_bytes = None  # one tobytes per block tile, shared by all rows
        for i in range(num_rows):
            coeff = coeffs[i][j]
            if coeff == 0:
                continue
            dst = outs[i]
            if coeff == 1:
                term = src
            else:
                if src_bytes is None:
                    src_bytes = src.tobytes()
                term = np.frombuffer(
                    src_bytes.translate(translate_table(coeff)), dtype=np.uint8
                )
            if written[i]:
                np.bitwise_xor(dst, term, out=dst)
            else:
                np.copyto(dst, term)
                written[i] = True
    for i in range(num_rows):
        if not written[i]:
            outs[i][...] = 0
