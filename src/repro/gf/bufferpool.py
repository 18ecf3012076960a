"""Reusable scratch buffers for the GF hot loops.

Every fused multiply-XOR (``acc ^= coeff * block``) needs chunk-sized
gather scratch.  At store scale (thousands of combines per rebuild,
4-256 MiB blocks) allocating that scratch per call dominates allocator
time and churns the page cache; the pool below hands the same flat
``uint8`` buffers back out instead.

Retention is bounded two ways: per size (``max_per_size`` buffers of any
one length) and in total (``max_bytes`` high-water mark) — a workload
that cycles through many distinct block sizes evicts the largest idle
buffers first rather than accumulating one free-list per size forever.

The pool is process-wide and nothing confines kernel callers to one
thread (in-process clusters run event loops on several), so
``take``/``give`` are serialised by a tiny lock; the pool is touched
twice per cache tile, so the lock is noise next to the tile's gather
work.
"""

from __future__ import annotations

import threading

import numpy as np

__all__ = ["BufferPool", "scratch_pool", "DEFAULT_POOL_MAX_BYTES"]

#: Default high-water mark for the process-wide pool.  Generous next to
#: the observed steady state (~4.8 MB during the coding benchmarks) but
#: a hard ceiling against size-churn workloads.
DEFAULT_POOL_MAX_BYTES = 8 * 1024 * 1024


class BufferPool:
    """A free-list of flat ``uint8`` arrays, keyed by element count.

    Parameters
    ----------
    max_per_size:
        How many buffers to retain per distinct size; further ``give``
        calls drop the buffer for the garbage collector.
    max_bytes:
        High-water mark on total retained bytes.  A ``give`` that would
        exceed it evicts idle buffers, largest sizes first; a buffer
        bigger than the whole budget is not retained at all.  ``None``
        disables the cap.
    """

    def __init__(
        self,
        max_per_size: int = 4,
        max_bytes: int | None = DEFAULT_POOL_MAX_BYTES,
    ) -> None:
        if max_per_size < 1:
            raise ValueError("max_per_size must be >= 1")
        if max_bytes is not None and max_bytes < 1:
            raise ValueError("max_bytes must be positive (or None)")
        self.max_per_size = max_per_size
        self.max_bytes = max_bytes
        self._free: dict[int, list[np.ndarray]] = {}
        self._retained = 0
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def take(self, size: int) -> np.ndarray:
        """A flat ``uint8`` buffer of ``size`` elements (contents arbitrary)."""
        if size < 1:
            raise ValueError("buffer size must be positive")
        with self._lock:
            stack = self._free.get(size)
            if stack:
                self.hits += 1
                self._retained -= size
                return stack.pop()
            self.misses += 1
        return np.empty(size, dtype=np.uint8)

    def give(self, buf: np.ndarray) -> None:
        """Return a buffer obtained from :meth:`take` to the pool."""
        if buf.dtype != np.uint8 or buf.ndim != 1:
            raise ValueError("pool buffers are flat uint8 arrays")
        size = buf.shape[0]
        with self._lock:
            stack = self._free.setdefault(size, [])
            if len(stack) >= self.max_per_size:
                return
            if self.max_bytes is not None:
                if size > self.max_bytes:
                    return
                self._evict_down_to(self.max_bytes - size)
            stack.append(buf)
            self._retained += size

    def _evict_down_to(self, budget: int) -> None:
        """Drop idle buffers, largest first (caller holds the lock)."""
        if self._retained <= budget:
            return
        for size in sorted(self._free, reverse=True):
            stack = self._free[size]
            while stack and self._retained > budget:
                stack.pop()
                self._retained -= size
                self.evictions += 1
            if self._retained <= budget:
                return

    def clear(self) -> None:
        """Drop every retained buffer (tests / memory pressure)."""
        with self._lock:
            self._free.clear()
            self._retained = 0

    def stats(self) -> dict:
        """Hit/miss/eviction counters and retained byte total."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "retained_bytes": self._retained,
            "max_bytes": self.max_bytes,
        }


#: The process-wide pool the GF kernels draw their temporaries from.
scratch_pool = BufferPool()
