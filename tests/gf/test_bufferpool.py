"""BufferPool retention must respect its configured high-water mark."""

import threading

import numpy as np
import pytest

from repro.gf import DEFAULT_POOL_MAX_BYTES
from repro.gf.bufferpool import BufferPool


class TestHighWaterMark:
    def test_default_cap_is_set(self):
        pool = BufferPool()
        assert pool.max_bytes == DEFAULT_POOL_MAX_BYTES

    def test_retention_never_exceeds_cap_under_size_churn(self):
        """The regression the cap exists for: a workload cycling through
        many distinct block sizes must not accumulate one free-list per
        size forever."""
        cap = 64 * 1024
        pool = BufferPool(max_per_size=4, max_bytes=cap)
        rng = np.random.default_rng(0)
        for _ in range(300):
            size = int(rng.integers(1, cap))
            buf = pool.take(size)
            pool.give(buf)
            assert pool.stats()["retained_bytes"] <= cap
        assert pool.evictions > 0

    def test_eviction_drops_largest_sizes_first(self):
        pool = BufferPool(max_per_size=4, max_bytes=100)
        small = pool.take(10)
        big = pool.take(80)
        pool.give(small)
        pool.give(big)
        assert pool.stats()["retained_bytes"] == 90
        # Returning another 80 would exceed the cap: the idle 80 goes
        # before the idle 10 does.
        pool.give(pool.take(80))
        assert pool.stats()["retained_bytes"] == 90
        pool.give(pool.take(15))
        assert pool.stats()["retained_bytes"] <= 100
        assert pool._free.get(10) is not None or pool.stats()["retained_bytes"] < 90

    def test_oversized_buffer_is_not_retained(self):
        pool = BufferPool(max_bytes=100)
        pool.give(pool.take(500))
        assert pool.stats()["retained_bytes"] == 0

    def test_uncapped_pool_still_honours_per_size_limit(self):
        pool = BufferPool(max_per_size=2, max_bytes=None)
        bufs = [pool.take(64) for _ in range(5)]
        for buf in bufs:
            pool.give(buf)
        assert pool.stats()["retained_bytes"] == 128

    def test_cap_must_be_positive(self):
        with pytest.raises(ValueError):
            BufferPool(max_bytes=0)

    def test_stats_reports_cap_and_evictions(self):
        pool = BufferPool(max_bytes=32)
        first, second = pool.take(20), pool.take(20)
        pool.give(first)
        pool.give(second)
        stats = pool.stats()
        assert stats["max_bytes"] == 32
        assert stats["retained_bytes"] <= 32
        assert stats["evictions"] >= 1

    def test_concurrent_take_give_keeps_accounting_exact(self):
        """Kernel callers on several threads share one pool."""
        cap = 256 * 1024
        pool = BufferPool(max_per_size=4, max_bytes=cap)
        errors = []

        def worker(seed: int) -> None:
            rng = np.random.default_rng(seed)
            try:
                for _ in range(200):
                    size = int(rng.integers(1, 16 * 1024))
                    buf = pool.take(size)
                    pool.give(buf)
                    if pool.stats()["retained_bytes"] > cap:
                        errors.append(pool.stats()["retained_bytes"])
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        # Retention accounting must match the free lists exactly.
        expected = sum(
            size * len(stack) for size, stack in pool._free.items()
        )
        assert pool.stats()["retained_bytes"] == expected <= cap
