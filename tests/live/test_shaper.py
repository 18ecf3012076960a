"""Token-bucket shaper tests: exact accounting in virtual time + wall-clock rate."""

import asyncio
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster, HierarchicalBandwidth
from repro.live import LinkShaper, TokenBucket

from ..vtime import VirtualTimeLoop


async def drain(bucket, sizes, cls=""):
    for n in sizes:
        await bucket.acquire(n, cls)


class TestTokenBucketAccounting:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            TokenBucket(0.0)
        with pytest.raises(ValueError):
            TokenBucket(-5.0)
        with pytest.raises(ValueError):
            TokenBucket(100.0, capacity=0.0)

    def test_first_transfer_pays_full_fare(self):
        loop = VirtualTimeLoop()
        loop.run(drain(TokenBucket(1000.0), [500]))
        assert loop.time() == pytest.approx(0.5)

    def test_a_bucket_built_outside_a_loop_starts_at_first_use(self):
        """Idle time before a loop-less bucket's first use earns nothing."""
        loop = VirtualTimeLoop()
        bucket = TokenBucket(1000.0, capacity=100.0)

        async def _run():
            loop.advance(60.0)
            await drain(bucket, [200])

        loop.run(_run())
        assert loop.time() == pytest.approx(60.0 + 0.2)

    def test_zero_and_negative_sizes_are_free(self):
        loop = VirtualTimeLoop()
        loop.run(drain(TokenBucket(1000.0), [0, -3]))
        assert loop.slept == []

    def test_one_sleep_per_stall(self):
        """Every acquire that ends in debt sleeps once, for the whole debt."""
        loop = VirtualTimeLoop()

        async def _run():
            bucket = TokenBucket(1000.0, capacity=100.0)
            loop.advance(1.0)  # idle: 100 bytes of credit
            # 60 rides free; the next three stall (owing 20, 60, 60 bytes).
            await drain(bucket, [60, 60, 60, 60])

        loop.run(_run())
        assert loop.slept == pytest.approx([0.02, 0.06, 0.06])

    @settings(max_examples=60, deadline=None)
    @given(
        rate=st.floats(min_value=10.0, max_value=1e6),
        sizes=st.lists(st.integers(min_value=1, max_value=1 << 16), min_size=1, max_size=40),
    )
    def test_back_to_back_elapsed_is_total_over_rate(self, rate, sizes):
        """With exact sleeps and no idle gaps, N bytes take exactly N/rate."""
        loop = VirtualTimeLoop()
        loop.run(drain(TokenBucket(rate), sizes))
        assert loop.time() == pytest.approx(sum(sizes) / rate, rel=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(
        rate=st.floats(min_value=10.0, max_value=1e6),
        sizes=st.lists(st.integers(min_value=1, max_value=1 << 16), min_size=1, max_size=40),
        oversleep=st.floats(min_value=1.0, max_value=3.0),
    )
    def test_oversleep_never_runs_ahead_of_rate(self, rate, sizes, oversleep):
        """A jittery sleeper can only be late, never ahead of the rate."""
        loop = VirtualTimeLoop(stretch=oversleep)
        loop.run(drain(TokenBucket(rate), sizes))
        assert loop.time() >= sum(sizes) / rate - 1e-9

    def test_idle_credit_is_capped_at_capacity(self):
        loop = VirtualTimeLoop()

        async def _run():
            bucket = TokenBucket(1000.0, capacity=100.0)
            loop.advance(60.0)  # idles way past the burst window
            await drain(bucket, [200])

        loop.run(_run())
        # Only `capacity` bytes ride for free, the rest pays full fare.
        assert loop.time() == pytest.approx(60.0 + 100.0 / 1000.0)

    def test_reset_drops_idle_credit_but_keeps_debt(self):
        loop = VirtualTimeLoop()

        async def _run():
            bucket = TokenBucket(1000.0, capacity=100.0)
            loop.advance(60.0)
            bucket.reset()
            await drain(bucket, [200])

        loop.run(_run())
        assert loop.time() == pytest.approx(60.0 + 0.2)
        # Debt survives a reset: an interleaved reset cannot forgive pacing.
        loop2 = VirtualTimeLoop()
        b2 = TokenBucket(1000.0)

        async def _run2():
            task = asyncio.ensure_future(b2.acquire(500))
            await asyncio.sleep(0)
            b2.reset()
            await task

        loop2.run(_run2())
        assert loop2.time() == pytest.approx(0.5)

    def test_reset_credits_time_already_slept(self):
        """Back-to-back transfers on one link each take nbytes / rate.

        ``reset()`` used to move the refill mark without crediting the
        pacing sleep that had just ended, so every transfer re-paid the
        previous one's last chunk: these four rounds ended at 0.5 / 1.5 /
        3.0 / 5.0 s.  Sliced sends and merged plans reuse links.
        """
        loop = VirtualTimeLoop()
        bucket = TokenBucket(1000.0)
        ends = []

        async def _run():
            for _ in range(4):
                bucket.reset()
                await bucket.acquire(500)
                ends.append(loop.time())

        loop.run(_run())
        assert ends == pytest.approx([0.5, 1.0, 1.5, 2.0])


class _ExplodingStream:
    """Stream whose write raises after ``ok_writes`` successful writes."""

    def __init__(self, ok_writes: int):
        self.ok_writes = ok_writes
        self.writes = 0

    async def write(self, data):
        self.writes += 1
        if self.writes > self.ok_writes:
            raise ConnectionResetError("peer dropped the connection")

    async def aclose(self):
        pass


class TestChargeRefund:
    """A chunk charged but never written must not stay spent.

    The bucket is per-link and outlives a transfer; before the refund
    fix, a connection dropping mid-chunk left its tokens spent and the
    *next* transfer on that link started in debt it never incurred.
    """

    CHUNK = 16 * 1024

    async def _failing_send(self, bucket, ok_chunks):
        from repro.live import send_frame

        # +1: the header write is write #1 and is never charged.
        stream = _ExplodingStream(ok_writes=ok_chunks + 1)
        payload = b"x" * (3 * self.CHUNK)
        with pytest.raises(ConnectionResetError):
            await send_frame(
                stream, {"op": "s0"}, payload, bucket=bucket,
                chunk_size=self.CHUNK,
            )

    def test_failed_chunk_write_refunds_its_charge(self):
        loop = VirtualTimeLoop()
        bucket = TokenBucket(float(self.CHUNK))

        async def _run():
            await self._failing_send(bucket, ok_chunks=2)
            # 2 chunks actually hit the wire (1s each at CHUNK bytes/s); the
            # 3rd chunk's charge was rolled back when its write raised.
            t_fail = loop.time()
            assert t_fail == pytest.approx(3.0)  # 3 pacing stalls elapsed
            assert bucket.sent[""] == 2 * self.CHUNK  # the 3rd chunk's charge is back
            # The runtime starts every transfer with reset(): idle credit is
            # dropped, debt is kept.  With the refund there is no debt, so
            # the next transfer pays exactly full fare; before the fix the
            # unwritten chunk's charge survived and it paid double.
            bucket.reset()
            await drain(bucket, [self.CHUNK])
            assert loop.time() - t_fail == pytest.approx(1.0)

        loop.run(_run())

    def test_failed_one_write_frame_refunds_its_charge(self):
        """A frame whose payload fits one chunk goes out header and all
        in one write; when that write fails, its charge is rolled back
        just the same."""
        from repro.live import send_frame

        bucket = TokenBucket(float(self.CHUNK))
        stream = _ExplodingStream(ok_writes=0)

        async def _run():
            with pytest.raises(ConnectionResetError):
                await send_frame(
                    stream, {"op": "s0"}, b"x" * self.CHUNK, bucket=bucket,
                    chunk_size=self.CHUNK,
                )

        VirtualTimeLoop().run(_run())
        assert stream.writes == 1
        assert bucket.sent[""] == 0  # nothing reached the wire, nothing is owed

    def test_refund_never_mints_extra_burst(self):
        loop = VirtualTimeLoop()
        bucket = TokenBucket(1000.0, capacity=100.0)
        bucket.refund(10_000)  # absurd refund: capped at capacity
        loop.run(drain(bucket, [200]))
        assert loop.time() == pytest.approx(100.0 / 1000.0)

    def test_cancelled_pacing_sleep_rolls_back_the_charge(self):
        """A sender task killed mid-stall leaves the bucket clean."""
        bucket = TokenBucket(10.0)  # 100 bytes => 10s stall: never finishes

        async def _run():
            task = asyncio.ensure_future(bucket.acquire(100))
            await asyncio.sleep(0.01)
            task.cancel()
            with pytest.raises(asyncio.CancelledError):
                await task
            # The rolled-back bucket owes nothing: a 1-byte acquire
            # completes in well under the 10s the leaked debt would cost.
            await asyncio.wait_for(bucket.acquire(1), timeout=2.0)

        asyncio.run(_run())


class TestWallClockRate:
    def test_long_shaped_transfer_within_ten_percent_of_rate(self):
        """The ISSUE acceptance bar: measured throughput within 10% of rate."""
        rate = 4e6  # 4 MB/s => ~0.25 s for 1 MiB
        nbytes = 1 << 20
        bucket = TokenBucket(rate)
        chunk = 16 * 1024

        async def _run():
            start = time.monotonic()
            sent = 0
            while sent < nbytes:
                step = min(chunk, nbytes - sent)
                await bucket.acquire(step)
                sent += step
            return time.monotonic() - start

        elapsed = asyncio.run(_run())
        achieved = nbytes / elapsed
        assert achieved == pytest.approx(rate, rel=0.10)


class TestWeightedTokenBucket:
    """``TokenBucket(..., weights=...)``: one link split across classes."""

    WEIGHTS = {"foreground": 3.0, "repair": 1.0}

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            TokenBucket(0.0, weights=self.WEIGHTS)
        with pytest.raises(ValueError):
            TokenBucket(1000.0, weights={})
        with pytest.raises(ValueError):
            TokenBucket(1000.0, weights={"foreground": 1.0, "repair": 0.0})
        with pytest.raises(ValueError):
            TokenBucket(1000.0, weights={"foreground": -1.0})

    def test_unknown_class_is_refused(self):
        bucket = TokenBucket(1000.0, weights=self.WEIGHTS)
        with pytest.raises(KeyError, match="unknown traffic class"):
            asyncio.run(bucket.acquire(10, "bulk"))

    def test_weights_normalise_to_shares(self):
        bucket = TokenBucket(1000.0, weights=self.WEIGHTS)
        assert bucket.shares["foreground"] == pytest.approx(0.75)
        assert bucket.shares["repair"] == pytest.approx(0.25)

    def test_lone_sender_sees_full_link_rate(self):
        """Work conservation: idle classes donate, so N bytes take N/rate."""
        loop = VirtualTimeLoop()
        loop.run(drain(TokenBucket(1000.0, weights=self.WEIGHTS), [1000], "foreground"))
        assert loop.time() == pytest.approx(1.0, rel=1e-6)

    def test_backlogged_competitor_confines_to_guaranteed_share(self):
        """With the other class in debt there is nothing to borrow."""
        loop = VirtualTimeLoop()
        bucket = TokenBucket(1000.0, weights={"foreground": 1.0, "repair": 1.0})
        # A repair sender is mid-stall: its balance is negative for the
        # whole window, so foreground gets exactly its 50% guarantee.
        bucket._tokens["repair"] = -1e9
        loop.run(drain(bucket, [500], "foreground"))
        assert loop.time() == pytest.approx(500 / (1000.0 * 0.5), rel=1e-6)

    def test_refund_is_capped_at_the_class_capacity(self):
        loop = VirtualTimeLoop()
        bucket = TokenBucket(1000.0, weights={"a": 1.0, "b": 1.0}, capacity=100.0)
        bucket.refund(10_000, "a")  # absurd refund: capped at 50 (share of 100)
        loop.run(drain(bucket, [100], "a"))
        # 50 bytes ride on the refunded credit; the rest pays at the full
        # link rate because b never enters debt.
        assert loop.time() == pytest.approx(50 / 1000.0, rel=1e-6)

    def test_foreground_never_queues_behind_repair_pacing(self):
        """Per-class locks: the priority split's whole point."""
        bucket = TokenBucket(10.0, weights=self.WEIGHTS)  # 10 B/s: glacial

        async def _run():
            # Repair owes 100s of pacing; foreground must not care.
            hog = asyncio.ensure_future(bucket.acquire(1000, "repair"))
            await asyncio.sleep(0.01)
            assert not hog.done()
            await asyncio.wait_for(bucket.acquire(1, "foreground"), timeout=2.0)
            assert not hog.done()
            hog.cancel()
            with pytest.raises(asyncio.CancelledError):
                await hog

        asyncio.run(_run())

    def test_cancelled_acquire_rolls_back_the_class_charge(self):
        bucket = TokenBucket(10.0, weights=self.WEIGHTS)

        async def _run():
            task = asyncio.ensure_future(bucket.acquire(1000, "repair"))
            await asyncio.sleep(0.01)
            task.cancel()
            with pytest.raises(asyncio.CancelledError):
                await task
            # The rolled-back class owes nothing: a tiny acquire completes
            # in well under the ~100s the leaked debt would cost.
            await asyncio.wait_for(bucket.acquire(1, "repair"), timeout=2.0)

        asyncio.run(_run())

    @settings(max_examples=30, deadline=None)
    @given(
        rate=st.floats(min_value=10.0, max_value=1e6),
        sizes=st.lists(st.integers(min_value=1, max_value=1 << 16), min_size=1, max_size=20),
        fg_weight=st.floats(min_value=0.1, max_value=10.0),
    )
    def test_lone_sender_rate_is_weight_independent(self, rate, sizes, fg_weight):
        """Whatever the split, an uncontended class gets the whole link.

        Never ahead of the rate; behind by at most one burst window per
        stall (a donor's accrual is capped at its burst share, so credit
        earned during a long stall can clip — bounded conservatism, the
        price of bounded bursts).
        """
        loop = VirtualTimeLoop()
        bucket = TokenBucket(rate, weights={"foreground": fg_weight, "repair": 1.0})
        loop.run(drain(bucket, sizes, "foreground"))
        ideal = sum(sizes) / rate
        slack = len(sizes) * bucket.capacity / rate
        assert ideal - 1e-9 <= loop.time() <= ideal + slack + 1e-9

    def test_frozen_clock_returns_after_one_sleep(self):
        """A stall is one sleep; what it leaves unpaid is carried forward.

        The clock never advances (every sleep is stretched to nothing),
        so no sleep pays anything off: a bucket that looped "sleep,
        refill, re-check" would spin here, and frozen time bounds no
        wait, so a bounded number of loop turns does.
        """
        loop = VirtualTimeLoop(stretch=0.0)
        bucket = TokenBucket(1000.0, weights=self.WEIGHTS)

        async def _run():
            task = asyncio.ensure_future(drain(bucket, [500, 500], "repair"))
            for _ in range(20):
                await asyncio.sleep(0)
            assert task.done()
            await task

        loop.run(_run())
        assert loop.time() == 0.0
        # Foreground is idle, so repair paces at the whole link rate; the
        # second stall owes its own 500 bytes plus the first's unpaid 500.
        assert loop.slept == [pytest.approx(0.5), pytest.approx(1.0)]


class TestClassedBucket:
    """A classed bucket is charged by class name on the one shared budget."""

    def test_unknown_class_is_refused(self):
        bucket = TokenBucket(1000.0, weights={"foreground": 1.0})
        with pytest.raises(KeyError, match="unknown traffic class"):
            asyncio.run(bucket.acquire(10, "repair"))
        with pytest.raises(KeyError, match="unknown traffic class"):
            asyncio.run(bucket.acquire(10))  # a classed bucket needs a class
        with pytest.raises(KeyError):
            bucket.refund(10, "repair")

    def test_rate_is_the_guaranteed_share(self):
        """Against a backlogged competitor each class gets its weight."""
        for cls, share_rate in (("foreground", 750.0), ("repair", 250.0)):
            loop = VirtualTimeLoop()
            bucket = TokenBucket(1000.0, weights={"foreground": 3.0, "repair": 1.0})
            other = "repair" if cls == "foreground" else "foreground"
            bucket._tokens[other] = -1e9
            loop.run(drain(bucket, [500], cls))
            assert loop.time() == pytest.approx(500 / share_rate, rel=1e-6)

    def test_acquire_and_refund_delegate_to_the_shared_bucket(self):
        """Class charges draw on, and feed, the one shared budget."""
        loop = VirtualTimeLoop()

        async def _run():
            shared = TokenBucket(1000.0, weights={"a": 1.0, "b": 1.0}, capacity=100.0)
            loop.advance(1.0)  # both classes fill to their 50-byte caps
            await drain(shared, [100], "a")
            # a's own 50 plus idle b's 50: no stall at all.
            assert loop.slept == []
            assert shared.sent == {"a": 100.0, "b": 0.0}
            shared.refund(30, "a")
            assert shared.sent == {"a": 70.0, "b": 0.0}
            await drain(shared, [30], "b")
            # b lent its credit to a; the refund went to a, which now lends it
            # back, so b's 30 bytes still ride free.
            assert loop.slept == []

        loop.run(_run())


class TestLinkShaper:
    def test_unshaped_mode(self):
        cluster = Cluster.homogeneous(2, 2)
        shaper = LinkShaper(cluster, None)
        assert not shaper.shaped
        assert shaper.bucket(0, 1) is None
        assert shaper.latency(0, 1) == 0.0

    def test_buckets_follow_the_bandwidth_model(self):
        cluster = Cluster.homogeneous(2, 2)
        bw = HierarchicalBandwidth(intra=1e6, cross=1e5)
        shaper = LinkShaper(cluster, bw)
        assert shaper.shaped
        intra = shaper.bucket(0, 1)
        cross = shaper.bucket(0, 2)
        assert intra.rate == pytest.approx(1e6)
        assert cross.rate == pytest.approx(1e5)
        # Buckets are cached per directed pair.
        assert shaper.bucket(0, 1) is intra
        assert shaper.bucket(1, 0) is not intra
