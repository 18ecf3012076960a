"""Wire-protocol adversarial tests: truncation, malformed frames, acks.

A single-process harness never kills a peer mid-frame, so these paths
went unexercised until the multi-process store service arrived.  The
contract pinned here: *every* malformed or truncated frame surfaces as
:class:`WireError` (or a bounded timeout) — never a hang, never short
bytes handed to the caller.
"""

import asyncio
import gc
import json
import struct
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.live import TokenBucket, WireClosed, WireError, read_ack, read_frame, send_frame
from repro.live.transport import MemoryStream, Stream
from repro.live.wire import ACK, DEFAULT_CHUNK, MAX_FRAME_PAYLOAD, MAX_HEADER_BYTES


def make_frame(header: dict, payload: bytes) -> bytes:
    """Raw frame bytes exactly as send_frame lays them out."""
    head = dict(header)
    head["nbytes"] = len(payload)
    encoded = json.dumps(head, separators=(",", ":")).encode()
    return struct.pack("!I", len(encoded)) + encoded + payload


def feed_and_read(
    raw: bytes, *, close: bool = True, timeout: float | None = None, park: bool = False
):
    """Write ``raw`` to one end, close it, read a frame from the other."""

    async def _run():
        a, b = MemoryStream.pair()
        if raw:
            await a.write(raw)
        if close:
            await a.aclose()
        return await read_frame(b, timeout=timeout, park=park)

    return asyncio.run(_run())


class TestTruncation:
    def test_eof_truncated_at_every_boundary(self):
        """Cutting the stream after any byte count must raise WireError."""
        frame = make_frame({"op": "s0", "key": "block:1"}, b"payload!")
        for cut in range(len(frame)):
            with pytest.raises(WireError):
                feed_and_read(frame[:cut])
        # Sanity: the uncut frame parses.
        header, payload = feed_and_read(frame)
        assert header["key"] == "block:1"
        assert bytes(payload) == b"payload!"

    def test_eof_mid_payload_does_not_return_short(self):
        frame = make_frame({"op": "s0"}, bytes(range(200)))
        with pytest.raises(WireError, match="mid-frame"):
            feed_and_read(frame[:-1])

    def test_silent_peer_times_out_instead_of_hanging(self):
        """A live-but-wedged peer trips the progress timeout."""
        frame = make_frame({"op": "s0"}, b"x" * 64)
        with pytest.raises(WireError, match="timed out"):
            feed_and_read(frame[: len(frame) - 10], close=False, timeout=0.05)

    def test_timeout_covers_the_header_too(self):
        with pytest.raises(WireError, match="timed out"):
            feed_and_read(b"", close=False, timeout=0.05)


class TestProgressTimeout:
    """``timeout`` is one progress timer per frame, which each read step
    stamps: progress keeps a frame alive, a stall ends it, and a cancel
    is never absorbed."""

    def test_trickling_payload_reads_whole(self):
        """Gaps of 0.6x the timeout, 3x the timeout in all: no step
        stalls, so the frame arrives whole."""
        payload = bytes(range(256)) * 5
        frame = make_frame({"op": "s0"}, payload)
        head = len(frame) - len(payload)
        timeout, gap, pieces = 0.4, 0.24, 5

        async def _run():
            a, b = MemoryStream.pair()
            reading = asyncio.ensure_future(read_frame(b, timeout=timeout))
            await a.write(frame[:head])
            for i in range(pieces):
                await asyncio.sleep(gap)
                await a.write(payload[i * 256 : (i + 1) * 256])
            return await reading

        started = time.monotonic()
        header, got = asyncio.run(_run())
        assert time.monotonic() - started > 2 * timeout
        assert header["op"] == "s0" and bytes(got) == payload

    def test_stall_after_the_header_names_the_payload_byte(self):
        frame = make_frame({"op": "s0"}, b"x" * 64)
        head = len(frame) - 64

        async def _run():
            a, b = MemoryStream.pair()
            await a.write(frame[: head + 40])  # 40 of the 64 payload bytes
            await read_frame(b, timeout=0.05)

        with pytest.raises(WireError, match=r"timed out after 0\.05s \(payload byte 40 of 64\)"):
            asyncio.run(_run())

    @pytest.mark.parametrize("with_bytes", [False, True])
    def test_one_cancel_ends_a_read_blocked_mid_payload(self, with_bytes):
        """The first cancel ends the read — also when the missing bytes
        land in the same loop iteration as the cancel (the race in which
        a per-step ``wait_for`` could hand back the result instead)."""
        frame = make_frame({"op": "s0"}, b"x" * 64)

        async def _run():
            a, b = MemoryStream.pair()
            reading = asyncio.ensure_future(read_frame(b, timeout=5.0))
            await a.write(frame[:-10])
            await asyncio.sleep(0.01)  # blocked mid-payload
            if with_bytes:
                await a.write(frame[-10:])
            reading.cancel()
            await asyncio.wait({reading}, timeout=1.0)
            return reading

        reading = asyncio.run(_run())
        assert reading.done() and reading.cancelled()


class TestOneDeadlinePerFrame:
    """The property the deadline exists for: reading bytes that are
    already buffered spawns no task (a ``wait_for`` per read step would
    spawn one per step, 66 for this frame)."""

    @staticmethod
    async def _tasks_spawned(read) -> int:
        loop = asyncio.get_running_loop()
        spawned = []

        def counting_factory(loop, coro, **kwargs):
            spawned.append(coro)
            return asyncio.Task(coro, loop=loop, **kwargs)

        loop.set_task_factory(counting_factory)
        try:
            await read
        finally:
            loop.set_task_factory(None)
        return len(spawned)

    def test_buffered_megabyte_frame_spawns_no_task(self):
        payload = bytes(range(256)) * 4096  # 1 MiB: 64 default chunks

        async def _run():
            a, b = MemoryStream.pair(high_water=4 << 20)
            await send_frame(a, {"op": "s0"}, payload)
            await a.write(ACK)
            frame_tasks = await self._tasks_spawned(read_frame(b, timeout=5.0))
            ack_tasks = await self._tasks_spawned(read_ack(b, timeout=5.0))
            return frame_tasks, ack_tasks

        assert asyncio.run(_run()) == (0, 0)


class TestFrameBoundary:
    """Connections that carry many frames: a stream ending *between*
    frames is WireClosed, and the wait for a frame to begin can be
    exempt from the progress timeout (``park=True``)."""

    @pytest.mark.parametrize("park", [False, True])
    def test_eof_before_the_first_byte_is_wire_closed(self, park):
        with pytest.raises(WireClosed):
            feed_and_read(b"", park=park)

    @pytest.mark.parametrize("park", [False, True])
    def test_eof_after_any_byte_is_truncation_not_closure(self, park):
        frame = make_frame({"op": "s0"}, b"payload!")
        for cut in range(1, len(frame)):
            with pytest.raises(WireError) as caught:
                feed_and_read(frame[:cut], park=park)
            assert not isinstance(caught.value, WireClosed), cut

    def test_parked_read_waits_out_the_timeout_then_reads_the_frame(self):
        frame = make_frame({"op": "s0"}, b"late")

        async def _run():
            a, b = MemoryStream.pair()
            reading = asyncio.ensure_future(read_frame(b, timeout=0.05, park=True))
            await asyncio.sleep(0.25)  # 5x the progress timeout, idle
            assert not reading.done()
            await a.write(frame)
            return await asyncio.wait_for(reading, timeout=2.0)

        header, payload = asyncio.run(_run())
        assert header["op"] == "s0" and bytes(payload) == b"late"

    def test_parked_read_times_out_once_the_frame_has_begun(self):
        frame = make_frame({"op": "s0"}, b"x" * 64)
        for sent in (1, 3, 4, len(frame) - 10):
            with pytest.raises(WireError, match="timed out"):
                feed_and_read(frame[:sent], close=False, timeout=0.05, park=True)

    def test_parked_read_parses_the_same_frames(self):
        frame = make_frame({"op": "s0", "key": "k"}, bytes(range(100)))
        assert feed_and_read(frame, park=True) == feed_and_read(frame)


class TestMalformedHeaders:
    def test_oversized_header_length_is_rejected_before_allocation(self):
        raw = struct.pack("!I", MAX_HEADER_BYTES + 1) + b"x" * 16
        with pytest.raises(WireError, match="cap"):
            feed_and_read(raw, close=False)

    def test_non_json_header_bytes(self):
        junk = b"\xff\xfenot json"
        raw = struct.pack("!I", len(junk)) + junk
        with pytest.raises(WireError, match="malformed frame"):
            feed_and_read(raw)

    def test_json_header_missing_nbytes(self):
        body = json.dumps({"op": "s0"}).encode()
        raw = struct.pack("!I", len(body)) + body
        with pytest.raises(WireError, match="malformed frame"):
            feed_and_read(raw)

    def test_negative_payload_length(self):
        body = json.dumps({"op": "s0", "nbytes": -5}).encode()
        raw = struct.pack("!I", len(body)) + body
        with pytest.raises(WireError, match="negative payload length"):
            feed_and_read(raw)

    def test_oversized_payload_length_is_rejected_before_allocation(self):
        body = json.dumps({"op": "s0", "nbytes": MAX_FRAME_PAYLOAD + 1}).encode()
        raw = struct.pack("!I", len(body)) + body
        with pytest.raises(WireError, match="cap"):
            feed_and_read(raw, close=False)

    def test_non_integer_nbytes(self):
        body = json.dumps({"op": "s0", "nbytes": "lots"}).encode()
        raw = struct.pack("!I", len(body)) + body
        with pytest.raises(WireError, match="malformed frame"):
            feed_and_read(raw)


class TestAck:
    def run(self, coro):
        return asyncio.run(coro)

    def test_missing_ack_times_out(self):
        async def _run():
            a, b = MemoryStream.pair()
            with pytest.raises(WireError, match="timed out"):
                await read_ack(b, timeout=0.05)

        self.run(_run())

    def test_peer_death_before_ack(self):
        async def _run():
            a, b = MemoryStream.pair()
            await a.aclose()
            with pytest.raises(WireError, match="mid-frame"):
                await read_ack(b)

        self.run(_run())

    def test_wrong_ack_byte(self):
        async def _run():
            a, b = MemoryStream.pair()
            await a.write(b"\x15")
            with pytest.raises(WireError, match="bad ack"):
                await read_ack(b)

        self.run(_run())

    def test_good_ack_passes(self):
        async def _run():
            a, b = MemoryStream.pair()
            await a.write(ACK)
            await read_ack(b, timeout=1.0)

        self.run(_run())


class TestOneTimerPerFrame:
    """A frame read arms one timer, however many steps its payload takes
    (a reschedule per step would arm 67 for this frame), and leaves no
    garbage cycle behind (one would keep the finished task and its
    payload alive until the cyclic collector ran)."""

    PAYLOAD = bytes(range(256)) * 4096  # 1 MiB

    def test_buffered_megabyte_frame_arms_one_timer(self):
        async def _run():
            loop = asyncio.get_running_loop()
            a, b = MemoryStream.pair(high_water=4 << 20)
            await send_frame(a, {"op": "s0"}, self.PAYLOAD)
            armed = 0
            call_at = loop.call_at

            def counting_call_at(when, callback, *args, **kwargs):
                nonlocal armed
                armed += 1
                return call_at(when, callback, *args, **kwargs)

            loop.call_at = counting_call_at
            try:
                _, got = await read_frame(b, timeout=5.0)
            finally:
                del loop.call_at
            return armed, got

        armed, got = asyncio.run(_run())
        assert armed == 1
        assert got == self.PAYLOAD

    def test_a_finished_read_leaves_no_garbage_cycle(self):
        async def _run():
            a, b = MemoryStream.pair(high_water=4 << 20)
            await send_frame(a, {"op": "s0"}, self.PAYLOAD)
            gc.collect()
            gc.disable()
            try:
                _, got = await asyncio.ensure_future(read_frame(b, timeout=5.0))
                del got
                return gc.collect()
            finally:
                gc.enable()

        assert asyncio.run(_run()) == 0


class _Tape(Stream):
    """A stream that records every write."""

    def __init__(self) -> None:
        self.writes: list[bytes] = []

    async def write(self, data) -> None:
        self.writes.append(bytes(data))


class _CountingBucket(TokenBucket):
    """A bucket fast enough never to matter that records every charge."""

    def __init__(self) -> None:
        super().__init__(1e12)
        self.charges: list[int] = []

    async def acquire(self, nbytes: int, cls: str = "") -> None:
        self.charges.append(nbytes)
        await super().acquire(nbytes, cls)


class TestSendWrites:
    """Chunking is for the bucket: an unpaced frame is at most a header
    write and a payload write, a paced one is charged chunk by chunk."""

    PAYLOAD = bytes(range(256)) * 4096  # 1 MiB: 64 default chunks

    def _send(self, bucket=None) -> _Tape:
        tape = _Tape()
        asyncio.run(send_frame(tape, {"op": "s0"}, self.PAYLOAD, bucket=bucket))
        assert b"".join(tape.writes) == make_frame({"op": "s0"}, self.PAYLOAD)
        return tape

    def test_unpaced_megabyte_frame_is_at_most_two_writes(self):
        assert len(self._send().writes) <= 2

    def test_paced_megabyte_frame_is_chunked_and_charged_per_chunk(self):
        bucket = _CountingBucket()
        tape = self._send(bucket)
        assert bucket.charges == [DEFAULT_CHUNK] * 64
        assert [len(w) for w in tape.writes[1:]] == [DEFAULT_CHUNK] * 64


class TestRoundTrip:
    @settings(max_examples=40, deadline=None)
    @given(
        key=st.text(
            alphabet=st.characters(min_codepoint=32, max_codepoint=126),
            max_size=24,
        ),
        payload=st.binary(max_size=32 * 1024),
        chunk=st.integers(min_value=1, max_value=8192),
        paced=st.booleans(),
    )
    def test_send_then_read_round_trips(self, key, payload, chunk, paced):
        """Any header/payload/chunking combination survives the wire,
        unpaced and paced (a bucket too fast to matter still chunks the
        send side at ``chunk``)."""

        async def _run():
            a, b = MemoryStream.pair()
            bucket = TokenBucket(1e12) if paced else None
            await send_frame(
                a, {"op": "s0", "key": key}, payload, bucket=bucket, chunk_size=chunk
            )
            return await read_frame(b, timeout=5.0)

        header, got = asyncio.run(_run())
        assert header["key"] == key
        assert header["nbytes"] == len(payload)
        assert bytes(got) == payload
