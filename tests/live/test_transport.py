"""Transport-layer tests: startup races, refused-connection backoff,
and the buffered protocol every TCP stream receives through."""

import asyncio
import json
import os
import struct

import pytest

from repro.live import TcpTransport, WireClosed, WireError, connect_tcp, read_frame, send_frame
from repro.live.transport import STAGE_BYTES, TcpStream, serve_tcp


async def _noop_handler(node_id, stream):
    await stream.aclose()


class TestTcpTransportLifecycle:
    def test_double_start_is_refused(self):
        """Restarting over live servers must fail loudly, not rebind."""

        async def _run():
            transport = TcpTransport()
            await transport.start([0, 1], _noop_handler)
            try:
                with pytest.raises(RuntimeError, match="already started"):
                    await transport.start([0, 1], _noop_handler)
            finally:
                await transport.aclose()
            # After a clean aclose the transport is reusable.
            await transport.start([0, 1], _noop_handler)
            ports = {transport._ports[0], transport._ports[1]}
            await transport.aclose()
            assert len(ports) == 2

        asyncio.run(_run())

    def test_ports_are_kernel_assigned_and_registered(self):
        async def _run():
            transport = TcpTransport()
            await transport.start([0, 1, 2], _noop_handler)
            try:
                ports = [transport._ports[n] for n in (0, 1, 2)]
            finally:
                await transport.aclose()
            return ports

        ports = asyncio.run(_run())
        assert len(set(ports)) == 3
        assert all(p > 0 for p in ports)


class TestConnectBackoff:
    def test_refused_connection_retries_until_server_appears(self):
        """A connect racing daemon startup succeeds once the bind lands."""

        async def _run():
            # Reserve a port the kernel considers free, then race a
            # connect against a server that binds it shortly after.
            probe = await asyncio.start_server(lambda r, w: None, "127.0.0.1", 0)
            port = probe.sockets[0].getsockname()[1]
            probe.close()
            await probe.wait_closed()

            async def _late_server():
                await asyncio.sleep(0.15)
                return await asyncio.start_server(
                    lambda r, w: None, "127.0.0.1", port
                )

            server_task = asyncio.ensure_future(_late_server())
            stream = await connect_tcp(
                "127.0.0.1", port, attempts=10, initial_backoff=0.05
            )
            await stream.aclose()
            server = await server_task
            server.close()
            await server.wait_closed()

        asyncio.run(_run())

    def test_gives_up_after_capped_attempts(self):
        async def _run():
            probe = await asyncio.start_server(lambda r, w: None, "127.0.0.1", 0)
            port = probe.sockets[0].getsockname()[1]
            probe.close()
            await probe.wait_closed()
            with pytest.raises(ConnectionRefusedError):
                await connect_tcp(
                    "127.0.0.1", port, attempts=2, initial_backoff=0.01
                )

        asyncio.run(_run())

    def test_rejects_zero_attempts(self):
        with pytest.raises(ValueError):
            asyncio.run(connect_tcp("127.0.0.1", 1, attempts=0))


class TestCancelAndWait:
    """The teardown primitive every aclose leans on: must always converge."""

    def test_cancels_a_sleeping_task(self):
        from repro.live import cancel_and_wait

        async def _run():
            task = asyncio.ensure_future(asyncio.sleep(3600))
            await asyncio.wait_for(cancel_and_wait(task), timeout=5.0)
            assert task.done() and task.cancelled()

        asyncio.run(_run())

    def test_re_pokes_a_task_that_absorbed_the_first_cancel(self):
        """The lost-cancellation bug: one CancelledError gets swallowed
        mid-RPC and the task returns to its idle loop with nobody left to
        cancel it — a bare cancel+await would park forever."""
        from repro.live import cancel_and_wait

        absorbed = asyncio.Event()

        async def stubborn():
            try:
                await asyncio.sleep(3600)
            except asyncio.CancelledError:
                pass  # swallow cancel #1 (e.g. a finally-block await won)
            absorbed.set()
            await asyncio.sleep(3600)  # cancel #2 must land here

        async def _run():
            task = asyncio.ensure_future(stubborn())
            await asyncio.sleep(0.01)
            await asyncio.wait_for(
                cancel_and_wait(task, poke_interval=0.05), timeout=5.0
            )
            assert task.done()
            assert absorbed.is_set(), "the first cancel was never absorbed"

        asyncio.run(_run())

    def test_finished_task_is_a_noop(self):
        from repro.live import cancel_and_wait

        async def _run():
            task = asyncio.ensure_future(asyncio.sleep(0))
            await task
            await cancel_and_wait(task)
            assert task.result() is None

        asyncio.run(_run())

    def test_surfaces_the_tasks_own_failure(self):
        """Only cancellation is expected noise; a real crash must not be
        silently eaten by teardown."""
        from repro.live import cancel_and_wait

        async def broken():
            raise ValueError("daemon exploded")

        async def _run():
            task = asyncio.ensure_future(broken())
            await asyncio.sleep(0.01)
            with pytest.raises(ValueError, match="daemon exploded"):
                await cancel_and_wait(task)

        asyncio.run(_run())


def _frame(payload: bytes, **header) -> bytes:
    """One wire frame's bytes: ``!I`` header length, JSON header, payload."""
    head = json.dumps({**header, "nbytes": len(payload)}, separators=(",", ":")).encode()
    return struct.pack("!I", len(head)) + head + payload


async def _until(predicate, timeout=2.0):
    async with asyncio.timeout(timeout):
        while not predicate():
            await asyncio.sleep(0.001)


def _on_tcp_pair(body):
    """Run ``body(client, server_stream)`` on the two ends of a fresh
    loopback connection, each a :class:`TcpStream`."""

    async def _run():
        connected = asyncio.get_running_loop().create_future()

        async def on_connect(stream):
            connected.set_result(stream)

        server = await serve_tcp(on_connect, "127.0.0.1")
        client = await connect_tcp("127.0.0.1", server.sockets[0].getsockname()[1])
        accepted = await connected
        try:
            return await body(client, accepted)
        finally:
            client.abort()
            accepted.abort()
            server.close()
            await server.wait_closed()

    return asyncio.run(_run())


class TestTcpStream:
    """The buffered protocol under every TCP stream: bytes land in the
    reader's frame buffer or a small stage, and every failure surfaces
    as it did through asyncio's stream reader."""

    def test_a_frame_written_one_byte_at_a_time(self):
        frame = _frame(bytes(range(256)) * 3, op="drip")

        async def body(client, accepted):
            async def drip():
                for i in range(len(frame)):
                    await client.write(frame[i : i + 1])
                    await asyncio.sleep(0)

            writer = asyncio.ensure_future(drip())
            header, payload = await read_frame(accepted, timeout=5.0)
            await writer
            return header, payload

        header, payload = _on_tcp_pair(body)
        assert header["op"] == "drip" and payload == bytes(range(256)) * 3

    @pytest.mark.parametrize("size", [0, 10, STAGE_BYTES, 1 << 20])
    def test_a_frame_with_the_next_frames_header_right_behind_it(self, size):
        first, second = os.urandom(size), os.urandom(300)

        async def body(client, accepted):
            await client.write(_frame(first, n=1) + _frame(second, n=2)[:9])
            head1, got1 = await read_frame(accepted, timeout=5.0)
            await client.write(_frame(second, n=2)[9:])
            head2, got2 = await read_frame(accepted, timeout=5.0)
            return head1["n"], bytes(got1), head2["n"], bytes(got2)

        assert _on_tcp_pair(body) == (1, first, 2, second)

    @pytest.mark.parametrize("short", [2, 10], ids=["length-prefix", "header"])
    def test_a_header_split_across_the_staging_boundary(self, short):
        """The first frame ends ``short`` bytes before the stage does, so
        the second frame's length prefix or header straddles the stage's
        end: the unread bytes move to its front and reading resumes."""
        lead = len(_frame(bytes(10000), k="x" * 40)) - 10000  # a 5-digit nbytes
        first = os.urandom(STAGE_BYTES - short - lead)
        second = os.urandom(5000)
        wire = _frame(first, k="x" * 40) + _frame(second, k="y" * 40)
        assert len(_frame(first, k="x" * 40)) == STAGE_BYTES - short

        async def body(client, accepted):
            await client.write(wire)
            # Nobody reads yet: the bytes stage until the stage is full.
            await _until(lambda: accepted._tail == STAGE_BYTES)
            head1, got1 = await read_frame(accepted, timeout=5.0)
            head2, got2 = await read_frame(accepted, timeout=5.0)
            return bytes(got1), bytes(got2), head2["k"]

        assert _on_tcp_pair(body) == (first, second, "y" * 40)

    def test_a_header_larger_than_the_stage(self):
        """A header the stage cannot hold is read like a payload."""
        pad = "z" * (3 * STAGE_BYTES)

        async def body(client, accepted):
            await client.write(_frame(b"body", pad=pad))
            return await read_frame(accepted, timeout=5.0)

        header, payload = _on_tcp_pair(body)
        assert header["pad"] == pad and payload == b"body"

    def test_eof_before_a_frame_is_wire_closed(self):
        async def body(client, accepted):
            await accepted.aclose()
            with pytest.raises(WireClosed):
                await read_frame(client, timeout=5.0)

        _on_tcp_pair(body)

    def test_eof_mid_payload_names_the_byte_offset(self):
        async def body(client, accepted):
            await accepted.write(_frame(os.urandom(1000))[:-900])
            await accepted.aclose()
            with pytest.raises(WireError) as err:
                await read_frame(client, timeout=5.0)
            return err.value

        exc = _on_tcp_pair(body)
        assert not isinstance(exc, WireClosed)
        assert "payload byte 100 of 1000" in str(exc)

    def test_a_timed_out_read_withdraws_its_loan(self):
        """The frame's buffer is lent while the read waits; once the read
        times out, later bytes land in the stage, not in that buffer."""

        async def body(client, accepted):
            await client.write(_frame(os.urandom(100_000))[:5000])
            with pytest.raises(WireError, match="timed out"):
                await read_frame(accepted, timeout=0.2)
            assert accepted._loan is None and accepted._waiter is None
            late = os.urandom(64)
            await client.write(late)
            await _until(lambda: accepted._tail == len(late))
            return late, bytes(accepted._stage[: len(late)])

        late, staged = _on_tcp_pair(body)
        assert staged == late

    def test_a_large_payload_is_staged_for_at_most_one_stage(self, monkeypatch):
        """A 1 MiB payload is received into the frame's buffer: at most
        one stage's worth of the frame is copied out of the stage."""
        payload = os.urandom(1 << 20)
        staged = []
        consume = TcpStream._consume

        def counting(self, n):
            staged.append(n)
            consume(self, n)

        monkeypatch.setattr(TcpStream, "_consume", counting)

        async def body(client, accepted):
            reading = asyncio.ensure_future(read_frame(accepted, timeout=5.0))
            await asyncio.sleep(0.01)  # the reader waits before the bytes come
            await client.write(_frame(payload))
            _, got = await reading
            return bytes(got)

        assert _on_tcp_pair(body) == payload
        assert 0 < sum(staged) <= STAGE_BYTES

    def test_a_peer_that_stops_reading_blocks_the_writer(self):
        """The writer fills the socket buffers, whatever their size, then
        waits in ``write``; the peer's reads release it."""
        chunk = os.urandom(256 * 1024)

        async def body(client, accepted):
            written, flooding = 0, True

            async def flood():
                nonlocal written
                while flooding:
                    written += len(chunk)  # the transport takes it at once
                    await client.write(chunk)

            writer = asyncio.ensure_future(flood())
            await _until(lambda: not client._writable.is_set(), timeout=10.0)
            await asyncio.sleep(0.2)
            assert not writer.done() and not client._writable.is_set()
            flooding = False
            received = 0
            with memoryview(bytearray(1 << 20)) as view:
                while received < written:
                    received += await accepted.read_into(view)
            async with asyncio.timeout(5.0):
                await writer
            return received, written

        received, written = _on_tcp_pair(body)
        assert received == written > 0

    def test_a_parked_idle_connection_holds_no_stage(self):
        async def body(client, accepted):
            async def serve():
                while True:
                    _, payload = await read_frame(accepted, park=True)
                    await send_frame(accepted, {"t": "ack"}, payload[:1])

            serving = asyncio.ensure_future(serve())
            try:
                for size in (10, 50_000):
                    await send_frame(client, {"t": "req"}, os.urandom(size))
                    await read_frame(client, timeout=5.0)
                    await asyncio.sleep(0.01)  # the server parks again
                    assert accepted._waiter is not None
                    assert accepted._stage is None and client._stage is None
            finally:
                serving.cancel()
                await asyncio.gather(serving, return_exceptions=True)

        _on_tcp_pair(body)

    def test_an_asyncio_stream_pair_is_adopted_with_its_buffered_bytes(self):
        """``TcpStream(reader, writer)``: the bytes asyncio's reader had
        buffered become the stage, and the rest arrive behind them."""
        first = os.urandom(70_000)
        wire = _frame(first, n=1) + _frame(b"tail", n=2)

        async def _run():
            async def on_connect(reader, writer):
                writer.write(wire)
                await writer.drain()
                await reader.read()  # until the client hangs up
                writer.close()

            server = await asyncio.start_server(on_connect, "127.0.0.1", 0)
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.sockets[0].getsockname()[1]
            )
            try:
                await _until(lambda: len(reader._buffer) > 0)
                stream = TcpStream(reader, writer)
                head1, got1 = await read_frame(stream, timeout=5.0)
                head2, got2 = await read_frame(stream, timeout=5.0)
                await stream.aclose()
                return bytes(got1) + bytes(got2)
            finally:
                server.close()
                await server.wait_closed()

        assert asyncio.run(_run()) == first + b"tail"
