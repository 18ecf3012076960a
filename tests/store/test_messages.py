"""RPC message layer: pack/split, round trips, error surfacing."""

import asyncio
import gc
import time
import warnings
import weakref

import numpy as np
import pytest

from repro.live.transport import MemoryStream, Stream, TcpStream, connect_tcp
from repro.live.wire import WireClosed, WireError, read_frame, send_frame
from repro.store import messages
from repro.store.messages import (
    KINDS,
    PROTOCOL_VERSION,
    SHUTDOWN_GRACE,
    NotFound,
    Request,
    RpcServer,
    StoreError,
    StoreProtocolError,
    Unavailable,
    _pack,
    _split,
    call,
    close_idle_connections,
    dispatch,
    read_request,
    response_error,
    send_request,
    send_response,
    serve_connection,
)
from repro.telemetry import CLOCK_WALL, StatsRegistry, TelemetryRecorder
from repro.telemetry.distributed import TraceContext


class TestPackSplit:
    def test_body_and_blob_round_trip(self):
        blen, payload = _pack({"a": 1}, b"\x00\x01\x02")
        body, blob = _split({"blen": blen}, bytearray(payload))
        assert body == {"a": 1}
        assert bytes(blob) == b"\x00\x01\x02"

    @pytest.mark.parametrize(
        "blob",
        [
            b"\x00\x01\x02",
            bytearray(b"\x00\x01\x02"),
            memoryview(b"--\x00\x01\x02--")[2:5],
            np.array([[0, 1, 2]], dtype=np.uint8),
        ],
        ids=["bytes", "bytearray", "view", "ndarray"],
    )
    def test_any_buffer_blob_packs_byte_exact(self, blob):
        blen, payload = _pack({"a": 1}, blob)
        assert bytes(payload) == b'{"a":1}\x00\x01\x02' and blen == 7

    def test_empty_body_and_blob(self):
        blen, payload = _pack(None, None)
        assert blen == 0 and payload == b""
        body, blob = _split({"blen": 0}, bytearray())
        assert body == {} and len(blob) == 0

    def test_bad_blen_is_protocol_error(self):
        with pytest.raises(StoreProtocolError):
            _split({"blen": 99}, bytearray(b"short"))
        with pytest.raises(StoreProtocolError):
            _split({"blen": -1}, bytearray(b"x"))

    def test_non_object_body_is_protocol_error(self):
        with pytest.raises(StoreProtocolError, match="JSON object"):
            _split({"blen": 6}, bytearray(b"[1, 2]leftover"))

    def test_garbage_body_is_protocol_error(self):
        with pytest.raises(StoreProtocolError, match="not valid JSON"):
            _split({"blen": 4}, bytearray(b"[1ableftover"))


class Tape(Stream):
    """A write-only stream that keeps every write, as it was handed over."""

    def __init__(self) -> None:
        self.writes: list[bytes] = []

    async def write(self, data) -> None:
        self.writes.append(bytes(data))


class TestGoldenBytes:
    """The exact bytes the request and response senders put on the wire,
    captured before the send path stopped copying blobs: the frame
    format is frozen byte for byte (header key order included)."""

    BLOB = bytes(range(256)) * 160 + b"tail"  # 40 964 bytes: three 16 KiB chunks
    BODY = {"key": "b:7:2", "crc": 305419896, "nested": {"x": [1, 2.5, None, True]}, "s": "é"}
    CTX = TraceContext(
        trace_id="0123456789abcdef", span_id="fedcba9876543210", parent_id="00000000000000aa"
    )
    BODY_BYTES = (
        b'{"key":"b:7:2","crc":305419896,"nested":{"x":[1,2.5,null,true]},"s":"\\u00e9"}'
    )
    TC = b'"tc":{"t":"0123456789abcdef","s":"fedcba9876543210","p":"00000000000000aa"}'

    @staticmethod
    def _tape(send) -> Tape:
        tape = Tape()
        asyncio.run(send(tape))
        return tape

    def test_request_with_trace_context_and_blob(self):
        tape = self._tape(
            lambda t: send_request(t, "block.put", self.BODY, self.BLOB, ctx=self.CTX)
        )
        assert b"".join(tape.writes) == (
            b'\x00\x00\x00|{"t":"block.put","v":1,"blen":77,' + self.TC
            + b',"nbytes":41041}' + self.BODY_BYTES + self.BLOB
        )

    def test_response_with_blob(self):
        tape = self._tape(lambda t: send_response(t, self.BODY, memoryview(self.BLOB)))
        assert b"".join(tape.writes) == (
            b'\x00\x00\x005{"t":"resp","v":1,"ok":true,"blen":77,"nbytes":41041}'
            + self.BODY_BYTES + self.BLOB
        )

    def test_one_chunk_request_goes_out_in_one_write(self):
        tape = self._tape(
            lambda t: send_request(t, "block.put", self.BODY, self.BLOB[:100], ctx=self.CTX)
        )
        assert tape.writes == [
            b'\x00\x00\x00z{"t":"block.put","v":1,"blen":77,' + self.TC
            + b',"nbytes":177}' + self.BODY_BYTES + self.BLOB[:100]
        ]

    def test_bare_request_and_error_response(self):
        assert self._tape(lambda t: send_request(t, "ping")).writes == [
            b'\x00\x00\x00&{"t":"ping","v":1,"blen":0,"nbytes":0}'
        ]
        assert self._tape(lambda t: response_error(t, "no such block")).writes == [
            b'\x00\x00\x00I{"t":"resp","v":1,"ok":false,"blen":0,'
            b'"error":"no such block","nbytes":0}'
        ]

    def test_error_response_of_a_kind_carries_it_after_the_message(self):
        tape = self._tape(lambda t: response_error(t, "no object 'obj'", NotFound.kind))
        assert tape.writes == [
            b'\x00\x00\x00^{"t":"resp","v":1,"ok":false,"blen":0,'
            b'"error":"no object \'obj\'","kind":"not_found","nbytes":0}'
        ]


class TestRequestRoundTrip:
    def _round_trip(self, mtype, body=None, blob=None):
        async def _run():
            client, server = MemoryStream.pair()
            await send_request(client, mtype, body, blob)
            return await read_request(server, timeout=2.0)

        return asyncio.run(_run())

    def test_plain_request(self):
        request = self._round_trip("ping", {"node_id": 3})
        assert request.mtype == "ping"
        assert request.body == {"node_id": 3}
        assert len(request.blob) == 0

    def test_request_with_blob(self):
        request = self._round_trip("block.put", {"key": "b:0:1"}, b"\xffdata")
        assert bytes(request.blob) == b"\xffdata"

    def test_version_mismatch_rejected(self):
        async def _run():
            client, server = MemoryStream.pair()
            await send_frame(
                client, {"t": "ping", "v": PROTOCOL_VERSION + 1, "blen": 0}, b""
            )
            with pytest.raises(StoreProtocolError, match="version"):
                await read_request(server, timeout=2.0)

        asyncio.run(_run())

    def test_typeless_frame_rejected(self):
        async def _run():
            client, server = MemoryStream.pair()
            await send_frame(client, {"v": PROTOCOL_VERSION, "blen": 0}, b"")
            with pytest.raises(StoreProtocolError, match="without a type"):
                await read_request(server, timeout=2.0)

        asyncio.run(_run())


class TestServeConnection:
    def _serve(self, dispatch, mtype="x", body=None, blob=None):
        """Run one request through serve_connection; return response frame."""

        async def _run():
            client, server = MemoryStream.pair()
            serving = asyncio.ensure_future(serve_connection(server, dispatch))
            await send_request(client, mtype, body, blob)
            header, payload = await read_frame(client, timeout=2.0)
            # The server loops until its peer hangs up: close first.
            await client.aclose()
            await asyncio.wait_for(serving, timeout=2.0)
            return header, payload

        return asyncio.run(_run())

    def test_ok_response(self):
        async def dispatch(request):
            return {"echo": request.body}, None

        header, _ = self._serve(dispatch, body={"v": 7})
        assert header["ok"] is True

    def test_store_error_travels_as_error_response(self):
        async def dispatch(request):
            raise StoreError("no such block")

        header, _ = self._serve(dispatch)
        assert header["ok"] is False
        assert "no such block" in header["error"]

    def test_unexpected_exception_does_not_kill_the_server(self):
        async def dispatch(request):
            raise ValueError("boom")

        header, _ = self._serve(dispatch)
        assert header["ok"] is False
        assert "internal error" in header["error"]

    def test_response_error_shorthand(self):
        async def _run():
            client, server = MemoryStream.pair()
            await response_error(server, "nope")
            header, _ = await read_frame(client, timeout=2.0)
            return header

        header = asyncio.run(_run())
        assert header["ok"] is False and header["error"] == "nope"

    def test_many_requests_ride_one_connection(self):
        async def dispatch(request):
            if request.body.get("fail"):
                raise StoreError("refused")
            return {"echo": request.body["i"]}, request.blob

        async def _run():
            client, server = MemoryStream.pair()
            serving = asyncio.ensure_future(serve_connection(server, dispatch))
            seen = []
            for i in range(50):
                # Every third request fails service-side: an ok:false
                # reply must leave the connection usable for the next.
                await send_request(client, "x", {"i": i, "fail": i % 3 == 0}, b"\x07" * i)
                header, payload = await read_frame(client, timeout=2.0)
                if i % 3 == 0:
                    assert header["ok"] is False and header["error"] == "refused"
                else:
                    body, blob = _split(header, payload)
                    assert body == {"echo": i} and bytes(blob) == b"\x07" * i
                seen.append(header["ok"])
            assert not serving.done()
            await client.aclose()
            await asyncio.wait_for(serving, timeout=2.0)
            return seen

        assert len(asyncio.run(_run())) == 50

    @pytest.mark.parametrize(
        "header, payload, complaint",
        [
            ({"v": PROTOCOL_VERSION, "blen": 0}, b"", "without a type"),
            ({"t": 7, "v": PROTOCOL_VERSION, "blen": 0}, b"", "without a type"),
            ({"t": "ping", "v": PROTOCOL_VERSION + 1, "blen": 0}, b"", "version"),
            ({"t": "ping", "blen": 0}, b"", "version"),
            ({"t": "ping", "v": PROTOCOL_VERSION, "blen": 99}, b"short", "outside payload"),
            ({"t": "ping", "v": PROTOCOL_VERSION, "blen": -1}, b"x", "outside payload"),
            ({"t": "ping", "v": PROTOCOL_VERSION, "blen": 6}, b"[1, 2]", "JSON object"),
            ({"t": "ping", "v": PROTOCOL_VERSION, "blen": 3}, b"{no", "not valid JSON"),
        ],
    )
    def test_invalid_request_frame_is_answered_then_the_connection_closed(
        self, header, payload, complaint
    ):
        """A whole frame that is not a request used to kill the server
        task with an unretrieved StoreProtocolError and leave the peer
        waiting; now the peer is told, and the (possibly desynchronised)
        connection ends."""
        dispatched = []

        async def dispatch(request):
            dispatched.append(request)
            return {}, None

        async def _run():
            client, server = MemoryStream.pair()
            serving = asyncio.ensure_future(serve_connection(server, dispatch))
            await send_frame(client, header, payload)
            reply, _ = await read_frame(client, timeout=2.0)
            # The server hung up by itself: no client-side close needed.
            await asyncio.wait_for(serving, timeout=2.0)
            with pytest.raises(WireClosed):
                await read_frame(client, timeout=2.0)
            return reply

        reply = asyncio.run(_run())
        assert reply["ok"] is False
        assert "protocol error" in reply["error"] and complaint in reply["error"]
        assert dispatched == []

    def test_wire_garbage_ends_the_connection_without_an_answer(self):
        async def dispatch(request):  # pragma: no cover - never reached
            return {}, None

        async def _run():
            client, server = MemoryStream.pair()
            serving = asyncio.ensure_future(serve_connection(server, dispatch))
            await client.write(b"\x00\x00\x00\x05not-j")
            await asyncio.wait_for(serving, timeout=2.0)
            with pytest.raises(WireClosed):
                await read_frame(client, timeout=2.0)

        asyncio.run(_run())

    def test_parked_connection_does_not_pin_the_last_blob(self):
        """Between requests the serving loop must hold no reference to
        the previous request or response: one block per idle connection
        is what moved peak RSS in the prototype."""

        class Blob(bytearray):
            pass  # bytearray that can be weakly referenced

        refs = []

        async def dispatch(request):
            blob = Blob(b"z" * 4096)
            refs.append(weakref.ref(blob))
            return {"n": len(request.blob)}, blob

        async def _run():
            client, server = MemoryStream.pair()
            serving = asyncio.ensure_future(serve_connection(server, dispatch))
            await send_request(client, "x", None, b"y" * 4096)
            await read_frame(client, timeout=2.0)
            await asyncio.sleep(0)  # let the server park on its next read
            gc.collect()
            pinned = refs[0]() is not None
            await client.aclose()
            await asyncio.wait_for(serving, timeout=2.0)
            return pinned

        assert asyncio.run(_run()) is False


def _idle_count(peer=None) -> int:
    """Idle connections of the running loop (to ``peer``, or in all)."""
    idle = messages._IDLE.get(asyncio.get_running_loop(), {})
    if peer is not None:
        return len(idle.get(peer, ()))
    return sum(len(streams) for streams in idle.values())


class TestPersistentCalls:
    """``call`` against a real RpcServer over loopback TCP."""

    HOST = "127.0.0.1"

    @staticmethod
    async def _dispatch(request):
        if request.mtype == "fail":
            raise StoreError("nope")
        if request.mtype == "slow":
            await asyncio.sleep(request.body["s"])
        if request.mtype == "big":
            return {}, b"\x01" * request.body["n"]
        return {"echo": request.body}, None

    def _run(self, scenario, **server_kwargs):
        async def _main():
            server = RpcServer(self._dispatch, **server_kwargs)
            port = await server.start(self.HOST)
            try:
                return await scenario(server, port)
            finally:
                await close_idle_connections()
                await server.aclose()

        return asyncio.run(_main())

    def test_sequential_calls_share_one_connection(self):
        async def scenario(server, port):
            for i in range(100):
                body, _ = await call(self.HOST, port, "echo", {"i": i})
                assert body == {"echo": {"i": i}}
            return server.accepted, server.open_connections, _idle_count((self.HOST, port))

        assert self._run(scenario) == (1, 1, 1)

    def test_ok_false_reply_keeps_the_connection(self):
        async def scenario(server, port):
            await call(self.HOST, port, "echo")
            for _ in range(5):
                with pytest.raises(StoreError, match="nope"):
                    await call(self.HOST, port, "fail")
            await call(self.HOST, port, "echo")
            return server.accepted

        assert self._run(scenario) == 1

    def test_concurrent_calls_use_one_connection_each_then_reuse_them(self):
        async def scenario(server, port):
            for _ in range(10):
                await asyncio.gather(
                    *(call(self.HOST, port, "slow", {"s": 0.01}) for _ in range(4))
                )
            return server.accepted, _idle_count((self.HOST, port))

        # Bounded by peak concurrency (4), not by the 40 requests.
        assert self._run(scenario) == (4, 4)

    def test_cancelled_call_does_not_pool_its_connection(self):
        async def scenario(server, port):
            await call(self.HOST, port, "echo")
            with pytest.raises(asyncio.TimeoutError):
                await asyncio.wait_for(call(self.HOST, port, "slow", {"s": 5.0}), 0.05)
            assert _idle_count((self.HOST, port)) == 0
            # The abandoned response can never be mistaken for the next
            # call's: that call gets a connection of its own.
            body, _ = await call(self.HOST, port, "echo", {"fresh": True})
            assert body == {"echo": {"fresh": True}}
            return server.accepted

        assert self._run(scenario) == 2

    def test_call_timed_out_mid_response_does_not_pool_its_connection(self):
        async def scenario(server, port):
            await call(self.HOST, port, "echo")
            with pytest.raises(WireError, match="timed out"):
                await call(self.HOST, port, "slow", {"s": 5.0}, timeout=0.05)
            assert _idle_count((self.HOST, port)) == 0
            await call(self.HOST, port, "echo")
            return server.accepted

        assert self._run(scenario) == 2

    def test_idle_connection_outlives_the_progress_timeout(self):
        """Waiting for the *next* request is not a stall."""

        async def scenario(server, port):
            await call(self.HOST, port, "echo")
            await asyncio.sleep(0.3)  # 6x the server's progress timeout
            await call(self.HOST, port, "echo")
            return server.accepted

        assert self._run(scenario, timeout=0.05) == 1

    def test_stalled_frame_still_trips_the_progress_timeout(self):
        async def scenario(server, port):
            stream = await connect_tcp(self.HOST, port)
            try:
                await stream.write(b"\x00\x00")  # a frame begins, then stalls
                with pytest.raises(WireClosed):
                    await read_frame(stream, timeout=2.0)  # server hung up
            finally:
                await stream.aclose()

        self._run(scenario, timeout=0.05)

    def test_server_restarted_on_the_same_port(self):
        async def scenario(server, port):
            await asyncio.gather(*(call(self.HOST, port, "slow", {"s": 0.01}) for _ in range(3)))
            assert _idle_count((self.HOST, port)) == 3
            await server.aclose()
            reborn = RpcServer(self._dispatch)
            assert await reborn.start(self.HOST, port) == port
            try:
                # Every pooled connection is dead; each call must notice,
                # drop it, and go through on a fresh one.
                for i in range(4):
                    body, _ = await call(self.HOST, port, "echo", {"i": i})
                    assert body == {"echo": {"i": i}}
                assert reborn.accepted == 1
                assert _idle_count((self.HOST, port)) == 1  # stale ones reaped
                await close_idle_connections()
            finally:
                await reborn.aclose()

        self._run(scenario)

    def test_server_gone_raises_the_same_connection_error_as_ever(self):
        async def scenario(server, port):
            await call(self.HOST, port, "echo")
            await server.aclose()
            # Nothing listens there any more (its successor, if any, is
            # on a new port): the stale pooled connection must not turn
            # a refused connection into some new kind of error.
            with pytest.raises(ConnectionRefusedError):
                await call(self.HOST, port, "echo", attempts=2)
            assert _idle_count((self.HOST, port)) == 0
            successor = RpcServer(self._dispatch)
            new_port = await successor.start(self.HOST)
            try:
                body, _ = await call(self.HOST, new_port, "echo", {"i": 1})
                assert body == {"echo": {"i": 1}}
                await close_idle_connections()
            finally:
                await successor.aclose()

        self._run(scenario)

    def test_request_lost_with_a_dying_server_is_an_error_not_a_hang(self):
        """The server dies *after* taking the request: the reused
        connection ends before any response byte, the resend finds
        nobody listening, and the caller sees a ConnectionError."""

        async def scenario(server, port):
            await call(self.HOST, port, "echo")
            pending = asyncio.ensure_future(
                call(self.HOST, port, "slow", {"s": 5.0}, attempts=1)
            )
            await asyncio.sleep(0.05)
            await server.aclose(grace=0.0)
            with pytest.raises(ConnectionError):
                await asyncio.wait_for(pending, timeout=2.0)

        self._run(scenario)

    def test_close_idle_connections_closes_the_sockets(self):
        async def scenario(server, port):
            await asyncio.gather(*(call(self.HOST, port, "slow", {"s": 0.01}) for _ in range(3)))
            assert server.open_connections == 3
            await close_idle_connections()
            assert _idle_count() == 0
            for _ in range(50):  # the server sees the EOFs within a few ticks
                if server.open_connections == 0:
                    break
                await asyncio.sleep(0.01)
            return server.open_connections

        assert self._run(scenario) == 0

    def test_forgotten_loop_is_dropped_when_the_next_one_starts(self):
        async def leak():
            server = RpcServer(self._dispatch)
            port = await server.start(self.HOST)
            await call(self.HOST, port, "echo")
            await server.aclose()  # no close_idle_connections()

        async def later():
            _idle_count()  # no entry yet for this loop
            server = RpcServer(self._dispatch)
            port = await server.start(self.HOST)
            await call(self.HOST, port, "echo")
            await close_idle_connections()
            await server.aclose()
            return [loop for loop in messages._IDLE if loop.is_closed()]

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ResourceWarning)
            asyncio.run(leak())
            assert asyncio.run(later()) == []
            gc.collect()


class TestTypedErrors:
    """Every outcome kind crosses the wire as its own ``StoreError``
    subclass: the server writes the kind beside the message, and ``call``
    raises the class it names."""

    HOST = "127.0.0.1"

    def _call(self, dispatch_fn):
        """One ``call`` against ``dispatch_fn`` served by an RpcServer;
        returns the exception it raised."""

        async def _main():
            server = RpcServer(dispatch_fn)
            port = await server.start(self.HOST)
            try:
                with pytest.raises(StoreError) as err:
                    await call(self.HOST, port, "x")
                await call(self.HOST, port, "echo")  # still serving
                return err.value
            finally:
                await close_idle_connections()
                await server.aclose()

        return asyncio.run(_main())

    @staticmethod
    def _raising(exc):
        async def handler(request):
            if request.mtype == "echo":
                return {}, None
            raise exc

        return handler

    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_every_kind_arrives_as_its_class(self, kind):
        exc = self._call(self._raising(KINDS[kind](f"a {kind} outcome")))
        assert type(exc) is KINDS[kind] and exc.kind == kind
        assert str(exc) == f"a {kind} outcome"

    def test_the_kinds_are_one_closed_set(self):
        assert sorted(KINDS) == [
            "corrupt", "exists", "internal", "not_found", "protocol", "unavailable",
            "unrecoverable",
        ]
        assert KINDS["internal"] is StoreError and KINDS["protocol"] is StoreProtocolError

    def test_a_handler_bug_arrives_as_internal(self):
        exc = self._call(self._raising(ValueError("boom")))
        assert type(exc) is StoreError and exc.kind == "internal"
        assert str(exc) == "internal error: ValueError('boom')"

    @pytest.mark.parametrize(
        "raised", [OSError("disk gone"), ConnectionResetError("peer reset"), WireClosed("eof")],
        ids=["oserror", "connection", "wire"],
    )
    def test_a_socket_failure_in_a_handler_arrives_as_unavailable(self, raised):
        exc = self._call(self._raising(raised))
        assert type(exc) is Unavailable
        assert str(exc).startswith("unavailable error: ") and repr(raised) in str(exc)

    @pytest.mark.parametrize(
        "header",
        [
            {"t": "resp", "v": PROTOCOL_VERSION, "ok": False, "blen": 0, "error": "old"},
            {"t": "resp", "v": PROTOCOL_VERSION, "ok": False, "blen": 0, "error": "old",
             "kind": "martian"},
        ],
        ids=["absent", "unknown"],
    )
    def test_an_absent_or_unknown_kind_is_a_plain_store_error(self, header):
        async def on_connect(reader, writer):
            stream = TcpStream(reader, writer)
            await read_frame(stream, timeout=2.0)
            await send_frame(stream, header, b"")
            await stream.aclose()

        async def _main():
            server = await asyncio.start_server(on_connect, self.HOST, 0)
            port = server.sockets[0].getsockname()[1]
            try:
                with pytest.raises(StoreError) as err:
                    await call(self.HOST, port, "x", attempts=1)
                return err.value
            finally:
                await close_idle_connections()
                server.close()
                await server.wait_closed()

        exc = asyncio.run(_main())
        assert type(exc) is StoreError and str(exc) == "old"

    def test_an_invalid_request_frame_is_answered_as_protocol(self):
        async def dispatch_fn(request):  # pragma: no cover - never reached
            return {}, None

        async def _run():
            client, server = MemoryStream.pair()
            serving = asyncio.ensure_future(serve_connection(server, dispatch_fn))
            await send_frame(client, {"v": PROTOCOL_VERSION, "blen": 0}, b"")
            reply, _ = await read_frame(client, timeout=2.0)
            await asyncio.wait_for(serving, timeout=2.0)
            return reply

        reply = asyncio.run(_run())
        assert reply["kind"] == "protocol" and reply["error"].startswith("protocol error:")


class Party:
    """A minimal served party: what ``dispatch`` reads off a coordinator
    or a daemon."""

    def __init__(self):
        self.stats = StatsRegistry("party")
        self.rec = TelemetryRecorder(CLOCK_WALL)

    async def _rpc_block_get(self, request):
        return {"key": request.body["key"]}, None

    async def _rpc_heartbeat(self, request):
        return {}, None


class TestDispatch:
    def _dispatch(self, party, mtype, ctx=None, attrs=None):
        request = Request(mtype, {"key": "k"}, memoryview(b""), ctx)
        return asyncio.run(dispatch(party, attrs or {}, request))

    def test_finds_the_handler_and_counts_the_call_under_its_class(self):
        party = Party()
        assert self._dispatch(party, "block.get") == ({"key": "k"}, None)
        snap = party.stats.snapshot()
        assert snap["counters"]["rpc:block.get"] == 1
        assert any(name.endswith("block.get:foreground") for name in snap["histograms"])

    def test_heartbeats_are_not_counted(self):
        party = Party()
        self._dispatch(party, "heartbeat")
        assert "rpc:heartbeat" not in party.stats.snapshot()["counters"]

    def test_an_unknown_rpc_is_a_protocol_error(self):
        with pytest.raises(StoreProtocolError, match="unknown rpc 'nope'"):
            self._dispatch(Party(), "nope")

    def test_a_traced_call_records_its_span_under_the_callers_hop(self):
        party = Party()
        ctx = TraceContext.root().child()
        self._dispatch(party, "block.get", ctx=ctx, attrs={"node": 3})
        (span,) = [s for s in party.rec.trace().spans if s.name == "rpc:block.get"]
        assert span.attrs["node"] == 3 and span.attrs == {"node": 3, **ctx.attrs()}


class TestRpcServerShutdown:
    HOST = "127.0.0.1"

    def test_aclose_with_parked_connections_is_immediate(self):
        """Parked connections have nothing to flush: no grace period.
        (On Python >= 3.12.1 an aclose that called wait_closed() before
        closing them would never return at all.)"""

        async def dispatch(request):
            return {}, None

        async def _run():
            server = RpcServer(dispatch)
            port = await server.start(self.HOST)
            await asyncio.gather(*(call(self.HOST, port, "x") for _ in range(8)))
            assert server.open_connections == 8
            start = time.perf_counter()
            await asyncio.wait_for(server.aclose(), timeout=5.0)
            elapsed = time.perf_counter() - start
            assert server.open_connections == 0
            await close_idle_connections()
            return elapsed

        assert asyncio.run(_run()) < SHUTDOWN_GRACE / 2

    def test_peer_that_stopped_reading_cannot_hold_the_shutdown(self):
        """A response stuck in the send buffer of a peer that no longer
        reads never flushes; a graceful close would wait for it forever
        (and with it, from Python 3.12.1, Server.wait_closed())."""

        async def dispatch(request):
            return {}, b"\x00" * (8 << 20)  # far beyond the socket buffers

        async def _run():
            server = RpcServer(dispatch)
            port = await server.start(self.HOST)
            deaf = await connect_tcp(self.HOST, port)
            try:
                await send_request(deaf, "big")  # ... and never read the answer
                await asyncio.sleep(0.1)
                assert server.open_connections == 1
                await asyncio.wait_for(server.aclose(grace=0.05), timeout=5.0)
                assert server.open_connections == 0
            finally:
                await deaf.aclose()

        asyncio.run(_run())

    def test_request_in_flight_gets_the_grace_then_is_cancelled(self):
        async def _run():
            gate = asyncio.Event()

            async def dispatch(request):
                if request.mtype == "quick":
                    await asyncio.sleep(0.05)
                    return {"done": True}, None
                await gate.wait()  # never set: a straggler
                return {}, None

            server = RpcServer(dispatch)
            port = await server.start(self.HOST)
            quick = asyncio.ensure_future(call(self.HOST, port, "quick"))
            stuck = asyncio.ensure_future(call(self.HOST, port, "stuck", attempts=1))
            await asyncio.sleep(0.02)
            start = time.perf_counter()
            await asyncio.wait_for(server.aclose(), timeout=5.0)
            elapsed = time.perf_counter() - start
            # The quick one was answered inside the grace period ...
            assert (await quick)[0] == {"done": True}
            # ... the straggler was cut off, like a killed process.
            with pytest.raises(ConnectionError):
                await stuck
            await close_idle_connections()
            return elapsed

        elapsed = asyncio.run(_run())
        assert SHUTDOWN_GRACE <= elapsed < SHUTDOWN_GRACE + 1.0
