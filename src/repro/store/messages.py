"""The store service's request/response protocol over wire frames.

An RPC is two frames of the live runtime's wire protocol
(:mod:`repro.live.wire`) on one TCP connection: a request frame from
the caller, a response frame back.  Frame headers stay tiny (they are
capped at :data:`~repro.live.wire.MAX_HEADER_BYTES`); structured bodies
ride at the *front of the frame payload* as JSON, followed by any raw
block bytes:

```
frame payload = [ blen bytes of JSON body | raw binary blob ]
header        = {"t": <type>, "v": 1, "blen": <json length>, ...}
```

so a large message (a serialized repair plan, a block transfer) never
fights the header cap.  The frame payload is built with one copy of the
blob and then written without another (a service frame is unpaced, so
:func:`~repro.live.wire.send_frame` writes it whole); the receiver reads
it straight into one frame buffer, whose blob view a daemon stores as
the block.

Connections are **persistent**: one carries any number of RPCs, one
after another, never two at once.

* **Caller side** — :func:`call` is the single entry point.  It takes an
  idle connection to ``(host, port)`` if the running event loop has one
  and opens one otherwise, so concurrent calls to one peer (a
  ``gather``) simply use several connections.  A connection goes back
  to the idle set only after a *complete* response frame — an
  ``ok: false`` one included — has been read; any exception, timeout or
  cancellation closes it instead.  Idle connections belong to the event
  loop that opened them and are closed by
  :func:`close_idle_connections`, which whoever owns the loop calls
  before the loop ends (the daemon and coordinator mains,
  ``SyncStoreClient`` after every verb, ``StoreClient.aclose``).
* **Stale connections** — a peer that died or restarted leaves dead
  connections in its callers' idle sets.  When a *reused* connection
  fails before the first byte of the response, it is discarded and the
  request is sent once more on a fresh :func:`connect_tcp` (with its
  refused-connection backoff), so a dead peer surfaces as the same
  ``ConnectionError`` / :class:`WireError` as ever.  A server only hangs
  up on a connection that is idle, or when it is dying, so the resend
  can never run a request twice on a live server.  Opening a connection
  also reaps every idle one whose peer is seen to have hung up.
* **Server side** — :class:`RpcServer` serves each accepted connection
  in a loop (read request, dispatch, respond, next) until EOF or a
  malformed frame.  The coordinator and the daemons both serve through
  :func:`dispatch`: it finds the party's ``_rpc_<type>`` handler and
  records the call's stats and span.  Waiting for the *next* request is
  unbounded; once a frame has begun the progress timeout applies (one
  deadline per frame, pushed out as its bytes arrive;
  :func:`~repro.live.wire.read_frame`).  On shutdown parked connections
  are closed at once and only requests in mid-flight get a grace period.
* **Errors** — a failed RPC answers ``ok: false`` with the message in
  ``error`` and its kind in ``kind``: one of :data:`KINDS`, each a
  :class:`StoreError` subclass, which :func:`call` raises again on the
  caller's side.  An absent ``kind`` means ``internal``.

All three components — coordinator, daemons, clients — speak only this
shape.
"""

from __future__ import annotations

import asyncio
import json

from ..live.transport import Stream, TcpStream, connect_tcp, serve_tcp
from ..live.wire import WireClosed, WireError, read_frame, send_frame
from ..telemetry.distributed import TraceContext

__all__ = [
    "Corrupt",
    "Exists",
    "KINDS",
    "NotFound",
    "PROTOCOL_VERSION",
    "RPC_CLASS",
    "StoreError",
    "StoreProtocolError",
    "Request",
    "RpcServer",
    "Unavailable",
    "Unrecoverable",
    "call",
    "close_idle_connections",
    "dispatch",
    "error_kind",
    "read_request",
    "send_response",
    "response_error",
    "serve_connection",
]

PROTOCOL_VERSION = 1

#: Default progress timeout for service frames (seconds): how long a
#: frame that has begun may go without a read step completing.
DEFAULT_RPC_TIMEOUT = 30.0

#: How long a closing server lets requests in mid-flight finish (the
#: ``shutdown`` RPC's own ack is one) before it cancels them.
SHUTDOWN_GRACE = 0.25


#: QoS class each RPC's latency is attributed to in the live stats
#: (mirrors a daemon's NIC split: block I/O is foreground, repair is repair).
RPC_CLASS = {
    "block.put": "foreground",
    "block.get": "foreground",
    "repair.block": "repair",
    "repair.exec": "repair",
}


class StoreError(RuntimeError):
    """A store operation failed; ``kind`` names how.

    The base class is the ``internal`` kind: a failure no other kind
    explains (a handler bug, a broken invariant) is always a finding.
    Service-side errors travel back as their own subclass.
    """

    kind = "internal"


class StoreProtocolError(StoreError):
    """A frame or request this protocol cannot serve: a malformed frame
    or body, an unknown rpc, a request missing what it must carry."""

    kind = "protocol"


class NotFound(StoreError):
    """No such object, pending put or block."""

    kind = "not_found"


class Exists(StoreError):
    """The name is taken, the put was superseded, or the repair already runs."""

    kind = "exists"


class Unavailable(StoreError):
    """A node the operation needs is dead or unreachable, or the object
    is degraded: waiting, a degraded read or a repair may fix it."""

    kind = "unavailable"


class Unrecoverable(StoreError):
    """No wait or retry can help: too much is lost to bring the bytes
    back, or the repair cannot be planned (no live spare, or a loss the
    scheme does not repair)."""

    kind = "unrecoverable"


class Corrupt(StoreError):
    """Bytes that do not match their write-time CRC."""

    kind = "corrupt"


#: Every outcome kind -> the class :func:`call` raises for it.
KINDS = {cls.kind: cls for cls in (StoreError, *StoreError.__subclasses__())}


def error_kind(exc: BaseException) -> str:
    """The kind ``exc`` travels as: its own for a :class:`StoreError`,
    ``unavailable`` for a connection or socket failure, else ``internal``."""
    if isinstance(exc, StoreError):
        return exc.kind
    return Unavailable.kind if isinstance(exc, OSError) else StoreError.kind


class Request:
    """One parsed incoming request: type, JSON body, binary blob.

    ``ctx`` is the caller's :class:`~repro.telemetry.distributed.\
TraceContext` when the request frame carried one (header ``"tc"``):
    the caller minted it *for this hop*, so the server records its
    handling span under it, and handlers that fan out further work (a
    repair session's sends) mint children of it.  ``None`` from
    un-instrumented callers.
    """

    __slots__ = ("mtype", "body", "blob", "ctx")

    def __init__(
        self,
        mtype: str,
        body: dict,
        blob: memoryview,
        ctx: TraceContext | None = None,
    ) -> None:
        self.mtype = mtype
        self.body = body
        self.blob = blob
        self.ctx = ctx


def _pack(body: dict | None, blob) -> tuple[int, bytes]:
    """``(body length, frame payload)``: the JSON body, then the blob.

    The payload is built with one copy of the blob; ``send_frame`` then
    streams it as views.
    """
    encoded = b"" if body is None else json.dumps(body, separators=(",", ":")).encode()
    if blob is None or len(blob) == 0:
        return len(encoded), encoded
    return len(encoded), b"".join((encoded, blob))


def _split(header: dict, payload: bytearray) -> tuple[dict, memoryview]:
    blen = int(header.get("blen", 0))
    if blen < 0 or blen > len(payload):
        raise StoreProtocolError(f"body length {blen} outside payload of {len(payload)}")
    view = memoryview(payload)
    try:
        body = json.loads(view[:blen].tobytes()) if blen else {}
    except json.JSONDecodeError as exc:
        raise StoreProtocolError(f"message body is not valid JSON: {exc}") from exc
    if not isinstance(body, dict):
        raise StoreProtocolError(f"message body must be a JSON object, got {type(body).__name__}")
    return body, view[blen:]


async def send_request(
    stream: Stream,
    mtype: str,
    body: dict | None = None,
    blob=None,
    *,
    ctx: TraceContext | None = None,
) -> None:
    blen, payload = _pack(body, blob)
    header = {"t": mtype, "v": PROTOCOL_VERSION, "blen": blen}
    if ctx is not None:
        header["tc"] = ctx.to_wire()
    await send_frame(stream, header, payload)


async def read_request(
    stream: Stream, *, timeout: float | None = DEFAULT_RPC_TIMEOUT, park: bool = False
) -> Request:
    """Server side: parse one request frame into a :class:`Request`.

    ``park=True`` waits without bound for the frame to begin (see
    :func:`~repro.live.wire.read_frame`).  A frame that arrives whole
    but is not a valid request raises :class:`StoreProtocolError`.
    """
    header, payload = await read_frame(stream, timeout=timeout, park=park)
    mtype = header.get("t")
    if not isinstance(mtype, str):
        raise StoreProtocolError(f"request frame without a type: {header}")
    if header.get("v") != PROTOCOL_VERSION:
        raise StoreProtocolError(
            f"protocol version {header.get('v')!r} != {PROTOCOL_VERSION}"
        )
    body, blob = _split(header, payload)
    tc = header.get("tc")
    ctx = TraceContext.from_wire(tc) if isinstance(tc, dict) else None
    return Request(mtype, body, blob, ctx)


async def send_response(stream: Stream, body: dict | None = None, blob=None) -> None:
    blen, payload = _pack(body, blob)
    head = {"t": "resp", "v": PROTOCOL_VERSION, "ok": True, "blen": blen}
    await send_frame(stream, head, payload)


async def response_error(stream: Stream, error: str, kind: str = StoreError.kind) -> None:
    """A failed response with no body; ``kind`` rides the header unless
    it is ``internal``, which an absent ``kind`` means."""
    head = {"t": "resp", "v": PROTOCOL_VERSION, "ok": False, "blen": 0, "error": error}
    if kind != StoreError.kind:
        head["kind"] = kind
    await send_frame(stream, head, b"")


#: Idle connections: event loop -> peer -> streams.  A stream is bound
#: to the loop that opened it, so the loop is part of the key.
_IDLE: dict[asyncio.AbstractEventLoop, dict[tuple[str, int], list[TcpStream]]] = {}


def _idle_by_peer() -> dict[tuple[str, int], list[TcpStream]]:
    loop = asyncio.get_running_loop()
    idle = _IDLE.get(loop)
    if idle is None:
        # A loop that ended without close_idle_connections() can no
        # longer close anything; forget it so its sockets die with it.
        # (list() and pop(): loops of other threads register here too.)
        for known in list(_IDLE):
            if known.is_closed():
                _IDLE.pop(known, None)
        idle = _IDLE[loop] = {}
    return idle


async def _close_all(streams) -> None:
    if streams:
        await asyncio.gather(*(stream.aclose() for stream in streams))


async def close_idle_connections() -> None:
    """Close every idle connection of the running event loop.

    The owner of a loop calls this before the loop ends; connections
    that are mid-RPC are not idle and close with their call.
    """
    idle = _IDLE.pop(asyncio.get_running_loop(), {})
    await _close_all([stream for streams in idle.values() for stream in streams])


async def _connect(host: str, port: int, attempts: int) -> TcpStream:
    stream = await connect_tcp(host, port, attempts=attempts)
    # Needing a new connection is the sign that peers have come or gone:
    # the moment to drop idle connections whose peer has hung up and that
    # no call would ever take again (a daemon replaced on another port).
    # abort(), not aclose(): a dead connection has nothing to flush, and
    # the call that happened to need a connection should not wait on it.
    idle = _idle_by_peer()
    for peer, streams in list(idle.items()):
        alive = []
        for held in streams:
            if held.peer_closed():
                held.abort()
            else:
                alive.append(held)
        if alive:
            idle[peer] = alive
        else:
            del idle[peer]
    return stream


async def _round_trip(stream: TcpStream, peer, mtype, body, blob, timeout, ctx):
    """One request and its whole response frame on ``stream``, which then
    goes (back) to the idle set; any failure closes it instead."""
    try:
        await send_request(stream, mtype, body, blob, ctx=ctx)
        response = await read_frame(stream, timeout=timeout)
    except BaseException:
        await stream.aclose()
        raise
    _idle_by_peer().setdefault(peer, []).append(stream)
    return response


async def call(
    host: str,
    port: int,
    mtype: str,
    body: dict | None = None,
    blob=None,
    *,
    timeout: float = DEFAULT_RPC_TIMEOUT,
    attempts: int = 5,
    ctx: TraceContext | None = None,
) -> tuple[dict, memoryview]:
    """One round trip on a persistent connection; returns ``(body, blob)``.

    Takes an idle connection to ``(host, port)`` or, failing that,
    connects (with refused-connection backoff, ``attempts`` tries).  The
    connection is kept for the next call once the whole response frame
    is in; an error, timeout or cancellation closes it.  A reused
    connection that the peer dropped while it sat idle is replaced by a
    fresh one and the request sent again, once (module docstring).

    ``ctx`` rides the request frame header so the server's handling
    span joins the caller's trace.  A response with ``ok: false``
    raises the :class:`StoreError` subclass of its ``kind`` carrying the
    service-side message; wire-level trouble (truncation, timeout,
    refused after backoff) raises :class:`WireError` /
    ``ConnectionError`` for the caller's retry policy to judge.
    """
    peer = (host, port)
    response = None
    idle = _idle_by_peer().get(peer)
    if idle:
        try:
            response = await _round_trip(idle.pop(), peer, mtype, body, blob, timeout, ctx)
        except OSError as exc:
            # Stale means nothing of the response arrived: the request
            # could not be written (plain OSError) or the stream ended
            # before the response frame began.  A truncated or timed-out
            # response is a real failure.
            if isinstance(exc, WireError) and not isinstance(exc, WireClosed):
                raise
    if response is None:
        stream = await _connect(host, port, attempts)
        response = await _round_trip(stream, peer, mtype, body, blob, timeout, ctx)
    header, payload = response
    if not header.get("ok", False):
        raise KINDS.get(header.get("kind"), StoreError)(
            header.get("error") or f"rpc {mtype!r} failed with no error message"
        )
    return _split(header, payload)


async def dispatch(party, span_attrs: dict, request: Request):
    """Serve ``request`` with ``party``'s ``_rpc_<type>`` handler.

    The one dispatch of the coordinator and the daemons (each serves
    ``functools.partial(dispatch, self, span_attrs)``): an unknown type
    is a :class:`StoreProtocolError`; every call but a heartbeat counts
    into ``party.stats`` under its :data:`RPC_CLASS`, and a traced call
    records its span in ``party.rec`` under the caller's hop context.
    """
    handler = getattr(party, "_rpc_" + request.mtype.replace(".", "_"), None)
    if handler is None:
        raise StoreProtocolError(f"unknown rpc {request.mtype!r}")
    loop = asyncio.get_running_loop()
    start = loop.time()
    try:
        return await handler(request)
    finally:
        elapsed = loop.time() - start
        if request.mtype != "heartbeat":  # beats would swamp the stats
            party.stats.count(f"rpc:{request.mtype}")
            party.stats.latency(request.mtype, elapsed, cls=RPC_CLASS.get(request.mtype, ""))
        if party.rec and request.ctx is not None:
            party.rec.span(
                f"rpc:{request.mtype}", start, start + elapsed,
                category="rpc", **span_attrs, **request.ctx.attrs(),
            )


class RpcServer:
    """One party's listening socket and the connections it has accepted.

    ``dispatch(request)`` returns ``(body, blob)`` (either may be
    ``None``) or raises; the error response carries the exception's
    :func:`error_kind`, so a server never dies from one bad request.
    """

    def __init__(self, dispatch, *, timeout: float | None = DEFAULT_RPC_TIMEOUT) -> None:
        self._dispatch = dispatch
        self._timeout = timeout
        self._server: asyncio.base_events.Server | None = None
        #: Every open inbound connection: serving task -> its stream.
        self._conns: dict[asyncio.Task, TcpStream] = {}
        #: The tasks among them that are waiting for their next request.
        self._parked: set[asyncio.Task] = set()
        self._closing = False
        #: Connections accepted since start (monotonic).
        self.accepted = 0

    @property
    def open_connections(self) -> int:
        return len(self._conns)

    async def start(self, host: str, port: int = 0) -> int:
        """Bind (port 0: the kernel picks) and serve; returns the port."""
        if self._server is not None:
            raise RuntimeError("rpc server already started")
        self._server = await serve_tcp(self._on_connect, host, port)
        return self._server.sockets[0].getsockname()[1]

    async def _on_connect(self, stream: TcpStream) -> None:
        task = asyncio.current_task()
        self._conns[task] = stream
        self.accepted += 1
        try:
            await self.serve(stream)
        except asyncio.CancelledError:
            # Server shutdown or loop teardown: end quietly — the peer
            # already sees the dropped connection, and a cancelled
            # server task would be logged as an error.
            pass
        finally:
            del self._conns[task]

    async def serve(self, stream: Stream) -> None:
        """Serve one connection: read request, dispatch, respond, next.

        Ends on EOF, on a frame the wire layer rejects (the stream may be
        desynchronised), after answering ``ok: false`` to a frame that is
        not a request, or when the server is closing.
        """
        task = asyncio.current_task()
        try:
            while not self._closing:
                self._parked.add(task)
                try:
                    request = await read_request(stream, timeout=self._timeout, park=True)
                except StoreProtocolError as exc:
                    await response_error(stream, f"protocol error: {exc}", exc.kind)
                    return
                except (WireError, ConnectionError):
                    return  # peer hung up or spoke garbage: nothing to answer
                finally:
                    self._parked.discard(task)
                try:
                    body, blob = await self._dispatch(request)
                except StoreError as exc:
                    await response_error(stream, str(exc), exc.kind)
                except Exception as exc:  # noqa: BLE001 - service must stay up
                    kind = error_kind(exc)
                    await response_error(stream, f"{kind} error: {exc!r}", kind)
                else:
                    await send_response(stream, body, blob)
                # A parked connection must not pin the last request's or
                # response's block until the next request arrives.
                request = body = blob = None
        except (WireError, ConnectionError):
            pass  # peer died while we were answering; its caller sees the error
        finally:
            await stream.aclose()

    async def aclose(self, *, grace: float = SHUTDOWN_GRACE) -> None:
        """Stop accepting, close every connection, release the port.

        Parked connections have nothing to flush and are closed at once;
        requests in mid-flight get ``grace`` seconds to answer (their
        loops end after the response) and are then cancelled, like a
        killed process.  ``Server.wait_closed()`` comes last: from
        Python 3.12.1 it waits for every accepted connection, so calling
        it while connections are parked would never return.
        """
        if self._server is None:
            return
        self._closing = True
        self._server.close()
        pending = set(self._conns)
        for task in self._parked:
            task.cancel()
        if pending:
            _, pending = await asyncio.wait(pending, timeout=grace)
        while pending:
            for task in pending:
                task.cancel()
                if task in self._conns:
                    self._conns[task].abort()
            _, pending = await asyncio.wait(pending, timeout=grace)
        await self._server.wait_closed()
        self._server = None


async def serve_connection(stream: Stream, dispatch, *, timeout=DEFAULT_RPC_TIMEOUT) -> None:
    """Serve one already-open stream until its peer hangs up.

    :meth:`RpcServer.serve` without a listening socket — for streams
    that were not accepted by an :class:`RpcServer` (in-memory pairs).
    """
    await RpcServer(dispatch, timeout=timeout).serve(stream)
