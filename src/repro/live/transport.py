"""Byte-stream transports for the live runtime.

Two interchangeable transports carry the wire protocol:

* :class:`TcpTransport` — every node runs a real ``asyncio`` TCP server
  on ``127.0.0.1`` (ephemeral port); sends open a localhost connection
  per transfer.  This is the "real sockets" mode: kernel buffers, TCP
  flow control, genuine backpressure.
* :class:`MemoryTransport` — in-process duplex streams with an explicit
  high-water mark, for CI and sandboxes where sockets are unavailable
  or flaky.  Backpressure is preserved: a writer outrunning its reader
  blocks once the buffered bytes exceed the high-water mark, exactly
  like a full TCP window.

Both hand out :class:`Stream` objects (``read_exactly`` / ``read_into``
/ ``write`` / ``aclose``) so the runtime and wire layers never branch on
the mode.

Every TCP connection in the package — the live runtime's, the store
client's, the coordinator's and the daemons' (:func:`connect_tcp`,
:func:`serve_tcp`) — is one :class:`TcpStream`, an
``asyncio.BufferedProtocol``: a payload's bytes go from the kernel
straight into the frame's preallocated buffer, and only a frame's
length prefix, header and first piece pass through a small stage.
"""

from __future__ import annotations

import asyncio
import functools
from typing import Awaitable, Callable, Iterable

__all__ = [
    "Stream",
    "MemoryStream",
    "TcpStream",
    "MemoryTransport",
    "TcpTransport",
    "cancel_and_wait",
    "run_tasks",
    "connect_tcp",
    "serve_tcp",
    "open_transport",
]


async def cancel_and_wait(task: asyncio.Task, *, poke_interval: float = 0.25) -> None:
    """Cancel ``task`` and wait until it has actually finished.

    A bare ``task.cancel(); await task`` can hang forever on a task that
    does network I/O: the one injected ``CancelledError`` can be absorbed
    mid-RPC — a ``finally`` await (closing the connection) raising its
    own error over it — after which the task goes back to its idle loop
    with nobody left to cancel it again.  Re-issuing the cancel every
    ``poke_interval`` seconds until ``task.done()`` makes teardown
    converge no matter where the first cancel landed.
    """
    while not task.done():
        task.cancel()
        await asyncio.wait({task}, timeout=poke_interval)
    try:
        task.result()
    except asyncio.CancelledError:
        pass


async def run_tasks(tasks: dict[str, asyncio.Future], timeout: float | None) -> list[str]:
    """Run named tasks until all finish, one fails, or ``timeout`` passes.

    The first failure is re-raised; a deadline returns the sorted names
    of the tasks that had not finished (empty when all did).  Either
    way every unfinished task has been cancelled and awaited before
    this returns, so a plan's op tasks never outlive their run.
    """
    if not tasks:
        return []
    try:
        done, pending = await asyncio.wait(
            tasks.values(), timeout=timeout, return_when=asyncio.FIRST_EXCEPTION
        )
        for task in pending:
            task.cancel()
        if pending:
            await asyncio.gather(*pending, return_exceptions=True)
        for task in done:
            task.result()  # re-raise the first failure
        return sorted(name for name, task in tasks.items() if task in pending)
    finally:
        for task in tasks.values():
            task.cancel()


#: Handler invoked server-side per incoming connection: (node_id, stream).
ConnectionHandler = Callable[[int, "Stream"], Awaitable[None]]

#: Buffered bytes per direction before a memory-stream writer blocks.
DEFAULT_HIGH_WATER = 256 * 1024


class Stream:
    """Minimal duplex byte-stream interface shared by both transports.

    ``write`` accepts any bytes-like object — the wire layer passes
    ``memoryview`` views of the sender's payload straight through, so a
    frame is never copied on the send side.  ``read_exactly`` reads the
    small fixed-size parts of a frame (length prefix, header);
    ``read_into`` is the payload's receive side: it delivers *whatever
    has arrived* — at least one byte, at most ``len(view)`` — into a
    caller-provided view of one preallocated frame buffer, so a payload
    read takes as many steps as the transport delivered pieces, not one
    per fixed-size chunk.
    """

    async def read_exactly(self, n: int) -> bytes:
        raise NotImplementedError

    async def read_into(self, view: memoryview) -> int:
        """Deliver the bytes that have arrived into ``view``; returns the count.

        Waits for at least one byte and fills at most ``len(view)``.  A
        memory stream copies them from its duct; a :class:`TcpStream`
        lends ``view`` to the socket, which receives into it directly.
        The stream ending first raises :class:`asyncio.IncompleteReadError`.
        """
        raise NotImplementedError

    async def write(self, data: "bytes | bytearray | memoryview") -> None:
        """Write ``data`` honouring the transport's backpressure."""
        raise NotImplementedError

    async def aclose(self) -> None:
        raise NotImplementedError


class _MemoryDuct:
    """One direction of an in-process pipe with a high-water mark."""

    def __init__(self, high_water: int) -> None:
        self._buffer = bytearray()
        self._high_water = high_water
        self._eof = False
        self._cond = asyncio.Condition()

    async def feed(self, data: "bytes | bytearray | memoryview") -> None:
        async with self._cond:
            if self._eof:
                raise ConnectionResetError("peer closed the stream")
            # Backpressure: block while the reader is behind.
            while len(self._buffer) >= self._high_water and not self._eof:
                await self._cond.wait()
            if self._eof:
                raise ConnectionResetError("peer closed the stream")
            self._buffer.extend(data)
            self._cond.notify_all()

    async def read_exactly(self, n: int) -> bytes:
        async with self._cond:
            while len(self._buffer) < n:
                if self._eof:
                    raise asyncio.IncompleteReadError(bytes(self._buffer), n)
                await self._cond.wait()
            out = bytes(self._buffer[:n])
            del self._buffer[:n]
            self._cond.notify_all()
            return out

    async def read_into(self, view: memoryview) -> int:
        """Copy what is buffered, up to ``len(view)``, straight into ``view``."""
        async with self._cond:
            while not self._buffer:
                if self._eof:
                    raise asyncio.IncompleteReadError(b"", len(view))
                await self._cond.wait()
            n = min(len(view), len(self._buffer))
            with memoryview(self._buffer) as buffered:
                view[:n] = buffered[:n]
            del self._buffer[:n]
            self._cond.notify_all()
            return n

    async def close(self) -> None:
        async with self._cond:
            self._eof = True
            self._cond.notify_all()


class MemoryStream(Stream):
    """One endpoint of an in-process duplex connection."""

    def __init__(self, read_duct: _MemoryDuct, write_duct: _MemoryDuct) -> None:
        self._read = read_duct
        self._write = write_duct

    @classmethod
    def pair(cls, high_water: int = DEFAULT_HIGH_WATER) -> tuple["MemoryStream", "MemoryStream"]:
        """A connected (client, server) stream pair."""
        a_to_b = _MemoryDuct(high_water)
        b_to_a = _MemoryDuct(high_water)
        return cls(b_to_a, a_to_b), cls(a_to_b, b_to_a)

    async def read_exactly(self, n: int) -> bytes:
        return await self._read.read_exactly(n)

    async def read_into(self, view: memoryview) -> int:
        return await self._read.read_into(view)

    async def write(self, data: "bytes | bytearray | memoryview") -> None:
        await self._write.feed(data)

    async def aclose(self) -> None:
        await self._write.close()
        await self._read.close()


#: Bytes a TCP stream stages when no reader has lent it a buffer: a
#: frame's length prefix and header, a small payload, the first piece of
#: a large one.  Allocated when bytes arrive and freed once drained, so
#: an idle connection holds none.
STAGE_BYTES = 16 * 1024


class TcpStream(Stream, asyncio.BufferedProtocol):
    """A socket connection: the one protocol under every TCP stream.

    Received bytes land in one of two places.  While a reader waits in
    :meth:`read_into`, its view is *lent* to the transport, whose
    ``recv_into`` then writes the payload straight into the caller's
    frame buffer: no userland copy.  Otherwise they land in a staging
    buffer of :data:`STAGE_BYTES`, which :meth:`read_exactly` (length
    prefix, header) and the first :meth:`read_into` step of a payload
    drain; reading pauses while the stage is full.  Writes wait while the
    transport's write buffer is above its high-water mark.

    :func:`connect_tcp` and :func:`serve_tcp` build a stream as the
    protocol of each new connection.  ``TcpStream(reader, writer)``
    adopts a connection opened with asyncio streams: the transport
    switches to this protocol and the bytes ``reader`` had buffered
    become the stage; neither ``reader`` nor ``writer`` is used after.
    """

    def __init__(
        self,
        reader: asyncio.StreamReader | None = None,
        writer: asyncio.StreamWriter | None = None,
        *,
        serve: Callable[["TcpStream"], Awaitable[None]] | None = None,
    ) -> None:
        self._serve = serve  # run as a task on the stream once connected
        self._task: asyncio.Task | None = None
        self._stage: bytearray | None = None
        self._head = self._tail = 0  # unread stage bytes: [head, tail)
        self._loan: memoryview | None = None
        self._got = 0  # bytes the last loan received
        self._waiter: asyncio.Future | None = None
        self._eof = False  # no more bytes will arrive
        self._gone = False  # connection_lost has run
        self._error: BaseException | None = None
        self._writable = asyncio.Event()
        self._writable.set()
        self._closed: asyncio.Future | None = None
        if writer is not None:
            self._adopted = writer  # its finaliser would close the transport
            early = bytes(reader._buffer)  # no public call takes these unread
            self.connection_made(writer.transport)
            writer.transport.set_protocol(self)
            if early:
                self._stage = bytearray(max(STAGE_BYTES, len(early)))
                self._stage[: len(early)] = early
                self._tail = len(early)
            self._eof = reader.at_eof()
            if self._stage is not None and self._tail == len(self._stage):
                writer.transport.pause_reading()
            else:
                writer.transport.resume_reading()  # the reader may have paused it

    # -- the transport's side -------------------------------------------

    def connection_made(self, transport) -> None:
        self._transport = transport
        self._loop = asyncio.get_running_loop()
        if self._serve is not None:
            self._task = self._loop.create_task(self._serve(self))
            self._task.add_done_callback(self._served)

    def _served(self, task: asyncio.Task) -> None:
        if not task.cancelled() and task.exception() is not None:
            self._transport.abort()
            self._loop.call_exception_handler({
                "message": "TCP connection handler failed",
                "exception": task.exception(),
                "protocol": self,
            })

    def get_buffer(self, sizehint: int) -> memoryview:
        if self._loan is not None:
            return self._loan
        if self._stage is None:
            self._stage = bytearray(STAGE_BYTES)
        return memoryview(self._stage)[self._tail :]

    def buffer_updated(self, nbytes: int) -> None:
        if self._loan is not None:
            # A loan serves one receive; its reader runs before the next.
            self._loan = None
            self._got = nbytes
        else:
            self._tail += nbytes
            if self._tail == len(self._stage):
                self._transport.pause_reading()
        self._wake()

    def eof_received(self) -> bool:
        self._eof = True
        self._wake()
        return True  # keep the write side open: the owner closes

    def connection_lost(self, exc: BaseException | None) -> None:
        self._eof = self._gone = True
        self._error = exc
        self._wake()
        self._writable.set()
        if self._closed is not None and not self._closed.done():
            self._closed.set_result(None)

    def pause_writing(self) -> None:
        self._writable.clear()

    def resume_writing(self) -> None:
        self._writable.set()

    # -- the reader's side ----------------------------------------------

    def _wake(self) -> None:
        if self._waiter is not None and not self._waiter.done():
            self._waiter.set_result(None)

    async def _wait(self) -> None:
        """Until bytes arrive or the stream ends; withdraws any loan."""
        if self._waiter is not None:
            raise RuntimeError("another task is already reading this stream")
        self._waiter = self._loop.create_future()
        try:
            await self._waiter
        finally:
            self._waiter = None
            self._loan = None

    def _ended(self, partial: bytes, expected: int) -> BaseException:
        if self._error is not None:
            return self._error
        return asyncio.IncompleteReadError(partial, expected)

    def _consume(self, n: int) -> None:
        self._head += n
        if self._head == self._tail:
            self._stage = None
            self._head = self._tail = 0
            self._transport.resume_reading()

    async def read_exactly(self, n: int) -> bytes:
        if n > STAGE_BYTES:  # more than a stage holds: read it like a payload
            out = bytearray(n)
            got = 0
            try:
                with memoryview(out) as view:
                    while got < n:
                        got += await self.read_into(view[got:])
            except asyncio.IncompleteReadError:
                raise asyncio.IncompleteReadError(bytes(out[:got]), n) from None
            return bytes(out)
        while self._tail - self._head < n:
            if self._eof:
                staged = self._stage[self._head : self._tail] if self._stage else b""
                raise self._ended(bytes(staged), n)
            if self._stage is not None and self._head + n > len(self._stage):
                # Move the unread bytes to the front to make room for n.
                self._stage[: self._tail - self._head] = self._stage[self._head : self._tail]
                self._head, self._tail = 0, self._tail - self._head
                self._transport.resume_reading()
            await self._wait()
        with memoryview(self._stage) as stage:
            out = stage[self._head : self._head + n].tobytes()
        self._consume(n)
        return out

    async def read_into(self, view: memoryview) -> int:
        """Receive into ``view``: staged bytes first, else lend ``view``.

        A stream with staged bytes copies up to ``len(view)`` of them;
        one with none lends ``view`` to the transport until the next
        receive lands in it.  A read cancelled after that receive (a
        frame's timeout) loses those bytes with the caller's buffer; the
        stream is mid-frame then, and its owner closes it.
        """
        while self._head == self._tail:
            if self._eof:
                raise self._ended(b"", len(view))
            self._loan, self._got = view, 0
            await self._wait()
            if self._got:
                return self._got
        n = min(len(view), self._tail - self._head)
        with memoryview(self._stage) as stage:
            view[:n] = stage[self._head : self._head + n]
        self._consume(n)
        return n

    async def write(self, data: "bytes | bytearray | memoryview") -> None:
        # The transport sends at once what the socket takes and buffers
        # the rest: a copy on Python 3.11, a view of ``data`` kept until
        # sent from 3.12.  Callers that reuse a buffer wait for the reply.
        if self._transport.is_closing():
            raise self._error or ConnectionResetError("connection lost")
        self._transport.write(data)
        if not self._writable.is_set():
            await self._writable.wait()
            if self._gone:
                raise self._error or ConnectionResetError("connection lost")

    async def aclose(self) -> None:
        if self._gone:
            return
        if self._closed is None:
            self._closed = self._loop.create_future()
            self._transport.close()
        await self._closed

    def peer_closed(self) -> bool:
        """Has the peer hung up (EOF or reset already seen by the loop)?

        Only ever a hint: ``False`` can be stale by one loop iteration.
        """
        return self._eof or self._transport.is_closing()

    def abort(self) -> None:
        """Drop the connection now, unflushed bytes and all (a peer that
        stopped reading must not be able to hold a shutdown hostage)."""
        self._transport.abort()


class MemoryTransport:
    """In-process streams: ``connect`` spawns the node's handler directly."""

    name = "memory"

    def __init__(self, high_water: int = DEFAULT_HIGH_WATER) -> None:
        self._high_water = high_water
        self._handler: ConnectionHandler | None = None
        self._tasks: set[asyncio.Task] = set()

    async def start(self, node_ids: Iterable[int], handler: ConnectionHandler) -> None:
        self._handler = handler

    async def connect(self, src: int, dst: int) -> Stream:
        if self._handler is None:
            raise RuntimeError("transport not started")
        client, server = MemoryStream.pair(self._high_water)
        task = asyncio.ensure_future(self._handler(dst, server))
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)
        return client

    async def aclose(self) -> None:
        for task in list(self._tasks):
            task.cancel()
        if self._tasks:
            await asyncio.gather(*self._tasks, return_exceptions=True)
        self._tasks.clear()


async def connect_tcp(
    host: str,
    port: int,
    *,
    attempts: int = 5,
    initial_backoff: float = 0.05,
) -> TcpStream:
    """Open a TCP connection, retrying ``ConnectionRefusedError``.

    A freshly-spawned daemon (or a node server racing a back-to-back
    validation run) may not be listening yet when the first connect
    lands; refusals are retried with exponential backoff (capped at 1 s)
    instead of failing the whole run on a startup race.  Any other error
    — and the final refusal — propagates.
    """
    if attempts < 1:
        raise ValueError(f"attempts must be >= 1, got {attempts}")
    delay = initial_backoff
    for attempt in range(attempts):
        try:
            _, stream = await asyncio.get_running_loop().create_connection(
                TcpStream, host, port
            )
            return stream
        except ConnectionRefusedError:
            if attempt == attempts - 1:
                raise
            await asyncio.sleep(delay)
            delay = min(delay * 2, 1.0)
    raise AssertionError("unreachable")  # pragma: no cover


async def serve_tcp(
    handler: Callable[[TcpStream], Awaitable[None]], host: str, port: int = 0
) -> asyncio.base_events.Server:
    """Listen on ``(host, port)``; each accepted connection runs
    ``handler(stream)`` as a task.  Port 0 lets the kernel pick."""
    return await asyncio.get_running_loop().create_server(
        lambda: TcpStream(serve=handler), host, port
    )


class TcpTransport:
    """Localhost TCP: one ``asyncio`` server per node.

    Every node binds port 0 — the kernel picks a free ephemeral port —
    and the chosen port is recorded in the transport's node registry,
    never assumed.  Binding a remembered port would race back-to-back
    runs: the old server's socket can linger in TIME_WAIT while the next
    run tries to claim the same number.
    """

    name = "tcp"

    def __init__(self, host: str = "127.0.0.1") -> None:
        self.host = host
        self._servers: dict[int, asyncio.base_events.Server] = {}
        self._ports: dict[int, int] = {}

    async def start(self, node_ids: Iterable[int], handler: ConnectionHandler) -> None:
        if self._servers:
            raise RuntimeError(
                "TcpTransport already started; aclose() it before reuse — "
                "restarting over live servers leaks them and leaves the "
                "port registry pointing at dead sockets"
            )
        for node_id in node_ids:
            server = await serve_tcp(functools.partial(handler, node_id), self.host)
            self._servers[node_id] = server
            self._ports[node_id] = server.sockets[0].getsockname()[1]

    async def connect(self, src: int, dst: int) -> Stream:
        return await connect_tcp(self.host, self._ports[dst], attempts=3)

    async def aclose(self) -> None:
        for server in self._servers.values():
            server.close()
        for server in self._servers.values():
            await server.wait_closed()
        self._servers.clear()
        self._ports.clear()


def open_transport(kind: str):
    """Build a transport by name (``memory`` or ``tcp``)."""
    if kind == "memory":
        return MemoryTransport()
    if kind == "tcp":
        return TcpTransport()
    raise ValueError(f"unknown transport {kind!r}; expected 'memory' or 'tcp'")
