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
"""

from __future__ import annotations

import asyncio
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
    ``read_into`` is the payload's receive side: it copies *whatever has
    arrived* — at least one byte, at most ``len(view)`` — into a
    caller-provided view of one preallocated frame buffer, so a payload
    read takes as many steps as the transport delivered pieces, not one
    per fixed-size chunk.
    """

    async def read_exactly(self, n: int) -> bytes:
        raise NotImplementedError

    async def read_into(self, view: memoryview) -> int:
        """Copy the bytes that have arrived into ``view``; returns the count.

        Waits for at least one byte and fills at most ``len(view)``.  The
        stream ending first raises :class:`asyncio.IncompleteReadError`.
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


class TcpStream(Stream):
    """A real socket connection wrapped in the common interface."""

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        self._reader = reader
        self._writer = writer

    async def read_exactly(self, n: int) -> bytes:
        return await self._reader.readexactly(n)

    async def read_into(self, view: memoryview) -> int:
        data = await self._reader.read(len(view))
        if not data:
            raise asyncio.IncompleteReadError(b"", len(view))
        n = len(data)
        view[:n] = data
        return n

    async def write(self, data: "bytes | bytearray | memoryview") -> None:
        # StreamWriter.write copies bytes-like data into the transport
        # buffer immediately, so passing a view of a reused arena is safe.
        self._writer.write(data)
        await self._writer.drain()

    async def aclose(self) -> None:
        try:
            self._writer.close()
            await self._writer.wait_closed()
        except (ConnectionError, BrokenPipeError):  # pragma: no cover - teardown race
            pass

    def peer_closed(self) -> bool:
        """Has the peer hung up (EOF or reset already seen by the loop)?

        Only ever a hint: ``False`` can be stale by one loop iteration.
        """
        return self._reader.at_eof() or self._writer.is_closing()

    def abort(self) -> None:
        """Drop the connection now, unflushed bytes and all (a peer that
        stopped reading must not be able to hold a shutdown hostage)."""
        self._writer.transport.abort()


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
            reader, writer = await asyncio.open_connection(host, port)
            return TcpStream(reader, writer)
        except ConnectionRefusedError:
            if attempt == attempts - 1:
                raise
            await asyncio.sleep(delay)
            delay = min(delay * 2, 1.0)
    raise AssertionError("unreachable")  # pragma: no cover


class TcpTransport:
    """Localhost TCP: one ``asyncio`` server per node.

    Every node binds port 0 — the kernel picks a free ephemeral port —
    and the chosen port is recorded in the transport's node registry
    (:meth:`port_of`), never assumed.  Binding a remembered port would
    race back-to-back runs: the old server's socket can linger in
    TIME_WAIT while the next run tries to claim the same number.
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

            async def on_connect(reader, writer, node_id=node_id):
                await handler(node_id, TcpStream(reader, writer))

            server = await asyncio.start_server(on_connect, self.host, 0)
            self._servers[node_id] = server
            self._ports[node_id] = server.sockets[0].getsockname()[1]

    def port_of(self, node_id: int) -> int:
        """The ephemeral port node ``node_id`` listens on (after start)."""
        return self._ports[node_id]

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
