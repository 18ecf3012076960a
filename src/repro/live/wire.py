"""The framed wire protocol the live runtime and store service speak.

One transfer is one frame.  The live runtime opens a connection per
transfer; the store service keeps connections and sends frame after
frame on each (:mod:`repro.store.messages`), which is what
:class:`WireClosed` and ``read_frame(park=True)`` exist for.

```
+----------+----------------+--------------------------+
| !I hlen  | hlen JSON hdr  | payload bytes            |
+----------+----------------+--------------------------+
```

The header names the op and the payload key.  On a shaped link the
payload streams in ``chunk_size`` pieces, each charged against the
link's :class:`~repro.live.shaper.TokenBucket` *before* it is written,
so the shaped rate bounds the wire rate and backpressure from a slow
receiver propagates to the sender naturally; an unpaced payload is one
write.  The receiver reads whatever has arrived straight into the frame
buffer, stores the payload and answers a single :data:`ACK` byte; the
sender treats the ack as transfer completion (the moment the simulator
calls ``TRANSFER_END``).

Failure semantics (the part a single process never exercises):

* A peer dying mid-frame — EOF after the length prefix, inside the
  header, or anywhere in the payload — raises :class:`WireError`; a
  frame read never hangs on a half-delivered frame and never returns
  short bytes.
* ``timeout`` bounds how long a read may sit without progress, so a
  live-but-silent peer (SIGSTOP, dropped ack, wedged event loop on the
  other side) surfaces as :class:`WireError` instead of a stuck task.
  It is one timer per frame, which read steps only stamp — not a
  deadline (and a task, or a timer) per read step, which bytes already
  buffered would pay for too.
* Adversarial headers — an oversized ``!I`` length, non-JSON bytes, a
  negative or absurd payload length — are rejected before any large
  allocation happens.
* ``send_frame`` is exception-safe against the shaper: tokens charged
  for a chunk that was never written are refunded, so a dropped
  connection cannot starve the next transfer on that link.
"""

from __future__ import annotations

import asyncio
import json
import struct

from .shaper import TokenBucket
from .transport import Stream

__all__ = [
    "ACK",
    "DEFAULT_CHUNK",
    "MAX_HEADER_BYTES",
    "MAX_FRAME_PAYLOAD",
    "send_frame",
    "read_frame",
    "read_ack",
    "WireError",
    "WireClosed",
]

_HEADER_LEN = struct.Struct("!I")

#: Single ack byte the receiver returns once the payload is stored.
ACK = b"\x06"

#: Pacing unit of a shaped frame: each chunk is charged against the
#: link's bucket before it is written.  Small enough that shaping is
#: smooth at the validation harness's scaled-down rates, large enough to
#: amortise per-chunk overhead.  An unpaced frame is not chunked; a
#: payload of at most one chunk rides in the header's write.
DEFAULT_CHUNK = 16 * 1024

#: Headers are small JSON envelopes; anything claiming more than this is
#: a corrupt or hostile length prefix, rejected before allocation.
MAX_HEADER_BYTES = 64 * 1024

#: Upper bound on a frame payload (1 GiB).  The largest legitimate
#: payload in the system is one 256 MB block; a header claiming more is
#: corrupt and must not drive a giant ``bytearray`` allocation.
MAX_FRAME_PAYLOAD = 1 << 30


class WireError(ConnectionError):
    """Raised on malformed frames, truncation, or read timeouts."""


class WireClosed(WireError):
    """The connection ended *between* frames: EOF or a reset before the
    first byte of the frame being read.  Nothing was truncated, so on a
    reused connection this is the peer hanging up while it sat idle, not
    a half-delivered answer."""


async def send_frame(
    stream: Stream,
    header: dict,
    payload,  # any C-contiguous buffer: bytes, bytearray, memoryview, ndarray
    *,
    bucket: TokenBucket | None = None,
    chunk_size: int = DEFAULT_CHUNK,
    recorder=None,
) -> None:
    """Write one frame, pacing payload chunks through ``bucket``.

    Chunking exists for the bucket: a paced frame goes to the transport
    as ``chunk_size`` views of the caller's buffer, each charged before
    it is written; an unpaced frame's payload is one view, one write.
    Either way a frame whose payload fits one chunk goes out in a single
    write, header included, and a longer one writes its header first and
    the payload behind it — never joined into one copy.

    With a truthy ``recorder`` (a
    :class:`repro.telemetry.TelemetryRecorder`), every payload write
    lands in the ``chunk.write_s`` histogram plus a ``chunks.sent``
    counter — the per-write half of the live runtime's send timing (the
    pacing half is the bucket's own ``pacing.*`` emission).

    Bucket accounting is exception-safe: a chunk's tokens are charged
    before its write, and refunded if that write raises (the bytes never
    hit the wire, so the link owes nothing for them).  Without the
    refund a connection dropping mid-chunk would leave the per-link
    bucket permanently in debt, starving the next transfer.
    """
    view = memoryview(payload)
    if view.ndim != 1 or view.itemsize != 1:
        view = view.cast("B")
    head = dict(header)
    head["nbytes"] = len(view)
    encoded = json.dumps(head, separators=(",", ":")).encode()
    lead = _HEADER_LEN.pack(len(encoded)) + encoded
    if len(view) > chunk_size or not view:
        await stream.write(lead)
        lead = b""
    # Chunks are the bucket's pacing unit; unpaced, the payload is one.
    step = chunk_size if bucket is not None else len(view) or 1
    rec = recorder if recorder else None
    for offset in range(0, len(view), step):
        chunk = view[offset : offset + step]
        size = len(chunk)
        if bucket is not None:
            await bucket.acquire(size)
        try:
            # A one-chunk frame copies its chunk behind the header: one
            # write instead of two.
            t0 = rec.now() if rec is not None else 0.0
            await stream.write(lead + chunk if lead else chunk)
            if rec is not None:
                rec.observe("chunk.write_s", rec.now() - t0)
                rec.count("chunks.sent")
        except BaseException:
            if bucket is not None:
                bucket.refund(size)
            raise


def _parse_header(raw: bytes) -> tuple[dict, int]:
    """The header dict and its payload length, or :class:`WireError`."""
    try:
        header = json.loads(raw)
        nbytes = int(header["nbytes"])
    except (json.JSONDecodeError, UnicodeDecodeError, KeyError, TypeError, ValueError) as exc:
        raise WireError(f"malformed frame: {exc}") from exc
    if nbytes < 0:
        raise WireError(f"malformed frame: negative payload length {nbytes}")
    if nbytes > MAX_FRAME_PAYLOAD:
        raise WireError(
            f"payload length {nbytes} exceeds the {MAX_FRAME_PAYLOAD}-byte cap"
        )
    return header, nbytes


def _read_failed(
    exc: Exception, timeout: float | None, what: str, closed: type[WireError]
) -> WireError:
    """The :class:`WireError` a read step that ended without its bytes
    surfaces as.  ``closed`` is raised when the stream ended with no byte
    of the step read — :class:`WireClosed` for a frame's first read."""
    if isinstance(exc, TimeoutError):
        return WireError(f"frame read timed out after {timeout}s ({what})")
    if isinstance(exc, asyncio.IncompleteReadError):
        return (WireError if exc.partial else closed)(
            f"peer closed mid-frame ({what}: got {len(exc.partial)} of "
            f"{exc.expected} bytes)"
        )
    return closed(f"connection lost mid-frame ({what}): {exc}")


class _Watchdog:
    """A frame read's one progress timer.

    Read steps only stamp :attr:`last`; the timer looks at the stamp
    when it fires.  Bytes since it was armed re-arm it ``timeout`` after
    the last of them; none end the frame through ``deadline`` (an
    ``asyncio.timeout``, which does the cancel and the ``TimeoutError``).

    The timer handle holds this object and this object holds the handle;
    cancelling the handle breaks that cycle.  The reader cancels it in a
    ``finally``, so a finished read leaves no garbage cycle keeping its
    task (and payload) alive until the cyclic collector runs.
    """

    __slots__ = ("loop", "deadline", "timeout", "last", "when", "handle")

    def __init__(self, loop, deadline: asyncio.Timeout, timeout: float) -> None:
        self.loop, self.deadline, self.timeout = loop, deadline, timeout
        self.last = loop.time()
        self.when = self.last + timeout
        self.handle = loop.call_at(self.when, self.fire)

    def fire(self) -> None:
        if self.last + self.timeout > self.when:
            self.when = self.last + self.timeout
            self.handle = self.loop.call_at(self.when, self.fire)
        else:
            self.deadline.reschedule(self.loop.time())


async def read_frame(
    stream: Stream,
    *,
    timeout: float | None = None,
    park: bool = False,
) -> tuple[dict, bytearray]:
    """Read one frame; returns ``(header, payload)``.

    The payload is read straight into one bytearray preallocated at the
    header's ``nbytes`` — no growing, no chunk-list join, no final copy —
    in steps of whatever the transport has delivered
    (:meth:`Stream.read_into`), not fixed-size chunks.  The bytearray is
    handed to the caller, who typically wraps it zero-copy
    (``np.frombuffer``) for storage.

    ``timeout`` is a *progress* timeout, not a whole-frame budget: a
    frame ends once ``timeout`` seconds pass with no byte arriving, so a
    long payload at a shaped rate is fine as long as bytes keep coming.
    It costs one timer per frame, not one per read step: a step only
    stamps the time, and the timer checks the stamp when it fires.
    Truncation at any boundary, a stalled peer, or a malformed header
    all raise :class:`WireError`, naming the step (a payload stall names
    the bytes received); a stream that ends before the frame's first
    byte raises its subclass :class:`WireClosed`.

    ``park=True`` is for a connection that carries many frames and may
    sit idle between them: the wait for the frame's *first byte* is
    unbounded (idle is not a stall), and ``timeout`` applies from the
    second byte on.
    """
    loop = asyncio.get_running_loop()
    what, closed = ("frame start" if park else "header length"), WireClosed
    offset = nbytes = 0
    watch = None

    def progress() -> None:
        # A read step completed: stamp it for the watchdog to look at.
        if watch is not None:
            watch.last = loop.time()

    try:
        async with asyncio.timeout(None) as deadline:
            if park:
                raw_len = await stream.read_exactly(1)
                what, closed = "header length", WireError
                if timeout is not None:
                    watch = _Watchdog(loop, deadline, timeout)
                raw_len += await stream.read_exactly(_HEADER_LEN.size - 1)
            else:
                if timeout is not None:
                    watch = _Watchdog(loop, deadline, timeout)
                raw_len = await stream.read_exactly(_HEADER_LEN.size)
                closed = WireError
            (hlen,) = _HEADER_LEN.unpack(raw_len)
            if hlen > MAX_HEADER_BYTES:
                raise WireError(
                    f"header length {hlen} exceeds the {MAX_HEADER_BYTES}-byte cap"
                )
            what = "header"
            progress()
            header, nbytes = _parse_header(await stream.read_exactly(hlen))
            what = "payload"
            progress()
            payload = bytearray(nbytes)
            with memoryview(payload) as view:
                while offset < nbytes:
                    offset += await stream.read_into(view[offset:])
                    progress()
    except WireError:
        raise
    except (TimeoutError, ConnectionError, EOFError) as exc:
        if what == "payload":
            what = f"payload byte {offset} of {nbytes}"
        raise _read_failed(exc, timeout, what, closed) from exc
    finally:
        if watch is not None:
            watch.handle.cancel()
    return header, payload


async def read_ack(stream: Stream, *, timeout: float | None = None) -> None:
    """Await the receiver's single :data:`ACK` byte.

    A missing ack — peer gone (EOF), peer wedged (``timeout``), or a
    stray byte that is not :data:`ACK` — raises :class:`WireError`; the
    sender can always distinguish "delivered" from "unknown".
    """
    try:
        async with asyncio.timeout(timeout):
            byte = await stream.read_exactly(1)
    except (TimeoutError, ConnectionError, EOFError) as exc:
        raise _read_failed(exc, timeout, "ack", WireError) from exc
    if byte != ACK:
        raise WireError(f"bad ack {byte!r} (expected {ACK!r})")
