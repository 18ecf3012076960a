"""The framed wire protocol the live runtime and store service speak.

One transfer is one frame.  The live runtime opens a connection per
transfer; the store service keeps connections and sends frame after
frame on each (:mod:`repro.store.messages`), which is what
:class:`WireClosed` and ``read_frame(park=True)`` exist for.

```
+----------+----------------+--------------------------+
| !I hlen  | hlen JSON hdr  | payload bytes (chunked)  |
+----------+----------------+--------------------------+
```

The header names the op and the payload key; the payload streams in
``chunk_size`` pieces, each charged against the link's
:class:`~repro.live.shaper.TokenBucket` *before* it is written, so the
shaped rate bounds the wire rate and backpressure from a slow receiver
propagates to the sender naturally.  The receiver stores the payload and
answers a single :data:`ACK` byte; the sender treats the ack as transfer
completion (the moment the simulator calls ``TRANSFER_END``).

Failure semantics (the part a single process never exercises):

* A peer dying mid-frame — EOF after the length prefix, inside the
  header, or anywhere in the payload — raises :class:`WireError`; a
  frame read never hangs on a half-delivered frame and never returns
  short bytes.
* ``timeout`` bounds how long a read may sit without progress, so a
  live-but-silent peer (SIGSTOP, dropped ack, wedged event loop on the
  other side) surfaces as :class:`WireError` instead of a stuck task.
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

#: Default streaming chunk; small enough that shaping is smooth at the
#: validation harness's scaled-down rates, large enough to amortise
#: per-chunk overhead on real sockets.
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


async def _read_step(awaitable, timeout: float | None, what: str, *, closed=WireError):
    """One bounded read: EOF and timeouts both surface as WireError.

    ``closed`` is the error raised when the stream ends with no byte of
    this step read — :class:`WireClosed` for a frame's first read.
    """
    try:
        if timeout is None:
            return await awaitable
        return await asyncio.wait_for(awaitable, timeout)
    except asyncio.TimeoutError:
        raise WireError(f"frame read timed out after {timeout}s ({what})") from None
    except asyncio.IncompleteReadError as exc:
        raise (WireError if exc.partial else closed)(
            f"peer closed mid-frame ({what}: got {len(exc.partial)} of "
            f"{exc.expected} bytes)"
        ) from exc
    except WireError:
        raise
    except (ConnectionError, EOFError) as exc:
        raise closed(f"connection lost mid-frame ({what}): {exc}") from exc


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

    With a truthy ``recorder`` (a
    :class:`repro.telemetry.TelemetryRecorder`), every chunk write lands
    in the ``chunk.write_s`` histogram plus a ``chunks.sent`` counter —
    the per-chunk half of the live runtime's send timing (the pacing
    half is the bucket's own ``pacing.*`` emission).  ``None`` keeps the
    loop on the uninstrumented path.

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
    await stream.write(_HEADER_LEN.pack(len(encoded)) + encoded)
    rec = recorder if recorder else None
    # Chunks go to the transport as slices of the caller's buffer — no
    # per-chunk bytes() copies; both transports accept views directly.
    for offset in range(0, len(view), chunk_size):
        chunk = view[offset : offset + chunk_size]
        if bucket is not None:
            await bucket.acquire(len(chunk))
        try:
            if rec is not None:
                t0 = rec.now()
                await stream.write(chunk)
                rec.observe("chunk.write_s", rec.now() - t0)
                rec.count("chunks.sent")
            else:
                await stream.write(chunk)
        except BaseException:
            if bucket is not None:
                bucket.refund(len(chunk))
            raise


async def read_frame(
    stream: Stream,
    *,
    chunk_size: int = DEFAULT_CHUNK,
    timeout: float | None = None,
    max_payload: int = MAX_FRAME_PAYLOAD,
    park: bool = False,
) -> tuple[dict, bytearray]:
    """Read one frame; returns ``(header, payload)``.

    The payload is assembled chunk by chunk straight into one bytearray
    preallocated at the header's ``nbytes`` — no growing, no chunk-list
    join, no final copy.  The bytearray is handed to the caller, who
    typically wraps it zero-copy (``np.frombuffer``) for storage.

    ``timeout`` bounds each individual read (a *progress* timeout, not a
    whole-frame budget, so a long payload at a shaped rate is fine as
    long as bytes keep arriving).  Truncation at any boundary, a stalled
    peer, or a malformed header all raise :class:`WireError`; a stream
    that ends before the frame's first byte raises its subclass
    :class:`WireClosed`.

    ``park=True`` is for a connection that carries many frames and may
    sit idle between them: the wait for the frame's *first byte* is
    unbounded (idle is not a stall), and ``timeout`` applies from the
    second byte on.
    """
    if park:
        raw_len = await _read_step(
            stream.read_exactly(1), None, "frame start", closed=WireClosed
        )
        raw_len += await _read_step(
            stream.read_exactly(_HEADER_LEN.size - 1), timeout, "header length"
        )
    else:
        raw_len = await _read_step(
            stream.read_exactly(_HEADER_LEN.size), timeout, "header length",
            closed=WireClosed,
        )
    try:
        (hlen,) = _HEADER_LEN.unpack(raw_len)
    except struct.error as exc:  # pragma: no cover - read_exactly guarantees 4
        raise WireError(f"malformed frame: {exc}") from exc
    if hlen > MAX_HEADER_BYTES:
        raise WireError(
            f"header length {hlen} exceeds the {MAX_HEADER_BYTES}-byte cap"
        )
    raw_header = await _read_step(stream.read_exactly(hlen), timeout, "header")
    try:
        header = json.loads(raw_header)
        nbytes = int(header["nbytes"])
    except (json.JSONDecodeError, UnicodeDecodeError, KeyError, TypeError, ValueError) as exc:
        raise WireError(f"malformed frame: {exc}") from exc
    if nbytes < 0:
        raise WireError(f"malformed frame: negative payload length {nbytes}")
    if nbytes > max_payload:
        raise WireError(
            f"payload length {nbytes} exceeds the {max_payload}-byte cap"
        )
    payload = bytearray(nbytes)
    with memoryview(payload) as view:
        for offset in range(0, nbytes, chunk_size):
            await _read_step(
                stream.read_exactly_into(view[offset : offset + chunk_size]),
                timeout,
                f"payload byte {offset} of {nbytes}",
            )
    return header, payload


async def read_ack(stream: Stream, *, timeout: float | None = None) -> None:
    """Await the receiver's single :data:`ACK` byte.

    A missing ack — peer gone (EOF), peer wedged (``timeout``), or a
    stray byte that is not :data:`ACK` — raises :class:`WireError`; the
    sender can always distinguish "delivered" from "unknown".
    """
    byte = await _read_step(stream.read_exactly(1), timeout, "ack")
    if byte != ACK:
        raise WireError(f"bad ack {byte!r} (expected {ACK!r})")
