"""Span shims installed from outside the program, and the span arithmetic.

The per-layer numbers come from a *traced* run: this module wraps the
names each layer imports (``call`` as bound in the client, coordinator
and repair modules; ``connect_tcp`` / ``send_frame`` / ``read_frame`` as
bound in ``repro.store.messages``; ``RSCode.encode`` / ``decode_many``;
the client's ``execute_plan`` / ``split_into_stripes`` / ``reassemble``)
with span recorders, restores every name afterwards, and merges what it
recorded with the ``put:`` / ``get:`` / ``rpc:*`` / ``repair:*`` spans
the program already emits into its telemetry recorders.

Parents travel through a ``ContextVar`` so the nine ``gather``-ed
``block.put`` calls of one PUT each nest their own connect and frames.
RPC spans additionally carry the program's own trace ids, which links a
daemon's ``rpc:*`` span under the client-side ``call`` that caused it.
Heartbeats never show up as calls: ``HeartbeatSender`` bound the
original ``call`` as a default argument before any shim existed.

A span's *self time* is its duration minus the part of its interval its
children cover; spans stay in memory and are written as JSONL at the end.
"""

from __future__ import annotations

import bisect
import contextlib
import functools
import inspect
import itertools
import json
import time
from contextvars import ContextVar
from dataclasses import dataclass, field

import repro.store.client as client_mod
import repro.store.coordinator as coordinator_mod
import repro.store.messages as messages_mod
import repro.store.repair as repair_mod
from repro.rs import RSCode

_CURRENT: ContextVar[str | None] = ContextVar("e2e_current_span", default=None)

#: Layer of each program-recorded span category that is merged in (an
#: ``rpc`` span recorded by the coordinator goes to layer ``coordinator``).
_PROGRAM_LAYERS = {"rpc": "daemon", "client": "client", "repair": "store_repair",
                   "op": "store_repair"}


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float
    sid: str
    parent: str | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {
            "name": self.name, "layer": self.layer, "start": self.start,
            "end": self.end, "sid": self.sid, "parent": self.parent,
            "attrs": self.attrs,
        }


class Tracer:
    """Records spans around the shimmed names while installed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        #: Raw block bytes handed to ``send_frame`` (frame payload minus
        #: its JSON body): exact, unlike header bytes, whose length moves
        #: with the digits of an ephemeral port.
        self.blob_bytes = 0
        self._ids = itertools.count()
        self._restore: list = []

    # -- recording ----------------------------------------------------------

    def _new_id(self) -> str:
        return f"b{next(self._ids)}"

    @contextlib.contextmanager
    def span(self, name: str, layer: str, *, sid: str | None = None,
             parent: str | None = None, attrs: dict | None = None):
        sid = sid or self._new_id()
        current = _CURRENT.get()
        token = _CURRENT.set(sid)
        start = time.monotonic()
        try:
            yield
        finally:
            end = time.monotonic()
            _CURRENT.reset(token)
            self.spans.append(
                Span(name, layer, start, end, sid, current or parent, attrs or {})
            )

    @contextlib.contextmanager
    def op(self, name: str):
        """The benchmark's own span around one client operation.

        There is one client, so every block byte framed while the op is
        open - requests and the servers' replies - belongs to it.
        """
        attrs = {}
        before = self.blob_bytes
        with self.span(name, "op", attrs=attrs):
            try:
                yield
            finally:
                attrs["blob_bytes"] = self.blob_bytes - before

    def _wrap(self, fn, name: str, layer: str):
        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def shim(*args, **kwargs):
                with self.span(name, layer):
                    return await fn(*args, **kwargs)
        else:
            @functools.wraps(fn)
            def shim(*args, **kwargs):
                with self.span(name, layer):
                    return fn(*args, **kwargs)
        return shim

    def _wrap_call(self, fn):
        @functools.wraps(fn)
        async def call(host, port, mtype, *args, **kwargs):
            ctx = kwargs.get("ctx")
            with self.span(
                mtype, "messages",
                sid=ctx.span_id if ctx is not None else None,
                parent=ctx.parent_id or None if ctx is not None else None,
            ):
                return await fn(host, port, mtype, *args, **kwargs)
        return call

    def _wrap_send_frame(self, fn):
        @functools.wraps(fn)
        async def send_frame(stream, header, payload, **kwargs):
            self.blob_bytes += memoryview(payload).nbytes - int(header.get("blen", 0))
            if _CURRENT.get() is None:
                # Server side of an RPC (or a heartbeat): bytes counted,
                # no span - it is not on the caller's blocking path.
                return await fn(stream, header, payload, **kwargs)
            with self.span("send_frame", "wire"):
                return await fn(stream, header, payload, **kwargs)
        return send_frame

    def _wrap_if_parented(self, fn, name: str, layer: str):
        shim = self._wrap(fn, name, layer)

        @functools.wraps(fn)
        async def parented(*args, **kwargs):
            if _CURRENT.get() is None:
                return await fn(*args, **kwargs)
            return await shim(*args, **kwargs)
        return parented

    # -- install / restore --------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        call = self._wrap_call(messages_mod.call)
        for module in (client_mod, coordinator_mod, repair_mod):
            self._set(module, "call", call)
        # RepairSession bound `call` as a keyword default at import time.
        defaults = repair_mod.RepairSession.__init__.__kwdefaults__
        self._restore.append((defaults, "rpc", defaults["rpc"]))
        defaults["rpc"] = call
        self._set(messages_mod, "connect_tcp",
                  self._wrap_if_parented(messages_mod.connect_tcp, "connect_tcp", "transport"))
        self._set(messages_mod, "send_frame", self._wrap_send_frame(messages_mod.send_frame))
        self._set(messages_mod, "read_frame",
                  self._wrap_if_parented(messages_mod.read_frame, "read_frame", "wire"))
        self._set(RSCode, "encode", self._wrap(RSCode.encode, "encode", "rs"))
        self._set(RSCode, "decode_many", self._wrap(RSCode.decode_many, "decode_many", "rs"))
        self._set(client_mod, "execute_plan",
                  self._wrap(client_mod.execute_plan, "execute_plan", "executor"))
        self._set(client_mod, "split_into_stripes",
                  self._wrap(client_mod.split_into_stripes, "split_into_stripes", "client"))
        self._set(client_mod, "reassemble",
                  self._wrap(client_mod.reassemble, "reassemble", "client"))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- merging the program's own spans ------------------------------------

    def merge_program_spans(self, recorders) -> None:
        """Fold in ``(component, TelemetryRecorder)`` spans the program emitted.

        A server's ``rpc:*`` span carries the *caller's* hop id (servers
        adopt the wire context), which is the id the ``call`` shim used:
        the server span becomes a child of that call.
        """
        for component, recorder in recorders:
            for span in recorder.trace().spans:
                layer = _PROGRAM_LAYERS.get(span.category)
                if layer is None:
                    continue
                attrs = dict(span.attrs)
                sid = attrs.pop("span_id", None) or self._new_id()
                parent = attrs.pop("parent_span_id", None)
                attrs.pop("trace_id", None)
                if span.category == "rpc":
                    sid, parent = f"srv:{sid}", sid
                    if component == "coordinator":
                        layer = "coordinator"
                attrs["component"] = component
                self.spans.append(
                    Span(span.name, layer, span.start, span.end, sid, parent, attrs)
                )

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for span in sorted(self.spans, key=lambda s: s.start):
                fh.write(json.dumps(span.to_dict(), separators=(",", ":")) + "\n")


# -- span arithmetic (pure; exercised by --selftest) -------------------------


def union_length(intervals) -> float:
    """Total length covered by possibly overlapping ``(start, end)`` pairs."""
    total = 0.0
    cursor = None
    for start, end in sorted(intervals):
        if cursor is None or start > cursor:
            total += end - start
            cursor = end
        elif end > cursor:
            total += end - cursor
            cursor = end
    return total


def self_time(span: Span, children) -> float:
    """Duration minus what the children cover (clipped to the span)."""
    clipped = [
        (max(c.start, span.start), min(c.end, span.end))
        for c in children
        if c.end > span.start and c.start < span.end
    ]
    return span.duration - union_length(clipped)


class SpanTree:
    """Parent/child index over a span list, plus op attribution."""

    def __init__(self, spans, ops) -> None:
        self.ops = sorted(ops, key=lambda s: s.start)
        self._op_starts = [op.start for op in self.ops]
        by_id = {s.sid: s for s in spans}
        op_ids = {op.sid for op in self.ops}
        self.children: dict[str, list[Span]] = {}
        for span in spans:
            if span.sid in op_ids:
                continue
            parent = span.parent if span.parent in by_id else None
            if parent is None and span.layer == "messages":
                # An RPC the coordinator issued while serving an op (it
                # passes no trace context): there is one client, so the
                # op whose interval contains it is the op it serves.
                op = self.op_at(span.start)
                parent = op.sid if op is not None else None
            if parent is not None:
                self.children.setdefault(parent, []).append(span)

    def op_at(self, when: float) -> Span | None:
        index = bisect.bisect_right(self._op_starts, when) - 1
        if index >= 0 and when < self.ops[index].end:
            return self.ops[index]
        return None

    def self_time(self, span: Span) -> float:
        return self_time(span, self.children.get(span.sid, ()))

    def descendants(self, span: Span):
        stack = list(self.children.get(span.sid, ()))
        while stack:
            node = stack.pop()
            yield node
            stack.extend(self.children.get(node.sid, ()))

    def blocking_self_sum(self, span: Span) -> float:
        """Sum of self times along the chain of spans the result waited on.

        Walk the children backwards from the span's end: the child that
        finished last blocked the result, then whichever finished last
        before that child started, and so on.  Children that ran
        entirely in another's shadow (eight of nine gathered block.puts)
        are off the path.
        """
        total = self.self_time(span)
        cursor = span.end
        for child in sorted(self.children.get(span.sid, ()), key=lambda c: c.end, reverse=True):
            if child.end <= cursor + 1e-9:
                total += self.blocking_self_sum(child)
                cursor = child.start
        return total
