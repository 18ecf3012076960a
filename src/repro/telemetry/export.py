"""Telemetry exporters: JSONL stream and Chrome trace-event format.

Two consumers, two formats:

* :func:`to_jsonl` / :func:`from_jsonl` — a line-per-record stream for
  pipelines and archival.  Emission is **canonical** (sorted keys,
  compact separators, records in a fixed order), so
  ``to_jsonl(from_jsonl(text)) == text`` byte for byte — a round-trip
  the test suite pins, which makes the format safe to diff and hash.
* :func:`to_chrome_trace` — the Chrome trace-event JSON that Perfetto
  and ``chrome://tracing`` load directly.  Each source trace (sim,
  live, per-attempt degraded) becomes one *process* row; each node
  becomes a *thread* row, so the sim schedule and the measured run sit
  stacked in one timeline with per-op spans aligned by name.
"""

from __future__ import annotations

import json

from .model import TelemetryEvent, Span, TelemetryTrace

__all__ = ["from_jsonl", "to_chrome_trace", "to_jsonl"]


def _dump(record: dict) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def to_jsonl(trace: TelemetryTrace) -> str:
    """Canonical JSON-lines dump: header, spans, events, then metrics.

    Record kinds (the ``record`` discriminator): ``"telemetry"`` (one
    header with clock + meta), ``"span"``, ``"event"``, ``"counter"``,
    ``"gauge"``, ``"histogram"``.  Order is emission order within each
    kind, so re-exporting a parsed stream reproduces the input exactly.
    """
    lines = [_dump({"record": "telemetry", "clock": trace.clock, "meta": trace.meta})]
    for span in trace.spans:
        lines.append(_dump({"record": "span", **span.to_dict()}))
    for event in trace.events:
        lines.append(_dump({"record": "event", **event.to_dict()}))
    for name, value in trace.counters.items():
        lines.append(_dump({"record": "counter", "name": name, "value": value}))
    for name, samples in trace.gauges.items():
        lines.append(
            _dump(
                {
                    "record": "gauge",
                    "name": name,
                    "samples": [[t, v] for t, v in samples],
                }
            )
        )
    for name, values in trace.histograms.items():
        lines.append(
            _dump({"record": "histogram", "name": name, "values": list(values)})
        )
    return "\n".join(lines) + "\n"


def from_jsonl(text: str) -> TelemetryTrace:
    """Parse a :func:`to_jsonl` stream back into a :class:`TelemetryTrace`.

    Unknown record kinds raise, so the format stays extension-safe.

    The parser also accepts *streamed* files
    (:class:`repro.telemetry.stream.StreamingRecorder`), where metric
    records repeat: counter records carry cumulative values (the last
    one wins), while gauge/histogram records carry incremental samples
    (they extend per name).  A one-shot :func:`to_jsonl` dump has one
    record per name, so these semantics leave the pinned byte-identical
    round-trip untouched.
    """
    clock = None
    meta: dict = {}
    spans: list[Span] = []
    events: list[TelemetryEvent] = []
    counters: dict[str, float] = {}
    gauges: dict[str, list[tuple[float, float]]] = {}
    histograms: dict[str, list[float]] = {}
    for line in text.splitlines():
        if not line.strip():
            continue
        record = json.loads(line)
        kind = record.pop("record")
        if kind == "telemetry":
            clock = record["clock"]
            meta = dict(record.get("meta", {}))
        elif kind == "span":
            spans.append(Span.from_dict(record))
        elif kind == "event":
            events.append(TelemetryEvent.from_dict(record))
        elif kind == "counter":
            counters[record["name"]] = record["value"]
        elif kind == "gauge":
            gauges.setdefault(record["name"], []).extend(
                (s[0], s[1]) for s in record["samples"]
            )
        elif kind == "histogram":
            histograms.setdefault(record["name"], []).extend(record["values"])
        else:
            raise ValueError(f"unknown telemetry record kind {kind!r}")
    if clock is None:
        raise ValueError("telemetry stream has no header record")
    return TelemetryTrace(
        clock=clock,
        meta=meta,
        spans=spans,
        events=events,
        counters=counters,
        gauges=gauges,
        histograms=histograms,
    )


def _tid_of(item) -> int:
    """Thread row for a span/event: its node when tagged, else row 0."""
    node = item.attrs.get("node")
    return int(node) + 1 if node is not None else 0


def to_chrome_trace(traces: list[tuple[str, TelemetryTrace]]) -> dict:
    """Render named traces as one Chrome trace-event document.

    ``traces`` is a list of ``(name, trace)`` pairs — e.g.
    ``[("sim", sim_trace), ("live", live_trace)]``.  Each pair becomes a
    process (pid = list position + 1) named ``"<name> (<clock>)"`` so
    the clock source stays visible in the UI; nodes become threads.
    Spans map to complete events (``ph: "X"``), telemetry events to
    instants (``ph: "i"``), gauges to counter tracks (``ph: "C"``).
    Timestamps are microseconds, as the format requires.
    """
    out: list[dict] = []
    for pid0, (name, trace) in enumerate(traces):
        pid = pid0 + 1
        out.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": f"{name} ({trace.clock})"},
            }
        )
        tids = sorted({_tid_of(s) for s in trace.spans} | {_tid_of(e) for e in trace.events})
        for tid in tids:
            out.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": tid,
                    "args": {"name": f"n{tid - 1}" if tid > 0 else "run"},
                }
            )
        for span in trace.spans:
            args = {k: v for k, v in span.attrs.items()}
            if span.op_id:
                args["op_id"] = span.op_id
            if span.parent:
                args["parent"] = span.parent
            out.append(
                {
                    "name": span.name,
                    "cat": span.category or "span",
                    "ph": "X",
                    "ts": span.start * 1e6,
                    "dur": max(0.0, span.duration) * 1e6,
                    "pid": pid,
                    "tid": _tid_of(span),
                    "args": args,
                }
            )
        for event in trace.events:
            args = {k: v for k, v in event.attrs.items()}
            if event.op_id:
                args["op_id"] = event.op_id
            out.append(
                {
                    "name": event.name,
                    "cat": event.category or "event",
                    "ph": "i",
                    "s": "p",
                    "ts": event.time * 1e6,
                    "pid": pid,
                    "tid": _tid_of(event),
                    "args": args,
                }
            )
        for gname, samples in trace.gauges.items():
            for t, v in samples:
                out.append(
                    {
                        "name": gname,
                        "cat": "gauge",
                        "ph": "C",
                        "ts": t * 1e6,
                        "pid": pid,
                        "tid": 0,
                        "args": {gname: v},
                    }
                )
    return {"traceEvents": out, "displayTimeUnit": "ms"}
