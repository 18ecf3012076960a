"""The unified span/event model all three plan interpreters emit into.

A repair plan can be *predicted* (the discrete-event engine), *degraded*
(the faulted engine + re-planning loop) or *measured* (the asyncio live
runtime).  Before this module each interpreter spoke its own dialect —
``SimResult`` timings, ``FaultReport`` ledgers, ``LiveOpTiming`` dicts —
and nothing could hold one against another.  Telemetry is the common
tongue:

* a :class:`Span` is one timed thing (an op, a pacing stall, a port
  wait), optionally nested under a parent span and tagged with the op
  identity it belongs to;
* a :class:`TelemetryEvent` is one instant (a node death, an abort, a
  requeue);
* counters / gauges / histograms carry the scalar side (bytes moved,
  token-bucket debt over time, per-chunk stall durations);
* every :class:`TelemetryTrace` declares its **clock source** —
  :data:`CLOCK_SIM` (simulated seconds, exactly reproducible) or
  :data:`CLOCK_WALL` (measured monotonic seconds) — so a consumer can
  never accidentally compare a simulated duration against a wall-clock
  one without knowing it.

Emission goes through a :class:`TelemetryRecorder`; the
:data:`NULL_RECORDER` singleton is falsy and swallows everything, which
is what makes instrumented hot paths zero-cost when telemetry is off
(callers guard with ``if recorder:``).  See ``docs/OBSERVABILITY.md``
§ "Telemetry" for the schema and the sim↔live diff workflow built on
top (:mod:`repro.telemetry.diff`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

__all__ = [
    "ABORTED_CATEGORY",
    "CLOCK_SIM",
    "CLOCK_WALL",
    "NULL_RECORDER",
    "NullRecorder",
    "OP_CATEGORY",
    "Span",
    "TelemetryEvent",
    "TelemetryRecorder",
    "TelemetryTrace",
]

#: Clock source of simulated traces: seconds of scheduled time, bit-for-bit
#: reproducible across runs.
CLOCK_SIM = "sim"

#: Clock source of measured traces: monotonic wall-clock seconds relative
#: to the run's origin.
CLOCK_WALL = "wall"

_CLOCKS = (CLOCK_SIM, CLOCK_WALL)

#: Category of spans that represent one whole plan op — the alignment key
#: the sim↔live diff joins on.
OP_CATEGORY = "op"

#: Category of the span of an op killed mid-flight: it held its resources
#: from ``start`` to the abort instant ``end`` and delivered nothing.
ABORTED_CATEGORY = "aborted"


@dataclass(frozen=True)
class Span:
    """One timed interval: ``[start, end)`` on the trace's clock.

    ``op_id`` ties the span to a plan op (empty for run-level spans);
    ``parent`` names the enclosing span for nested phases (a send op's
    ``port_wait`` carries ``parent=op_id``).  ``attrs`` holds small
    JSON-safe tags (node, peer, nbytes, cross_rack, ...).
    """

    name: str
    start: float
    end: float
    category: str = ""
    op_id: str = ""
    parent: str = ""
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "category": self.category,
            "op_id": self.op_id,
            "parent": self.parent,
            "attrs": dict(self.attrs),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Span":
        return cls(**data)


@dataclass(frozen=True)
class TelemetryEvent:
    """One instant on the trace's clock (a death, an abort, a requeue)."""

    name: str
    time: float
    category: str = ""
    op_id: str = ""
    attrs: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "time": self.time,
            "category": self.category,
            "op_id": self.op_id,
            "attrs": dict(self.attrs),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TelemetryEvent":
        return cls(**data)


@dataclass
class TelemetryTrace:
    """Everything one interpreter emitted about one run.

    Attributes
    ----------
    clock:
        :data:`CLOCK_SIM` or :data:`CLOCK_WALL` — what the timestamps
        mean.  The diff layer refuses nothing but *labels* everything;
        confusing the two is the bug this field exists to prevent.
    meta:
        Run-level tags (source, scheme, transport, attempt, ...).
    spans / events:
        Timed intervals and instants, in emission order.
    counters:
        Monotonic totals (``bytes.cross_rack``, ``pacing.stalls``).
    gauges:
        Sampled time series: name → list of ``(time, value)`` pairs
        (token-bucket debt, per-link achieved throughput).
    histograms:
        Unbucketed observation lists (per-chunk stall seconds); kept raw
        so consumers pick their own quantiles.
    """

    clock: str
    meta: dict = field(default_factory=dict)
    spans: list[Span] = field(default_factory=list)
    events: list[TelemetryEvent] = field(default_factory=list)
    counters: dict[str, float] = field(default_factory=dict)
    gauges: dict[str, list[tuple[float, float]]] = field(default_factory=dict)
    histograms: dict[str, list[float]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.clock not in _CLOCKS:
            raise ValueError(
                f"unknown clock {self.clock!r}; expected one of {_CLOCKS}"
            )

    @property
    def extent(self) -> float:
        """Latest instant the trace covers (0.0 when empty)."""
        ends = [s.end for s in self.spans] + [e.time for e in self.events]
        return max(ends, default=0.0)

    def op_spans(self) -> dict[str, Span]:
        """The per-op spans, keyed by op id — the diff layer's join key."""
        return {s.op_id: s for s in self.spans if s.category == OP_CATEGORY}

    def shifted(self, offset: float) -> "TelemetryTrace":
        """A copy with every timestamp moved by ``offset`` (same clock)."""
        return TelemetryTrace(
            clock=self.clock,
            meta=dict(self.meta),
            spans=[
                Span(
                    name=s.name,
                    start=s.start + offset,
                    end=s.end + offset,
                    category=s.category,
                    op_id=s.op_id,
                    parent=s.parent,
                    attrs=dict(s.attrs),
                )
                for s in self.spans
            ],
            events=[
                TelemetryEvent(
                    name=e.name,
                    time=e.time + offset,
                    category=e.category,
                    op_id=e.op_id,
                    attrs=dict(e.attrs),
                )
                for e in self.events
            ],
            counters=dict(self.counters),
            gauges={
                name: [(t + offset, v) for t, v in samples]
                for name, samples in self.gauges.items()
            },
            histograms={name: list(vs) for name, vs in self.histograms.items()},
        )

    def merged(self, other: "TelemetryTrace") -> "TelemetryTrace":
        """Concatenate ``other`` onto this trace (clocks must match).

        Counters add; gauges/histograms extend per name.  Used to stitch
        per-attempt degraded traces into one timeline (shift first).
        """
        if other.clock != self.clock:
            raise ValueError(
                f"cannot merge a {other.clock!r}-clock trace into a "
                f"{self.clock!r}-clock one"
            )
        out = TelemetryTrace(
            clock=self.clock,
            meta=dict(self.meta),
            spans=list(self.spans) + list(other.spans),
            events=list(self.events) + list(other.events),
            counters=dict(self.counters),
            gauges={name: list(vs) for name, vs in self.gauges.items()},
            histograms={name: list(vs) for name, vs in self.histograms.items()},
        )
        for name, value in other.counters.items():
            out.counters[name] = out.counters.get(name, 0.0) + value
        for name, samples in other.gauges.items():
            out.gauges.setdefault(name, []).extend(samples)
        for name, values in other.histograms.items():
            out.histograms.setdefault(name, []).extend(values)
        return out

    def to_dict(self) -> dict:
        """JSON-serializable dump; inverse of :meth:`from_dict`."""
        return {
            "clock": self.clock,
            "meta": dict(self.meta),
            "spans": [s.to_dict() for s in self.spans],
            "events": [e.to_dict() for e in self.events],
            "counters": dict(self.counters),
            "gauges": {
                name: [[t, v] for t, v in samples]
                for name, samples in self.gauges.items()
            },
            "histograms": {name: list(vs) for name, vs in self.histograms.items()},
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TelemetryTrace":
        return cls(
            clock=data["clock"],
            meta=dict(data.get("meta", {})),
            spans=[Span.from_dict(d) for d in data.get("spans", [])],
            events=[TelemetryEvent.from_dict(d) for d in data.get("events", [])],
            counters=dict(data.get("counters", {})),
            gauges={
                name: [(s[0], s[1]) for s in samples]
                for name, samples in data.get("gauges", {}).items()
            },
            histograms={
                name: list(vs) for name, vs in data.get("histograms", {}).items()
            },
        )


class TelemetryRecorder:
    """Collects spans/events/metrics during a run, then yields the trace.

    Timestamps handed to :meth:`span` / :meth:`event` / :meth:`gauge` are
    in the caller's raw time base (``time.monotonic()`` for the live
    runtime); :meth:`set_origin` pins the run's zero so everything is
    stored origin-relative.  The recorder is truthy, so hot paths can
    guard emission with ``if recorder:`` and hand :data:`NULL_RECORDER`
    (falsy) when telemetry is off.
    """

    enabled = True

    def __init__(
        self,
        clock: str = CLOCK_WALL,
        *,
        meta: dict | None = None,
        time_source: Callable[[], float] | None = None,
    ) -> None:
        if clock not in _CLOCKS:
            raise ValueError(f"unknown clock {clock!r}; expected one of {_CLOCKS}")
        self.clock = clock
        self.meta = dict(meta or {})
        self._time = time_source or (time.monotonic if clock == CLOCK_WALL else None)
        self._origin = 0.0
        self._spans: list[Span] = []
        self._events: list[TelemetryEvent] = []
        self._counters: dict[str, float] = {}
        self._gauges: dict[str, list[tuple[float, float]]] = {}
        self._histograms: dict[str, list[float]] = {}

    def __bool__(self) -> bool:
        return True

    def set_origin(self, origin: float) -> None:
        """Pin the run's t=0 in the raw time base.

        When the time base is the real monotonic clock, the origin's
        unix time is stamped into ``meta["origin_unix"]`` so traces from
        different processes can be re-aligned onto one wall timeline by
        :func:`repro.telemetry.distributed.assemble_trace`.  Injected
        fake time sources get no anchor — their zero means nothing in
        wall time.
        """
        self._origin = origin
        if self.clock == CLOCK_WALL and self._time is time.monotonic:
            self.meta["origin_unix"] = time.time() - (time.monotonic() - origin)

    def now(self) -> float:
        """Current origin-relative time from the recorder's time source."""
        if self._time is None:
            return 0.0
        return self._time() - self._origin

    def raw_now(self) -> float:
        """Current *raw* time-base reading — the base :meth:`span` and
        :meth:`event` expect their timestamps in (origin not subtracted)."""
        if self._time is None:
            return 0.0
        return self._time()

    def span(
        self,
        name: str,
        start: float,
        end: float,
        *,
        category: str = "",
        op_id: str = "",
        parent: str = "",
        **attrs,
    ) -> None:
        """Record a finished span; ``start``/``end`` are raw-time-base."""
        self._spans.append(
            Span(
                name=name,
                start=start - self._origin,
                end=end - self._origin,
                category=category,
                op_id=op_id,
                parent=parent,
                attrs=attrs,
            )
        )

    def event(
        self,
        name: str,
        at: float | None = None,
        *,
        category: str = "",
        op_id: str = "",
        **attrs,
    ) -> None:
        """Record an instant (``at`` defaults to :meth:`now`, raw base)."""
        when = self.now() if at is None else at - self._origin
        self._events.append(
            TelemetryEvent(
                name=name, time=when, category=category, op_id=op_id, attrs=attrs
            )
        )

    def count(self, name: str, delta: float = 1.0) -> None:
        """Bump a monotonic counter."""
        self._counters[name] = self._counters.get(name, 0.0) + delta

    def gauge(self, name: str, value: float, at: float | None = None) -> None:
        """Append one sample to a time series."""
        when = self.now() if at is None else at - self._origin
        self._gauges.setdefault(name, []).append((when, value))

    def observe(self, name: str, value: float) -> None:
        """Append one observation to a histogram."""
        self._histograms.setdefault(name, []).append(value)

    def trace(self) -> TelemetryTrace:
        """Freeze what was recorded into a :class:`TelemetryTrace`."""
        return TelemetryTrace(
            clock=self.clock,
            meta=dict(self.meta),
            spans=list(self._spans),
            events=list(self._events),
            counters=dict(self._counters),
            gauges={name: list(vs) for name, vs in self._gauges.items()},
            histograms={name: list(vs) for name, vs in self._histograms.items()},
        )


class NullRecorder(TelemetryRecorder):
    """The off switch: falsy, accepts everything, records nothing.

    ``if recorder:`` short-circuits every emission site, so an
    instrumented hot path with the null recorder runs the exact same
    instructions as an uninstrumented one (the perf harness bounds the
    residue at <2%).
    """

    enabled = False

    def __init__(self) -> None:
        super().__init__(CLOCK_WALL, time_source=lambda: 0.0)

    def __bool__(self) -> bool:
        return False

    def span(self, name, start, end, **kwargs) -> None:  # noqa: ARG002
        return None

    def event(self, name, at=None, **kwargs) -> None:  # noqa: ARG002
        return None

    def count(self, name, delta=1.0) -> None:  # noqa: ARG002
        return None

    def gauge(self, name, value, at=None) -> None:  # noqa: ARG002
        return None

    def observe(self, name, value) -> None:  # noqa: ARG002
        return None


#: Shared no-op recorder for "telemetry off" call sites.
NULL_RECORDER = NullRecorder()
