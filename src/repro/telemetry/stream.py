"""Crash-durable streaming telemetry: append JSONL as spans finish.

The store processes originally serialised their whole trace in one
``write_text`` at graceful shutdown — which meant the kill demo's
SIGKILL'd daemon, the single most interesting process in the run, left
*no* telemetry behind.  :class:`StreamingRecorder` fixes that by
appending each record to a line-buffered JSONL file the moment it is
recorded:

* spans and events are written (and flushed to the OS) as they finish,
  so everything up to the instant of a SIGKILL survives on disk;
* counters/gauges/histograms are snapshotted periodically (piggybacked
  on span/event writes, at most every ``metrics_interval_s``) and once
  more at :meth:`close` — counter records carry the cumulative value
  (last one wins on parse), gauge/histogram records carry only the
  samples since the previous snapshot (the parser extends per name);
* nothing that has been written is kept: a store process records spans
  for as long as it lives, so the recorder's memory is the counters plus
  whatever gauge/histogram samples await the next snapshot, and
  :meth:`trace` reads the file back;
* the file is opened in append mode, and
  :func:`~repro.telemetry.export.from_jsonl` accepts the resulting
  stream exactly like a one-shot dump.

"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable

from .export import from_jsonl
from .model import CLOCK_WALL, TelemetryRecorder, TelemetryTrace

__all__ = ["StreamingRecorder"]

#: Default ceiling on metric-snapshot frequency, seconds.
DEFAULT_METRICS_INTERVAL_S = 1.0


def _dump(record: dict) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


class StreamingRecorder(TelemetryRecorder):
    """A :class:`TelemetryRecorder` whose memory is its JSONL file.

    Parameters beyond the base class:

    path:
        JSONL file to append to (parent directory must exist).
    metrics_interval_s:
        Minimum spacing between periodic counter/gauge/histogram
        snapshot records.  Snapshots ride on span/event emission — a
        process that records nothing writes nothing — and a final
        snapshot is always written by :meth:`close`.
    """

    def __init__(
        self,
        path: str | Path,
        clock: str = CLOCK_WALL,
        *,
        meta: dict | None = None,
        time_source: Callable[[], float] | None = None,
        metrics_interval_s: float = DEFAULT_METRICS_INTERVAL_S,
    ) -> None:
        super().__init__(clock, meta=meta, time_source=time_source)
        self.path = Path(path)
        self.metrics_interval_s = float(metrics_interval_s)
        self._fh = open(self.path, "a", buffering=1, encoding="utf-8")
        self._header_written = False
        self._last_metrics = 0.0

    # -- writing ------------------------------------------------------

    def _write(self, record: dict) -> None:
        if self._fh.closed:
            return
        if not self._header_written:
            self._header_written = True
            self._fh.write(
                _dump(
                    {"record": "telemetry", "clock": self.clock, "meta": self.meta}
                )
                + "\n"
            )
        self._fh.write(_dump(record) + "\n")

    def _maybe_flush_metrics(self) -> None:
        now = self.now()
        if now - self._last_metrics >= self.metrics_interval_s:
            self.flush_metrics()

    def flush_metrics(self) -> None:
        """Write current counters plus unflushed gauge/histogram samples."""
        self._last_metrics = self.now()
        for name, value in self._counters.items():
            self._write({"record": "counter", "name": name, "value": value})
        for name, samples in self._gauges.items():
            if samples:
                self._write(
                    {
                        "record": "gauge",
                        "name": name,
                        "samples": [[t, v] for t, v in samples],
                    }
                )
                samples.clear()
        for name, values in self._histograms.items():
            if values:
                self._write({"record": "histogram", "name": name, "values": list(values)})
                values.clear()

    def close(self) -> None:
        """Final metrics snapshot, then close the file (idempotent)."""
        if self._fh.closed:
            return
        self.flush_metrics()
        self._fh.close()

    # -- recording (written, not kept) --------------------------------

    def span(self, name, start, end, **kwargs) -> None:
        super().span(name, start, end, **kwargs)
        self._write({"record": "span", **self._spans.pop().to_dict()})
        self._maybe_flush_metrics()

    def event(self, name, at=None, **kwargs) -> None:
        super().event(name, at, **kwargs)
        self._write({"record": "event", **self._events.pop().to_dict()})
        self._maybe_flush_metrics()

    def trace(self) -> TelemetryTrace:
        """Everything recorded so far, read back from the file."""
        self.flush_metrics()
        if not self._header_written:
            return super().trace()
        return from_jsonl(self.path.read_text(encoding="utf-8"))
