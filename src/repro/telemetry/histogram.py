"""Log-bucketed latency histograms and the Prometheus exposition path.

The raw telemetry schema keeps histogram *observations* (every sample,
unbucketed) because offline analysis wants exact quantiles.  A live
cluster can't afford that: a daemon serving millions of requests must
answer a ``stats`` scrape in O(buckets), not O(requests).  This module
is the bounded-memory side:

* :class:`LogHistogram` — geometric buckets (default ×2 per bucket from
  1 µs), sparse counts, constant-size regardless of traffic, mergeable
  across processes, with upper-bound quantile estimates.
* :class:`StatsRegistry` — one process's live metrics surface: counters,
  last-value gauges, and latency histograms keyed
  ``latency_s:<op>[:<class>]``, frozen into a JSON-safe snapshot the
  ``stats`` RPC returns.
* :func:`snapshots_to_prometheus` — renders a set of per-process
  snapshots as Prometheus text exposition (families
  ``rpr_latency_seconds`` / ``rpr_events_total`` / ``rpr_value`` /
  ``rpr_uptime_seconds``), and :func:`validate_prometheus_text` — the
  schema check CI runs against a live scrape.

See docs/OBSERVABILITY.md §8 for the bucket scheme and scrape formats.
"""

from __future__ import annotations

import math
import re
import time
from typing import Callable

__all__ = [
    "LogHistogram",
    "StatsRegistry",
    "snapshots_to_prometheus",
    "validate_prometheus_text",
]

#: Default smallest bucket upper bound: 1 µs — below the resolution of
#: anything this system times.
DEFAULT_ORIGIN = 1e-6

#: Default geometric growth per bucket.  ×2 gives ~40 buckets between
#: 1 µs and 20 minutes: coarse enough to stay tiny, fine enough that a
#: p99 estimate is within 2× of truth.
DEFAULT_BASE = 2.0

#: Histogram-name prefix the registry and the Prometheus renderer agree
#: on: ``latency_s:<op>`` or ``latency_s:<op>:<class>``.
LATENCY_PREFIX = "latency_s:"


class LogHistogram:
    """A geometric-bucket histogram with sparse counts.

    Bucket ``i`` covers ``(origin * base**(i-1), origin * base**i]``;
    bucket 0 covers everything at or below ``origin``.  Counts live in a
    dict keyed by bucket index, so an idle histogram costs nothing and a
    busy one costs one int per *occupied* bucket.
    """

    __slots__ = ("base", "origin", "count", "sum", "buckets")

    def __init__(
        self, *, base: float = DEFAULT_BASE, origin: float = DEFAULT_ORIGIN
    ) -> None:
        if base <= 1.0:
            raise ValueError(f"base must exceed 1.0, got {base}")
        if origin <= 0.0:
            raise ValueError(f"origin must be positive, got {origin}")
        self.base = float(base)
        self.origin = float(origin)
        self.count = 0
        self.sum = 0.0
        self.buckets: dict[int, int] = {}

    def bucket_index(self, value: float) -> int:
        if value <= self.origin:
            return 0
        return max(0, math.ceil(math.log(value / self.origin, self.base) - 1e-12))

    def upper_bound(self, index: int) -> float:
        return self.origin * self.base**index

    def observe(self, value: float) -> None:
        self.count += 1
        self.sum += value
        idx = self.bucket_index(value)
        self.buckets[idx] = self.buckets.get(idx, 0) + 1

    def quantile(self, q: float) -> float:
        """Upper-bound estimate of the ``q``-quantile (0 when empty).

        Returns the upper bound of the bucket where the cumulative count
        crosses ``q * count`` — a deterministic, conservative estimate
        whose error is bounded by one bucket's width (a factor of
        ``base``).
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        target = q * self.count
        cumulative = 0
        for idx in sorted(self.buckets):
            cumulative += self.buckets[idx]
            if cumulative >= target:
                return self.upper_bound(idx)
        return self.upper_bound(max(self.buckets))

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def cumulative(self) -> list[tuple[float, int]]:
        """``(upper_bound, cumulative_count)`` pairs, ascending — the
        Prometheus bucket shape (``+Inf`` is implied by :attr:`count`)."""
        out: list[tuple[float, int]] = []
        running = 0
        for idx in sorted(self.buckets):
            running += self.buckets[idx]
            out.append((self.upper_bound(idx), running))
        return out

    def to_dict(self) -> dict:
        return {
            "base": self.base,
            "origin": self.origin,
            "count": self.count,
            "sum": self.sum,
            "buckets": {str(idx): n for idx, n in sorted(self.buckets.items())},
        }

    @classmethod
    def from_dict(cls, data: dict) -> "LogHistogram":
        hist = cls(base=data["base"], origin=data["origin"])
        hist.count = int(data["count"])
        hist.sum = float(data["sum"])
        hist.buckets = {int(idx): int(n) for idx, n in data["buckets"].items()}
        return hist


class StatsRegistry:
    """One process's live metrics: what the ``stats`` RPC serves.

    Deliberately separate from :class:`~repro.telemetry.model.\
TelemetryRecorder`: the recorder keeps the *full* history for offline
    trace analysis (and may be the null recorder in production), while
    the registry keeps only bounded aggregates and is always on — a
    scrape must work even when span telemetry is off.
    """

    def __init__(
        self,
        node: str,
        *,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.node = node
        self._clock = clock
        self._t0 = clock()
        self.counters: dict[str, float] = {}
        self.gauges: dict[str, float] = {}
        self.histograms: dict[str, LogHistogram] = {}

    def count(self, name: str, delta: float = 1.0) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + delta

    def gauge(self, name: str, value: float) -> None:
        self.gauges[name] = float(value)

    def observe(self, name: str, value: float) -> None:
        hist = self.histograms.get(name)
        if hist is None:
            hist = self.histograms[name] = LogHistogram()
        hist.observe(value)

    def latency(self, op: str, seconds: float, cls: str = "") -> None:
        """Record one operation latency, optionally tagged with a QoS class."""
        name = f"{LATENCY_PREFIX}{op}:{cls}" if cls else f"{LATENCY_PREFIX}{op}"
        self.observe(name, seconds)

    @property
    def uptime_s(self) -> float:
        return self._clock() - self._t0

    def snapshot(self) -> dict:
        """JSON-safe dump for the ``stats`` RPC response."""
        return {
            "node": self.node,
            "uptime_s": self.uptime_s,
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "histograms": {
                name: hist.to_dict() for name, hist in self.histograms.items()
            },
        }


# --------------------------------------------------------------------------
# Prometheus text exposition


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _labels(pairs: dict[str, str]) -> str:
    inner = ",".join(
        f'{key}="{_escape_label(value)}"' for key, value in sorted(pairs.items())
    )
    return "{" + inner + "}"


def _fmt(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _latency_labels(name: str, node: str) -> dict[str, str]:
    """Split ``latency_s:<op>[:<class>]`` into exposition labels."""
    rest = name[len(LATENCY_PREFIX) :]
    op, _, cls = rest.partition(":")
    labels = {"node": node, "op": op}
    if cls:
        labels["class"] = cls
    return labels


def snapshots_to_prometheus(snapshots: list[dict]) -> str:
    """Render :meth:`StatsRegistry.snapshot` dicts as Prometheus text.

    Families:

    * ``rpr_uptime_seconds{node}`` — gauge, process uptime.
    * ``rpr_events_total{node,name}`` — counter, every registry counter.
    * ``rpr_value{node,name}`` — gauge, every registry gauge.
    * ``rpr_latency_seconds{node,op[,class]}`` — histogram, every
      ``latency_s:`` histogram, with cumulative ``le`` buckets, ``+Inf``,
      ``_sum`` and ``_count`` per Prometheus convention.
    * ``rpr_observations{node,name}`` — histogram, any other histogram.
    """
    up: list[str] = []
    counters: list[str] = []
    gauges: list[str] = []
    latencies: list[str] = []
    observations: list[str] = []
    for snap in snapshots:
        node = str(snap.get("node", ""))
        up.append(
            f"rpr_uptime_seconds{_labels({'node': node})} "
            f"{_fmt(float(snap.get('uptime_s', 0.0)))}"
        )
        for name in sorted(snap.get("counters", {})):
            value = snap["counters"][name]
            counters.append(
                f"rpr_events_total{_labels({'node': node, 'name': name})} "
                f"{_fmt(value)}"
            )
        for name in sorted(snap.get("gauges", {})):
            value = snap["gauges"][name]
            gauges.append(
                f"rpr_value{_labels({'node': node, 'name': name})} {_fmt(value)}"
            )
        for name in sorted(snap.get("histograms", {})):
            hist = LogHistogram.from_dict(snap["histograms"][name])
            if name.startswith(LATENCY_PREFIX):
                family, labels = "rpr_latency_seconds", _latency_labels(name, node)
                lines = latencies
            else:
                family, labels = "rpr_observations", {"node": node, "name": name}
                lines = observations
            for bound, cum in hist.cumulative():
                lines.append(
                    f"{family}_bucket{_labels({**labels, 'le': _fmt(bound)})} {cum}"
                )
            lines.append(
                f"{family}_bucket{_labels({**labels, 'le': '+Inf'})} {hist.count}"
            )
            lines.append(f"{family}_sum{_labels(labels)} {_fmt(hist.sum)}")
            lines.append(f"{family}_count{_labels(labels)} {hist.count}")
    blocks: list[str] = []
    for family, ftype, help_text, lines in (
        ("rpr_uptime_seconds", "gauge", "Process uptime in seconds.", up),
        ("rpr_events_total", "counter", "Monotonic event counters.", counters),
        ("rpr_value", "gauge", "Last-sampled gauge values.", gauges),
        (
            "rpr_latency_seconds",
            "histogram",
            "Operation latency, log-bucketed.",
            latencies,
        ),
        (
            "rpr_observations",
            "histogram",
            "Non-latency observations, log-bucketed.",
            observations,
        ),
    ):
        if not lines:
            continue
        blocks.append(f"# HELP {family} {help_text}")
        blocks.append(f"# TYPE {family} {ftype}")
        blocks.extend(lines)
    return "\n".join(blocks) + "\n"


_METRIC_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r"\s+(?P<value>[^\s]+)\s*$"
)
_LABEL_RE = re.compile(r'^[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"$')


def _parse_value(text: str) -> float | None:
    if text == "+Inf":
        return math.inf
    if text == "-Inf":
        return -math.inf
    try:
        return float(text)
    except ValueError:
        return None


def _base_family(name: str) -> str:
    for suffix in ("_bucket", "_sum", "_count"):
        if name.endswith(suffix):
            return name[: -len(suffix)]
    return name


def validate_prometheus_text(text: str) -> list[str]:
    """Schema-check a Prometheus exposition; returns a list of problems.

    Checks: line syntax, label syntax, parseable values, every sample
    preceded by a ``# TYPE`` for its family, counter names ending
    ``_total``, and histogram families complete and coherent per label
    set (``+Inf`` bucket present, bucket counts monotonically
    non-decreasing by ``le``, ``_count`` equal to the ``+Inf`` bucket,
    ``_sum`` present).  An empty return means the text is valid.
    """
    errors: list[str] = []
    types: dict[str, str] = {}
    # histogram family -> label-key -> {"buckets": [(le, value)], ...}
    hist: dict[str, dict[str, dict]] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) >= 3 and parts[1] == "TYPE":
                kind = parts[3] if len(parts) > 3 else ""
                if kind not in (
                    "counter",
                    "gauge",
                    "histogram",
                    "summary",
                    "untyped",
                ):
                    errors.append(f"line {lineno}: unknown TYPE {kind!r}")
                types[parts[2]] = kind
            elif len(parts) >= 2 and parts[1] not in ("HELP", "TYPE"):
                errors.append(f"line {lineno}: unknown comment directive {parts[1]!r}")
            continue
        match = _METRIC_RE.match(line)
        if not match:
            errors.append(f"line {lineno}: unparseable sample {line!r}")
            continue
        name = match.group("name")
        labels_text = match.group("labels")
        value = _parse_value(match.group("value"))
        if value is None:
            errors.append(f"line {lineno}: bad value {match.group('value')!r}")
            continue
        labels: dict[str, str] = {}
        if labels_text:
            for part in re.split(r",(?=[a-zA-Z_])", labels_text):
                part = part.strip()
                if not part:
                    continue
                if not _LABEL_RE.match(part):
                    errors.append(f"line {lineno}: bad label {part!r}")
                    continue
                key, _, raw = part.partition("=")
                labels[key] = raw[1:-1]
        family = _base_family(name)
        ftype = types.get(family) or types.get(name)
        if ftype is None:
            errors.append(f"line {lineno}: sample {name!r} has no # TYPE")
            continue
        if ftype == "counter" and not name.endswith("_total"):
            errors.append(f"line {lineno}: counter {name!r} should end _total")
        if ftype == "histogram":
            key = ",".join(
                f"{k}={v}" for k, v in sorted(labels.items()) if k != "le"
            )
            slot = hist.setdefault(family, {}).setdefault(
                key, {"buckets": [], "sum": None, "count": None}
            )
            if name.endswith("_bucket"):
                le = labels.get("le")
                bound = _parse_value(le) if le is not None else None
                if bound is None:
                    errors.append(f"line {lineno}: bucket without valid le label")
                else:
                    slot["buckets"].append((bound, value))
            elif name.endswith("_sum"):
                slot["sum"] = value
            elif name.endswith("_count"):
                slot["count"] = value
    for family, series in hist.items():
        for key, slot in series.items():
            where = f"{family}{{{key}}}"
            buckets = sorted(slot["buckets"])
            if not buckets or buckets[-1][0] != math.inf:
                errors.append(f"{where}: histogram missing +Inf bucket")
                continue
            counts = [c for _, c in buckets]
            if any(later < earlier for earlier, later in zip(counts, counts[1:])):
                errors.append(f"{where}: bucket counts not monotonic")
            if slot["sum"] is None:
                errors.append(f"{where}: histogram missing _sum")
            if slot["count"] is None:
                errors.append(f"{where}: histogram missing _count")
            elif slot["count"] != counts[-1]:
                errors.append(
                    f"{where}: _count {slot['count']} != +Inf bucket {counts[-1]}"
                )
    return errors
