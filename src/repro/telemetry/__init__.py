"""repro.telemetry — the one model of a run, and every view derived from it.

A :class:`~repro.repair.plan.RepairPlan` can be run several ways:
predicted on the discrete-event engine (:mod:`repro.sim`), degraded
through the fault-injecting re-planning loop (:mod:`repro.repair.faults`),
measured on real bytes by the asyncio live runtime (:mod:`repro.live`),
or executed by the store's daemons (:mod:`repro.store`).  Each reports
into one :class:`TelemetryTrace`, and everything that *looks at* a run
is a function of that trace:

* :mod:`repro.telemetry.model` — :class:`Span` / :class:`TelemetryEvent`
  / counters / gauges / histograms inside a :class:`TelemetryTrace`,
  each trace tagged with its clock source (:data:`CLOCK_SIM` simulated
  seconds vs :data:`CLOCK_WALL` measured seconds); the
  :class:`TelemetryRecorder` collector and the falsy
  :data:`NULL_RECORDER` that makes instrumentation zero-cost when off.
* :mod:`repro.telemetry.view` — :class:`RunTrace`, the utilization view
  (:meth:`RunTrace.from_telemetry`): per-port/CPU busy timelines, rack
  idle accounting, switch byte profiles, the op-level critical path
  (sim clock only) and the :func:`render_gantt` / :func:`render_report`
  renderers — the same function for a simulated, a live and a store run.
* :mod:`repro.telemetry.export` — canonical JSONL (byte-identical
  round-trip; *the* serialised form of a run) and Chrome trace-event
  JSON (loads in Perfetto).
* :mod:`repro.telemetry.diff` — sim↔live alignment by op identity:
  per-op measured/predicted ratios, worst divergers, critical-path
  deltas (:func:`diff_traces` / :func:`diff_repair`).
* :mod:`repro.telemetry.distributed` — cross-process assembly and the
  span-*tree* :func:`critical_path` (a different walk from the view's
  op-level one; the two are deliberately not merged).
* :mod:`repro.telemetry.histogram` / :mod:`repro.telemetry.scrape` — the
  live metrics plane: :class:`StatsRegistry` snapshots, and the views of
  a cluster scrape (:func:`snapshots_to_prometheus`,
  :func:`render_scrape`, :func:`render_top`).

The package imports nothing from the interpreters (sim → telemetry is
one-way): ``telemetry_from_sim`` in :mod:`repro.sim` is the engine's
emitter, ``run_plan_live(recorder=...)`` and ``RepairSession(recorder=...)``
emit natively; ``rpr trace`` / ``rpr telemetry`` are the CLI.  See
``docs/OBSERVABILITY.md``.
"""

from .diff import OpAlignment, TraceDiff, diff_repair, diff_traces, render_diff
from .distributed import (
    PROC_ATTR,
    TraceContext,
    TraceNode,
    assemble_files,
    assemble_trace,
    build_tree,
    critical_path,
    new_span_id,
    render_critical_path,
    render_tree,
    trace_ids,
)
from .export import from_jsonl, to_chrome_trace, to_jsonl
from .histogram import (
    LATENCY_PREFIX,
    LogHistogram,
    StatsRegistry,
    snapshots_to_prometheus,
    validate_prometheus_text,
)
from .scrape import render_scrape, render_top, scrape_snapshots
from .stream import StreamingRecorder
from .model import (
    ABORTED_CATEGORY,
    CLOCK_SIM,
    CLOCK_WALL,
    NULL_RECORDER,
    NullRecorder,
    OP_CATEGORY,
    Span,
    TelemetryEvent,
    TelemetryRecorder,
    TelemetryTrace,
)
from .view import (
    Interval,
    PathSegment,
    ResourceUsage,
    RunTrace,
    render_gantt,
    render_report,
)

__all__ = [
    "ABORTED_CATEGORY",
    "CLOCK_SIM",
    "CLOCK_WALL",
    "Interval",
    "LATENCY_PREFIX",
    "LogHistogram",
    "NULL_RECORDER",
    "PROC_ATTR",
    "NullRecorder",
    "OP_CATEGORY",
    "OpAlignment",
    "PathSegment",
    "ResourceUsage",
    "RunTrace",
    "Span",
    "StatsRegistry",
    "StreamingRecorder",
    "TelemetryEvent",
    "TelemetryRecorder",
    "TelemetryTrace",
    "TraceContext",
    "TraceDiff",
    "TraceNode",
    "assemble_files",
    "assemble_trace",
    "build_tree",
    "critical_path",
    "diff_repair",
    "diff_traces",
    "from_jsonl",
    "new_span_id",
    "render_critical_path",
    "render_diff",
    "render_gantt",
    "render_report",
    "render_scrape",
    "render_top",
    "render_tree",
    "scrape_snapshots",
    "snapshots_to_prometheus",
    "to_chrome_trace",
    "to_jsonl",
    "trace_ids",
    "validate_prometheus_text",
]
