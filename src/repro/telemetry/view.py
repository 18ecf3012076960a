"""The utilization view of one run: a function of its ``TelemetryTrace``.

A :class:`~repro.telemetry.TelemetryTrace` is the one model of a run —
predicted by the engine (``telemetry_from_sim``), measured by the live
runtime or recorded by the store's repair sessions.  :class:`RunTrace`
is what the paper argues with, derived from that trace's op spans plus
the cluster topology and nothing else:

* **Per-resource busy/idle timelines** — one :class:`ResourceUsage` per
  upload port, download port and CPU, with its occupied intervals, busy
  seconds and bytes carried.  These are the rows behind Fig. 5's
  schedule comparison: serialised bars stack on one resource, pipelined
  bars spread across many.
* **Rack activity / idle accounting** — union-of-intervals busy time per
  rack per resource kind, quantifying the paper's "schedule 1 leaves
  racks idle" argument (§3.2, Fig. 5) with machine-checkable numbers.
* **Switch profiles** — time-bucketed bytes through the aggregation
  switch and each TOR switch.
* **Critical path** — the chain of ops the makespan was actually
  waiting on, walked backwards from the last op to finish.  Each hop
  records *why* the op started when it did: a declared dependency
  finished, a port/CPU it needed was released, or some other completion
  (the aggregation-switch token under ``cross_capacity``).  The walk
  joins ops on *exact* instants, which only the simulated clock has, so
  :attr:`RunTrace.path` is computed for :data:`CLOCK_SIM` traces and is
  empty for wall-clock ones; everything above works on any clock.
* **Renderers** — :func:`render_gantt` and :func:`render_report`, ASCII
  for terminals, docs and tests.

The span contract is ``kind`` / ``node`` / ``peer`` / ``nbytes`` on
``"op"`` and ``"aborted"`` spans (what ``span_attrs`` gives every
producer); racks and cross-rack-ness come from the cluster.  The
serialised form of a run is its telemetry (:func:`~repro.telemetry.to_jsonl`)
— the view is re-derived, never stored.  See ``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace

from ..cluster import Cluster
from .model import ABORTED_CATEGORY, CLOCK_SIM, OP_CATEGORY, TelemetryTrace

__all__ = [
    "Interval",
    "PathSegment",
    "ResourceUsage",
    "RunTrace",
    "render_gantt",
    "render_report",
]

#: Display/sort order of resource kinds on a node.
RESOURCE_KINDS = ("up", "down", "cpu")


def _close(a: float, b: float) -> bool:
    """Engine-compatible instant equality (the engine batches at 1e-12)."""
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)


@dataclass(frozen=True)
class Interval:
    """One occupancy interval of a resource: ``[start, end)`` by ``job_id``.

    ``nbytes`` is the transfer's size for port intervals, 0.0 for CPU
    intervals — kept per-interval so byte profiles stay exact even when
    one port carries transfers at different link rates.
    """

    start: float
    end: float
    job_id: str
    nbytes: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class ResourceUsage:
    """Busy timeline of one resource (a port or a CPU).

    Attributes
    ----------
    kind:
        ``"up"`` / ``"down"`` (the node's two ports) or ``"cpu"``.
    node / rack:
        Owning node and its rack.
    intervals:
        Occupied intervals, sorted by start.  Port exclusivity means they
        never overlap; ``busy`` is therefore also their union measure.
    """

    kind: str
    node: int
    rack: int
    intervals: tuple[Interval, ...]

    @property
    def label(self) -> str:
        """Row label: ``"n<node>:<kind>"``."""
        return f"n{self.node}:{self.kind}"

    @property
    def nbytes(self) -> float:
        """Bytes carried through this resource (0.0 for CPUs)."""
        return sum(iv.nbytes for iv in self.intervals)

    @property
    def busy(self) -> float:
        """Total occupied seconds."""
        return sum(iv.duration for iv in self.intervals)

    def utilization(self, makespan: float) -> float:
        """Busy fraction of the run, in [0, 1]."""
        if makespan <= 0:
            return 0.0
        return self.busy / makespan

    def idle(self, makespan: float) -> float:
        """Seconds this resource sat unused while the repair ran."""
        return max(0.0, makespan - self.busy)


@dataclass(frozen=True)
class PathSegment:
    """One op of a run — as a critical-path hop when it sits on the path.

    ``entered_via`` records what the op was waiting on immediately
    before it started: ``"start"`` (path head, t=0), ``"dependency"`` (a
    declared dependency finished), ``"resource"`` (a port/CPU it needed
    was released), ``"completion"`` (another op's end unblocked it —
    e.g. the cross-rack token under ``cross_capacity``), ``"abort"``
    (a fault-injected abort freed what it was waiting for), or
    ``"retry"`` (the segment is a lost transfer's re-attempt, starting
    at its own loss instant).

    ``aborted`` marks segments that are themselves aborted ops (their
    ``end`` is the abort instant, not a completion) — they appear only
    on faulted runs, where the makespan can be set by an abort.
    """

    job_id: str
    kind: str  # "transfer" | "compute"
    start: float
    end: float
    node: int
    peer: int = -1
    cross_rack: bool = False
    nbytes: float = 0.0
    entered_via: str = "start"
    aborted: bool = False

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def resources(self) -> frozenset[tuple[str, int]]:
        """The ``(kind, node)`` resources the op holds while it runs."""
        if self.kind == "transfer":
            return frozenset({("up", self.node), ("down", self.peer)})
        return frozenset({("cpu", self.node)})


def _ops_of(trace: TelemetryTrace, cluster: Cluster):
    """``(ops, deps)`` by op id from the trace's ``op`` / ``aborted`` spans.

    A completed span beats an aborted one of the same id (a lost
    transfer's final attempt supersedes its loss markers).
    """
    ops: dict[str, PathSegment] = {}
    deps: dict[str, frozenset[str]] = {}
    for span in trace.spans:
        aborted = span.category == ABORTED_CATEGORY
        if not aborted and span.category != OP_CATEGORY:
            continue
        if aborted and span.op_id in ops:
            continue
        node = span.attrs["node"]
        peer = span.attrs.get("peer", -1)
        ops[span.op_id] = PathSegment(
            job_id=span.op_id,
            kind=span.attrs["kind"],
            start=span.start,
            end=span.end,
            node=node,
            peer=peer,
            cross_rack=peer >= 0 and cluster.rack_of(node) != cluster.rack_of(peer),
            nbytes=span.attrs.get("nbytes", 0.0),
            aborted=aborted,
        )
        deps[span.op_id] = frozenset(span.attrs.get("deps", ()))
    return ops, deps


def _critical_path(
    ops: dict[str, PathSegment],
    deps: dict[str, frozenset[str]],
    makespan: float,
    events,
) -> list[PathSegment]:
    """The chain of ops the makespan was waiting on (sim-clock traces).

    Walks backwards from the last op to finish.  At each hop the
    predecessor is an op that finished exactly when the current one
    started — preferring declared dependencies, then ops that released
    a port/CPU the current one needs, then any completion (the engine
    only starts jobs at completion instants, so one always exists for
    ``start > 0``).  The result is chronological and contiguous: the
    head starts at 0, each segment starts at its predecessor's end, and
    the tail ends at the makespan.

    Aborted ops are walked too (their end is the abort instant), so a
    makespan set by an abort anchors on that abort, and an op whose
    ports were freed by an abort attributes its start to it instead of
    falsely claiming it began at t=0.
    """
    if not ops:
        return []
    # Prefer a completed tail over an aborted one ending at the same
    # instant (fault-free runs have no aborted ops, so this is the
    # alphabetical pick there).
    tails = [op for op in ops.values() if _close(op.end, makespan)]
    cur = (
        min(tails, key=lambda op: (op.aborted, op.job_id))
        if tails
        else min(ops.values(), key=lambda op: (-op.end, op.job_id))
    )
    chain = [cur]
    while cur.start > 1e-12:
        enders = [
            op for op in ops.values() if op is not cur and _close(op.end, cur.start)
        ]
        if not enders:
            # A lost transfer's retry starts at its own loss instant and
            # its earlier attempt's timing is overwritten, so no ender
            # remains — attribute the restart to the loss rather than
            # pretending the op waited since t=0.
            lost_here = any(
                e.name == "fault.loss"
                and e.op_id == cur.job_id
                and _close(e.time, cur.start)
                for e in events
            )
            chain[-1] = replace(cur, entered_via="retry" if lost_here else "start")
            break

        def rank(op: PathSegment) -> int:
            # Completed ops outrank aborted ones within each reason
            # class; a dependency ender is always a completion (aborted
            # dependencies cascade-skip their dependents).
            if op.job_id in deps[cur.job_id]:
                return 0
            if cur.resources & op.resources:
                return 2 if op.aborted else 1
            return 4 if op.aborted else 3

        prev = min(enders, key=lambda op: (rank(op), -op.duration, op.job_id))
        chain[-1] = replace(
            cur,
            entered_via=("dependency", "resource", "abort", "completion", "abort")[
                rank(prev)
            ],
        )
        chain.append(prev)
        cur = prev
    return chain[::-1]


def _union_measure(intervals) -> float:
    """Total length covered by a set of (possibly overlapping) intervals."""
    spans = sorted((iv.start, iv.end) for iv in intervals)
    covered = 0.0
    cur_start, cur_end = None, None
    for start, end in spans:
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                covered += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        covered += cur_end - cur_start
    return covered


@dataclass
class RunTrace:
    """The utilization view of one run.

    Build with :meth:`from_telemetry`; everything is derived from the
    trace's op spans plus the cluster topology.  ``clock`` is the
    trace's (:data:`CLOCK_SIM` or :data:`CLOCK_WALL`); ``path`` is
    filled only on the simulated clock.  Export with :meth:`to_dict`;
    render with :func:`render_gantt` / :func:`render_report`.
    """

    makespan: float
    resources: list[ResourceUsage] = field(default_factory=list)
    path: list[PathSegment] = field(default_factory=list)
    clock: str = CLOCK_SIM

    @classmethod
    def from_telemetry(cls, trace: TelemetryTrace, cluster: Cluster) -> "RunTrace":
        """Derive utilization timelines + critical path from ``trace``.

        The makespan is the trace's extent.  Ops aborted mid-flight still
        held their ports (or CPU) from their start to the abort instant —
        those intervals are included so rack-activity and utilization
        accounting does not silently under-attribute busy time; a
        zero-length abort occupies nothing.  Aborted intervals carry
        ``nbytes=0.0``: no payload was delivered, which keeps the
        switch-profile byte-conservation invariants (totals equal the
        run's *completed* cross/intra bytes) intact.
        """
        ops, deps = _ops_of(trace, cluster)
        makespan = trace.extent
        acc: dict[tuple[str, int], list[Interval]] = {}
        for op in ops.values():
            if op.aborted and op.end <= op.start:
                continue
            interval = Interval(
                op.start, op.end, op.job_id, 0.0 if op.aborted else op.nbytes
            )
            for key in op.resources:
                acc.setdefault(key, []).append(interval)
        resources = [
            ResourceUsage(
                kind=kind,
                node=node,
                rack=cluster.rack_of(node),
                intervals=tuple(
                    sorted(acc[kind, node], key=lambda iv: (iv.start, iv.end, iv.job_id))
                ),
            )
            for kind, node in sorted(
                acc, key=lambda key: (key[1], RESOURCE_KINDS.index(key[0]))
            )
        ]
        return cls(
            makespan=makespan,
            resources=resources,
            path=(
                _critical_path(ops, deps, makespan, trace.events)
                if trace.clock == CLOCK_SIM
                else []
            ),
            clock=trace.clock,
        )

    # -- lookups ---------------------------------------------------------

    def resource(self, label: str) -> ResourceUsage:
        """Fetch one resource by its ``"n<id>:<kind>"`` label."""
        for res in self.resources:
            if res.label == label:
                return res
        raise KeyError(f"no resource {label!r} in trace")

    def busiest(self, kind: str | None = None) -> ResourceUsage:
        """The resource with the most busy seconds (optionally one kind)."""
        pool = [r for r in self.resources if kind is None or r.kind == kind]
        if not pool:
            raise ValueError("trace has no resources" + (f" of kind {kind!r}" if kind else ""))
        return max(pool, key=lambda r: (r.busy, r.label))

    # -- rack accounting -------------------------------------------------

    def rack_activity(self, kind: str = "up") -> dict[int, float]:
        """Union busy seconds per rack for one resource kind.

        Unlike summed busy time, overlapping activity on two nodes of the
        same rack counts once — this measures *when the rack was doing
        anything*, which is the Fig. 5 idle-rack quantity.
        """
        by_rack: dict[int, list[Interval]] = {}
        for res in self.resources:
            if res.kind == kind:
                by_rack.setdefault(res.rack, []).extend(res.intervals)
        return {rack: _union_measure(ivs) for rack, ivs in sorted(by_rack.items())}

    def rack_idle_fraction(self, kind: str = "up") -> dict[int, float]:
        """Per participating rack: fraction of the run it spent idle."""
        if self.makespan <= 0:
            return {}
        return {
            rack: max(0.0, 1.0 - active / self.makespan)
            for rack, active in self.rack_activity(kind).items()
        }

    def rack_rows(self) -> list[dict]:
        """Per-rack busy seconds and idle fractions for the report table."""
        racks = sorted({res.rack for res in self.resources})
        busy: dict[tuple[int, str], float] = {}
        bytes_up: dict[int, float] = {}
        for res in self.resources:
            busy[(res.rack, res.kind)] = busy.get((res.rack, res.kind), 0.0) + res.busy
            if res.kind == "up":
                bytes_up[res.rack] = bytes_up.get(res.rack, 0.0) + res.nbytes
        idle = self.rack_idle_fraction("up")
        return [
            {
                "rack": rack,
                "up_busy_s": busy.get((rack, "up"), 0.0),
                "down_busy_s": busy.get((rack, "down"), 0.0),
                "cpu_busy_s": busy.get((rack, "cpu"), 0.0),
                "uploaded_bytes": bytes_up.get(rack, 0.0),
                "up_idle_fraction": idle.get(rack, 1.0),
            }
            for rack in racks
        ]

    # -- critical path ---------------------------------------------------

    def path_attribution(self) -> dict[str, float]:
        """Where the makespan went, summed along the critical path.

        Keys: ``cross_transfer_s``, ``intra_transfer_s``, ``compute_s``,
        ``wait_s`` (any residue not covered by path segments — 0 for a
        contiguous path), and ``makespan_s``.
        """
        cross = intra = compute = 0.0
        for seg in self.path:
            if seg.kind == "compute":
                compute += seg.duration
            elif seg.cross_rack:
                cross += seg.duration
            else:
                intra += seg.duration
        covered = cross + intra + compute
        return {
            "cross_transfer_s": cross,
            "intra_transfer_s": intra,
            "compute_s": compute,
            "wait_s": max(0.0, self.makespan - covered),
            "makespan_s": self.makespan,
        }

    # -- export ----------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-serializable dump (``rpr trace --json``): every field of
        every resource, interval and path segment, in declaration order."""
        return {
            "makespan": self.makespan,
            "resources": [
                {
                    "kind": res.kind,
                    "node": res.node,
                    "rack": res.rack,
                    "intervals": [asdict(iv) for iv in res.intervals],
                }
                for res in self.resources
            ],
            "critical_path": [asdict(seg) for seg in self.path],
        }


# -- renderers -------------------------------------------------------------


def render_gantt(trace: RunTrace, width: int = 64) -> str:
    """Utilization-annotated ASCII Gantt: one row per resource.

    ``#`` marks busy time, ``.`` idle; each row is prefixed with the
    resource's busy percentage and the scale line maps columns to
    seconds.  Works on any clock.
    """
    if width < 10:
        raise ValueError("width must be at least 10 columns")
    if not trace.resources or trace.makespan <= 0:
        return "(empty trace)"
    span = trace.makespan
    label_width = max(len(r.label) for r in trace.resources) + 1
    lines = []
    for res in trace.resources:
        cells = ["."] * width
        for iv in res.intervals:
            first = min(width - 1, int(iv.start / span * width))
            last = min(width - 1, max(first, int(iv.end / span * width) - 1))
            for c in range(first, last + 1):
                cells[c] = "#"
        pct = f"{100 * res.utilization(span):5.1f}%"
        lines.append(f"{res.label.rjust(label_width)} {pct} |{''.join(cells)}|")
    scale = f"{'0'.rjust(label_width + 7)} +{'-' * (width - 2)}+ {span:.2f}s"
    lines.append(scale)
    return "\n".join(lines)


def _fmt_row(cells, widths) -> str:
    return "  ".join(str(c).rjust(w) for c, w in zip(cells, widths))


def text_table(headers: list[str], rows: list[list]) -> list[str]:
    """Right-aligned columns under a dashed rule, one string per line."""
    table = [headers] + rows
    widths = [max(len(str(r[i])) for r in table) for i in range(len(headers))]
    out = [_fmt_row(headers, widths), _fmt_row(["-" * w for w in widths], widths)]
    out.extend(_fmt_row(row, widths) for row in rows)
    return out


def render_report(trace: RunTrace, top: int = 5) -> str:
    """The bottleneck report: rack utilization, hot resources, critical path.

    On a wall-clock view the critical-path section says why it is
    absent (the op-level walk needs the simulated clock's exact
    instants); the rack and resource tables render on any clock.
    """
    if trace.makespan <= 0 or not trace.resources:
        return "(empty trace)"
    span = trace.makespan
    lines = [f"bottleneck report — makespan {span:.2f} s"]

    lines.append("")
    lines.append("per-rack utilization (busy seconds; up_idle% = upload ports fully idle):")
    rack_rows = [
        [
            f"r{row['rack']}",
            f"{row['up_busy_s']:.2f}",
            f"{row['down_busy_s']:.2f}",
            f"{row['cpu_busy_s']:.2f}",
            f"{row['uploaded_bytes'] / 1e6:.0f}",
            f"{100 * row['up_idle_fraction']:.1f}",
        ]
        for row in trace.rack_rows()
    ]
    lines.extend(
        text_table(["rack", "up_s", "down_s", "cpu_s", "up_MB", "up_idle_%"], rack_rows)
    )

    lines.append("")
    lines.append(f"busiest resources (top {top}):")
    hot = sorted(
        trace.resources, key=lambda r: (-r.busy, r.label)
    )[:top]
    hot_rows = [
        [
            res.label,
            f"{res.busy:.2f}",
            f"{100 * res.utilization(span):.1f}",
            f"{res.nbytes / 1e6:.0f}",
        ]
        for res in hot
    ]
    lines.extend(text_table(["resource", "busy_s", "util_%", "MB"], hot_rows))

    lines.append("")
    if trace.clock != CLOCK_SIM:
        lines.append(
            f"critical path: not computed on the {trace.clock} clock (the op-level "
            "walk joins ops on exact instants, which only a simulated trace has)"
        )
        return "\n".join(lines)
    attribution = trace.path_attribution()
    lines.append(
        "critical path ({} segments): cross-transfer {:.2f} s ({:.0f}%), "
        "intra-transfer {:.2f} s ({:.0f}%), compute {:.2f} s ({:.0f}%), "
        "wait {:.2f} s".format(
            len(trace.path),
            attribution["cross_transfer_s"],
            100 * attribution["cross_transfer_s"] / span,
            attribution["intra_transfer_s"],
            100 * attribution["intra_transfer_s"] / span,
            attribution["compute_s"],
            100 * attribution["compute_s"] / span,
            attribution["wait_s"],
        )
    )
    path_rows = []
    for seg in trace.path:
        if seg.kind == "transfer":
            what = f"n{seg.node}->n{seg.peer}" + (" x-rack" if seg.cross_rack else "")
        else:
            what = f"decode@n{seg.node}"
        path_rows.append(
            [
                f"{seg.start:.2f}",
                f"{seg.end:.2f}",
                seg.job_id,
                what,
                seg.entered_via,
            ]
        )
    lines.extend(text_table(["start_s", "end_s", "job", "what", "entered_via"], path_rows))
    return "\n".join(lines)
