"""Sim↔live trace diffing: per-op measured/predicted attribution.

`run_live_validation` trusts the simulator when aggregate makespans
agree; this module answers the next question — *which op* drifted when
they do not.  Plan part ids are the join key (they are simultaneously
sim job ids and live timing ids — an op id, or ``op#j`` for slice *j* of
a sliced op), so the predicted trace and the measured trace align
exactly on (op, slice):

* :func:`diff_traces` joins two :class:`~repro.telemetry.TelemetryTrace`
  objects on their op spans and returns a :class:`TraceDiff` with one
  :class:`OpAlignment` per common (op, slice) (measured/predicted
  duration ratio, both start times) plus the ops only one side saw;
  :meth:`TraceDiff.ops` folds the slices of each op back into one entry,
  which is what :func:`render_diff` prints;
* :func:`diff_repair` is the one-call form for a
  :class:`~repro.repair.RepairOutcome` + live result pair — it derives
  both traces itself and threads the simulated critical path through,
  so :meth:`TraceDiff.critical_path_delta` can say how much of the
  makespan drift sits on the path that set the predicted finish time.

Divergence is ranked by ``|ln ratio|`` so a transfer measured at half
speed and one at double speed are equally alarming.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .model import CLOCK_WALL, OP_CATEGORY, Span, TelemetryTrace
from .view import RunTrace, text_table

__all__ = ["OpAlignment", "TraceDiff", "diff_repair", "diff_traces", "render_diff"]


@dataclass(frozen=True)
class OpAlignment:
    """One op — or one slice of a sliced op — seen by both interpreters:
    predicted vs measured timing.

    ``op`` is the plan op (``op_id`` itself for a whole op) and
    ``slices`` how many slices that op runs in; an entry of
    :meth:`TraceDiff.ops` stands for all of them.
    """

    op_id: str
    kind: str  # "transfer" | "compute" | ""
    predicted_s: float
    measured_s: float
    predicted_start: float
    measured_start: float
    cross_rack: bool = False
    nbytes: float = 0.0
    op: str = ""
    slices: int = 1

    @property
    def ratio(self) -> float:
        """Measured / predicted duration (inf when prediction is zero)."""
        if self.predicted_s > 0:
            return self.measured_s / self.predicted_s
        return float("inf") if self.measured_s > 0 else 1.0

    @property
    def divergence(self) -> float:
        """``|ln ratio|`` — symmetric badness (0 = perfect calibration)."""
        r = self.ratio
        if r <= 0 or math.isinf(r):
            return float("inf")
        return abs(math.log(r))

    def to_dict(self) -> dict:
        return {
            "op_id": self.op_id,
            "kind": self.kind,
            "predicted_s": self.predicted_s,
            "measured_s": self.measured_s,
            "ratio": self.ratio,
            "predicted_start": self.predicted_start,
            "measured_start": self.measured_start,
            "cross_rack": self.cross_rack,
            "nbytes": self.nbytes,
            "op": self.op or self.op_id,
            "slices": self.slices,
        }


@dataclass(frozen=True)
class TraceDiff:
    """The aligned comparison of one predicted and one measured run."""

    aligned: tuple[OpAlignment, ...]
    sim_only: tuple[str, ...]
    live_only: tuple[str, ...]
    predicted_makespan: float
    measured_makespan: float
    path_ops: tuple[str, ...] = ()

    @property
    def all_aligned(self) -> bool:
        """True when both sides saw exactly the same op set."""
        return not self.sim_only and not self.live_only

    @property
    def makespan_ratio(self) -> float:
        if self.predicted_makespan > 0:
            return self.measured_makespan / self.predicted_makespan
        return float("inf") if self.measured_makespan > 0 else 1.0

    def ops(self) -> list[OpAlignment]:
        """``aligned`` with each sliced op's slices folded into one entry.

        Durations and bytes are summed over the slices (busy time, not
        first-start to last-end), starts are the first slice's.
        """
        folded: dict[str, OpAlignment] = {}
        for a in self.aligned:
            op = a.op or a.op_id
            seen = folded.get(op)
            folded[op] = (
                replace(a, op_id=op)
                if seen is None
                else replace(
                    seen,
                    predicted_s=seen.predicted_s + a.predicted_s,
                    measured_s=seen.measured_s + a.measured_s,
                    predicted_start=min(seen.predicted_start, a.predicted_start),
                    measured_start=min(seen.measured_start, a.measured_start),
                    nbytes=seen.nbytes + a.nbytes,
                )
            )
        return list(folded.values())

    def worst(self, n: int = 5) -> list[OpAlignment]:
        """The ``n`` most-diverged ops (slices folded), worst first."""
        return sorted(self.ops(), key=lambda a: (-a.divergence, a.op_id))[:n]

    def _path(self) -> list[OpAlignment]:
        """The aligned parts of the simulated critical path, in path order."""
        by_id = {a.op_id: a for a in self.aligned}
        return [by_id[op_id] for op_id in self.path_ops if op_id in by_id]

    def critical_path_delta(self) -> dict[str, float]:
        """Predicted vs measured time along the *simulated* critical path.

        ``path_*_s`` sum the durations of the path's parts on each side.
        A ``delta_s`` close to ``measured_makespan - predicted_makespan``
        means the drift lives in the path's parts themselves.
        ``path_*_elapsed_s`` run from the path's first start to its last
        end, and ``path_*_wait_s`` are elapsed minus busy: time the path
        spent between parts — waiting for a port, a dependency or the
        event loop.  Drift that shows up in ``wait_delta_s`` rather than
        ``delta_s`` was lost between parts, not inside them.
        """
        path = self._path()
        predicted = sum(a.predicted_s for a in path)
        measured = sum(a.measured_s for a in path)
        predicted_elapsed = measured_elapsed = 0.0
        if path:
            predicted_elapsed = max(a.predicted_start + a.predicted_s for a in path) - min(
                a.predicted_start for a in path
            )
            measured_elapsed = max(a.measured_start + a.measured_s for a in path) - min(
                a.measured_start for a in path
            )
        return {
            "path_predicted_s": predicted,
            "path_measured_s": measured,
            "delta_s": measured - predicted,
            "path_predicted_elapsed_s": predicted_elapsed,
            "path_measured_elapsed_s": measured_elapsed,
            "path_predicted_wait_s": predicted_elapsed - predicted,
            "path_measured_wait_s": measured_elapsed - measured,
            "wait_delta_s": (measured_elapsed - measured) - (predicted_elapsed - predicted),
        }

    def most_slipped(self) -> OpAlignment | None:
        """The critical-path part whose measured start is furthest behind its predicted start."""
        return max(
            self._path(),
            key=lambda a: a.measured_start - a.predicted_start,
            default=None,
        )

    def to_dict(self) -> dict:
        slipped = self.most_slipped()
        return {
            "predicted_makespan": self.predicted_makespan,
            "measured_makespan": self.measured_makespan,
            "makespan_ratio": self.makespan_ratio,
            "all_aligned": self.all_aligned,
            "aligned": [a.to_dict() for a in self.aligned],
            "sim_only": list(self.sim_only),
            "live_only": list(self.live_only),
            "critical_path": {
                "ops": list(self.path_ops),
                **self.critical_path_delta(),
                "most_slipped": None
                if slipped is None
                else {
                    "op_id": slipped.op_id,
                    "slip_s": slipped.measured_start - slipped.predicted_start,
                },
            },
        }


def diff_traces(
    sim_trace: TelemetryTrace,
    live_trace: TelemetryTrace,
    *,
    path_ops: tuple[str, ...] = (),
) -> TraceDiff:
    """Join two traces on op identity.

    ``sim_trace`` supplies the predictions (usually :data:`CLOCK_SIM`),
    ``live_trace`` the measurements (usually :data:`CLOCK_WALL`); the
    clocks are deliberately *not* required to differ, so two live runs
    (or two sim variants) can be diffed the same way.
    """
    sim_ops = sim_trace.op_spans()
    live_ops = live_trace.op_spans()
    aligned = []
    for op_id in sorted(sim_ops.keys() & live_ops.keys()):
        s, m = sim_ops[op_id], live_ops[op_id]
        aligned.append(
            OpAlignment(
                op_id=op_id,
                kind=s.attrs.get("kind", m.attrs.get("kind", "")),
                predicted_s=s.duration,
                measured_s=m.duration,
                predicted_start=s.start,
                measured_start=m.start,
                cross_rack=bool(s.attrs.get("cross_rack", m.attrs.get("cross_rack", False))),
                nbytes=float(s.attrs.get("nbytes", m.attrs.get("nbytes", 0.0))),
                op=m.attrs.get("op", s.attrs.get("op", op_id)),
                slices=int(m.attrs.get("slices", s.attrs.get("slices", 1))),
            )
        )
    return TraceDiff(
        aligned=tuple(aligned),
        sim_only=tuple(sorted(sim_ops.keys() - live_ops.keys())),
        live_only=tuple(sorted(live_ops.keys() - sim_ops.keys())),
        predicted_makespan=sim_trace.extent,
        measured_makespan=live_trace.extent,
        path_ops=tuple(path_ops),
    )


def diff_repair(outcome, live) -> TraceDiff:
    """Diff a simulated :class:`~repro.repair.RepairOutcome` against its live run.

    ``live`` is the :class:`~repro.live.LiveResult` of executing
    ``outcome.plan``.  Uses the live run's attached telemetry when it
    carries one; otherwise synthesizes op spans from
    ``LiveResult.timings`` (every live run records those), so the diff
    works even for runs made without a recorder.  The simulated critical
    path rides along for :meth:`TraceDiff.critical_path_delta`.
    """
    sim_trace = outcome.telemetry()
    live_trace = getattr(live, "telemetry", None)
    if live_trace is None:
        live_trace = live_trace_from_timings(live, outcome.plan)
    view = RunTrace.from_telemetry(sim_trace, outcome.cluster)
    path_ops = tuple(seg.job_id for seg in view.path)
    return diff_traces(sim_trace, live_trace, path_ops=path_ops)


def live_trace_from_timings(live, plan) -> TelemetryTrace:
    """Build a minimal wall-clock trace from ``LiveResult.timings``.

    The fallback path for live runs executed without a recorder: one op
    span per measured timing, tagged with the part's kind, endpoints and
    slice from ``plan`` when available.
    """
    parts = {part.op_id: part for part in plan.all_parts()} if plan is not None else {}
    spans = []
    for timing in live.timings.values():
        part = parts.get(timing.op_id)
        attrs = part.span_attrs if part is not None else {}
        spans.append(
            Span(
                name=timing.op_id,
                start=timing.start,
                end=timing.end,
                category=OP_CATEGORY,
                op_id=timing.op_id,
                attrs=attrs,
            )
        )
    return TelemetryTrace(
        clock=CLOCK_WALL,
        meta={"source": "live", "transport": getattr(live, "transport", "?")},
        spans=spans,
    )


def render_diff(diff: TraceDiff, top: int = 8) -> str:
    """Terminal rendering of a :class:`TraceDiff` (the ``rpr telemetry diff`` body)."""
    ops = diff.ops()
    lines = [
        "sim ↔ live trace diff — predicted {:.4f} s, measured {:.4f} s, "
        "ratio {:.3f}".format(
            diff.predicted_makespan, diff.measured_makespan, diff.makespan_ratio
        ),
        "ops: {} aligned, {} sim-only, {} live-only".format(
            len(ops), len(diff.sim_only), len(diff.live_only)
        )
        + (
            f" ({len(diff.aligned)} parts: a sliced op aligns slice by slice)"
            if len(diff.aligned) != len(ops)
            else ""
        ),
    ]
    if diff.sim_only:
        lines.append("  sim-only: " + ", ".join(diff.sim_only))
    if diff.live_only:
        lines.append("  live-only: " + ", ".join(diff.live_only))
    if diff.path_ops:
        delta = diff.critical_path_delta()
        lines.append(
            "critical path ({} ops): predicted {:.4f} s, measured {:.4f} s, "
            "delta {:+.4f} s".format(
                len(diff.path_ops),
                delta["path_predicted_s"],
                delta["path_measured_s"],
                delta["delta_s"],
            )
        )
        lines.append(
            "  waits between path parts: predicted {:.4f} s, measured {:.4f} s, "
            "delta {:+.4f} s".format(
                delta["path_predicted_wait_s"],
                delta["path_measured_wait_s"],
                delta["wait_delta_s"],
            )
        )
        slipped = diff.most_slipped()
        if slipped is not None:
            lines.append(
                "  furthest slip: {} started {:+.4f} s from its predicted start".format(
                    slipped.op_id, slipped.measured_start - slipped.predicted_start
                )
            )
    worst = diff.worst(top)
    if worst:
        lines.append("")
        lines.append(f"worst divergers (top {len(worst)}):")
        lines.extend(
            text_table(
                ["op", "kind", "slices", "pred_s", "meas_s", "ratio", "x-rack"],
                [
                    [
                        a.op_id,
                        a.kind,
                        a.slices,
                        f"{a.predicted_s:.4f}",
                        f"{a.measured_s:.4f}",
                        f"{a.ratio:.3f}",
                        "yes" if a.cross_rack else "",
                    ]
                    for a in worst
                ],
            )
        )
    return "\n".join(lines)
