"""Simulated repair: plan → event engine → time and traffic, faults and all.

The one entry every figure, benchmark and store prediction uses: plan a
repair with a scheme, compile it against the context's decode cost
model, run it on the discrete-event engine, and package the numbers the
paper reports.  Given a :class:`repro.sim.FaultPlan` the same call is
the degraded path — the schemes of the paper assume every helper
survives the whole repair; here, when a helper dies mid-gather, it

1. commits the *completed* prefix of the plan: the ops all of whose
   parts (engine jobs; a sliced op has one per slice) finished, a
   dependency-closed set (:meth:`~repro.repair.RepairPlan.ops_done`),
   each run whole — :func:`repro.repair.execute_plan` with ``ops=`` — on
   the symbolic compositions and, given a stripe, on the byte store,
2. drops everything the dead node held,
3. asks the scheme to re-plan via :meth:`RepairScheme.replan` with a
   :class:`~repro.repair.RepairSnapshot` of what survived — including
   already-delivered intermediates (:mod:`repro.repair.faults`), and
4. re-simulates under the remaining faults, up to ``max_attempts``.

Determinism: every step is a pure function of (plan, fault plan), so the
same seed reproduces the same degraded schedule bit-for-bit (golden
tests pin this).  See ``docs/FAULTS.md`` for the full model.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..cluster import BandwidthModel, Cluster
from ..rs import Stripe
from ..sim import FaultPlan, SimResult, SimulationEngine, telemetry_from_sim
from ..telemetry import RunTrace, TelemetryTrace
from .base import RepairContext, RepairScheme
from .executor import ExecutionResult, execute_plan, initial_store_for
from .faults import IrrecoverableError, _replan
from .plan import RepairPlan, block_key

__all__ = ["RepairOutcome", "simulate_repair"]


@dataclass(frozen=True)
class RepairOutcome:
    """Timing and traffic of one simulated repair, fault-free or degraded.

    Attributes
    ----------
    scheme:
        Name of the scheme that produced the plan.
    total_repair_time:
        Simulated makespan in seconds — the paper's "total repair time".
        Under faults, the attempt makespans summed: attempts are composed
        sequentially (failure detection and re-planning are assumed to
        take no simulated time, but no work overlaps a re-plan; a
        conservative accounting).
    cross_rack_bytes / intra_rack_bytes:
        Bytes moved across / below the aggregation switch by *completed*
        transfers of every attempt, including transfers whose payloads a
        failed attempt later wasted.
    cross_rack_blocks:
        Cross-rack traffic in block units (the paper's Fig. 7/10 y-axis).
    sims / plans:
        Per-attempt simulation results (each carrying its
        :class:`~repro.sim.FaultReport` when faults were injected) and
        plans; :attr:`sim` / :attr:`plan` are the final attempt's.
    cluster:
        Topology the repair ran on (kept so :meth:`trace` can attribute
        resources to racks without re-threading the context).
    retry_count / retried_bytes:
        Lost-transfer retries and the bytes their lost attempts carried.
    wasted_bytes:
        Wire work that did not contribute to the final repair: completed
        sends of failed attempts whose delivered payload no later plan
        consumed, plus the finished slices of sends that did not finish
        whole (the commit drops them), plus lost-attempt bytes, plus the
        pro-rata bytes of transfers aborted mid-flight.
    reused_payloads:
        Intermediate payload keys minted by a failed attempt and consumed
        by the final plan — RPR's reusable partial sums.  Empty when the
        re-plan started from scratch.
    dead_nodes:
        Node → absolute death time on the concatenated attempt timeline.
    execution / recovered:
        Byte-level oracle results for the final plan when a stripe was
        supplied: the executor ledgers and the reconstructed payloads
        (``None`` in symbolic-only runs).
    """

    scheme: str
    total_repair_time: float
    cross_rack_bytes: float
    intra_rack_bytes: float
    cross_rack_blocks: float
    sims: tuple[SimResult, ...]
    plans: tuple[RepairPlan, ...]
    cluster: Cluster | None = None
    retry_count: int = 0
    retried_bytes: float = 0.0
    wasted_bytes: float = 0.0
    reused_payloads: tuple[str, ...] = ()
    dead_nodes: dict[int, float] = field(default_factory=dict)
    execution: ExecutionResult | None = None
    recovered: dict[int, np.ndarray] | None = None

    @property
    def sim(self) -> SimResult:
        """The final attempt's simulation result."""
        return self.sims[-1]

    @property
    def plan(self) -> RepairPlan:
        """The final attempt's plan — the one that completed the repair."""
        return self.plans[-1]

    @property
    def attempts(self) -> int:
        """Simulated attempts it took (1 = no re-plan was needed)."""
        return len(self.sims)

    @property
    def degraded(self) -> bool:
        """True when any fault actually altered the run."""
        return self.attempts > 1 or self.retry_count > 0 or bool(self.dead_nodes)

    def trace(self, attempt: int = -1) -> RunTrace:
        """Utilization view of one attempt (default: the final one).

        Each attempt is on its own clock (it restarts at t=0); aborted
        jobs appear as occupancy intervals and — when an abort set the
        makespan or released a critical resource — as critical-path
        segments flagged ``aborted``.  See :mod:`repro.telemetry.view`.
        """
        if self.cluster is None:
            raise ValueError("outcome has no cluster; build RunTrace.from_telemetry directly")
        return RunTrace.from_telemetry(
            telemetry_from_sim(self.sims[attempt], self.cluster), self.cluster
        )

    def telemetry(self) -> TelemetryTrace:
        """This repair in the unified span schema (see :mod:`repro.telemetry`).

        A re-planned repair stitches its attempts onto one sim-clock
        timeline: attempt ``i``'s spans/events are shifted by the summed
        makespans of the attempts before it (the same sequential
        composition ``total_repair_time`` uses) and tagged
        ``attempt=i+1``; fault counters accumulate across attempts.
        """
        if len(self.sims) == 1:
            return telemetry_from_sim(self.sim, self.cluster, meta={"scheme": self.scheme})
        combined: TelemetryTrace | None = None
        offset = 0.0
        for i, sim in enumerate(self.sims):
            part = telemetry_from_sim(
                sim,
                self.cluster,
                meta={"scheme": self.scheme, "attempts": self.attempts},
                offset=offset,
                attempt=i + 1,
            )
            combined = part if combined is None else combined.merged(part)
            offset += sim.makespan
        # Each attempt's shifted fault plan re-reports nodes that are
        # already dead, so the per-attempt sum over-counts; the outcome's
        # own ledger is authoritative.
        combined.counters["fault.deaths"] = float(len(self.dead_nodes))
        return combined

    def to_dict(self) -> dict:
        """JSON-serializable summary (payload bytes omitted)."""
        return {
            "scheme": self.scheme,
            "total_repair_time": self.total_repair_time,
            "attempts": self.attempts,
            "cross_rack_bytes": self.cross_rack_bytes,
            "intra_rack_bytes": self.intra_rack_bytes,
            "retry_count": self.retry_count,
            "retried_bytes": self.retried_bytes,
            "wasted_bytes": self.wasted_bytes,
            "reused_payloads": list(self.reused_payloads),
            "dead_nodes": {str(n): t for n, t in self.dead_nodes.items()},
            "recovered_blocks": (
                sorted(self.recovered) if self.recovered is not None else None
            ),
        }


def _consumed_at(plan: RepairPlan) -> set[tuple[str, int]]:
    """(payload key, node) pairs a plan reads: send sources + combine inputs."""
    return {(key, op.owner) for op in plan.ops.values() for key in op.reads}


def simulate_repair(
    scheme: RepairScheme,
    ctx: RepairContext,
    bandwidth: BandwidthModel | None = None,
    faults: FaultPlan | None = None,
    *,
    stripe: Stripe | None = None,
    max_attempts: int = 3,
) -> RepairOutcome:
    """Plan ``ctx``'s repair with ``scheme`` and simulate it under ``faults``.

    The plan is compiled with the context's decode cost model; transfer
    durations come from ``bandwidth`` over the context's cluster, by
    default the context's own ``link_model``.  An
    attempt that completes — always, without a fault plan; possibly
    after lost-transfer retries — is the outcome.  If a node death
    aborted part of it, the completed ops are committed, the dead nodes'
    payloads dropped, and the scheme re-plans against what survived
    (module docstring); the next attempt runs under the same fault plan
    shifted by the elapsed time.  That bookkeeping starts at the first
    incomplete attempt, so a fault-free repair pays nothing for it.
    Every plan comes from ``ctx`` as given, link model included.  With a
    ``stripe``, the final plan is executed on the byte store so
    ``recovered`` holds the reconstructed payloads (the correctness
    oracle for degraded repairs).

    Raises
    ------
    IrrecoverableError
        When survivors drop below the decode threshold, a recovery rack
        runs out of live spares, or ``max_attempts`` is exhausted.
    ValueError
        With neither a ``bandwidth`` nor a context ``link_model``.
    """
    if max_attempts < 1:
        raise ValueError("max_attempts must be >= 1")
    if bandwidth is None:
        bandwidth = ctx.link_model
    if bandwidth is None:
        raise ValueError("no bandwidth model: pass one or give the context a link_model")
    engine = SimulationEngine(ctx.cluster, bandwidth)
    plan = scheme.plan(ctx)
    sims: list[SimResult] = []
    plans: list[RepairPlan] = []
    dead: dict[int, float] = {}
    offset = 0.0

    store = (
        initial_store_for(stripe, ctx.placement, ctx.failed_blocks)
        if stripe is not None
        else None
    )
    # Set up at the first incomplete attempt: sym is node -> key ->
    # composition over the data blocks, the symbolic twin of the store.
    sym: dict[int, dict[str, np.ndarray]] | None = None
    finished_per_attempt: list[set[str]] = []
    produced_earlier: set[str] = set()
    orphaned_bytes = 0

    while True:
        sim = engine.run(
            plan.to_job_graph(ctx.cost_model), faults.shifted(offset) if faults else None
        )
        sims.append(sim)
        plans.append(plan)
        report = sim.faults
        if report is not None:
            for node, when in report.dead_nodes.items():
                dead.setdefault(node, offset + when)
        offset += sim.makespan
        if report is None or report.complete:
            break
        if len(sims) == max_attempts:
            raise IrrecoverableError(
                f"repair of blocks {sorted(ctx.failed_blocks)} did not complete "
                f"within {max_attempts} attempts (dead nodes: {sorted(dead)})",
                failed_blocks=ctx.failed_blocks,
                attempt=len(sims),
            )

        if sym is None:
            sym = {}
            for block in range(ctx.code.width):
                if block not in ctx.failed_blocks:
                    node = ctx.placement.node_of(block)
                    sym.setdefault(node, {})[block_key(block)] = ctx.code.generator_row(block)

        # A timing alone is not delivery: an aborted job has one, and so
        # does a transfer whose lost attempt ran before its retry failed.
        finished_parts = set(sim.timings) - report.incomplete
        finished = plan.ops_done(finished_parts)
        finished_per_attempt.append(finished)
        # Finished slices of a send that did not finish whole moved bytes
        # the commit drops (an unsliced op is one part, so it has none).
        parts = plan.parts()
        orphaned_bytes += sum(
            part.hi - part.lo
            for op in plan.sends()
            if op.op_id not in finished
            for part in parts[op.op_id]
            if part.op_id in finished_parts
        )

        # Commit the completed ops — the same partial execution on
        # compositions and on bytes — then drop the dead nodes' state.
        for payloads in (sym, store) if store is not None else (sym,):
            execute_plan(plan, ctx.cluster, payloads, ops=finished)
            for node in report.dead_nodes:
                payloads.pop(node, None)
        produced_earlier.update(
            op.out_key for op in plan.combines() if op.op_id in finished
        )
        plan = _replan(scheme, ctx, plan, sym, dead, attempt=len(sims))

    # Accounting over the failed prefix attempts + the successful final one.
    reports = [s.faults for s in sims if s.faults is not None]
    retried_bytes = sum(r.retried_bytes for r in reports)
    wasted = retried_bytes + sum(r.aborted_bytes for r in reports) + orphaned_bytes
    for idx, finished in enumerate(finished_per_attempt):
        later_consumed: set[tuple[str, int]] = set()
        for later in plans[idx + 1 :]:
            later_consumed |= _consumed_at(later)
        for op in plans[idx].sends():
            if op.op_id in finished and (op.key, op.dst) not in later_consumed:
                wasted += plans[idx].block_size
    reused = (
        tuple(sorted({key for key, _ in _consumed_at(plan)} & produced_earlier))
        if produced_earlier
        else ()
    )

    execution = execute_plan(plan, ctx.cluster, store) if store is not None else None

    cross = sum(s.cross_rack_bytes() for s in sims)
    return RepairOutcome(
        scheme=scheme.name,
        total_repair_time=offset,
        cross_rack_bytes=cross,
        intra_rack_bytes=sum(s.intra_rack_bytes() for s in sims),
        cross_rack_blocks=cross / ctx.block_size,
        sims=tuple(sims),
        plans=tuple(plans),
        cluster=ctx.cluster,
        retry_count=sum(r.retry_count for r in reports),
        retried_bytes=retried_bytes,
        wasted_bytes=wasted,
        reused_payloads=reused,
        dead_nodes=dead,
        execution=execution,
        recovered=execution.recovered if execution is not None else None,
    )
