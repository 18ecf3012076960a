"""Degraded repair: re-planning around helpers that die mid-repair.

This is the robustness layer the paper's evaluation skips: its schemes
assume every helper survives the whole repair.  Here a repair runs under
an injected :class:`repro.sim.FaultPlan`; when a helper node dies
mid-gather the orchestrator

1. replays the *completed* prefix of the plan on the byte store: the
   ops all of whose parts (engine jobs; a sliced op has one per slice)
   finished, a dependency-closed set
   (:meth:`~repro.repair.RepairPlan.ops_done`), each run whole —
   :func:`repro.repair.execute_plan` with ``ops=``,
2. drops everything the dead node held,
3. asks the scheme to re-plan via :meth:`RepairScheme.replan` with a
   :class:`RepairSnapshot` of what survived — including
   already-delivered intermediates, and
4. re-simulates under the remaining faults, up to ``max_attempts``.

Traditional and CAR re-plan from scratch with fresh helper selection
(their intermediate state is a half-summed buffer on a node that may be
gone).  RPR's partial sums are first-class reusable state: its ``replan``
routes through :func:`plan_degraded_gather`, which treats every surviving
payload — raw block or delivered intermediate — as a known GF(256)
linear combination of the data blocks and solves for coefficients that
re-express the failed block, preferring payloads already at the recovery
node, then delivered partial sums, then raw blocks.  A repair below the
decode threshold (no payload combination spans the failed block) raises
the typed :class:`IrrecoverableError`.

Determinism: every step is a pure function of (plan, fault plan), so the
same seed reproduces the same degraded schedule bit-for-bit (golden
tests pin this).  See ``docs/FAULTS.md`` for the full model.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from ..cluster import BandwidthModel, Cluster
from ..gf import GFTables, get_tables, gf_mul
from ..gf.matrix import mat_solve
from ..rs import InsufficientHelpersError, Stripe
from ..sim import (
    FaultPlan,
    FaultReport,
    NodeDeath,
    SimResult,
    SimulationEngine,
    Straggler,
    random_fault_plan,
    telemetry_from_sim,
)
from ..telemetry import RunTrace, TelemetryTrace
from .base import RepairContext, RepairPlanningError, RepairScheme, recovery_targets
from .executor import ExecutionResult, execute_plan, initial_store_for, run_op
from .plan import RepairPlan, block_key
from .simulate import simulate_repair

__all__ = [
    "DegradedRepairOutcome",
    "IrrecoverableError",
    "RepairSnapshot",
    "payload_compositions",
    "plan_degraded_gather",
    "simulate_fault_scenario",
    "simulate_repair_with_faults",
]


class IrrecoverableError(RuntimeError):
    """The repair cannot complete: survivors are below the decode threshold.

    Raised when no GF-linear combination of the payloads still reachable
    (raw blocks on live nodes plus delivered intermediates) expresses a
    failed block, when a recovery rack has no live spare left, or when
    the bounded retry budget is exhausted.

    Attributes
    ----------
    failed_blocks / attempt:
        What was being repaired and on which attempt the repair gave up.
    """

    def __init__(
        self, message: str, failed_blocks: tuple[int, ...] = (), attempt: int = 0
    ) -> None:
        super().__init__(message)
        self.failed_blocks = tuple(failed_blocks)
        self.attempt = attempt


@dataclass(frozen=True)
class RepairSnapshot:
    """Surviving payload state after a fault, handed to ``replan``.

    Attributes
    ----------
    payloads:
        Live node → payload key → *composition*: the payload's GF(256)
        coefficient vector over the ``n`` data blocks.  Raw block ``i``
        has composition ``code.generator_row(i)``; a delivered
        intermediate has the combination its combine chain computed.
        This is symbolic state — schemes can re-plan without touching
        bytes, and the byte-level mirror stays a separate concern.
    dead_nodes:
        Every node that has died so far (cumulative across attempts).
    attempt:
        1-based index of the re-plan this snapshot feeds (used to
        namespace re-planned payload keys).
    """

    payloads: dict[int, dict[str, np.ndarray]]
    dead_nodes: frozenset[int]
    attempt: int

    def intermediates(self) -> list[str]:
        """Keys of surviving non-raw payloads (delivered partial sums)."""
        return sorted(
            {
                key
                for keys in self.payloads.values()
                for key in keys
                if not key.startswith("block:")
            }
        )


def payload_compositions(
    plan: RepairPlan,
    code,
    base: dict[str, np.ndarray] | None = None,
    tables: GFTables | None = None,
) -> dict[str, np.ndarray]:
    """Composition of every payload key a plan touches, in the data basis.

    The plan run symbolically: raw ``block:i`` keys start from
    ``code.generator_row(i)`` and every op is applied, in the plan's
    topological order, to compositions instead of bytes — a composition
    is a length-``n`` uint8 vector, so a combine is the same GF-linear
    combination its byte run performs.  ``base`` supplies compositions
    of keys minted by earlier plans (re-planned repairs consume
    intermediates across attempts).

    Raises
    ------
    ExecutionError
        If an op reads a key whose composition is unknown.
    """
    t = tables or get_tables()
    comps: dict[str, np.ndarray] = dict(base) if base else {}
    for op in plan.ops.values():
        for key in op.reads:
            if key.startswith("block:") and key not in comps:
                comps[key] = code.generator_row(int(key.split(":", 1)[1]))
    for oid in plan.topo_order():
        op = plan.ops[oid]
        comps[op.writes[1]] = run_op(plan, op, comps, t)
    return comps


def plan_degraded_gather(
    ctx: RepairContext,
    snapshot: RepairSnapshot,
    prefix: str = "degraded",
    tables: GFTables | None = None,
) -> RepairPlan:
    """Re-plan a repair from surviving payloads via a GF(256) solve.

    For each failed block the planner greedily selects a minimal
    rank-increasing set of surviving payloads whose span contains the
    block's generator row, ordered by cost: payloads already resident on
    the recovery node, then delivered intermediates (heaviest — most
    blocks summed — first, since each one replaces several raw sends),
    then raw blocks.  :func:`repro.gf.matrix.mat_solve` pivots columns in
    that order, so the returned coefficients are biased toward reusing
    what earlier attempts already moved.  Selected payloads are shipped
    straight to the recovery node and combined there — the degraded path
    favours completing the repair over re-building the full pipeline.

    Raises
    ------
    IrrecoverableError
        When the surviving payloads do not span a failed block.
    """
    t = tables or get_tables()
    code = ctx.code
    targets = recovery_targets(ctx)
    plan = RepairPlan(block_size=ctx.block_size)
    attempt = snapshot.attempt
    sent: dict[tuple[str, int], str] = {}

    for failed in ctx.failed_blocks:
        target = targets[failed]
        want = code.generator_row(failed)

        # One location per key: prefer a copy already on the target, else
        # the lowest live node id (deterministic).
        locations: dict[str, tuple[int, np.ndarray]] = {}
        for node in sorted(snapshot.payloads):
            for key, comp in snapshot.payloads[node].items():
                held = locations.get(key)
                if held is None or (node == target and held[0] != target):
                    locations[key] = (node, comp)

        def order_key(item):
            key, (node, comp) = item
            return (
                0 if node == target else 1,
                1 if key.startswith("block:") else 0,
                -int(np.count_nonzero(comp)),
                key,
            )

        candidates = sorted(locations.items(), key=order_key)

        # Greedy rank-increasing selection until `want` is in the span.
        echelon: dict[int, np.ndarray] = {}  # pivot index -> normalised row
        selected: list[tuple[str, int, np.ndarray]] = []
        solution: np.ndarray | None = None
        for key, (node, comp) in candidates:
            vec = comp.copy()
            for pivot, row in echelon.items():
                if vec[pivot]:
                    vec ^= gf_mul(int(vec[pivot]), row, t)
            nz = np.nonzero(vec)[0]
            if nz.size == 0:
                continue  # linearly dependent on the selection so far
            pivot = int(nz[0])
            lead = int(vec[pivot])
            if lead != 1:
                inv = int(mat_solve(
                    np.array([[lead]], dtype=np.uint8),
                    np.array([1], dtype=np.uint8),
                    t,
                )[0])
                vec = gf_mul(inv, vec, t)
            echelon[pivot] = vec
            selected.append((key, node, comp))
            a = np.stack([c for _, _, c in selected], axis=1)
            solution = mat_solve(a, want, t)
            if solution is not None:
                break
        if solution is None:
            raise IrrecoverableError(
                f"block {failed} is below the decode threshold: the "
                f"{len(locations)} surviving payloads do not span it "
                f"(dead nodes: {sorted(snapshot.dead_nodes)})",
                failed_blocks=ctx.failed_blocks,
                attempt=attempt,
            )

        terms: list[tuple[str, int]] = []
        deps: list[str] = []
        for (key, node, _), coeff in zip(selected, solution):
            if coeff == 0:
                continue
            terms.append((key, int(coeff)))
            if node == target:
                continue
            send_key = (key, target)
            if send_key not in sent:
                sent[send_key] = plan.add_send(
                    f"{prefix}:a{attempt}:send:{key}-to-n{target}",
                    src=node,
                    dst=target,
                    key=key,
                )
            deps.append(sent[send_key])
        out_key = f"{prefix}:a{attempt}:recovered:{failed}"
        plan.add_combine(
            f"{prefix}:a{attempt}:final:{failed}",
            node=target,
            out_key=out_key,
            terms=terms,
            with_matrix_build=True,
            deps=deps,
        )
        plan.mark_output(failed, target, out_key)
    return plan


@dataclass
class DegradedRepairOutcome:
    """Result of one repair run under fault injection.

    Attributes
    ----------
    scheme / attempts:
        Scheme name and how many simulated attempts it took (1 = no
        re-plan was needed).
    total_repair_time:
        Degraded makespan: the attempt makespans summed — attempts are
        composed sequentially (failure detection and re-planning are
        assumed to take no simulated time, but no work overlaps a
        re-plan; a conservative accounting).
    cross_rack_bytes / intra_rack_bytes:
        Bytes moved by *completed* transfers across all attempts,
        including transfers whose payloads were later wasted.
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
    sims / plans:
        Per-attempt simulation results (each carrying its
        :class:`~repro.sim.FaultReport`) and plans.
    execution / recovered:
        Byte-level oracle results for the final plan when a stripe was
        supplied: the executor ledgers and the reconstructed payloads
        (``None`` in symbolic-only runs).
    """

    scheme: str
    total_repair_time: float
    attempts: int
    cross_rack_bytes: float
    intra_rack_bytes: float
    retry_count: int
    retried_bytes: float
    wasted_bytes: float
    reused_payloads: tuple[str, ...]
    dead_nodes: dict[int, float]
    sims: list[SimResult] = field(default_factory=list)
    plans: list[RepairPlan] = field(default_factory=list)
    cluster: Cluster | None = None
    execution: ExecutionResult | None = None
    recovered: dict[int, np.ndarray] | None = None

    @property
    def degraded(self) -> bool:
        """True when any fault actually altered the run."""
        return self.attempts > 1 or self.retry_count > 0 or bool(self.dead_nodes)

    def trace(self, attempt: int = -1) -> RunTrace:
        """Observability view of one attempt (default: the final one).

        The returned :class:`~repro.telemetry.RunTrace` covers that
        attempt's schedule on its own clock (each attempt restarts at
        t=0); aborted jobs appear as occupancy intervals and — when an
        abort set the makespan or released a critical resource — as
        critical-path segments flagged ``aborted``.
        """
        if self.cluster is None:
            raise ValueError(
                "outcome has no cluster; build RunTrace.from_telemetry directly"
            )
        return RunTrace.from_telemetry(
            telemetry_from_sim(self.sims[attempt], self.cluster), self.cluster
        )

    def telemetry(self) -> TelemetryTrace:
        """All attempts stitched onto one sim-clock telemetry timeline.

        Attempt ``i``'s spans/events are shifted by the summed makespans
        of the attempts before it (the same sequential composition
        ``total_repair_time`` uses) and tagged ``attempt=i+1``; fault
        counters accumulate across attempts.
        """
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
        if combined is None:
            combined = TelemetryTrace(
                clock="sim", meta={"scheme": self.scheme, "attempts": 0}
            )
        elif self.dead_nodes:
            # Each attempt's shifted fault plan re-reports nodes that are
            # already dead, so the per-attempt sum over-counts; the
            # outcome's own ledger is authoritative.
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


def _retarget(
    plan: RepairPlan, ctx: RepairContext, dead: set[int], attempt: int
) -> tuple[tuple[int, int], ...]:
    """Recovery targets for a re-plan: keep live ones, replace dead ones.

    Replacement policy matches :func:`repro.repair.base.recovery_targets`:
    the first live spare in the failed block's own rack.
    """
    override: list[tuple[int, int]] = []
    taken = {node for _, (node, _) in plan.outputs.items() if node not in dead}
    for block, (node, _) in sorted(plan.outputs.items()):
        if node not in dead:
            override.append((block, node))
            continue
        rack = ctx.rack_of_block(block)
        spares = [
            spare
            for spare in ctx.placement.spare_nodes_in_rack(ctx.cluster, rack)
            if spare not in dead and spare not in taken
        ]
        if not spares:
            raise IrrecoverableError(
                f"rack {rack} has no live spare left to host recovered "
                f"block {block} (dead nodes: {sorted(dead)})",
                failed_blocks=ctx.failed_blocks,
                attempt=attempt,
            )
        override.append((block, spares[0]))
        taken.add(spares[0])
    return tuple(override)


def simulate_repair_with_faults(
    scheme: RepairScheme,
    ctx: RepairContext,
    bandwidth: BandwidthModel,
    faults: FaultPlan | None,
    stripe: Stripe | None = None,
    max_attempts: int = 3,
    tables: GFTables | None = None,
) -> DegradedRepairOutcome:
    """Run one repair under fault injection, re-planning as helpers die.

    Simulates the scheme's plan on the event engine with ``faults``
    injected.  If the attempt completes (possibly after lost-transfer
    retries), done.  If a node death aborted part of it, the ops whose
    every part finished are committed whole — symbolically always, and
    on real bytes when ``stripe`` is given — the dead node's payloads
    are dropped, and the scheme re-plans via :meth:`RepairScheme.replan`
    against the surviving state; the next attempt runs under the same
    fault plan shifted by the elapsed time.  Every plan comes from
    ``ctx`` as given, link model included, so the first attempt is the
    plan :func:`simulate_repair` times.  With a stripe, the final plan is
    executed on the byte store so ``recovered`` holds the reconstructed
    payloads (the correctness oracle for degraded repairs).

    Raises
    ------
    IrrecoverableError
        When survivors drop below the decode threshold, a recovery rack
        runs out of live spares, or ``max_attempts`` is exhausted.
    """
    if max_attempts < 1:
        raise ValueError("max_attempts must be >= 1")
    t = tables or get_tables()
    code = ctx.code
    engine = SimulationEngine(ctx.cluster, bandwidth)

    # Symbolic store: node -> key -> composition over the data blocks.
    sym: dict[int, dict[str, np.ndarray]] = {}
    failed_set = set(ctx.failed_blocks)
    for block in range(code.width):
        if block in failed_set:
            continue
        node = ctx.placement.node_of(block)
        sym.setdefault(node, {})[block_key(block)] = code.generator_row(block)
    store = (
        initial_store_for(stripe, ctx.placement, ctx.failed_blocks)
        if stripe is not None
        else None
    )

    dead: dict[int, float] = {}
    produced_earlier: set[str] = set()
    sims: list[SimResult] = []
    plans: list[RepairPlan] = []
    finished_per_attempt: list[set[str]] = []
    orphaned_bytes = 0
    offset = 0.0
    current_ctx = ctx
    plan = scheme.plan(ctx)
    success = False

    for attempt in range(max_attempts):
        graph = plan.to_job_graph(current_ctx.cost_model)
        shifted = faults.shifted(offset) if faults else None
        sim = engine.run(graph, shifted)
        report = sim.faults if sim.faults is not None else FaultReport()
        sims.append(sim)
        plans.append(plan)

        # A timing alone is not delivery: an aborted job has one, and so
        # does a transfer whose lost attempt ran before its retry failed.
        finished_parts = set(sim.timings) - report.incomplete
        finished = plan.ops_done(finished_parts)
        finished_per_attempt.append(finished)
        for node, when in report.dead_nodes.items():
            if node not in dead:
                dead[node] = offset + when
        offset += sim.makespan

        if report.complete:
            success = True
            break

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
        execute_plan(plan, ctx.cluster, sym, tables=t, ops=finished)
        if store is not None:
            execute_plan(plan, ctx.cluster, store, tables=t, ops=finished)
        for node in report.dead_nodes:
            sym.pop(node, None)
            if store is not None:
                store.pop(node, None)
        produced_earlier.update(
            op.out_key for op in plan.combines() if op.op_id in finished
        )

        if attempt + 1 >= max_attempts:
            break

        # Re-plan against the surviving world.
        unavailable = tuple(
            sorted(
                block
                for block in range(code.width)
                if block not in failed_set
                and ctx.placement.node_of(block) in dead
            )
        )
        override = _retarget(plan, ctx, set(dead), attempt + 1)
        current_ctx = replace(
            ctx, unavailable_blocks=unavailable, recovery_override=override
        )
        snapshot = RepairSnapshot(
            payloads={node: dict(keys) for node, keys in sym.items()},
            dead_nodes=frozenset(dead),
            attempt=attempt + 1,
        )
        try:
            plan = scheme.replan(current_ctx, snapshot)
        except (InsufficientHelpersError, RepairPlanningError) as exc:
            raise IrrecoverableError(
                f"re-planning failed after node deaths {sorted(dead)}: {exc}",
                failed_blocks=ctx.failed_blocks,
                attempt=attempt + 1,
            ) from exc

    if not success:
        raise IrrecoverableError(
            f"repair of blocks {sorted(ctx.failed_blocks)} did not complete "
            f"within {max_attempts} attempts (dead nodes: {sorted(dead)})",
            failed_blocks=ctx.failed_blocks,
            attempt=len(sims),
        )

    # Accounting over the failed prefix attempts + the successful final one.
    final_plan = plans[-1]
    consumed_keys = {key for key, _ in _consumed_at(final_plan)}
    reused = tuple(sorted(consumed_keys & produced_earlier))
    retried_bytes = sum(
        s.faults.retried_bytes for s in sims if s.faults is not None
    )
    retry_count = sum(s.faults.retry_count for s in sims if s.faults is not None)
    aborted_bytes = sum(
        s.faults.aborted_bytes for s in sims if s.faults is not None
    )
    wasted = retried_bytes + aborted_bytes + orphaned_bytes
    for idx in range(len(plans) - 1):
        later_consumed: set[tuple[str, int]] = set()
        for later in plans[idx + 1 :]:
            later_consumed |= _consumed_at(later)
        for op in plans[idx].sends():
            if (
                op.op_id in finished_per_attempt[idx]
                and (op.key, op.dst) not in later_consumed
            ):
                wasted += plans[idx].block_size

    execution = None
    recovered = None
    if store is not None:
        execution = execute_plan(final_plan, ctx.cluster, store, tables=t)
        recovered = execution.recovered

    return DegradedRepairOutcome(
        scheme=scheme.name,
        total_repair_time=offset,
        attempts=len(sims),
        cross_rack_bytes=sum(s.cross_rack_bytes() for s in sims),
        intra_rack_bytes=sum(s.intra_rack_bytes() for s in sims),
        retry_count=retry_count,
        retried_bytes=retried_bytes,
        wasted_bytes=wasted,
        reused_payloads=reused,
        dead_nodes=dead,
        sims=sims,
        plans=plans,
        cluster=ctx.cluster,
        execution=execution,
        recovered=recovered,
    )


def simulate_fault_scenario(
    scheme: RepairScheme,
    ctx: RepairContext,
    bandwidth: BandwidthModel,
    *,
    kill=(),
    slow=(),
    loss_probability: float = 0.0,
    deaths: int = 0,
    seed: int = 0,
    stripe: Stripe | None = None,
    max_attempts: int = 3,
) -> tuple[float, DegradedRepairOutcome]:
    """One repair under faults anchored to its own fault-free makespan.

    ``kill`` is ``(node, fraction)`` pairs: the node dies at that
    fraction of the fault-free makespan of ``ctx`` itself, so a scenario
    means the same thing at any block size and on any testbed.  ``slow``
    is ``(node, slowdown factor)`` pairs.  With none of ``kill`` /
    ``slow`` / ``loss_probability`` given, ``deaths`` seeded random nodes
    die at uniform times inside the fault-free makespan, so every draw
    can strike while the repair is in flight.

    Returns ``(fault-free makespan, degraded outcome)``; raises what
    :func:`simulate_repair_with_faults` raises.
    """
    horizon = simulate_repair(scheme, ctx, bandwidth).total_repair_time
    if kill or slow or loss_probability:
        faults = FaultPlan(
            deaths=tuple(NodeDeath(node, fraction * horizon) for node, fraction in kill),
            stragglers=tuple(Straggler(node, factor) for node, factor in slow),
            loss_probability=loss_probability,
            seed=seed,
        )
    else:
        faults = random_fault_plan(
            ctx.cluster.node_ids(), seed=seed, deaths=deaths, death_window=(0.0, horizon)
        )
    return horizon, simulate_repair_with_faults(
        scheme, ctx, bandwidth, faults, stripe=stripe, max_attempts=max_attempts
    )
