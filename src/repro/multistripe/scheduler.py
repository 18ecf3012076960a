"""Multi-stripe repair scheduling: rebuild a whole node's worth of blocks.

Three orchestration axes, composable:

* **Scheme** — any single-stripe planner (traditional, CAR, RPR); the
  scheduler plans each affected stripe with it.
* **Mode** — ``parallel`` merges every stripe's plan into one job graph
  and lets the event engine pipeline repairs across stripes (port
  contention arbitrates); ``sequential`` chains stripes one after
  another (the naive rebuild loop real systems start from).
* **Balance** — when enabled, stripes are planned in order with a
  load-aware rack tiebreak: each stripe's helper selection prefers the
  remote racks that have pushed the fewest cross-rack bytes so far.
  This is the cross-stripe traffic balancing CAR introduces ([32] §6),
  generalised to any scheme whose selection is rack-aware.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..cluster import BandwidthModel
from ..metrics import TrafficLedger, imbalance_summary
from ..repair import RepairScheme
from ..repair.plan import RepairPlan
from ..rs import MB, DecodeCostModel, SIMICS_DECODE
from ..sim import JobGraph, SimResult, SimulationEngine
from .nodefail import NodeFailure, node_failure_contexts, rack_failure_contexts
from .store import StripeStore

__all__ = [
    "MultiStripeOutcome",
    "merge_plans",
    "repair_node_failure",
    "repair_rack_failure",
]

@dataclass(frozen=True)
class MultiStripeOutcome:
    """Result of one node-failure rebuild.

    Attributes
    ----------
    failure:
        What was lost.
    makespan:
        Wall-clock of the whole rebuild (seconds).
    total_cross_rack_bytes / total_intra_rack_bytes:
        Aggregate traffic over all stripes — exact ints, matching the
        byte-level executor's integral ledgers.
    rack_upload_imbalance:
        Summary of per-rack cross-rack upload bytes (max/mean ratio 1.0 =
        perfectly balanced) — CAR's objective.
    plans:
        The per-stripe plans, in stripe order (for byte-level verification).
    sim:
        The merged simulation result.
    """

    failure: NodeFailure
    makespan: float
    total_cross_rack_bytes: int
    total_intra_rack_bytes: int
    rack_upload_imbalance: dict
    plans: list[RepairPlan]
    sim: SimResult


def merge_plans(
    plans: list[RepairPlan],
    cost_model: DecodeCostModel,
    sequential: bool = False,
) -> JobGraph:
    """Merge per-stripe plans into one simulator job graph.

    Op ids are namespaced ``s<i>:``.  With ``sequential=True`` every root
    job of stripe ``i+1`` additionally depends on stripe ``i``'s terminal
    jobs, forcing one-at-a-time rebuild.  A plan compiles as its
    :meth:`~repro.repair.RepairPlan.all_parts`, like a single plan's.
    """
    graph = JobGraph()
    previous_terminals: list[str] = []
    for idx, plan in enumerate(plans):
        prefix = f"s{idx}:"
        parts = plan.all_parts()
        depended_on = {dep for part in parts for dep in part.deps}
        terminals = [
            f"{prefix}{part.op_id}" for part in parts if part.op_id not in depended_on
        ]
        for part in parts:
            chained = sequential and not part.deps
            graph.add(
                part.to_job(
                    plan.block_size,
                    cost_model,
                    prefix=prefix,
                    extra_deps=previous_terminals if chained else (),
                )
            )
        previous_terminals = terminals
    return graph


def repair_node_failure(
    store: StripeStore,
    failed_node: int,
    scheme: RepairScheme,
    bandwidth: BandwidthModel,
    mode: str = "parallel",
    rebuild: str = "replacement",
    balance: bool = False,
    block_size: int = 256 * MB,
    cost_model: DecodeCostModel = SIMICS_DECODE,
) -> MultiStripeOutcome:
    """Rebuild everything ``failed_node`` held, stripes in store order.

    Parameters
    ----------
    mode:
        ``"parallel"`` (pipelined across stripes) or ``"sequential"``.
    rebuild:
        ``"replacement"`` (all blocks onto one spare node) or
        ``"scatter"`` (per-stripe spares) — see
        :func:`repro.multistripe.nodefail.node_failure_contexts`.
    balance:
        Enable the CAR-style load-aware rack tiebreak across stripes.
    """
    if mode not in ("parallel", "sequential"):
        raise ValueError(f"unknown mode {mode!r}")
    failure, contexts = node_failure_contexts(
        store, failed_node, mode=rebuild, block_size=block_size, cost_model=cost_model
    )
    return _execute_contexts(
        store, failure, contexts, scheme, bandwidth, mode, balance, cost_model
    )


def repair_rack_failure(
    store: StripeStore,
    failed_rack: int,
    scheme: RepairScheme,
    bandwidth: BandwidthModel,
    mode: str = "parallel",
    balance: bool = False,
    block_size: int = 256 * MB,
    cost_model: DecodeCostModel = SIMICS_DECODE,
) -> MultiStripeOutcome:
    """Rebuild everything a whole rack held (the §4.3 worst case at
    store scale).

    Each resident stripe loses up to ``k`` blocks; rebuilt blocks scatter
    over the surviving racks.  Orchestration options are as in
    :func:`repair_node_failure`.
    """
    if mode not in ("parallel", "sequential"):
        raise ValueError(f"unknown mode {mode!r}")
    failure, contexts = rack_failure_contexts(
        store, failed_rack, block_size=block_size, cost_model=cost_model
    )
    return _execute_contexts(
        store, failure, contexts, scheme, bandwidth, mode, balance, cost_model
    )


def _execute_contexts(
    store: StripeStore,
    failure: NodeFailure,
    contexts,
    scheme: RepairScheme,
    bandwidth: BandwidthModel,
    mode: str,
    balance: bool,
    cost_model: DecodeCostModel,
) -> MultiStripeOutcome:
    plans: list[RepairPlan] = []
    cumulative: dict[int, int] = {}
    for ctx in contexts:
        if balance:
            order = tuple(
                sorted(
                    store.cluster.rack_ids(),
                    key=lambda r: (cumulative.get(r, 0), r),
                )
            )
            ctx = replace(ctx, rack_tiebreak=order)
        plan = scheme.plan(ctx)
        plans.append(plan)
        pushed = plan.traffic(store.cluster).cross_uploaded_by_rack
        for rack, nbytes in pushed.items():
            cumulative[rack] = cumulative.get(rack, 0) + nbytes

    if not plans:
        empty = SimResult(makespan=0.0, timings={}, events=[])
        return MultiStripeOutcome(
            failure=failure,
            makespan=0.0,
            total_cross_rack_bytes=0,
            total_intra_rack_bytes=0,
            rack_upload_imbalance=imbalance_summary({}),
            plans=[],
            sim=empty,
        )

    graph = merge_plans(plans, cost_model, sequential=(mode == "sequential"))
    engine = SimulationEngine(store.cluster, bandwidth)
    sim = engine.run(graph)
    ledger = TrafficLedger.from_sim(sim, store.cluster)
    # Balance is judged over every rack, including those that pushed nothing.
    uploads = {rack: 0 for rack in store.cluster.rack_ids()}
    uploads.update(ledger.cross_uploaded_by_rack)
    return MultiStripeOutcome(
        failure=failure,
        makespan=sim.makespan,
        total_cross_rack_bytes=ledger.cross_rack_bytes,
        total_intra_rack_bytes=ledger.intra_rack_bytes,
        rack_upload_imbalance=imbalance_summary(uploads),
        plans=plans,
        sim=sim,
    )
