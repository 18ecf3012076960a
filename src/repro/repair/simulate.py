"""Symbolic repair execution: plan → simulator → time and traffic.

The one-call entry the benchmarks use: plan a repair with a scheme,
compile it against the context's decode cost model, run it on the
discrete-event engine, and package the numbers the paper reports.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cluster import BandwidthModel, Cluster
from ..sim import SimResult, SimulationEngine, telemetry_from_sim
from ..telemetry import RunTrace, TelemetryTrace
from .base import RepairContext, RepairScheme
from .plan import RepairPlan

__all__ = ["RepairOutcome", "simulate_repair"]


@dataclass(frozen=True)
class RepairOutcome:
    """Timing and traffic of one simulated repair.

    Attributes
    ----------
    scheme:
        Name of the scheme that produced the plan.
    total_repair_time:
        Simulation makespan in seconds — the paper's "total repair time".
    cross_rack_bytes / intra_rack_bytes:
        Bytes moved across / below the aggregation switch.
    cross_rack_blocks:
        Cross-rack traffic in block units (the paper's Fig. 7/10 y-axis).
    sim:
        Full simulation result for deeper inspection.
    plan:
        The executed plan.
    cluster:
        Topology the repair ran on (kept so :meth:`trace` can attribute
        resources to racks without re-threading the context).
    """

    scheme: str
    total_repair_time: float
    cross_rack_bytes: float
    intra_rack_bytes: float
    cross_rack_blocks: float
    sim: SimResult
    plan: RepairPlan
    cluster: Cluster | None = None

    def trace(self) -> RunTrace:
        """Utilization view of this repair (see :mod:`repro.telemetry.view`)."""
        if self.cluster is None:
            raise ValueError("outcome has no cluster; build RunTrace.from_telemetry directly")
        return RunTrace.from_telemetry(self.telemetry(), self.cluster)

    def telemetry(self) -> TelemetryTrace:
        """This repair in the unified span schema (see :mod:`repro.telemetry`)."""
        return telemetry_from_sim(
            self.sim, self.cluster, meta={"scheme": self.scheme}
        )


def simulate_repair(
    scheme: RepairScheme, ctx: RepairContext, bandwidth: BandwidthModel
) -> RepairOutcome:
    """Plan ``ctx``'s repair with ``scheme`` and simulate it.

    The plan is compiled with the context's decode cost model; transfer
    durations come from ``bandwidth`` over the context's cluster.
    """
    plan = scheme.plan(ctx)
    graph = plan.to_job_graph(ctx.cost_model)
    engine = SimulationEngine(ctx.cluster, bandwidth)
    sim = engine.run(graph)
    return RepairOutcome(
        scheme=scheme.name,
        total_repair_time=sim.makespan,
        cross_rack_bytes=sim.cross_rack_bytes(),
        intra_rack_bytes=sim.intra_rack_bytes(),
        cross_rack_blocks=sim.cross_rack_bytes() / ctx.block_size,
        sim=sim,
        plan=plan,
        cluster=ctx.cluster,
    )
