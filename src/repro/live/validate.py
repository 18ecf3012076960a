"""Cross-validation: the live runtime vs the discrete-event simulator.

The simulator predicts; the live runtime measures.  This module runs the
*same scenario* — same code, placement, failure set, bandwidth model and
plan objects — through both and reports, per scheme:

* **byte oracle** — the live runtime's recovered payloads must equal the
  lost originals bit for bit (the correctness half);
* **measured vs predicted makespan** — the live wall clock against the
  simulated makespan, as a ratio (the calibration half, the CR-SIM-style
  trust argument: a simulator is only believed once measurements agree).

Scenarios are scaled down from the paper's 256 MB / 1 Gb/s testbed to
block sizes and rates where a repair takes tenths of a second, keeping
the *shape* of the schedule (serialisation on ports, pipelined rounds)
while making the harness runnable in CI.  The acceptance bar is the
scheme *ordering*: wherever the simulator predicts one scheme faster
than another by more than a tolerance, the measured makespans must
agree (RPR < CAR < traditional on single failures).

The validation knows the links it shapes, so it hands them to the
planner as the context's link model: RPR rows may therefore run the
slice-pipelined plan where the simulator says it beats the paper's
tree, and each row reports what was chosen (``slices``, ``gather``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..cluster import BandwidthModel, HierarchicalBandwidth
from ..experiments import ExperimentEnv, build_simics_environment, context_for
from ..repair import SCHEMES, RepairContext, initial_store_for, simulate_repair
from ..telemetry import (
    CLOCK_WALL,
    TelemetryRecorder,
    TelemetryTrace,
    TraceDiff,
    diff_repair,
)
from ..workloads import encoded_stripe
from .runtime import LiveResult, run_plan_live_sync

__all__ = [
    "DEFAULT_LIVE_BANDWIDTH",
    "DEFAULT_LIVE_BLOCK",
    "LiveSchemeReport",
    "LiveValidationReport",
    "StoreRepairAudit",
    "audit_store_repairs",
    "live_context",
    "live_environment",
    "run_live_validation",
]

#: Scaled-down testbed rates: the paper's 10:1 intra/cross ratio at
#: speeds where one cross-rack block transfer takes ~80 ms (64 KiB
#: blocks), so full repairs finish in well under a second but stay far
#: above event-loop jitter.
DEFAULT_LIVE_BANDWIDTH = HierarchicalBandwidth(intra=8e6, cross=8e5)

#: Default live block size (bytes).
DEFAULT_LIVE_BLOCK = 64 * 1024


@dataclass(frozen=True)
class LiveSchemeReport:
    """One scheme's cross-validation row.

    ``diff`` upgrades the row from aggregate calibration to per-op
    attribution: when the validation ran with ``telemetry=True`` it
    holds the :class:`~repro.telemetry.TraceDiff` aligning every sim op
    span against its measured counterpart (so a drifted ``ratio`` can be
    pinned to the transfer or port claim that caused it), and
    ``sim_trace`` / ``live_trace`` hold the two full traces the diff was
    taken from — what ``rpr telemetry export`` and the bench's
    ``--trace-out`` write, so neither runs the plan a second time.

    ``slices`` is the plan's largest slice count (1 = whole blocks) and
    ``gather`` the shape of its cross-rack stage as the planner chose
    it: ``"chain"`` for a slice-pipelined plan (RPR's land-and-fold
    gather), ``"tree"`` for the scheme's whole-block gather.
    """

    scheme: str
    predicted_s: float
    measured_s: float
    bytes_ok: bool
    ops: int
    sends: int
    combines: int
    cross_rack_bytes: int
    sim_cross_rack_bytes: int
    diff: TraceDiff | None = None
    slices: int = 1
    sim_trace: TelemetryTrace | None = None
    live_trace: TelemetryTrace | None = None

    @property
    def gather(self) -> str:
        return "chain" if self.slices > 1 else "tree"

    @property
    def ratio(self) -> float:
        """Measured / predicted makespan (1.0 = perfect calibration)."""
        return self.measured_s / self.predicted_s if self.predicted_s > 0 else float("inf")

    def to_dict(self) -> dict:
        return {
            "scheme": self.scheme,
            "predicted_s": self.predicted_s,
            "measured_s": self.measured_s,
            "ratio": self.ratio,
            "bytes_ok": self.bytes_ok,
            "ops": self.ops,
            "sends": self.sends,
            "combines": self.combines,
            "cross_rack_bytes": self.cross_rack_bytes,
            "sim_cross_rack_bytes": self.sim_cross_rack_bytes,
            "slices": self.slices,
            "gather": self.gather,
            "diff": self.diff.to_dict() if self.diff is not None else None,
        }


@dataclass(frozen=True)
class LiveValidationReport:
    """Cross-validation verdict for one scenario across schemes."""

    n: int
    k: int
    failed: tuple[int, ...]
    block_size: int
    transport: str
    rows: tuple[LiveSchemeReport, ...]

    @property
    def all_bytes_ok(self) -> bool:
        return all(row.bytes_ok for row in self.rows)

    def ordering_ok(self) -> bool:
        """Do measured makespans rank schemes like the predictions?

        Every pair of schemes whose *predicted* makespans differ by more
        than 5 % must be measured in the predicted order.  A pair the
        simulator puts closer than that is a tie, and a tie has no order
        a noisy clock could contradict (the rule of ``benchmarks/e2e``'s
        ``check_ordering``).
        """
        return all(
            slow.measured_s > fast.measured_s
            for fast in self.rows
            for slow in self.rows
            if slow.predicted_s > fast.predicted_s * 1.05
        )

    def to_dict(self) -> dict:
        return {
            "code": [self.n, self.k],
            "failed": list(self.failed),
            "block_size": self.block_size,
            "transport": self.transport,
            "all_bytes_ok": self.all_bytes_ok,
            "ordering_ok": self.ordering_ok(),
            "schemes": [row.to_dict() for row in self.rows],
        }


@dataclass(frozen=True)
class StoreRepairAudit:
    """Independent verdict over a store service's repair records.

    The coordinator stamps each record with its own ``ledger_match``;
    this audit re-derives the comparison from the raw ``measured`` and
    ``simulated`` ledgers so a coordinator bug cannot grade its own
    homework.  ``mismatches`` holds the offending records verbatim.
    """

    repairs: int
    ledger_ok: bool
    measured_cross_rack_bytes: int
    simulated_cross_rack_bytes: int
    mismatches: tuple[dict, ...]

    def to_dict(self) -> dict:
        return {
            "repairs": self.repairs,
            "ledger_ok": self.ledger_ok,
            "measured_cross_rack_bytes": self.measured_cross_rack_bytes,
            "simulated_cross_rack_bytes": self.simulated_cross_rack_bytes,
            "mismatches": list(self.mismatches),
        }


def audit_store_repairs(records) -> StoreRepairAudit:
    """Cross-check store repair records against the simulator's ledger.

    ``records`` is the ``repairs`` list from a coordinator ``status``
    reply (or :meth:`repro.store.StoreClient.status`): one dict per
    repaired stripe carrying the ``measured``
    :class:`~repro.metrics.TrafficLedger` dump (plus combine count)
    aggregated from daemon op reports and the ``simulated`` one for the
    same plan.  A record mismatches when the two differ anywhere — link
    class totals, per-node or per-rack bytes, send or combine counts —
    the byte-exactness contract the whole service is built around.
    """
    records = list(records)
    mismatches = tuple(
        rec for rec in records if rec["measured"] != rec["simulated"]
    )
    return StoreRepairAudit(
        repairs=len(records),
        ledger_ok=not mismatches,
        measured_cross_rack_bytes=sum(
            int(rec["measured"]["cross_rack_bytes"]) for rec in records
        ),
        simulated_cross_rack_bytes=sum(
            int(rec["simulated"]["cross_rack_bytes"]) for rec in records
        ),
        mismatches=mismatches,
    )


def live_environment(
    n: int,
    k: int,
    *,
    block_size: int = DEFAULT_LIVE_BLOCK,
    bandwidth: BandwidthModel | None = None,
    placement: str = "rpr",
) -> ExperimentEnv:
    """The Simics-shaped testbed, scaled for live execution.

    Same topology and placement as
    :func:`repro.experiments.build_simics_environment`, but with small
    blocks and the scaled :data:`DEFAULT_LIVE_BANDWIDTH` so wall-clock
    repairs finish in tenths of a second.
    """
    env = build_simics_environment(n, k, placement=placement, block_size=block_size)
    return replace(env, bandwidth=bandwidth or DEFAULT_LIVE_BANDWIDTH)


def live_context(env: ExperimentEnv, failed) -> RepairContext:
    """The context a live run plans with: the scenario plus its links.

    The one place ``env.bandwidth`` — what the shaper enforces and the
    simulator predicts on — also becomes the planner's link model, so
    anything that re-plans a validated scenario (``rpr telemetry
    export``, the bench's trace export) plans what the validation ran.
    """
    return replace(context_for(env, failed), link_model=env.bandwidth)


def run_live_validation(
    n: int,
    k: int,
    failed,
    *,
    schemes=None,
    block_size: int = DEFAULT_LIVE_BLOCK,
    bandwidth: BandwidthModel | None = None,
    transport: str = "memory",
    seed: int = 0,
    timeout: float = 120.0,
    placement: str = "rpr",
    telemetry: bool = False,
) -> LiveValidationReport:
    """Run one scenario through the simulator *and* the live runtime.

    For every scheme: plan once (the context carries the scenario's
    bandwidth as its link model), predict the makespan with
    :func:`repro.repair.simulate_repair`, execute the very same plan on
    real bytes through :func:`repro.live.run_plan_live`, and check the
    recovered payloads against the lost originals.

    With ``telemetry=True`` every live run records a full wall-clock
    telemetry trace and each row carries the sim↔live
    :class:`~repro.telemetry.TraceDiff` (per-op measured/predicted
    ratios, critical-path delta) in its ``diff`` field, beside the two
    traces themselves (``sim_trace``, ``live_trace``).

    Multi-block failures drop CAR automatically (it is single-failure
    only, as in the paper).
    """
    failed = tuple(sorted(failed))
    env = live_environment(
        n, k, block_size=block_size, bandwidth=bandwidth, placement=placement
    )
    if schemes is None:
        schemes = ["traditional", "rpr"] if len(failed) > 1 else list(SCHEMES)
    stripe = encoded_stripe(env.code, block_size, seed=seed)
    ctx = live_context(env, failed)

    rows = []
    for name in schemes:
        scheme = SCHEMES[name]()
        predicted = simulate_repair(scheme, ctx)
        store = initial_store_for(stripe, env.placement, failed)
        recorder = (
            TelemetryRecorder(
                CLOCK_WALL,
                meta={"source": "live", "scheme": scheme.name, "transport": transport},
            )
            if telemetry
            else None
        )
        live: LiveResult = run_plan_live_sync(
            predicted.plan,
            env.cluster,
            store,
            bandwidth=env.bandwidth,
            transport=transport,
            timeout=timeout,
            recorder=recorder,
        )
        bytes_ok = all(
            block in live.recovered
            and np.array_equal(live.recovered[block], stripe.get_payload(block))
            for block in failed
        )
        rows.append(
            LiveSchemeReport(
                scheme=scheme.name,
                predicted_s=predicted.total_repair_time,
                measured_s=live.makespan,
                bytes_ok=bytes_ok,
                ops=len(predicted.plan.ops),
                sends=len(predicted.plan.sends()),
                combines=len(predicted.plan.combines()),
                cross_rack_bytes=live.ledger.cross_rack_bytes,
                sim_cross_rack_bytes=int(predicted.cross_rack_bytes),
                diff=diff_repair(predicted, live) if telemetry else None,
                slices=predicted.plan.slices,
                sim_trace=predicted.telemetry() if telemetry else None,
                live_trace=live.telemetry if telemetry else None,
            )
        )
    return LiveValidationReport(
        n=n,
        k=k,
        failed=failed,
        block_size=block_size,
        transport=transport,
        rows=tuple(rows),
    )
