"""Row generators for the ablations of the paper's design choices.

One function per bullet of EXPERIMENTS.md's Ablations section, in the
``figureN_rows`` convention: each returns a list of dicts, the doc's
"Measured:" lines and tables are rendered from them, and the claims they
support are asserted over them in ``tests/integration/test_experiments.py``.

* :func:`pipeline_rows` — Algorithm 2's pipeline vs direct gathering
  (Fig. 5 schedule 2 vs 1), with each schedule's idle racks.
* :func:`preplacement_rows` — §3.3 pre-placement vs the contiguous
  layout (Simics and EC2 decode models), and XOR-preferring selection.
* :func:`bandwidth_ratio_rows` — the intra:cross bandwidth skew.
* :func:`rack_count_rows` — §4.1's ``log2 q`` vs linear ``n`` growth.
* :func:`switch_capacity_rows` — a cap on concurrent cross-rack transfers.
* :func:`link_model_rows` — RPR told the EC2 links vs the paper's plan.
* :func:`block_size_rows` — block size with synthetic geo latency.
* :func:`update_traffic_rows` — §3.3's neutrality on the update path.
* :func:`load_balance_rows` — §2.3/§3.1's hotspot and spread claims.
* :func:`rack_failure_rows` — a whole rack lost from a 20-stripe store.
"""

from __future__ import annotations

from dataclasses import replace

from ..analysis import TimeParameters, racks_for_code, rpr_worst_case_time
from ..cluster import Cluster, HierarchicalBandwidth, SIMICS_BANDWIDTH, gbps
from ..ec2 import table1_bandwidth
from ..metrics import TrafficLedger, UtilizationSummary, imbalance_summary, percent_reduction
from ..multistripe import StripeStore, repair_rack_failure
from ..repair import (
    CARRepair,
    RPRScheme,
    TraditionalRepair,
    plan_update,
    simulate_repair,
)
from ..rs import MB, PAPER_SINGLE_FAILURE_CODES, get_code
from ..sim import SimulationEngine
from ..workloads import single_failure_scenarios
from .common import build_ec2_env, build_simics_environment, context_for, run_scheme, sweep_scheme

__all__ = [
    "bandwidth_ratio_rows",
    "block_size_rows",
    "link_model_rows",
    "load_balance_rows",
    "pipeline_rows",
    "preplacement_rows",
    "rack_count_rows",
    "rack_failure_rows",
    "switch_capacity_rows",
    "update_traffic_rows",
]

#: Intra:cross bandwidth ratios of :func:`bandwidth_ratio_rows`.
RATIOS = (1, 2, 5, 10, 20, 40)
#: ``n`` of the k = 2 codes of :func:`rack_count_rows`.
RACK_COUNT_NS = (4, 6, 8, 10, 12)
#: Cluster-wide concurrent cross-rack transfer caps (``None``: unlimited).
CAPACITIES = (None, 4, 2, 1)
#: (label, bytes) of :func:`block_size_rows`.
BLOCK_SIZES = (
    ("256 MB", 256_000_000),
    ("16 MB", 16_000_000),
    ("1 MB", 1_000_000),
    ("64 KB", 64_000),
)
THREE_SCHEMES = (TraditionalRepair(), CARRepair(), RPRScheme())


def pipeline_rows() -> list[dict]:
    """Algorithm 2's pipeline vs every remote rack sending straight to the
    recovery node (Fig. 5 schedule 2 vs 1), Simics testbed.

    Same partial decoding, same traffic.  Per code: mean repair time and
    cross-rack blocks over the single data-block failures, and for one
    repair (block 1 lost) the mean share of the run each rack's upload
    port sits idle and the mean port utilization.
    """
    rows = []
    piped, direct = RPRScheme(pipeline=True), RPRScheme(pipeline=False)
    for n, k in PAPER_SINGLE_FAILURE_CODES:
        env = build_simics_environment(n, k)
        scenarios = single_failure_scenarios(env.code, data_only=True)
        pipe, flat = (sweep_scheme(env, scheme, scenarios) for scheme in (piped, direct))
        pipe_util, flat_util = (
            UtilizationSummary.from_trace(run_scheme(env, scheme, [1]).trace())
            for scheme in (piped, direct)
        )
        rows.append(
            {
                "code": env.label,
                "pipeline_s": pipe.mean_time,
                "direct_s": flat.mean_time,
                "gain_pct": percent_reduction(flat.mean_time, pipe.mean_time),
                "pipeline_cross_blocks": pipe.mean_cross_blocks,
                "direct_cross_blocks": flat.mean_cross_blocks,
                "pipeline_idle_pct": 100 * pipe_util.mean_rack_upload_idle,
                "direct_idle_pct": 100 * flat_util.mean_rack_upload_idle,
                "pipeline_util_pct": 100 * pipe_util.mean_port_utilization,
                "direct_util_pct": 100 * flat_util.mean_port_utilization,
            }
        )
    return rows


def preplacement_rows() -> list[dict]:
    """§3.3's data-parity pre-placement, over the single data-block failures.

    Placement axis: the pre-placed (``rpr``) layout vs the contiguous one,
    both repaired by a selection-unaware RPR (``prefer_xor=False``), on
    the Simics and the EC2 decode models.  Pre-placement lets rack
    packing sweep P0 in with a data rack, so the equation is pure XOR and
    no decoding matrix is built.  Selection axis (EC2, pre-placed):
    explicitly preferring the eq. (6) helper set (``ec2_xor_s``).
    """
    unaware, aware = RPRScheme(prefer_xor=False), RPRScheme(prefer_xor=True)
    rows = []
    for n, k in PAPER_SINGLE_FAILURE_CODES:
        scenarios = single_failure_scenarios(get_code(n, k), data_only=True)
        simics_pre, simics_cont, ec2_pre, ec2_cont = (
            sweep_scheme(build(n, k, placement=placement), unaware, scenarios)
            for build in (build_simics_environment, build_ec2_env)
            for placement in ("rpr", "contiguous")
        )
        ec2_xor = sweep_scheme(build_ec2_env(n, k), aware, scenarios)
        rows.append(
            {
                "code": f"({n},{k})",
                "simics_preplaced_s": simics_pre.mean_time,
                "simics_contiguous_s": simics_cont.mean_time,
                "simics_same_traffic": (
                    simics_pre.mean_cross_blocks == simics_cont.mean_cross_blocks
                ),
                "ec2_preplaced_s": ec2_pre.mean_time,
                "ec2_contiguous_s": ec2_cont.mean_time,
                "ec2_xor_s": ec2_xor.mean_time,
            }
        )
    return rows


def bandwidth_ratio_rows() -> list[dict]:
    """RS(12,4), block 1 lost, 1 Gb/s intra-rack and ``1 / ratio`` Gb/s
    cross-rack, for each intra:cross ``ratio`` of :data:`RATIOS`."""
    env = build_simics_environment(12, 4)
    ctx = context_for(env, [1])
    rows = []
    for ratio in RATIOS:
        bw = HierarchicalBandwidth(intra=gbps(1.0), cross=gbps(1.0) / ratio)
        tra, car, rpr = (
            simulate_repair(scheme, ctx, bw).total_repair_time for scheme in THREE_SCHEMES
        )
        rows.append(
            {
                "ratio": ratio,
                "tra_s": tra,
                "car_s": car,
                "rpr_s": rpr,
                "rpr_vs_tra_pct": percent_reduction(tra, rpr),
            }
        )
    return rows


def rack_count_rows() -> list[dict]:
    """The k = 2 codes with ``n`` in :data:`RACK_COUNT_NS` (``q`` racks per
    stripe), block 1 lost, Simics testbed, beside eq. (13)'s bound on RPR."""
    rows = []
    for n in RACK_COUNT_NS:
        env = build_simics_environment(n, 2)
        ctx = context_for(env, [1])
        params = TimeParameters(
            t_i=env.block_size / env.bandwidth.intra, t_c=env.block_size / env.bandwidth.cross
        )
        tra, car, rpr = (
            simulate_repair(scheme, ctx, env.bandwidth).total_repair_time
            for scheme in THREE_SCHEMES
        )
        rows.append(
            {
                "code": env.label,
                "q": racks_for_code(n, 2),
                "tra_s": tra,
                "car_s": car,
                "rpr_s": rpr,
                "eq13_bound_s": rpr_worst_case_time(n, 2, params),
                "reduction_pct": percent_reduction(tra, rpr),
            }
        )
    return rows


def switch_capacity_rows() -> list[dict]:
    """RS(12,4), block 1 lost, Simics testbed, under each cap of
    :data:`CAPACITIES` on cluster-wide concurrent cross-rack transfers
    (the engine's ``cross_capacity``; the paper's network model has none)."""
    env = build_simics_environment(12, 4)
    ctx = context_for(env, [1])
    graphs = {s.name: s.plan(ctx).to_job_graph(ctx.cost_model) for s in THREE_SCHEMES}
    rows = []
    for capacity in CAPACITIES:
        row = {"capacity": capacity}
        for name, graph in graphs.items():
            engine = SimulationEngine(env.cluster, env.bandwidth, cross_capacity=capacity)
            row[f"{name}_s"] = engine.run(graph).makespan
        rows.append(row)
    return rows


def link_model_rows() -> list[dict]:
    """RPR told the EC2 links (``RepairContext.link_model``) vs the paper's
    plan, every single-block failure of every code.

    ``paper_s`` / ``told_s`` / ``gain_pct`` are over the data-block
    failures; ``all_gain_pct`` over all ``failures``, parity included,
    of which ``slower`` took longer told the links and
    ``traffic_changed`` moved a different number of cross-rack bytes.
    """
    scheme = RPRScheme()
    rows = []
    for n, k in PAPER_SINGLE_FAILURE_CODES:
        env = build_ec2_env(n, k)
        paper, told = [], []
        for scenario in single_failure_scenarios(env.code):
            ctx = context_for(env, scenario.failed_blocks)
            paper.append(simulate_repair(scheme, ctx, env.bandwidth))
            told.append(
                simulate_repair(scheme, replace(ctx, link_model=env.bandwidth), env.bandwidth)
            )
        paper_t, told_t = ([o.total_repair_time for o in run] for run in (paper, told))
        rows.append(
            {
                "code": env.label,
                "paper_s": sum(paper_t[:n]) / n,
                "told_s": sum(told_t[:n]) / n,
                "gain_pct": percent_reduction(sum(paper_t[:n]), sum(told_t[:n])),
                "failures": len(paper),
                "all_gain_pct": percent_reduction(sum(paper_t), sum(told_t)),
                "slower": sum(t > p + 1e-9 for p, t in zip(paper_t, told_t)),
                "traffic_changed": sum(
                    p.cross_rack_bytes != t.cross_rack_bytes for p, t in zip(paper, told)
                ),
            }
        )
    return rows


def block_size_rows() -> list[dict]:
    """RS(12,4), block 1 lost, on EC2's Table 1 links with synthetic geo
    latency (``GEO_LATENCY_S``, not from the paper), for each block size
    of :data:`BLOCK_SIZES`."""
    bandwidth = table1_bandwidth(with_latency=True)
    rows = []
    for label, block_size in BLOCK_SIZES:
        ctx = context_for(build_ec2_env(12, 4, block_size=block_size), [1])
        tra, car, rpr = (
            simulate_repair(scheme, ctx, bandwidth).total_repair_time
            for scheme in THREE_SCHEMES
        )
        rows.append(
            {
                "block": label,
                "tra_s": tra,
                "car_s": car,
                "rpr_s": rpr,
                "rpr_vs_tra_pct": percent_reduction(tra, rpr),
                "saving_s": tra - rpr,
            }
        )
    return rows


def _mean_update(env) -> tuple[float, float]:
    """(cross-rack blocks, seconds) of a parity-delta update of each data
    block of ``env``'s stripe, averaged."""
    ctx = context_for(env, [0])  # updates read no failed block
    blocks = seconds = 0.0
    for block in range(env.code.n):
        sim = SimulationEngine(env.cluster, env.bandwidth).run(
            plan_update(ctx, block).to_job_graph(env.cost_model)
        )
        blocks += TrafficLedger.from_sim(sim, env.cluster).cross_rack_bytes / env.block_size
        seconds += sim.makespan
    return blocks / env.code.n, seconds / env.code.n


def update_traffic_rows() -> list[dict]:
    """§3.3's "no negative effect" on writes: mean cross-rack blocks and
    time of a parity-delta update, pre-placed vs contiguous layout."""
    rows = []
    for n, k in PAPER_SINGLE_FAILURE_CODES:
        (pre_blocks, pre_s), (cont_blocks, cont_s) = (
            _mean_update(build_simics_environment(n, k, placement=placement))
            for placement in ("rpr", "contiguous")
        )
        rows.append(
            {
                "code": f"({n},{k})",
                "preplaced_blocks": pre_blocks,
                "contiguous_blocks": cont_blocks,
                "preplaced_s": pre_s,
                "contiguous_s": cont_s,
            }
        )
    return rows


def load_balance_rows() -> list[dict]:
    """Block 1 lost, Simics testbed: per scheme, the largest download of any
    one node in MB (the recovery-node hotspot, ``<scheme>_peak_mb``) and
    the max/mean of cross-rack upload over racks (``<scheme>_spread``)."""
    rows = []
    for n, k in PAPER_SINGLE_FAILURE_CODES:
        env = build_simics_environment(n, k)
        ctx = context_for(env, [1])
        row = {"code": env.label}
        for scheme in THREE_SCHEMES:
            outcome = simulate_repair(scheme, ctx, env.bandwidth)
            ledger = TrafficLedger.from_sim(outcome.sim, env.cluster)
            uploads = dict.fromkeys(env.cluster.rack_ids(), 0.0)
            uploads.update(ledger.cross_uploaded_by_rack)
            row[f"{scheme.name}_peak_mb"] = max(ledger.downloaded_by_node.values()) / MB
            row[f"{scheme.name}_spread"] = imbalance_summary(uploads)["max_mean_ratio"]
        rows.append(row)
    return rows


def rack_failure_rows() -> list[dict]:
    """Rack 0 of five racks of six lost under a 20-stripe RS(6,2) store:
    every resident stripe at its §4.3 worst case, rebuilt in parallel
    onto the surviving racks (Simics links)."""
    store = StripeStore.build(Cluster.homogeneous(5, 6), get_code(6, 2), 20)
    return [
        {
            "scheme": scheme.name,
            "makespan_s": repair_rack_failure(store, 0, scheme, SIMICS_BANDWIDTH).makespan,
        }
        for scheme in (TraditionalRepair(), RPRScheme())
    ]
