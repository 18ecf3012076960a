"""Row generators for the extension experiments (beyond the paper).

Mirrors the ``figureN_rows`` convention so the CLI and benches share one
code path for extension results too:

* :func:`node_rebuild_rows` — full-node rebuild orchestration matrix
  (each cell a :func:`rebuild_node`, which is also ``rpr rebuild``).
* :func:`durability_rows` — per-scheme MTTDL from measured repair times
  (also ``rpr durability``, the durability bench and example).
* :func:`lrc_rows` — LRC(12,2,2) vs RS(12,4) at equal overhead.
* :func:`slice_pipelining_rows` — paper RPR (model and tree) vs the
  slice-pipelined land-and-fold gather at the Simics rates.
"""

from __future__ import annotations

import itertools
from dataclasses import replace

from ..analysis import nonworst_cross_timesteps
from ..cluster import Cluster, ContiguousPlacement, SIMICS_BANDWIDTH
from ..multistripe import MultiStripeOutcome, StripeStore, repair_node_failure
from ..reliability import mttdl_from_repair_times
from ..repair import (
    RepairContext,
    RepairScheme,
    RPRScheme,
    TraditionalRepair,
    simulate_repair,
)
from ..rs import MB, PAPER_SINGLE_FAILURE_CODES, SIMICS_DECODE, get_code
from .common import ExperimentEnv, build_simics_environment, context_for, run_scheme

__all__ = [
    "durability_rows",
    "lrc_rows",
    "node_rebuild_rows",
    "rebuild_node",
    "slice_pipelining_rows",
]

YEAR = 365.25 * 24 * 3600


def rebuild_node(
    env: ExperimentEnv, scheme: RepairScheme, *, num_stripes: int, failed_node: int, **how
) -> MultiStripeOutcome:
    """Fail one node of a fresh ``num_stripes``-stripe declustered store on
    ``env``'s cluster and rebuild everything it held (``outcome.failure.lost``
    names the blocks); ``how`` is ``mode`` / ``rebuild`` / ``balance`` of
    :func:`repro.multistripe.repair_node_failure`."""
    store = StripeStore.build(env.cluster, env.code, num_stripes)
    return repair_node_failure(
        store, failed_node, scheme, env.bandwidth,
        block_size=env.block_size, cost_model=env.cost_model, **how,
    )


def node_rebuild_rows() -> list[dict]:
    """Scheme x mode x rebuild-target matrix: node 0 of a 30-stripe RS(6,2)
    store on five racks of six."""
    env = build_simics_environment(6, 2, nodes_per_rack=6)
    rows = []
    for scheme in [TraditionalRepair(), RPRScheme()]:
        for mode in ["sequential", "parallel"]:
            for rebuild in ["replacement", "scatter"]:
                outcome = rebuild_node(
                    env, scheme, num_stripes=30, failed_node=0, mode=mode, rebuild=rebuild
                )
                rows.append(
                    {
                        "scheme": scheme.name,
                        "mode": mode,
                        "rebuild": rebuild,
                        "makespan_s": outcome.makespan,
                        "cross_blocks": outcome.total_cross_rack_bytes / env.block_size,
                        "rack_imbalance": outcome.rack_upload_imbalance[
                            "max_mean_ratio"
                        ],
                    }
                )
    return rows


def durability_rows(
    codes=((6, 2), (8, 4), (12, 4)),
    block_mtbf_years: float = 4.0,
    build_env=build_simics_environment,
) -> list[dict]:
    """Analytic MTTDL per scheme at a production failure rate.

    Per code (on ``build_env(n, k)``): each scheme's repair time with
    ``l = 1..k`` blocks already lost (``*_repair_times_s``; ``*_repair_s``
    is the single-failure one) fed to the birth-death model at one
    failure per block per ``block_mtbf_years``.
    """
    lam = 1 / (block_mtbf_years * YEAR)
    rows = []
    for n, k in codes:
        env = build_env(n, k)
        tra, rpr = (
            [run_scheme(env, scheme, range(l)).total_repair_time for l in range(1, k + 1)]
            for scheme in (TraditionalRepair(), RPRScheme())
        )
        tra_mttdl, rpr_mttdl = (
            mttdl_from_repair_times(n + k, k, lam, times) / YEAR for times in (tra, rpr)
        )
        rows.append(
            {
                "code": f"({n},{k})",
                "tra_repair_s": tra[0],
                "rpr_repair_s": rpr[0],
                "tra_mttdl_years": tra_mttdl,
                "rpr_mttdl_years": rpr_mttdl,
                "amplification": rpr_mttdl / tra_mttdl,
                "tra_repair_times_s": tra,
                "rpr_repair_times_s": rpr,
            }
        )
    return rows


def lrc_rows() -> list[dict]:
    """LRC(12,2,2) vs RS(12,4): repair cost and fault-tolerance reach."""
    from ..lrc import LRCCode, LRCLocalRepair, is_recoverable

    lrc_code = LRCCode(12, 2, 2)
    rs_code = get_code(12, 4)

    def ctx_for(code, failed):
        cluster = Cluster.homogeneous(9, 4)
        placement = ContiguousPlacement(per_rack=2).place(cluster, code.n, code.k)
        return RepairContext(
            code=code,
            cluster=cluster,
            placement=placement,
            failed_blocks=tuple(failed),
            block_size=256 * MB,
            cost_model=SIMICS_DECODE,
        )

    stats = {}
    for name, code, scheme in [
        ("lrc(12,2,2)", lrc_code, LRCLocalRepair()),
        ("rs(12,4)", rs_code, RPRScheme()),
    ]:
        time = traffic = 0.0
        for block in range(12):
            outcome = simulate_repair(scheme, ctx_for(code, [block]), SIMICS_BANDWIDTH)
            time += outcome.total_repair_time
            traffic += outcome.cross_rack_blocks
        stats[name] = (time / 12, traffic / 12)

    total = recoverable = 0
    for combo in itertools.combinations(range(16), 4):
        total += 1
        if is_recoverable(lrc_code, combo):
            recoverable += 1

    return [
        {
            "code": "lrc(12,2,2)",
            "mean_repair_s": stats["lrc(12,2,2)"][0],
            "mean_cross_blocks": stats["lrc(12,2,2)"][1],
            "four_failure_coverage_pct": 100.0 * recoverable / total,
        },
        {
            "code": "rs(12,4)",
            "mean_repair_s": stats["rs(12,4)"][0],
            "mean_cross_blocks": stats["rs(12,4)"][1],
            "four_failure_coverage_pct": 100.0,
        },
    ]


def slice_pipelining_rows(codes=PAPER_SINGLE_FAILURE_CODES) -> list[dict]:
    """Paper RPR (binomial tree, whole blocks) vs what RPR plans when it is
    told the links (the slice-pipelined land-and-fold gather where
    faster; the ``chain_*`` fields), Simics testbed.

    Every single-block failure of every code, averaged per code.  Times
    are also given as multiples of one cross-rack block time — the floor
    any scheme that ships a block across racks pays — beside the paper's
    own model of the tree (§4.3: ``ceil(log2 q)`` cross timesteps for one
    failure, :func:`repro.analysis.nonworst_cross_timesteps`), and
    cross-rack blocks for both plans, which slicing must not change.
    """
    rows = []
    for n, k in codes:
        env = build_simics_environment(n, k)
        block_time = env.block_size / SIMICS_BANDWIDTH.cross
        tree, linked = [], []
        for block in range(n + k):
            ctx = context_for(env, [block])
            tree.append(simulate_repair(RPRScheme(), ctx, env.bandwidth))
            linked.append(
                simulate_repair(
                    RPRScheme(), replace(ctx, link_model=env.bandwidth), env.bandwidth
                )
            )

        def mean(values):
            return sum(values) / (n + k)

        tree_s = mean([o.total_repair_time for o in tree])
        linked_s = mean([o.total_repair_time for o in linked])
        rows.append(
            {
                "code": f"({n},{k})",
                "chained_failures": sum(o.plan.slices > 1 for o in linked),
                "failures": n + k,
                "slices": max(o.plan.slices for o in linked),
                "tree_cross_blocks": mean([o.cross_rack_blocks for o in tree]),
                "chain_cross_blocks": mean([o.cross_rack_blocks for o in linked]),
                "tree_time_s": tree_s,
                "chain_time_s": linked_s,
                "paper_block_times": nonworst_cross_timesteps(n, k, 1),
                "tree_block_times": tree_s / block_time,
                "chain_block_times": linked_s / block_time,
                "time_reduction_pct": 100.0 * (1 - linked_s / tree_s),
            }
        )
    return rows
