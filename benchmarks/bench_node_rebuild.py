"""Extension bench: full-node rebuild over a declustered stripe store.

Not a paper figure — the workload the paper's per-stripe schemes exist
to serve.  A node holding one block from each of many stripes dies; the
harness compares schemes (traditional vs RPR), orchestration (sequential
vs parallel) and rebuild targets (single replacement vs scatter), plus
the CAR-style cross-stripe balancing ablation on a flat-placement store.
The matrix is :func:`repro.experiments.node_rebuild_rows` (also ``rpr
extension node-rebuild``).
"""

from conftest import emit
from repro.cluster import Cluster, FlatPlacement, SIMICS_BANDWIDTH
from repro.experiments import format_table, node_rebuild_rows
from repro.multistripe import StripeStore, repair_node_failure
from repro.repair import CARRepair, RPRScheme
from repro.rs import get_code

FAILED_NODE = 0


def run_balance_ablation():
    cluster = Cluster.homogeneous(10, 4)
    store = StripeStore.build(
        cluster, get_code(6, 2), 30, placement_policy=FlatPlacement()
    )
    rows = []
    for scheme in [CARRepair(), RPRScheme(prefer_xor=False)]:
        for balance in [False, True]:
            o = repair_node_failure(
                store, FAILED_NODE, scheme, SIMICS_BANDWIDTH,
                rebuild="scatter", balance=balance,
            )
            rows.append(
                [
                    scheme.name,
                    str(balance),
                    o.makespan,
                    o.rack_upload_imbalance["max_mean_ratio"],
                    o.rack_upload_imbalance["cv"],
                ]
            )
    return rows


def test_node_rebuild_matrix(bench_once):
    rows = bench_once(node_rebuild_rows)
    columns = ["scheme", "mode", "rebuild", "makespan_s", "cross_blocks", "rack_imbalance"]
    emit(
        "Node rebuild — 30-stripe RS(6,2) store, node loses 8 blocks",
        format_table(columns, [[r[c] for c in columns] for r in rows]),
    )
    by_key = {(r["scheme"], r["mode"], r["rebuild"]): r["makespan_s"] for r in rows}
    # Parallel+scatter dominates within each scheme.
    for scheme in ["traditional", "rpr"]:
        best = by_key[(scheme, "parallel", "scatter")]
        assert all(
            best <= by_key[(scheme, m, t)] + 1e-9
            for m in ["sequential", "parallel"]
            for t in ["replacement", "scatter"]
        )
    # RPR beats traditional in every configuration.
    for mode in ["sequential", "parallel"]:
        for rebuild in ["replacement", "scatter"]:
            assert by_key[("rpr", mode, rebuild)] < by_key[("traditional", mode, rebuild)]


def test_node_rebuild_balance_ablation(bench_once):
    rows = bench_once(run_balance_ablation)
    emit(
        "Ablation — CAR-style cross-stripe traffic balancing "
        "(flat placement, scatter rebuild)",
        format_table(
            ["scheme", "balanced", "makespan_s", "rack_imbalance", "cv"], rows
        ),
    )
    by_key = {(r[0], r[1]): r for r in rows}
    for name in {r[0] for r in rows}:
        plain = by_key[(name, "False")]
        balanced = by_key[(name, "True")]
        assert balanced[3] <= plain[3] + 1e-9  # imbalance improves or ties
