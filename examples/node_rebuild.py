#!/usr/bin/env python3
"""Full-node rebuild over a declustered stripe store (extension).

The paper's schemes repair one stripe; real incidents kill a *node*,
losing one block from every stripe it held.  This example builds a
30-stripe RS(6,2) store (rotated placements, so layout is perfectly
declustered), fails a node holding 8 blocks, and rebuilds it four ways
(:func:`repro.experiments.node_rebuild_rows`):

  scheme x {sequential, parallel} x {single replacement node, scatter}

showing (a) RPR's per-stripe advantage compounds across stripes,
(b) pipelining stripes in parallel only pays once rebuilt blocks scatter
across target nodes (otherwise the replacement's download port is the
bottleneck — the same §2.3 serialisation at the next level up), and
(c) CAR-style cross-stripe balancing evens per-rack upload load.

Run:  python examples/node_rebuild.py
"""

from repro.cluster import Cluster, FlatPlacement, SIMICS_BANDWIDTH
from repro.experiments import node_rebuild_rows
from repro.multistripe import StripeStore, repair_node_failure
from repro.repair import CARRepair
from repro.rs import get_code

FAILED_NODE = 0


def main() -> None:
    cluster = Cluster.homogeneous(5, 6)
    store = StripeStore.build(cluster, get_code(6, 2), num_stripes=30)
    lost = store.blocks_on_node(FAILED_NODE)
    print(
        f"store: {len(store)} RS(6,2) stripes over {cluster.num_racks} racks; "
        f"node {FAILED_NODE} dies holding {len(lost)} blocks\n"
    )

    print(f"{'scheme':>12} {'mode':>10} {'rebuild':>12} "
          f"{'makespan':>10} {'cross blk':>10} {'imbalance':>10}")
    for r in node_rebuild_rows():
        print(
            f"{r['scheme']:>12} {r['mode']:>10} {r['rebuild']:>12} "
            f"{r['makespan_s']:9.1f}s {r['cross_blocks']:10.0f} {r['rack_imbalance']:10.2f}"
        )

    print("\ncross-stripe balancing (flat placement, where helper racks are free):")
    flat_cluster = Cluster.homogeneous(10, 4)
    flat_store = StripeStore.build(
        flat_cluster, get_code(6, 2), 30, placement_policy=FlatPlacement()
    )
    for balance in [False, True]:
        o = repair_node_failure(
            flat_store, FAILED_NODE, CARRepair(), SIMICS_BANDWIDTH,
            rebuild="scatter", balance=balance,
        )
        print(
            f"  balance={str(balance):>5}: rack-upload max/mean "
            f"{o.rack_upload_imbalance['max_mean_ratio']:.3f}, "
            f"cv {o.rack_upload_imbalance['cv']:.3f}"
        )


if __name__ == "__main__":
    main()
