#!/usr/bin/env python3
"""Replay a year of node failures through the stripe catalog (extension).

Generates a seeded Poisson failure trace (one failure per node per two
years of MTBF over a 30-node cluster — roughly a failure a month) and
replays it against a :class:`~repro.multistripe.StripeStore` whose
stripes hold real bytes:

* after every failure the catalog names what was lost and where it is
  rebuilt, and each repair plan runs for real (GF reconstruction);
* every rebuilt block is verified bit-exact after each incident;
* the simulated repair cost of the whole year is accounted per scheme.

``examples/store_kill_demo.py`` is the same story on the real
multi-process store, whose coordinator runs on the same catalog.

Run:  python examples/operational_timeline.py
"""

import numpy as np

from repro.cluster import Cluster, SIMICS_BANDWIDTH
from repro.multistripe import StripeStore, merge_plans
from repro.repair import (
    RPRScheme,
    TraditionalRepair,
    execute_plan,
    initial_store_for,
    simulate_repair,
)
from repro.rs import SIMICS_DECODE, get_code
from repro.sim import SimulationEngine
from repro.workloads import DAY, YEAR, encoded_stripe, poisson_node_failures

MTBF = 2 * YEAR
HORIZON = 1 * YEAR
SEED = 5
BLOCK_SIZE = 2048
STRIPES = 16


def replay(scheme) -> tuple[int, float, float]:
    cluster = Cluster.homogeneous(5, 6)
    code = get_code(6, 2)
    store = StripeStore.build(cluster, code, STRIPES)
    # What was written; a verified repair puts exactly these bytes back,
    # so they are also what every surviving block still holds.
    written = {s.stripe_id: encoded_stripe(code, BLOCK_SIZE, seed=s.stripe_id) for s in store}
    engine = SimulationEngine(cluster, SIMICS_BANDWIDTH)

    incidents = 0
    parallel_cost = serial_cost = 0.0
    for event in poisson_node_failures(cluster, MTBF, HORIZON, seed=SEED):
        dead = {event.node_id}  # replaced once its blocks are rebuilt
        store.fail_node(event.node_id)
        plans = []
        for sid in store.degraded():
            ctx = store.repair_context(sid, dead, block_size=BLOCK_SIZE)
            outcome = simulate_repair(scheme, ctx, SIMICS_BANDWIDTH)
            survivors = initial_store_for(written[sid], ctx.placement, ctx.failed_blocks)
            rebuilt = execute_plan(outcome.plan, cluster, survivors).recovered
            for bid in ctx.failed_blocks:
                assert np.array_equal(rebuilt[bid], written[sid].get_payload(bid)), (
                    f"stripe {sid} block {bid} lost at t={event.time / DAY:.1f} d"
                )
            store.relocate(sid, dict(ctx.recovery_override))
            plans.append(outcome.plan)
            serial_cost += outcome.total_repair_time
        if plans:  # the same repairs pipelined across the cluster's ports
            parallel_cost += engine.run(merge_plans(plans, SIMICS_DECODE)).makespan
        incidents += 1
        assert not store.degraded() and not store.blocks_on_node(event.node_id)
    return incidents, parallel_cost, serial_cost


def main() -> None:
    print(
        f"cluster: 5 racks x 6 nodes; node MTBF {MTBF / YEAR:.0f} years; "
        f"horizon {HORIZON / YEAR:.0f} year\n"
    )
    for scheme in [TraditionalRepair(), RPRScheme()]:
        incidents, parallel_cost, serial_cost = replay(scheme)
        # repair cost scales with block size; report at the paper's 256 MB
        scale = 256_000_000 / BLOCK_SIZE
        print(
            f"{scheme.name:>12}: {incidents} node failures survived; "
            f"yearly repair time {parallel_cost * scale / 3600:.1f} h "
            f"(pipelined) / {serial_cost * scale / 3600:.1f} h (serial), "
            f"every rebuilt block verified after every incident"
        )
    print(
        "\nEvery incident was repaired with real GF arithmetic and every "
        "rebuilt block\nre-verified byte-for-byte — a year of operation "
        "without data loss, at a\nfraction of the traditional repair bill."
    )


if __name__ == "__main__":
    main()
