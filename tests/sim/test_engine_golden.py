"""Golden-value determinism pins for the event engine.

The resource-indexed scheduler must reproduce the exact schedules the
original rescan scheduler produced — same start order, same completion
batching, same floating-point makespans to the last bit.  These values
were captured from the engine before the scheduler rework; any diff here
means the greedy (ready-time, insertion-order) policy changed, which
invalidates every figure in the reproduction.

Digests cover the full ordered event stream (``(time, kind, job_id)``
per event, via ``repr`` so float bit-patterns count), and for the big
merged graph also every job's exact start/end times.  Makespans are
compared as ``repr`` strings: bit-for-bit, no tolerance.
"""

import hashlib

from repro.cluster import Cluster, SIMICS_BANDWIDTH
from repro.experiments import build_simics_environment, run_scheme
from repro.multistripe import StripeStore, merge_plans, node_failure_contexts
from repro.repair import CARRepair, RPRScheme, TraditionalRepair
from repro.rs import SIMICS_DECODE, get_code
from repro.sim import SimulationEngine


def event_digest(sim) -> str:
    stream = repr([(e.time, e.kind, e.job_id) for e in sim.events])
    return hashlib.sha256(stream.encode()).hexdigest()


def timings_digest(sim) -> str:
    stream = repr(sorted((jid, t.start, t.end) for jid, t in sim.timings.items()))
    return hashlib.sha256(stream.encode()).hexdigest()


class TestFig5SingleRepairSchedules:
    """The paper's Figure 5 scenario: RS(6,2), block 0 lost, Simics testbed."""

    def run(self, scheme):
        env = build_simics_environment(6, 2)
        return run_scheme(env, scheme, [0]).sim

    def test_rpr_no_pipeline_schedule(self):
        sim = self.run(RPRScheme(pipeline=False))
        assert repr(sim.makespan) == "63.744"
        assert len(sim.events) == 18
        assert event_digest(sim) == (
            "3cc51f7f91e15cb6d8f1a1818b6c3747865e8ddcef2a9d1f669246c881745f64"
        )

    def test_rpr_pipelined_schedule(self):
        sim = self.run(RPRScheme(pipeline=True))
        assert repr(sim.makespan) == "43.519999999999996"
        assert len(sim.events) == 20
        assert event_digest(sim) == (
            "02d50053aea04484a2081753555e6957523aaa325c2a7c1cfec3ddbdbacf358a"
        )

    def test_traditional_schedule(self):
        sim = self.run(TraditionalRepair())
        assert repr(sim.makespan) == "105.47200000000001"
        assert len(sim.events) == 14
        assert event_digest(sim) == (
            "58e6861cdb10c72c6ca2c128520e83622e10ac5e84a431612f84fe91eaf31afb"
        )

    def test_car_schedule(self):
        sim = self.run(CARRepair())
        assert repr(sim.makespan) == "64.512"
        assert len(sim.events) == 18
        assert event_digest(sim) == (
            "5408bb440616a37f744be19b05f41a8c4846b10ce9aad04dbc069b943c35b29e"
        )


class TestMergedNodeRebuildGraphs:
    """Store-scale merged graphs: port contention across hundreds of jobs."""

    @staticmethod
    def rebuild_sim(num_stripes, cross_capacity=None):
        cluster = Cluster.homogeneous(5, 8)
        store = StripeStore.build(cluster, get_code(6, 2), num_stripes)
        _, contexts = node_failure_contexts(store, 0, mode="scatter")
        plans = [RPRScheme().plan(ctx) for ctx in contexts]
        graph = merge_plans(plans, SIMICS_DECODE)
        engine = SimulationEngine(
            cluster, SIMICS_BANDWIDTH, cross_capacity=cross_capacity
        )
        return graph, engine.run(graph)

    def test_200_stripe_rebuild_exact(self):
        graph, sim = self.rebuild_sim(200)
        assert len(graph) == 405
        assert len(sim.timings) == len(graph)
        assert repr(sim.makespan) == "409.85600000000005"
        assert len(sim.events) == 810
        assert event_digest(sim) == (
            "a68cf34f8732db20f264215b3cbe322bb85a52691960f66b338c1e7abe372047"
        )
        assert timings_digest(sim) == (
            "6a26e6a65ce432f317e81ff9deec1f52b8ceac465a422a37d22e7d3c64f1e4ac"
        )

    def test_40_stripe_rebuild_exact(self):
        graph, sim = self.rebuild_sim(40)
        assert len(graph) == 81
        assert len(sim.timings) == len(graph)
        assert repr(sim.makespan) == "125.44000000000001"
        assert event_digest(sim) == (
            "6ea1bd643e6f1ef35790da1b781a09d9f5ed3c1ec71f11aa4f2982330b88579e"
        )

    def test_40_stripe_rebuild_with_switch_capacity(self):
        """The cross-rack token path must batch and wake identically too."""
        _, sim = self.rebuild_sim(40, cross_capacity=2)
        assert repr(sim.makespan) == "248.06399999999996"
        assert event_digest(sim) == (
            "748a8f9531001cc07067fbc9dc040920576b521771945df187636055f6f0e062"
        )

    def test_rerun_is_bit_identical(self):
        """Two runs of one engine instance produce identical streams."""
        cluster = Cluster.homogeneous(5, 8)
        store = StripeStore.build(cluster, get_code(6, 2), 40)
        _, contexts = node_failure_contexts(store, 0, mode="scatter")
        graph = merge_plans([RPRScheme().plan(c) for c in contexts], SIMICS_DECODE)
        engine = SimulationEngine(cluster, SIMICS_BANDWIDTH)
        first, second = engine.run(graph), engine.run(graph)
        assert event_digest(first) == event_digest(second)
        assert timings_digest(first) == timings_digest(second)


class TestSlicedChainSchedule:
    """RS(8,3), block 1 lost, the live testbed's links: under a link model
    RPR plans the slice-pipelined gather (8 slices of a 64 KiB block at
    0.8 MB/s; both remote racks land on their own recovery-rack helper,
    remote inner trees sliced too) and the compiled schedule — 120 jobs
    for 15 ops — is pinned."""

    @staticmethod
    def outcomes():
        from repro.experiments import context_for
        from repro.live import live_context, live_environment
        from repro.repair import simulate_repair

        env = live_environment(8, 3)
        return (
            simulate_repair(RPRScheme(), context_for(env, [1]), env.bandwidth),
            simulate_repair(RPRScheme(), live_context(env, [1]), env.bandwidth),
        )

    def test_chain_schedule(self):
        tree, chain = self.outcomes()
        assert chain.plan.slices == 8
        assert repr(chain.sim.makespan) == "0.08604057600000001"
        assert len(chain.sim.events) == 240
        assert event_digest(chain.sim) == (
            "c44e1c1454eb74ae0a800bee7eb9943c197986cc084f54db65af7776e865cf78"
        )
        assert timings_digest(chain.sim) == (
            "3b36ed523477c1fcb4f7221516cf5f669c56b8238b8e8e704654feebbeb30e73"
        )
        # same blocks across the racks as the paper's tree, 52 % sooner
        assert chain.cross_rack_blocks == tree.cross_rack_blocks == 2.0
        assert repr(tree.sim.makespan) == "0.18035507200000003"

    def test_without_a_link_model_the_tree_is_untouched(self):
        tree, _ = self.outcomes()
        assert tree.plan.slices == 1
        assert len(tree.sim.events) == 26
        assert event_digest(tree.sim) == (
            "03458f8aae86dc90cfe2f5bef1bf3de2a523368383267cae9a101b36566f6fcf"
        )
