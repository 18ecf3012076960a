"""Tests for the EC2 geo-distributed testbed substitute."""

import numpy as np
import pytest

from repro.cluster import mbps
from repro.ec2 import (
    REGIONS,
    TABLE1_MBPS,
    average_cross_mbps,
    average_intra_mbps,
    build_ec2_environment,
    region_index,
    table1_bandwidth,
)
from repro.repair import (
    CARRepair,
    RepairContext,
    RPRScheme,
    TraditionalRepair,
    execute_plan,
    initial_store_for,
    simulate_repair,
)
from repro.sim import JobGraph, SimulationEngine
from repro.workloads import encoded_stripe

from ..cluster.test_placement import single_rack_fault_tolerant


class TestTable1:
    def test_five_regions(self):
        assert len(REGIONS) == 5
        assert len(TABLE1_MBPS) == 15  # 5 diagonal + C(5,2) off-diagonal

    def test_region_index(self):
        assert region_index("ohio") == 0
        assert region_index("sydney") == 4
        with pytest.raises(KeyError):
            region_index("mars")

    def test_paper_reported_averages(self):
        """§5.2: avg cross 53.03 Mbps, avg intra 600.97 Mbps, ratio ~11.3."""
        assert average_cross_mbps() == pytest.approx(53.03, abs=0.01)
        assert average_intra_mbps() == pytest.approx(600.97, abs=0.01)
        ratio = average_intra_mbps() / average_cross_mbps()
        assert ratio == pytest.approx(11.33, abs=0.01)

    def test_matrix_bandwidth_lookup(self):
        bw = table1_bandwidth()
        env = build_ec2_environment(4, 2)
        # nodes 0..: region 0 (ohio) holds node 0; region 1 (tokyo) node 4.
        node_ohio = env.cluster.nodes_in_rack(0)[0]
        node_tokyo = env.cluster.nodes_in_rack(1)[0]
        assert bw.rate(env.cluster, node_ohio, node_tokyo) == pytest.approx(
            mbps(51.798)
        )
        peer_ohio = env.cluster.nodes_in_rack(0)[1]
        assert bw.rate(env.cluster, node_ohio, peer_ohio) == pytest.approx(
            mbps(583.39)
        )

    def test_every_pair_covered(self):
        """Every region pair, intra-region included, delivers its Table 1
        rate: a simulated 1 MB probe between the two regions' nodes
        re-measures the printed Mbps to float precision."""
        env = build_ec2_environment(4, 2)
        engine = SimulationEngine(env.cluster, env.bandwidth)
        probe_bytes = 1_000_000
        for (a, b), expected in TABLE1_MBPS.items():
            src_rack, dst_rack = region_index(a), region_index(b)
            src = env.cluster.nodes_in_rack(src_rack)[0]
            dst = env.cluster.nodes_in_rack(dst_rack)[1 if src_rack == dst_rack else 0]
            graph = JobGraph()
            graph.add_transfer("probe", src, dst, probe_bytes)
            measured = probe_bytes / engine.run(graph).makespan / mbps(1)
            assert measured == pytest.approx(expected, rel=1e-9), (a, b)


class TestEnvironment:
    def test_shapes(self):
        env = build_ec2_environment(8, 4)
        assert env.cluster.num_racks == 5
        assert single_rack_fault_tolerant(env.placement, env.cluster)
        assert env.block_size == 256_000_000

    def test_decode_model_is_t2micro(self):
        env = build_ec2_environment(4, 2)
        assert env.cost_model.time_without_build(256_000_000) == pytest.approx(2.5)
        assert env.cost_model.time_with_build(256_000_000) == pytest.approx(20.0)

    def test_too_wide_code_rejected(self):
        with pytest.raises(ValueError):
            build_ec2_environment(16, 2)  # needs 9 regions

    def test_contiguous_placement_option(self):
        env = build_ec2_environment(6, 2, placement="contiguous")
        # contiguous puts both parities in the last used region.
        parity_racks = {
            env.placement.rack_of_block(env.cluster, b) for b in [6, 7]
        }
        assert len(parity_racks) == 1


class TestEndToEnd:
    def test_all_schemes_repair_on_ec2(self):
        env = build_ec2_environment(6, 2, block_size=512)
        ctx = RepairContext(
            code=env.code,
            cluster=env.cluster,
            placement=env.placement,
            failed_blocks=(2,),
            block_size=512,
            cost_model=env.cost_model,
        )
        stripe = encoded_stripe(env.code, 512, seed=1)
        for scheme in [TraditionalRepair(), CARRepair(), RPRScheme()]:
            plan = scheme.plan(ctx)
            store = initial_store_for(stripe, env.placement, (2,))
            result = execute_plan(plan, env.cluster, store)
            np.testing.assert_array_equal(
                result.recovered[2], stripe.get_payload(2)
            )

    def test_decode_gap_widens_rpr_lead(self):
        """§5.2.1: the slow t2.micro matrix decode grows the CAR-RPR gap."""
        env = build_ec2_environment(12, 4)
        ctx = RepairContext(
            code=env.code,
            cluster=env.cluster,
            placement=env.placement,
            failed_blocks=(1,),
            block_size=env.block_size,
            cost_model=env.cost_model,
        )
        car = simulate_repair(CARRepair(), ctx, env.bandwidth)
        rpr = simulate_repair(RPRScheme(), ctx, env.bandwidth)
        # The gap includes the ~17.5 s decode difference.
        assert car.total_repair_time - rpr.total_repair_time > 17.0
