"""Tests for plan structure (critical_path_hops) and the shape of each
scheme's plan read through it and ``RepairPlan.traffic``."""

import math
from types import SimpleNamespace

from repro.repair import (
    CARRepair,
    RepairPlan,
    RPRScheme,
    TraditionalRepair,
    critical_path_hops,
)

from .conftest import make_context


def stats_for(scheme, n=12, k=4, failed=(1,)):
    ctx = make_context(n, k, failed=list(failed))
    plan = scheme.plan(ctx)
    traffic = plan.traffic(ctx.cluster)
    combines = plan.combines()
    stats = SimpleNamespace(
        sends=traffic.sends,
        intra_sends=traffic.intra_rack_bytes // plan.block_size,
        cross_sends=traffic.cross_rack_bytes // plan.block_size,
        combines=len(combines),
        matrix_builds=sum(op.with_matrix_build for op in combines),
        cross_bytes=traffic.cross_rack_bytes,
        intra_bytes=traffic.intra_rack_bytes,
        critical_path_cross=critical_path_hops(plan, ctx.cluster)[1],
    )
    return stats, ctx


class TestSchemeShapes:
    def test_traditional_shape(self):
        stats, ctx = stats_for(TraditionalRepair())
        assert stats.sends == 12              # n helpers gathered
        assert stats.combines == 1
        assert stats.matrix_builds == 1
        # structurally flat: gather || decode
        assert stats.critical_path_cross == 1

    def test_car_shape(self):
        stats, _ = stats_for(CARRepair())
        # one cross send per remote rack, all straight to the recovery node
        assert stats.cross_sends == 3
        assert stats.matrix_builds == 1
        assert stats.critical_path_cross == 1  # parallel by structure...
        # ...its 3 serial timesteps come from the recovery port, not the DAG.

    def test_rpr_shape(self):
        stats, _ = stats_for(RPRScheme())
        assert stats.cross_sends == 3          # same traffic as CAR (Fig. 7)
        assert stats.matrix_builds == 0        # XOR fast path
        # the binomial gather chains ceil(log2(3+1)) = 2 cross transfers
        assert stats.critical_path_cross == 2

    def test_rpr_cross_depth_is_logarithmic(self):
        """Structural cross depth = hops the deepest intermediate chains
        through the binomial gather: max(1, ceil(log2 m)) for m remote
        racks (each rack's intermediate crosses exactly once, so
        cross_sends == m)."""
        for n, k in [(4, 2), (6, 2), (8, 2), (12, 4)]:
            stats, ctx = stats_for(RPRScheme(), n=n, k=k)
            m = stats.cross_sends
            expected = max(1, math.ceil(math.log2(m)))
            assert stats.critical_path_cross == expected, (n, k)

    def test_traffic_bytes_match_counts(self):
        stats, ctx = stats_for(RPRScheme())
        assert stats.cross_bytes == stats.cross_sends * ctx.block_size
        assert stats.intra_bytes == stats.intra_sends * ctx.block_size

    def test_no_pipeline_flattens_cross_depth(self):
        stats, _ = stats_for(RPRScheme(pipeline=False))
        assert stats.critical_path_cross == 1


class TestCriticalPath:
    def test_empty_plan(self):
        from repro.cluster import Cluster

        plan = RepairPlan(block_size=10)
        plan.mark_output(0, 0, "x")
        # validate() requires ops via JobGraph? An op-free plan with an
        # output fails validation, so test the helper directly on a
        # minimal one-op plan instead.
        plan.add_send("s", 0, 1, "x")
        cluster = Cluster.homogeneous(2, 2)
        assert critical_path_hops(plan, cluster) == (1, 0)

    def test_chained_cross(self):
        from repro.cluster import Cluster

        cluster = Cluster.homogeneous(3, 2)
        plan = RepairPlan(block_size=10)
        a = plan.add_send("a", 0, 2, "x")            # cross
        plan.add_send("b", 2, 4, "x", deps=[a])      # cross, chained
        plan.add_send("c", 0, 1, "y")                # intra, parallel
        plan.mark_output(0, 4, "x")
        ops, cross = critical_path_hops(plan, cluster)
        assert ops == 2
        assert cross == 2

    def test_independent_maxima(self):
        """Longest op chain and deepest cross chain may differ."""
        from repro.cluster import Cluster

        cluster = Cluster.homogeneous(3, 2)
        plan = RepairPlan(block_size=10)
        # chain 1: three intra hops (ops depth 3, cross 0)
        a = plan.add_send("a", 0, 1, "x")
        b = plan.add_combine("b", 1, "x2", [("x", 1)], deps=[a])
        plan.add_combine("c", 1, "x3", [("x2", 1)], deps=[b])
        # chain 2: two chained cross hops (ops depth 2, cross 2)
        d = plan.add_send("d", 0, 2, "y")
        plan.add_send("e", 2, 4, "y", deps=[d])
        plan.mark_output(0, 1, "x3")
        ops, cross = critical_path_hops(plan, cluster)
        assert ops == 3
        assert cross == 2
