"""Plan introspection: structural statistics of a repair plan.

Answers "what would this plan do?" without executing or simulating it —
useful for tests that assert scheme *shape* (hop counts, decode counts),
for the CLI's verbose output, and for quickly comparing planner variants.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cluster import Cluster
from .plan import RepairPlan

__all__ = ["PlanStats", "critical_path_hops"]


@dataclass(frozen=True)
class PlanStats:
    """Counts and structural measures of one plan.

    Attributes
    ----------
    sends / intra_sends / cross_sends:
        Transfer op counts, split by rack relationship.
    combines / matrix_builds:
        Decode op counts and how many pay the matrix-build surcharge.
    cross_bytes / intra_bytes:
        Volume implied by the sends at the plan's block size.
    critical_path_ops / critical_path_cross:
        Two independent structural maxima: the longest dependency chain
        (in ops), and the largest number of *chained* cross-rack
        transfers anywhere in the DAG — the paper's "cross-rack
        timesteps" as a structural lower bound (port contention can only
        stretch it; e.g. CAR's three parallel-by-structure cross sends
        show depth 1 here but serialise to 3 timesteps on the recovery
        port).
    """

    sends: int
    intra_sends: int
    cross_sends: int
    combines: int
    matrix_builds: int
    cross_bytes: float
    intra_bytes: float
    critical_path_ops: int
    critical_path_cross: int

    @classmethod
    def from_plan(cls, plan: RepairPlan, cluster: Cluster) -> "PlanStats":
        traffic = plan.traffic(cluster)
        combines = plan.combines()
        ops_depth, cross_depth = critical_path_hops(plan, cluster)
        return cls(
            sends=traffic.sends,
            intra_sends=traffic.intra_rack_bytes // plan.block_size,
            cross_sends=traffic.cross_rack_bytes // plan.block_size,
            combines=len(combines),
            matrix_builds=sum(op.with_matrix_build for op in combines),
            cross_bytes=traffic.cross_rack_bytes,
            intra_bytes=traffic.intra_rack_bytes,
            critical_path_ops=ops_depth,
            critical_path_cross=cross_depth,
        )


def critical_path_hops(plan: RepairPlan, cluster: Cluster) -> tuple[int, int]:
    """Structural maxima: (longest op chain, deepest cross-transfer chain).

    Computed over declared dependencies only — the lower bounds the §4.1
    timestep analysis reasons about.  The two values may come from
    different chains.
    """
    op_depth: dict[str, int] = {}
    cross_depth: dict[str, int] = {}

    for op_id in plan.validate():
        op = plan.ops[op_id]
        base_ops = max((op_depth[d] for d in op.deps), default=0)
        base_cross = max((cross_depth[d] for d in op.deps), default=0)
        # An op crosses racks when its result lands in another rack.
        is_cross = not cluster.same_rack(op.owner, op.writes[0])
        op_depth[op_id] = base_ops + 1
        cross_depth[op_id] = base_cross + (1 if is_cross else 0)
    if not op_depth:
        return (0, 0)
    return (max(op_depth.values()), max(cross_depth.values()))
