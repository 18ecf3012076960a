"""Plan structure: the dependency-chain depths of a repair plan.

The §4.1 timestep analysis counts chained transfers; this reads them off
a plan without executing or simulating it.  Tests hold the simulator to
the bound (a chained cross-rack transfer costs at least one ``t_c``).
"""

from __future__ import annotations

from ..cluster import Cluster
from .plan import RepairPlan

__all__ = ["critical_path_hops"]


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
