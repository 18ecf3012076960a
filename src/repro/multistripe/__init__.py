"""Multi-stripe repair: node-failure rebuilds over a stripe store.

Extends the paper's per-stripe schemes to the workload real clusters
face — a dead node losing one block from every stripe it held — with
parallel/sequential orchestration and CAR-style cross-stripe traffic
balancing.
"""

from .payloads import encode_store_payloads, rebuild_node_payloads
from .nodefail import (
    NodeFailure,
    node_failure_contexts,
    pick_replacement_node,
    rack_failure_contexts,
)
from .scheduler import (
    MultiStripeOutcome,
    merge_plans,
    repair_node_failure,
    repair_rack_failure,
)
from .store import StoredStripe, StripeStore, rotate_placement

__all__ = [
    "MultiStripeOutcome",
    "NodeFailure",
    "StoredStripe",
    "StripeStore",
    "encode_store_payloads",
    "merge_plans",
    "rebuild_node_payloads",
    "node_failure_contexts",
    "pick_replacement_node",
    "rack_failure_contexts",
    "repair_node_failure",
    "repair_rack_failure",
    "rotate_placement",
]
