"""repro — a reproduction of RPR, the rack-aware pipeline repair scheme
for erasure-coded distributed storage systems (Liu, Alibhai, He; ICPP'20).

Quick tour (see README.md for the full walkthrough):

>>> from repro import RSCode, build_simics_environment, run_scheme
>>> from repro import RPRScheme, TraditionalRepair
>>> env = build_simics_environment(12, 4)           # Simics-style testbed
>>> rpr = run_scheme(env, RPRScheme(), [1])         # repair failed block d1
>>> tra = run_scheme(env, TraditionalRepair(), [1])
>>> rpr.total_repair_time < tra.total_repair_time
True

Layer map:

* :mod:`repro.gf` / :mod:`repro.rs` — GF(2^8) + Reed-Solomon coding stack.
* :mod:`repro.cluster` — racks, placements, bandwidth models.
* :mod:`repro.sim` — the discrete-event network/compute simulator.
* :mod:`repro.repair` — traditional, CAR, and RPR planners; plan executor.
* :mod:`repro.analysis`, :mod:`repro.metrics`, :mod:`repro.workloads` —
  closed forms, measurements, failure sweeps.
* :mod:`repro.ec2` — the five-region Table 1 testbed.
* :mod:`repro.experiments` — one row-generator per paper figure/table.

Extensions beyond the paper (flagged as such in their module docs):

* :mod:`repro.multistripe` — the stripe catalog and full-node rebuilds over it.
* :mod:`repro.store` — the multi-process object store built on that catalog.
* :mod:`repro.reliability` — repair speed → MTTDL durability models.
* :mod:`repro.lrc` — Locally Repairable Codes (Azure's (12,2,2)).
* :attr:`repro.repair.RepairContext.link_model` — RPR told its links plans a
  slice-pipelined land-and-fold repair where that is faster.
* :func:`repro.repair.plan_degraded_read` — degraded reads at any client.
"""

from .analysis import figure6_series, worst_case_improvement
from .cluster import (
    Cluster,
    ContiguousPlacement,
    FlatPlacement,
    HierarchicalBandwidth,
    MatrixBandwidth,
    Placement,
    RPRPlacement,
    SIMICS_BANDWIDTH,
    gbps,
    mbps,
)
from .ec2 import build_ec2_environment, table1_bandwidth
from .experiments import (
    build_ec2_env,
    build_simics_environment,
    run_scheme,
)
from .lrc import LRCCode, LRCLocalRepair
from .metrics import TrafficLedger, percent_reduction
from .multistripe import StripeStore, repair_node_failure
from .reliability import mttdl_from_repair_times, simulate_stripe_lifetimes
from .repair import (
    CARRepair,
    RepairContext,
    RepairOutcome,
    RepairPlan,
    RPRScheme,
    TraditionalRepair,
    execute_plan,
    initial_store_for,
    plan_degraded_read,
    simulate_repair,
)
from .rs import (
    EC2_DECODE,
    MB,
    PAPER_SINGLE_FAILURE_CODES,
    RSCode,
    SIMICS_DECODE,
    Stripe,
    get_code,
)
from .workloads import encoded_stripe, multi_failure_scenarios, single_failure_scenarios

__version__ = "1.0.0"

__all__ = [
    "CARRepair",
    "Cluster",
    "ContiguousPlacement",
    "EC2_DECODE",
    "FlatPlacement",
    "HierarchicalBandwidth",
    "LRCCode",
    "LRCLocalRepair",
    "MB",
    "MatrixBandwidth",
    "PAPER_SINGLE_FAILURE_CODES",
    "Placement",
    "RPRPlacement",
    "RPRScheme",
    "RSCode",
    "RepairContext",
    "RepairOutcome",
    "RepairPlan",
    "SIMICS_BANDWIDTH",
    "SIMICS_DECODE",
    "Stripe",
    "StripeStore",
    "TraditionalRepair",
    "TrafficLedger",
    "build_ec2_env",
    "build_ec2_environment",
    "build_simics_environment",
    "encoded_stripe",
    "execute_plan",
    "figure6_series",
    "gbps",
    "get_code",
    "initial_store_for",
    "mbps",
    "mttdl_from_repair_times",
    "multi_failure_scenarios",
    "percent_reduction",
    "plan_degraded_read",
    "repair_node_failure",
    "run_scheme",
    "simulate_repair",
    "simulate_stripe_lifetimes",
    "single_failure_scenarios",
    "table1_bandwidth",
    "worst_case_improvement",
]
