"""Experiment harness: one function per paper figure/table and ablation.

EXPERIMENTS.md's generated blocks (checked in tier-1 by
``tests/integration/test_experiments.py``), examples (``examples/``) and
the CLI all call these row generators, so the numbers reported anywhere
in the repo come from a single code path.
"""

from .ablations import (
    bandwidth_ratio_rows,
    block_size_rows,
    link_model_rows,
    load_balance_rows,
    pipeline_rows,
    preplacement_rows,
    rack_count_rows,
    rack_failure_rows,
    switch_capacity_rows,
    update_traffic_rows,
)
from .common import (
    DEFAULT_SCENARIO_CAP,
    ExperimentEnv,
    SweepStats,
    build_ec2_env,
    build_simics_environment,
    cap_scenarios,
    context_for,
    format_table,
    run_scheme,
    sweep_scheme,
)
from .extensions import (
    durability_rows,
    lrc_rows,
    node_rebuild_rows,
    rebuild_node,
    slice_pipelining_rows,
)
from .multi import (
    PAPER_NONWORST_TRIPLES,
    figure9_rows,
    figure10_rows,
    figure11_rows,
    figure13_rows,
    figure14_rows,
    multi_failure_rows,
)
from .single import (
    figure7_rows,
    figure8_rows,
    figure12_rows,
    single_failure_rows,
)
from .theory import figure6_rows, model_vs_simulation_rows

__all__ = [
    "DEFAULT_SCENARIO_CAP",
    "ExperimentEnv",
    "PAPER_NONWORST_TRIPLES",
    "SweepStats",
    "bandwidth_ratio_rows",
    "block_size_rows",
    "build_ec2_env",
    "build_simics_environment",
    "cap_scenarios",
    "context_for",
    "durability_rows",
    "figure10_rows",
    "figure11_rows",
    "figure12_rows",
    "figure13_rows",
    "figure14_rows",
    "figure6_rows",
    "figure7_rows",
    "figure8_rows",
    "figure9_rows",
    "format_table",
    "link_model_rows",
    "load_balance_rows",
    "lrc_rows",
    "node_rebuild_rows",
    "model_vs_simulation_rows",
    "multi_failure_rows",
    "pipeline_rows",
    "preplacement_rows",
    "rack_count_rows",
    "rack_failure_rows",
    "rebuild_node",
    "run_scheme",
    "single_failure_rows",
    "slice_pipelining_rows",
    "sweep_scheme",
    "switch_capacity_rows",
    "update_traffic_rows",
]
