"""Failure scenarios and synthetic data generation."""

from .datagen import encoded_stripe, patterned_blocks, random_blocks
from .traces import (
    DAY,
    YEAR,
    FailureEvent,
    RequestEvent,
    poisson_node_failures,
    zipf_object_trace,
    zipf_weights,
)
from .failures import (
    FailureScenario,
    multi_failure_scenarios,
    sample_scenarios,
    scenario_count,
    single_failure_scenarios,
    validate_scenario,
)

__all__ = [
    "DAY",
    "FailureEvent",
    "FailureScenario",
    "encoded_stripe",
    "multi_failure_scenarios",
    "patterned_blocks",
    "random_blocks",
    "sample_scenarios",
    "scenario_count",
    "single_failure_scenarios",
    "validate_scenario",
    "poisson_node_failures",
    "RequestEvent",
    "zipf_object_trace",
    "zipf_weights",
    "YEAR",
]
