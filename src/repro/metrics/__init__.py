"""Metrics over simulation traces: traffic, repair time, load balance,
utilization and critical-path attribution (the observability rollups)."""

from .faults import FaultRollup
from .loadbalance import coefficient_of_variation, imbalance_summary, max_mean_ratio
from .repairtime import percent_reduction
from .traffic import TrafficLedger, ledger_from_reports
from .utilization import UtilizationSummary

__all__ = [
    "FaultRollup",
    "TrafficLedger",
    "UtilizationSummary",
    "coefficient_of_variation",
    "imbalance_summary",
    "ledger_from_reports",
    "max_mean_ratio",
    "percent_reduction",
]
