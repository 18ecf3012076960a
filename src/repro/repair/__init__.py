"""Repair schemes and the plan/execution machinery.

Public surface:

* :class:`RepairContext` — one stripe repair's inputs.
* :class:`TraditionalRepair`, :class:`CARRepair`, :class:`RPRScheme` —
  the three planners the paper compares; :data:`SCHEMES` maps their
  names to them.
* :class:`RepairPlan` + :func:`execute_plan` — the op-DAG and its
  concrete (byte-level) executor; :func:`run_op` and
  :func:`collect_outputs` are the op step and output check every other
  plan interpreter (live runtime, store daemons, symbolic compositions)
  shares with it; :class:`OpSlice` is one slice of a sliced op, as
  :meth:`RepairPlan.parts` hands it to them.
* :func:`simulate_repair` — compile a plan and run it on the
  discrete-event engine, returning time and traffic as a
  :class:`RepairOutcome`; given a :class:`repro.sim.FaultPlan` it is the
  degraded path too, re-planning around dead helpers via
  :meth:`RepairScheme.replan` (see ``docs/FAULTS.md``).
  :func:`simulate_fault_scenario` first anchors the faults to the
  repair's own fault-free makespan (what ``rpr faults`` / ``rpr trace``
  and ``bench_degraded_repair`` run).
"""

from .base import (
    RepairContext,
    RepairPlanningError,
    RepairScheme,
    recovery_targets,
)
from .car import CARRepair
from .degraded import degraded_read_context, plan_degraded_read
from .executor import (
    ExecutionError,
    ExecutionResult,
    collect_outputs,
    execute_plan,
    initial_store_for,
    missing_payload_message,
    run_op,
)
from .faults import (
    IrrecoverableError,
    RepairSnapshot,
    payload_compositions,
    plan_degraded_gather,
    simulate_fault_scenario,
)
from .plan import CombineOp, OpSlice, PlanError, RepairPlan, SendOp, block_key
from .planstats import critical_path_hops
from .rpr import RPRScheme
from .selection import (
    first_n_helpers,
    group_survivors_by_rack,
    pick_live_spares,
    rack_aware_helpers,
    remote_rack_count,
)
from .simulate import RepairOutcome, simulate_repair
from .traditional import TraditionalRepair
from .update import apply_update_payloads, plan_update

#: The paper's three planners by the name every front end (CLI, store,
#: live validation, benches) selects them with.
SCHEMES: dict[str, type[RepairScheme]] = {
    "traditional": TraditionalRepair,
    "car": CARRepair,
    "rpr": RPRScheme,
}

__all__ = [
    "CARRepair",
    "CombineOp",
    "ExecutionError",
    "ExecutionResult",
    "IrrecoverableError",
    "OpSlice",
    "RepairSnapshot",
    "PlanError",
    "RPRScheme",
    "RepairContext",
    "RepairOutcome",
    "RepairPlan",
    "RepairPlanningError",
    "RepairScheme",
    "SCHEMES",
    "SendOp",
    "TraditionalRepair",
    "apply_update_payloads",
    "block_key",
    "collect_outputs",
    "critical_path_hops",
    "degraded_read_context",
    "execute_plan",
    "payload_compositions",
    "plan_degraded_gather",
    "plan_degraded_read",
    "plan_update",
    "first_n_helpers",
    "group_survivors_by_rack",
    "initial_store_for",
    "missing_payload_message",
    "pick_live_spares",
    "rack_aware_helpers",
    "recovery_targets",
    "remote_rack_count",
    "run_op",
    "simulate_fault_scenario",
    "simulate_repair",
]
