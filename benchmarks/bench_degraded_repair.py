#!/usr/bin/env python
"""Degraded-repair bench: repair time under injected mid-repair faults.

For each code and scheme we first measure the fault-free repair, then
re-run the same repair under seeded :func:`random_fault_plan` draws whose
death window spans that scheme's own fault-free makespan (so every draw
can strike while the repair is in flight).  The sweep quantifies what the
fault tolerance costs: degraded makespan vs fault-free, re-plan attempts,
retried/wasted wire bytes, and how often RPR's re-plan reused partial
sums already delivered by the failed attempt — the recovery property that
distinguishes it from traditional/CAR, which must restart their gathers.
One fixed row runs RPR told its links (RS(8,3), block 2 lost, 1 MiB
blocks, so the plan is slice-pipelined) with each helper killed halfway,
and checks every repair rebuilds the exact bytes.

Runs two ways:

    pytest benchmarks/bench_degraded_repair.py          # bench harness
    python benchmarks/bench_degraded_repair.py --smoke  # CI fault-path smoke
"""

from __future__ import annotations

import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parents[1]
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.experiments import (  # noqa: E402
    build_simics_environment,
    context_for,
    format_table,
)
from repro.metrics import FaultRollup  # noqa: E402
from repro.repair import (  # noqa: E402
    SCHEMES,
    IrrecoverableError,
    RPRScheme,
    recovery_targets,
    simulate_fault_scenario,
)
from repro.workloads import encoded_stripe  # noqa: E402

MB = 1024 * 1024

FULL_CODES = [(4, 2), (6, 3), (8, 3)]
FULL_SEEDS = range(8)
SMOKE_CODES = [(4, 2), (8, 3)]
SMOKE_SEEDS = range(3)


def run_sweep(codes=FULL_CODES, seeds=FULL_SEEDS, deaths: int = 1):
    """One row per (code, scheme): fault-free time + FaultRollup stats."""
    rows = []
    for n, k in codes:
        env = build_simics_environment(n, k)
        ctx = context_for(env, [1])
        for name, factory in SCHEMES.items():
            scheme = factory()
            fault_free, outcomes = None, []
            for seed in seeds:
                try:
                    fault_free, outcome = simulate_fault_scenario(
                        scheme, ctx, env.bandwidth, deaths=deaths, seed=seed
                    )
                except IrrecoverableError:
                    outcome = None
                outcomes.append(outcome)
            rollup = FaultRollup.from_outcomes(outcomes)
            rows.append(
                {
                    "code": f"({n},{k})",
                    "scheme": name,
                    "fault_free_s": fault_free,
                    "rollup": rollup,
                }
            )
    rows.append(linked_row())
    return rows


def linked_row():
    """RS(8,3), block 2 lost, 1 MiB blocks, the context told its links:
    each helper of the sliced plan dies at half its makespan."""
    env = build_simics_environment(8, 3, block_size=MB)
    ctx = replace(context_for(env, [2]), link_model=env.bandwidth)
    stripe = encoded_stripe(env.code, MB, seed=0)
    scheme = RPRScheme()
    plan = scheme.plan(ctx)
    helpers = {op.src for op in plan.sends()} - set(recovery_targets(ctx).values())
    outcomes = []
    for node in sorted(helpers):
        fault_free, outcome = simulate_fault_scenario(
            scheme, ctx, env.bandwidth, kill=[(node, 0.5)], stripe=stripe
        )
        outcomes.append(outcome)
    return {
        "code": "(8,3) 1MiB linked",
        "scheme": scheme.name,
        "fault_free_s": fault_free,
        "rollup": FaultRollup.from_outcomes(outcomes),
        "sliced": plan.slices,
        "exact": sum(
            all(
                np.array_equal(o.recovered[b], stripe.get_payload(b))
                for b in ctx.failed_blocks
            )
            for o in outcomes
        ),
    }


def pinned_reuse_outcome():
    """The pinned intermediate-reuse scenario.

    RS(8,3) has two remote racks whose cross sends serialize at the
    target; killing the second rack's sender (node 12) at 70% of the
    fault-free makespan strands it mid-transfer *after* the first rack's
    partial sums have landed — the re-plan must consume those instead of
    re-gathering them.
    """
    env = build_simics_environment(8, 3)
    _, outcome = simulate_fault_scenario(
        RPRScheme(), context_for(env, [2]), env.bandwidth, kill=[(12, 0.7)]
    )
    return outcome


def rows_to_table(rows) -> str:
    return format_table(
        [
            "code",
            "scheme",
            "fault_free_s",
            "mean_degraded_s",
            "max_degraded_s",
            "mean_attempts",
            "wasted_MB",
            "reused",
            "irrecov",
        ],
        [
            [
                r["code"],
                r["scheme"],
                r["fault_free_s"],
                r["rollup"].mean_makespan,
                r["rollup"].max_makespan,
                r["rollup"].mean_attempts,
                r["rollup"].wasted_bytes / MB,
                r["rollup"].reuse_count,
                r["rollup"].irrecoverable,
            ]
            for r in rows
        ],
    )


def check_rows(rows) -> None:
    """Invariants every sweep must satisfy (used by pytest and --smoke)."""
    for r in rows:
        rollup = r["rollup"]
        # Single-death scenarios on the Simics testbed (a spare rack plus
        # 2k nodes per rack) always leave enough live helpers and spares.
        assert rollup.irrecoverable == 0, r
        assert rollup.completed == rollup.scenarios
        # A degraded repair is never faster than its fault-free baseline.
        assert rollup.mean_makespan >= r["fault_free_s"] - 1e-9, r
        assert 1.0 <= rollup.mean_attempts <= rollup.max_attempts or rollup.scenarios == 0
        if "exact" in r:  # the linked row: sliced, and every rebuild byte-exact
            assert r["sliced"] > 1, r
            assert r["exact"] == rollup.scenarios, r
    # RPR's re-plan must reuse delivered intermediates in the pinned
    # helper-death scenario — the property the scheme exists to provide.
    pinned = pinned_reuse_outcome()
    assert pinned.attempts == 2
    assert pinned.reused_payloads


def test_degraded_repair_sweep(bench_once):
    rows = bench_once(run_sweep)
    emit_rows(rows)
    check_rows(rows)


def emit_rows(rows) -> None:
    from conftest import emit

    emit(
        "Degraded repair under injected node deaths "
        "(seeded fault plans, death window = fault-free makespan)",
        rows_to_table(rows),
    )


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small codes / few seeds — the CI fault-path check",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        rows = run_sweep(codes=SMOKE_CODES, seeds=SMOKE_SEEDS)
    else:
        rows = run_sweep()
    print(rows_to_table(rows))
    check_rows(rows)
    print("degraded-repair sweep OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
