"""Tests for simulate_repair (plan → engine → outcome, faults and all)."""

import pytest

from repro.cluster import SIMICS_BANDWIDTH, HierarchicalBandwidth
from repro.repair import (
    SCHEMES,
    RepairScheme,
    RPRScheme,
    TraditionalRepair,
    recovery_targets,
    simulate_repair,
)
from repro.rs import RSCode
from repro.sim import FaultPlan, NodeDeath

from .conftest import make_context, make_stripe


class TestRepairOutcome:
    def test_fields_populated(self):
        ctx = make_context(6, 2, failed=[1])
        outcome = simulate_repair(RPRScheme(), ctx, SIMICS_BANDWIDTH)
        assert outcome.scheme == "rpr"
        assert outcome.total_repair_time > 0
        assert outcome.cross_rack_bytes > 0
        assert outcome.intra_rack_bytes >= 0
        assert outcome.plan is not None
        assert outcome.sim.makespan == outcome.total_repair_time

    def test_cross_rack_blocks_unit(self):
        ctx = make_context(6, 2, failed=[1])
        outcome = simulate_repair(RPRScheme(), ctx, SIMICS_BANDWIDTH)
        assert outcome.cross_rack_blocks == pytest.approx(
            outcome.cross_rack_bytes / ctx.block_size
        )

    def test_uses_context_cost_model(self):
        """The matrix-build surcharge must show up in the makespan."""
        from repro.rs import MB, DecodeCostModel
        from dataclasses import replace

        base = make_context(6, 2, failed=[7])  # parity: matrix build
        slow = replace(
            base, cost_model=DecodeCostModel(xor_speed=MB, matrix_build_factor=100.0)
        )
        fast_outcome = simulate_repair(RPRScheme(), base, SIMICS_BANDWIDTH)
        slow_outcome = simulate_repair(RPRScheme(), slow, SIMICS_BANDWIDTH)
        assert slow_outcome.total_repair_time > fast_outcome.total_repair_time

    def test_bandwidth_model_drives_timing(self):
        ctx = make_context(6, 2, failed=[1])
        fast = simulate_repair(
            TraditionalRepair(), ctx, HierarchicalBandwidth(intra=1e9, cross=1e8)
        )
        slow = simulate_repair(
            TraditionalRepair(), ctx, HierarchicalBandwidth(intra=1e8, cross=1e7)
        )
        assert slow.total_repair_time == pytest.approx(
            10 * fast.total_repair_time, rel=0.2
        )

    def test_bandwidth_defaults_to_the_context_link_model(self):
        from dataclasses import replace

        ctx = make_context(6, 2, failed=[1])
        links = HierarchicalBandwidth(intra=1e8, cross=1e7)
        told = replace(ctx, link_model=links)
        assert simulate_repair(RPRScheme(), told).total_repair_time == (
            simulate_repair(RPRScheme(), told, links).total_repair_time
        )
        with pytest.raises(ValueError, match="no bandwidth model"):
            simulate_repair(RPRScheme(), ctx)

    def test_plan_is_fresh_per_call(self):
        ctx = make_context(6, 2, failed=[1])
        a = simulate_repair(RPRScheme(), ctx, SIMICS_BANDWIDTH)
        b = simulate_repair(RPRScheme(), ctx, SIMICS_BANDWIDTH)
        assert a.plan is not b.plan
        assert a.total_repair_time == b.total_repair_time


def paper_single_failures():
    from repro.experiments import build_simics_environment, context_for
    from repro.rs import PAPER_SINGLE_FAILURE_CODES

    for n, k in PAPER_SINGLE_FAILURE_CODES:
        env = build_simics_environment(n, k)
        for block in range(n + k):
            yield env, context_for(env, [block])


class _Planned(RepairScheme):
    """A scheme that hands back a plan made before the spy went in."""

    name = "planned"

    def __init__(self, plan):
        self._plan = plan

    def plan(self, ctx):
        return self._plan


class TestOneSimulatedRepair:
    """A fault-free repair is one attempt of the faulted loop: no fault
    plan, an empty one and the plain call are the same run."""

    def test_no_fault_plan_and_an_empty_one_are_the_plain_run(self):
        cases = 0
        for env, ctx in paper_single_failures():
            for name, factory in SCHEMES.items():
                runs = [
                    simulate_repair(factory(), ctx, env.bandwidth),
                    simulate_repair(factory(), ctx, env.bandwidth, None),
                    simulate_repair(factory(), ctx, env.bandwidth, FaultPlan()),
                ]
                base = runs[0]
                assert base.attempts == 1
                for run in runs[1:]:
                    assert run.attempts == 1
                    assert list(run.plan.ops) == list(base.plan.ops), (ctx, name)
                    assert run.sim.events == base.sim.events
                    assert repr(run.total_repair_time) == repr(base.total_repair_time)
                    assert run.cross_rack_bytes == base.cross_rack_bytes
                    assert run.intra_rack_bytes == base.intra_rack_bytes
                    assert run.cross_rack_blocks == base.cross_rack_blocks
                cases += 1
        assert cases == 183

    def test_a_fault_free_run_does_no_symbolic_bookkeeping(self, monkeypatch):
        ctx = make_context(6, 3, failed=[1])
        stripe = make_stripe(ctx)
        plans = {name: factory().plan(ctx) for name, factory in SCHEMES.items()}
        calls = []
        real = RSCode.generator_row
        monkeypatch.setattr(
            RSCode, "generator_row", lambda code, block: calls.append(block) or real(code, block)
        )
        for plan in plans.values():
            simulate_repair(_Planned(plan), ctx, SIMICS_BANDWIDTH)
            simulate_repair(_Planned(plan), ctx, SIMICS_BANDWIDTH, FaultPlan(), stripe=stripe)
        assert calls == []
        # The spy does see the bookkeeping once a death aborts an attempt:
        # a composition per surviving block, on top of the two plans.
        fault_free = simulate_repair(_Planned(plans["rpr"]), ctx, SIMICS_BANDWIDTH)
        victim = next(
            op.src
            for op in plans["rpr"].sends()
            if op.src not in set(recovery_targets(ctx).values())
        )
        death = FaultPlan(deaths=(NodeDeath(victim, 0.01 * fault_free.total_repair_time),))
        assert simulate_repair(RPRScheme(), ctx, SIMICS_BANDWIDTH, death).attempts == 2
        assert len(calls) > ctx.code.width - 1

    def test_a_fault_free_run_recovers_the_bytes(self):
        ctx = make_context(6, 3, failed=[1])
        stripe = make_stripe(ctx)
        outcome = simulate_repair(RPRScheme(), ctx, SIMICS_BANDWIDTH, stripe=stripe)
        assert outcome.attempts == 1 and not outcome.degraded
        assert sorted(outcome.recovered) == [1]
        assert (outcome.recovered[1] == stripe.get_payload(1)).all()

    def test_a_fault_free_trace_is_not_tagged_with_attempts(self):
        ctx = make_context(6, 2, failed=[1])
        tel = simulate_repair(RPRScheme(), ctx, SIMICS_BANDWIDTH).telemetry()
        assert tel.meta == {"source": "sim", "scheme": "rpr"}
        assert tel.spans
        assert not any("attempt" in span.attrs for span in tel.spans)
