"""Degraded repair: mid-repair helper death, re-planning, byte oracle.

The contracts from docs/FAULTS.md:

* every scheme survives a helper dying mid-gather — the re-planned
  repair reconstructs the exact lost bytes (executor oracle);
* RPR's re-plan consumes partial sums already delivered by the failed
  attempt (pinned RS(8,3) scenario);
* below the decode threshold, or past the retry budget, the loop raises
  a typed ``IrrecoverableError`` — never a silent wrong answer;
* a fault plan that never fires reproduces the fault-free repair
  exactly, and faulted runs are deterministic.

Helper deaths are anchored as fractions of each scheme's own fault-free
makespan, so the scenarios are block-size portable (the same trick the
``rpr faults`` CLI uses).
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.cluster import SIMICS_BANDWIDTH
from repro.repair import (
    CARRepair,
    IrrecoverableError,
    RPRScheme,
    TraditionalRepair,
    recovery_targets,
    simulate_fault_scenario,
    simulate_repair,
)
from repro.sim import EventKind, FaultPlan, NodeDeath, TransferLoss

from .conftest import make_context, make_stripe

SCHEMES = [TraditionalRepair(), CARRepair(), RPRScheme()]


def helper_death(scheme, ctx, frac=0.6):
    """A FaultPlan killing a helper whose send is in flight at ``frac``
    of the scheme's fault-free makespan (never a recovery target)."""
    out = simulate_repair(scheme, ctx, SIMICS_BANDWIDTH)
    targets = set(recovery_targets(ctx).values())
    t = frac * out.sim.makespan
    for op in out.plan.sends():
        timing = out.sim.timings[op.op_id]
        if timing.start < t < timing.end and op.src not in targets:
            return FaultPlan(deaths=(NodeDeath(node=op.src, time=t),))
    raise AssertionError(f"no helper send in flight at {t}")


def wasted_bytes_by_hand(outcome):
    """``wasted_bytes`` recounted from each aborted attempt's delivered
    transfers: sends delivered whole whose payload no later plan read
    (one block each), slices of sends not delivered whole (the commit
    drops them), lost attempts and pro-rata aborts."""
    total = sum(s.faults.retried_bytes + s.faults.aborted_bytes for s in outcome.sims)
    orphaned = 0
    for idx, (plan, sim) in enumerate(zip(outcome.plans[:-1], outcome.sims)):
        delivered = {e.job_id: e.nbytes for e in sim.transfers()}
        whole = plan.ops_done(delivered)
        later = {
            (key, op.owner)
            for other in outcome.plans[idx + 1 :]
            for op in other.ops.values()
            for key in op.reads
        }
        for op_id, parts in plan.parts().items():
            op = plan.ops[op_id]
            if op.kind != "send":
                continue
            if op_id not in whole:
                orphaned += sum(delivered.get(part.op_id, 0) for part in parts)
            elif (op.key, op.dst) not in later:
                total += plan.block_size
    return {"total": total + orphaned, "orphaned": orphaned}


def assert_oracle(outcome, ctx, stripe):
    assert outcome.recovered is not None
    for block in ctx.failed_blocks:
        np.testing.assert_array_equal(
            outcome.recovered[block], stripe.get_payload(block)
        )


class TestHelperDeathMidRepair:
    @pytest.mark.parametrize("scheme", SCHEMES, ids=lambda s: s.name)
    def test_degraded_repair_reconstructs_exact_bytes(self, scheme):
        ctx = make_context(6, 3, failed=[1])
        stripe = make_stripe(ctx)
        faults = helper_death(scheme, ctx)
        outcome = simulate_repair(
            scheme, ctx, SIMICS_BANDWIDTH, faults, stripe=stripe
        )
        assert outcome.degraded
        assert outcome.attempts == 2
        assert len(outcome.dead_nodes) == 1
        # The aborted first attempt left wire work that never helped.
        assert outcome.wasted_bytes > 0
        # Degraded repair costs time, never saves it.
        fault_free = simulate_repair(scheme, ctx, SIMICS_BANDWIDTH)
        assert outcome.total_repair_time > fault_free.total_repair_time
        assert_oracle(outcome, ctx, stripe)

    @pytest.mark.parametrize(
        "scheme", [TraditionalRepair(), RPRScheme()], ids=lambda s: s.name
    )
    def test_multi_failure_repair_survives_helper_death(self, scheme):
        ctx = make_context(8, 4, failed=[1, 5])
        stripe = make_stripe(ctx)
        faults = helper_death(scheme, ctx)
        outcome = simulate_repair(
            scheme, ctx, SIMICS_BANDWIDTH, faults, stripe=stripe
        )
        assert outcome.degraded
        assert_oracle(outcome, ctx, stripe)

    def test_lost_transfers_retry_and_still_verify(self):
        ctx = make_context(6, 3, failed=[1])
        stripe = make_stripe(ctx)
        faults = FaultPlan(loss_probability=0.4, seed=5)
        outcome = simulate_repair(
            RPRScheme(), ctx, SIMICS_BANDWIDTH, faults, stripe=stripe
        )
        # Losses are absorbed within the attempt (requeue, not re-plan).
        assert outcome.attempts == 1
        assert outcome.retry_count > 0
        assert outcome.retried_bytes > 0
        assert_oracle(outcome, ctx, stripe)

    def test_lost_then_refused_send_is_not_counted_as_delivered(self):
        """A send whose only attempt was lost, and whose source died before
        the retry could start, delivered nothing: its timing (the lost
        attempt's) must not put it in the committed prefix."""
        ctx = make_context(6, 3, failed=[1])
        scheme = TraditionalRepair()
        clean = simulate_repair(scheme, ctx, SIMICS_BANDWIDTH)
        first = min(clean.plan.sends(), key=lambda op: clean.sim.timings[op.op_id].start)
        faults = FaultPlan(
            losses=(TransferLoss(job_id=first.op_id),),
            # completions fire before deaths at one instant, starts after
            deaths=(NodeDeath(first.src, clean.sim.timings[first.op_id].end),),
        )
        outcome = simulate_repair(scheme, ctx, SIMICS_BANDWIDTH, faults)
        attempt = outcome.sims[0]
        assert first.op_id in attempt.faults.failed
        assert first.op_id in attempt.timings  # the lost attempt ran
        delivered = {
            e.job_id for e in attempt.events if e.kind == EventKind.TRANSFER_END
        }
        assert first.op_id not in delivered
        consumed_later = {
            (key, op.owner) for op in outcome.plans[1].ops.values() for key in op.reads
        }
        unused = [
            op
            for op in outcome.plans[0].sends()
            if op.op_id in delivered and (op.key, op.dst) not in consumed_later
        ]
        assert outcome.wasted_bytes == (
            outcome.retried_bytes
            + sum(s.faults.aborted_bytes for s in outcome.sims)
            + ctx.block_size * len(unused)
        )

    def test_sliced_plans_recover_exact_bytes(self):
        """Under a link model RS(8,3) plans an 8-slice chain.  Kill each
        helper at 0.05 ... 0.95 of it: every repair rebuilds the exact
        bytes, an attempt aborted mid-chain was sliced, and what the
        aborted attempts moved for nothing adds up."""
        ctx = replace(
            make_context(8, 3, failed=[2], block_size=1 << 20),
            link_model=SIMICS_BANDWIDTH,
        )
        scheme = RPRScheme()
        plan = scheme.plan(ctx)
        assert plan.slices == 8
        stripe = make_stripe(ctx)
        helpers = {op.src for op in plan.sends()} - set(recovery_targets(ctx).values())
        aborted_slices, orphaned = [], []
        for node in sorted(helpers):
            for tenth in range(10):
                _, outcome = simulate_fault_scenario(
                    scheme, ctx, SIMICS_BANDWIDTH,
                    kill=((node, 0.05 + tenth / 10),), stripe=stripe,
                )
                assert_oracle(outcome, ctx, stripe)
                aborted_slices += [p.slices for p in outcome.plans[:-1]]
                wasted = wasted_bytes_by_hand(outcome)
                assert outcome.wasted_bytes == pytest.approx(wasted["total"])
                orphaned.append(wasted["orphaned"])
        assert 8 in aborted_slices
        assert max(orphaned) > 0

    def test_deaths_are_anchored_to_the_plan_that_runs(self):
        """The fault-free horizon and attempt 0 are one plan, link model
        and all, so a death just past the horizon strikes nothing."""
        ctx = replace(
            make_context(8, 3, failed=[2], block_size=1 << 20),
            link_model=SIMICS_BANDWIDTH,
        )
        scheme = RPRScheme()
        horizon, outcome = simulate_fault_scenario(
            scheme, ctx, SIMICS_BANDWIDTH, kill=((12, 1.01),)
        )
        fault_free = simulate_repair(scheme, ctx, SIMICS_BANDWIDTH)
        assert list(outcome.plans[0].ops) == list(fault_free.plan.ops)
        assert outcome.sims[0].makespan == horizon
        assert not outcome.degraded

    def test_deterministic_outcome(self):
        ctx = make_context(6, 3, failed=[1])
        scheme = RPRScheme()
        faults = helper_death(scheme, ctx)
        runs = [
            simulate_repair(scheme, ctx, SIMICS_BANDWIDTH, faults)
            for _ in range(2)
        ]
        assert repr(runs[0].total_repair_time) == repr(runs[1].total_repair_time)
        assert runs[0].sims == runs[1].sims
        assert runs[0].telemetry() == runs[1].telemetry()


class TestPinnedIntermediateReuse:
    """RS(8,3), block 2 lost: two remote racks' cross sends serialise at
    the target, so killing the second rack's sender (node 12) at 70% of
    the fault-free makespan strands it *after* rack r1's partial sums
    crossed the core — the re-plan must consume those, not re-gather."""

    def run(self, block_size=512):
        ctx = make_context(8, 3, failed=[2], block_size=block_size)
        stripe = make_stripe(ctx)
        fault_free = simulate_repair(RPRScheme(), ctx, SIMICS_BANDWIDTH)
        faults = FaultPlan(
            deaths=(NodeDeath(node=12, time=0.7 * fault_free.total_repair_time),)
        )
        outcome = simulate_repair(
            RPRScheme(), ctx, SIMICS_BANDWIDTH, faults, stripe=stripe
        )
        return ctx, stripe, outcome

    def test_replan_reuses_delivered_partial_sums(self):
        ctx, stripe, outcome = self.run()
        assert outcome.attempts == 2
        assert outcome.reused_payloads == (
            "rpr:inner:r1:L0:p0:eq0:im",
            "rpr:inner:r1:L1:p0:eq0:im",
        )
        assert_oracle(outcome, ctx, stripe)

    def test_reuse_is_block_size_portable(self):
        _, _, outcome = self.run(block_size=1 << 20)
        assert outcome.reused_payloads == (
            "rpr:inner:r1:L0:p0:eq0:im",
            "rpr:inner:r1:L1:p0:eq0:im",
        )


class TestIrrecoverable:
    @pytest.mark.parametrize("scheme", SCHEMES, ids=lambda s: s.name)
    def test_below_decode_threshold_raises(self, scheme):
        ctx = make_context(4, 2, failed=[1])
        survivors = [b for b in range(ctx.code.width) if b != 1]
        doomed = [ctx.placement.node_of(b) for b in survivors[:3]]
        faults = FaultPlan(
            deaths=tuple(NodeDeath(node=n, time=0.0) for n in doomed)
        )
        with pytest.raises(IrrecoverableError) as err:
            simulate_repair(scheme, ctx, SIMICS_BANDWIDTH, faults)
        assert err.value.failed_blocks == (1,)
        assert err.value.attempt >= 1

    def test_retry_budget_exhausted_raises(self):
        ctx = make_context(6, 3, failed=[1])
        scheme = RPRScheme()
        faults = helper_death(scheme, ctx)
        with pytest.raises(IrrecoverableError):
            simulate_repair(
                scheme, ctx, SIMICS_BANDWIDTH, faults, max_attempts=1
            )

    def test_max_attempts_must_be_positive(self):
        ctx = make_context(6, 3, failed=[1])
        with pytest.raises(ValueError):
            simulate_repair(
                RPRScheme(), ctx, SIMICS_BANDWIDTH, None, max_attempts=0
            )


class TestZeroFaultIdentity:
    @pytest.mark.parametrize("scheme", SCHEMES, ids=lambda s: s.name)
    def test_no_faults_match_plain_simulation(self, scheme):
        ctx = make_context(6, 3, failed=[1])
        base = simulate_repair(scheme, ctx, SIMICS_BANDWIDTH)
        for faults in (None, FaultPlan()):
            outcome = simulate_repair(
                scheme, ctx, SIMICS_BANDWIDTH, faults
            )
            assert not outcome.degraded
            assert outcome.attempts == 1
            assert outcome.reused_payloads == ()
            assert repr(outcome.total_repair_time) == repr(base.total_repair_time)
            assert outcome.cross_rack_bytes == base.cross_rack_bytes

    def test_never_firing_death_matches_plain_simulation(self):
        ctx = make_context(6, 3, failed=[1])
        base = simulate_repair(RPRScheme(), ctx, SIMICS_BANDWIDTH)
        faults = FaultPlan(deaths=(NodeDeath(node=0, time=1e9),))
        outcome = simulate_repair(
            RPRScheme(), ctx, SIMICS_BANDWIDTH, faults
        )
        assert not outcome.degraded
        assert repr(outcome.total_repair_time) == repr(base.total_repair_time)


class TestOutcomeExport:
    def test_to_dict_is_json_serializable(self):
        import json

        ctx = make_context(6, 3, failed=[1])
        stripe = make_stripe(ctx)
        scheme = RPRScheme()
        faults = helper_death(scheme, ctx)
        outcome = simulate_repair(
            scheme, ctx, SIMICS_BANDWIDTH, faults, stripe=stripe
        )
        data = json.loads(json.dumps(outcome.to_dict()))
        assert data["attempts"] == 2
        assert data["scheme"] == scheme.name
        assert data["recovered_blocks"] == [1]

    def test_fault_rollup_aggregates(self):
        from repro.metrics import FaultRollup

        ctx = make_context(6, 3, failed=[1])
        scheme = RPRScheme()
        outcomes = [
            simulate_repair(
                scheme, ctx, SIMICS_BANDWIDTH, helper_death(scheme, ctx)
            ),
            simulate_repair(scheme, ctx, SIMICS_BANDWIDTH, None),
            None,  # an irrecoverable scenario
        ]
        rollup = FaultRollup.from_outcomes(outcomes)
        assert rollup.scenarios == 3
        assert rollup.completed == 2
        assert rollup.irrecoverable == 1
        assert rollup.max_attempts == 2
        assert rollup.mean_attempts == pytest.approx(1.5)
        assert rollup.wasted_bytes > 0
        data = rollup.to_dict()
        assert data["scenarios"] == 3
