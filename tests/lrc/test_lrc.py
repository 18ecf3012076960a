"""Tests for the LRC substrate (code, decoder, repair scheme)."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster, ContiguousPlacement, SIMICS_BANDWIDTH
from repro.gf import linear_combine
from repro.lrc import (
    LRCCode,
    LRCLocalRepair,
    UnrecoverableError,
    is_recoverable,
    lrc_recovery_equations,
)
from repro.repair import (
    RepairContext,
    execute_plan,
    initial_store_for,
    simulate_repair,
)
from repro.rs import SIMICS_DECODE

from ..codewords import is_codeword
from ..integration.test_experiments import rows


@pytest.fixture(scope="module")
def azure():
    return LRCCode(12, 2, 2)


def encoded(code, seed=0, size=128):
    rng = np.random.default_rng(seed)
    data = [rng.integers(0, 256, size, dtype=np.uint8) for _ in range(code.n)]
    return [b for b in code.encode(data)]


class TestLRCCode:
    def test_azure_shape(self, azure):
        assert azure.width == 16
        assert azure.k == 4
        assert azure.group_size == 6
        assert azure.storage_overhead == pytest.approx(1 / 3)

    def test_groups(self, azure):
        assert azure.group(0) == list(range(6))
        assert azure.group(1) == list(range(6, 12))
        assert azure.local_parity(0) == 12
        assert azure.group_of(3) == 0
        assert azure.group_of(13) == 1
        assert azure.group_of(14) is None
        assert azure.is_global_parity(15)

    def test_local_parities_are_group_xor(self, azure):
        blocks = encoded(azure, seed=1)
        g0 = blocks[0].copy()
        for b in blocks[1:6]:
            g0 ^= b
        np.testing.assert_array_equal(blocks[12], g0)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            LRCCode(12, 5, 2)  # 5 does not divide 12
        with pytest.raises(ValueError):
            LRCCode(0, 1, 1)
        with pytest.raises(ValueError):
            LRCCode(250, 2, 10)

    def test_verify_stripe(self, azure):
        rng = np.random.default_rng(2)
        data = [rng.integers(0, 256, 64, dtype=np.uint8) for _ in range(12)]
        stripe = azure.encode_stripe(data)
        assert is_codeword(azure, stripe)
        bad = stripe.get_payload(14).copy()
        bad[0] ^= 1
        stripe.set_payload(14, bad)
        assert not is_codeword(azure, stripe)

    def test_group_bounds(self, azure):
        with pytest.raises(ValueError):
            azure.group(2)
        with pytest.raises(ValueError):
            azure.local_parity(-1)
        with pytest.raises(ValueError):
            azure.group_of(99)


class TestDecoder:
    def test_single_data_failure_is_local(self, azure):
        available = [b for b in range(16) if b != 4]
        [eq] = lrc_recovery_equations(azure, [4], available)
        assert len(eq.terms) == 6  # group-size helpers, not n=12
        assert eq.is_xor_only
        assert not eq.requires_matrix_build
        assert set(eq.helper_ids) == {0, 1, 2, 3, 5, 12}

    def test_local_parity_failure_is_local(self, azure):
        available = [b for b in range(16) if b != 13]
        [eq] = lrc_recovery_equations(azure, [13], available)
        assert set(eq.helper_ids) == set(range(6, 12))

    def test_global_parity_failure_uses_wide_equation(self, azure):
        available = [b for b in range(16) if b != 15]
        [eq] = lrc_recovery_equations(azure, [15], available)
        assert eq.requires_matrix_build
        blocks = encoded(azure, seed=3)
        got = linear_combine(
            [c for _, c in eq.terms], [blocks[h] for h, _ in eq.terms]
        )
        np.testing.assert_array_equal(got, blocks[15])

    @pytest.mark.parametrize("failed", [(0, 1), (0, 7), (0, 12), (0, 6, 14), (0, 1, 2)])
    def test_multi_failure_decodes(self, azure, failed):
        blocks = encoded(azure, seed=4)
        available = [b for b in range(16) if b not in failed]
        for eq in lrc_recovery_equations(azure, list(failed), available):
            got = linear_combine(
                [c for _, c in eq.terms], [blocks[h] for h, _ in eq.terms]
            )
            np.testing.assert_array_equal(got, blocks[eq.target])

    def test_recoverability_boundaries(self, azure):
        # three failures in one group: local parity + two globals suffice
        assert is_recoverable(azure, [0, 1, 2])
        # four failures in one group: only three constraints cover it
        assert not is_recoverable(azure, [0, 1, 2, 3])
        # local parity plus three group members: same deficit
        assert not is_recoverable(azure, [0, 1, 2, 12])
        # four failures split across groups: fine
        assert is_recoverable(azure, [0, 1, 6, 7])

    def test_unrecoverable_raises(self, azure):
        available = [b for b in range(16) if b not in (0, 1, 2, 3)]
        with pytest.raises(UnrecoverableError):
            lrc_recovery_equations(azure, [0, 1, 2, 3], available)

    def test_overlap_rejected(self, azure):
        with pytest.raises(ValueError):
            lrc_recovery_equations(azure, [0], [0, 1, 2])

    @given(st.integers(0, 2**31 - 1), st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_random_recoverable_patterns_decode_exactly(self, seed, count):
        code = LRCCode(12, 2, 2)
        rng = np.random.default_rng(seed)
        failed = sorted(rng.choice(16, size=count, replace=False).tolist())
        if not is_recoverable(code, failed):
            return
        blocks = encoded(code, seed=seed, size=32)
        available = [b for b in range(16) if b not in failed]
        for eq in lrc_recovery_equations(code, failed, available):
            got = linear_combine(
                [c for _, c in eq.terms], [blocks[h] for h, _ in eq.terms]
            )
            np.testing.assert_array_equal(got, blocks[eq.target])


class TestLRCRepairScheme:
    def make_context(self, code, failed, block_size=256):
        # 2 blocks per rack keeps single-rack losses at 2 <= k = 4.
        cluster = Cluster.homogeneous(9, 4)
        placement = ContiguousPlacement(per_rack=2).place(
            cluster, code.n, code.k
        )
        return RepairContext(
            code=code,
            cluster=cluster,
            placement=placement,
            failed_blocks=tuple(failed),
            block_size=block_size,
            cost_model=SIMICS_DECODE,
        )

    @pytest.mark.parametrize("failed", [(2,), (9,), (12,), (15,), (0, 7), (3, 13)])
    def test_reconstructs(self, azure, failed):
        ctx = self.make_context(azure, failed)
        rng = np.random.default_rng(11)
        data = [rng.integers(0, 256, 256, dtype=np.uint8) for _ in range(12)]
        stripe = azure.encode_stripe(data)
        plan = LRCLocalRepair().plan(ctx)
        store = initial_store_for(stripe, ctx.placement, failed)
        result = execute_plan(plan, ctx.cluster, store)
        for b in failed:
            np.testing.assert_array_equal(result.recovered[b], stripe.get_payload(b))

    def test_single_failure_cheaper_than_rs(self, azure):
        """The LRC selling point: ~half the repair traffic of RS(12,4), for
        block 2 and on average over every data block (the
        ``rpr extension lrc`` rows EXPERIMENTS.md prints)."""
        from repro.repair import RPRScheme
        from repro.rs import get_code
        from repro.cluster import RPRPlacement

        lrc_ctx = self.make_context(azure, (2,), block_size=256_000_000)
        lrc = simulate_repair(LRCLocalRepair(), lrc_ctx, SIMICS_BANDWIDTH)

        rs_cluster = Cluster.homogeneous(9, 4)
        rs_placement = ContiguousPlacement(per_rack=2).place(rs_cluster, 12, 4)
        rs_ctx = RepairContext(
            code=get_code(12, 4),
            cluster=rs_cluster,
            placement=rs_placement,
            failed_blocks=(2,),
            block_size=256_000_000,
            cost_model=SIMICS_DECODE,
        )
        rs = simulate_repair(RPRScheme(), rs_ctx, SIMICS_BANDWIDTH)
        assert lrc.cross_rack_bytes < rs.cross_rack_bytes
        assert lrc.total_repair_time < rs.total_repair_time
        lrc_mean, rs_mean = rows("lrc_rows")
        assert lrc_mean["mean_cross_blocks"] < rs_mean["mean_cross_blocks"]
        assert lrc_mean["mean_repair_s"] < rs_mean["mean_repair_s"]

    def test_requires_lrc_code(self):
        from repro.rs import get_code
        from repro.cluster import RPRPlacement

        cluster = Cluster.homogeneous(5, 8)
        placement = RPRPlacement().place(cluster, 12, 4)
        ctx = RepairContext(
            code=get_code(12, 4),
            cluster=cluster,
            placement=placement,
            failed_blocks=(1,),
            block_size=256,
            cost_model=SIMICS_DECODE,
        )
        with pytest.raises(TypeError):
            LRCLocalRepair().plan(ctx)


class TestExhaustiveRecoverability:
    def test_all_three_failure_patterns_recoverable(self, azure):
        """LRC(12,2,2) tolerates any 3 failures (its designed distance)."""
        for combo in itertools.combinations(range(16), 3):
            assert is_recoverable(azure, combo), combo

    def test_four_failure_census(self, azure):
        """Exhaustive 4-failure census.

        257 of C(16,4)=1820 patterns are unrecoverable.  252 are
        information-theoretic deficits (a local group loses more members
        than the constraints covering it: 4-in-group, 3-in-group plus a
        global, 2-in-group plus both globals).  The remaining 5 are
        2+2 splits across both groups that a *maximally recoverable*
        LRC (Azure's tuned coefficients) would decode but our generic
        Vandermonde globals cannot — a documented construction gap, not
        a decoder bug.
        """
        unrecoverable = []
        for combo in itertools.combinations(range(16), 4):
            if not is_recoverable(azure, combo):
                unrecoverable.append(combo)
        assert len(unrecoverable) == 257
        deficit = split_22 = 0
        for combo in unrecoverable:
            counts = []
            for j in range(2):
                members = set(azure.group(j)) | {azure.local_parity(j)}
                counts.append(len(set(combo) & members))
            globals_lost = sum(1 for b in combo if azure.is_global_parity(b))
            if max(counts) + globals_lost >= 4:
                deficit += 1
            elif counts == [2, 2]:
                split_22 += 1
            else:  # pragma: no cover - census is exhaustive
                pytest.fail(f"unexpected unrecoverable pattern {combo}")
        assert deficit == 252
        assert split_22 == 5


class TestLRCInStripeCatalog:
    def test_end_to_end_object_store_with_lrc(self):
        """The stripe catalog is code-agnostic: LRC plugs in, and a dead
        node's blocks are rebuilt byte-exact by local-group repairs."""
        import numpy as np

        from repro.multistripe import StripeStore
        from repro.repair import execute_plan, initial_store_for

        cluster = Cluster.homogeneous(9, 4)
        code = LRCCode(12, 2, 2)
        store = StripeStore.build(
            cluster, code, 9, placement_policy=ContiguousPlacement(per_rack=2)
        )
        rng = np.random.default_rng(21)
        stripes = {
            stored.stripe_id: code.encode_stripe(
                list(rng.integers(0, 256, (code.n, 128), dtype=np.uint8))
            )
            for stored in store
        }
        assert all(is_codeword(code, stripe) for stripe in stripes.values())
        assert store.fail_node(0)
        for sid in store.degraded():
            ctx = store.repair_context(sid, {0}, block_size=128)
            result = execute_plan(
                LRCLocalRepair().plan(ctx),
                cluster,
                initial_store_for(stripes[sid], ctx.placement, ctx.failed_blocks),
            )
            for bid in ctx.failed_blocks:
                np.testing.assert_array_equal(
                    result.recovered[bid], stripes[sid].get_payload(bid)
                )
            store.relocate(sid, dict(ctx.recovery_override))
        assert store.degraded() == [] and store.blocks_on_node(0) == []


class TestLRCMultiStripe:
    def test_node_rebuild_with_lrc(self):
        """The multistripe orchestration is code-agnostic: a node rebuild
        over an LRC store uses local-group repairs per stripe."""
        from repro.multistripe import StripeStore, repair_node_failure

        cluster = Cluster.homogeneous(9, 4)
        store = StripeStore.build(
            cluster,
            LRCCode(12, 2, 2),
            num_stripes=9,
            placement_policy=ContiguousPlacement(per_rack=2),
        )
        outcome = repair_node_failure(
            store, 0, LRCLocalRepair(), SIMICS_BANDWIDTH, rebuild="scatter"
        )
        assert outcome.makespan > 0
        assert len(outcome.plans) == len(outcome.failure.lost)
        # local repair: each single-block loss touches ~group_size helpers,
        # so traffic stays well under the RS-style n blocks per stripe.
        per_stripe = outcome.total_cross_rack_bytes / (
            max(1, len(outcome.plans)) * 256_000_000
        )
        assert per_stripe <= 6
