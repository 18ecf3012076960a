"""Byte-level tests of the stripe catalog.

:class:`repro.multistripe.StripeStore` decides every placement, loss,
repair target and re-pointing.  :class:`Blocks` below only keeps the
payload each catalog record names and moves real bytes with the
library's own planner and executor, so each test checks the catalog's
decisions against real GF arithmetic: after any kill / repair / revive /
overwrite sequence, what was written still reads back.
"""

import random
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster, ContiguousPlacement, SIMICS_BANDWIDTH
from repro.lrc import LRCCode, LRCLocalRepair
from repro.multistripe import StripeStore, merge_plans
from repro.repair import (
    CARRepair,
    RepairContext,
    RepairPlanningError,
    RPRScheme,
    TraditionalRepair,
    execute_plan,
    plan_degraded_read,
    simulate_repair,
)
from repro.repair.plan import block_key
from repro.repair.update import plan_update
from repro.rs import SIMICS_DECODE, get_code
from repro.sim import SimulationEngine
from repro.store.objects import ObjectInfo, reassemble, split_into_stripes


class DegradedError(RuntimeError):
    """A plain read or an overwrite hit a block nobody can serve."""


class Blocks:
    """The payloads a catalog's records name (test-only).

    ``held[sid, bid]`` is one block's bytes at rest; *where* it rests is
    ``store.stripe(sid).placement`` and nothing else.
    """

    def __init__(self, code=None, scheme=None, cluster=None, policy=None, block_size=256):
        self.cluster = cluster or Cluster.homogeneous(5, 6)
        self.store = StripeStore(self.cluster, code or get_code(6, 2), policy)
        self.scheme = scheme or RPRScheme()
        self.block_size = block_size
        self.dead: set[int] = set()
        self.held: dict[tuple[int, int], np.ndarray] = {}

    def put(self, data) -> ObjectInfo:
        code = self.store.code
        data = np.asarray(data, dtype=np.uint8)
        sids = []
        for blocks in split_into_stripes(data, code.n, self.block_size):
            stored = self.store.allocate()
            assert not self.dead & set(stored.placement.block_to_node.values())
            for bid, payload in enumerate(code.encode(blocks)):
                self.held[stored.stripe_id, bid] = payload
                stored.checksums[bid] = zlib.crc32(payload.tobytes())
            self.store.add(stored)
            sids.append(stored.stripe_id)
        return ObjectInfo("obj", int(data.size), tuple(sids), self.block_size, code.n)

    def kill(self, node: int) -> int:
        """The node and every byte on it are gone; returns blocks lost."""
        self.dead.add(node)
        lost = self.store.fail_node(node)
        for key in lost:
            del self.held[key]
        return len(lost)

    def payloads(self, sid: int) -> dict[int, dict[str, np.ndarray]]:
        """The executor's per-node view of one stripe's readable blocks."""
        placement = self.store.stripe(sid).placement
        return {
            node: {block_key(bid): self.held[sid, bid]}
            for bid, node in placement.block_to_node.items()
            if (sid, bid) in self.held
        }

    def repair(self) -> list[RepairContext]:
        """Rebuild every degraded stripe where the catalog says; returns
        the contexts repaired, in the catalog's queue order."""
        done = []
        for sid in self.store.degraded():
            ctx = self.store.repair_context(sid, self.dead, block_size=self.block_size)
            result = execute_plan(self.scheme.plan(ctx), self.cluster, self.payloads(sid))
            for bid in ctx.failed_blocks:
                self.held[sid, bid] = result.recovered[bid]
            self.store.relocate(sid, dict(ctx.recovery_override))
            done.append(ctx)
        return done

    def get(self, info: ObjectInfo, client: int | None = None) -> np.ndarray:
        """The object's bytes; lost data blocks are reconstructed at
        ``client`` (a degraded read) or, without one, refuse the read."""
        stripes = []
        for sid in info.stripe_ids:
            stored = self.store.stripe(sid)
            lost = self.store.lost_blocks(sid, self.dead)
            blocks = []
            for bid in range(info.n):
                if bid not in lost:
                    blocks.append(self.held[sid, bid])
                    continue
                if client is None:
                    raise DegradedError(f"stripe {sid} block {bid} is lost")
                ctx = RepairContext(
                    code=stored.code,
                    cluster=self.cluster,
                    placement=stored.placement,
                    failed_blocks=(bid,),
                    block_size=self.block_size,
                    unavailable_blocks=tuple(sorted(lost - {bid})),
                )
                plan = plan_degraded_read(self.scheme, ctx, client)
                result = execute_plan(plan, self.cluster, self.payloads(sid))
                blocks.append(result.recovered[bid])
            stripes.append(blocks)
        return np.frombuffer(reassemble(info, stripes), dtype=np.uint8)

    def overwrite(self, info: ObjectInfo, data) -> int:
        """Same-size in-place update by parity deltas; returns the number
        of data blocks that changed (write-time checksums follow)."""
        data = np.asarray(data, dtype=np.uint8)
        if data.size != info.size:
            raise ValueError(f"overwrite must keep the size ({info.size} bytes)")
        updated = 0
        new_stripes = split_into_stripes(data, info.n, self.block_size)
        for sid, new_blocks in zip(info.stripe_ids, new_stripes):
            stored = self.store.stripe(sid)
            ctx = self.store.repair_context(sid, self.dead, block_size=self.block_size)
            if ctx.failed_blocks:
                raise DegradedError(f"stripe {sid} is degraded; repair before overwriting")
            for bid in range(info.n):
                if np.array_equal(self.held[sid, bid], new_blocks[bid]):
                    continue
                payloads = self.payloads(sid)
                payloads[stored.placement.node_of(bid)][f"update:new:{bid}"] = new_blocks[bid]
                result = execute_plan(plan_update(ctx, bid), self.cluster, payloads)
                for out, payload in result.recovered.items():
                    self.held[sid, out] = payload
                    stored.checksums[out] = zlib.crc32(payload.tobytes())
                updated += 1
        return updated

    def corrupt(self, sid: int, bid: int, byte_index: int = 0) -> None:
        """Silently flip bits at rest — the catalog is not told."""
        payload = self.held[sid, bid].copy()
        payload[byte_index % payload.size] ^= 0xFF
        self.held[sid, bid] = payload

    def scrub(self) -> list[tuple[int, int]]:
        """Blocks at rest that no longer match their write-time CRC."""
        return sorted(
            (sid, bid)
            for (sid, bid), payload in self.held.items()
            if zlib.crc32(payload.tobytes()) != self.store.stripe(sid).checksums[bid]
        )

    def repair_corruption(self) -> list[RepairContext]:
        """A corrupted block is no helper: drop it, then repair as usual."""
        for sid, bid in self.scrub():
            del self.held[sid, bid]
            self.store.stripe(sid).missing.add(bid)
        return self.repair()

    def verify(self) -> bool:
        """Every stripe is whole, on live nodes, and a valid codeword."""
        for stored in self.store:
            sid, code = stored.stripe_id, stored.code
            if self.store.lost_blocks(sid, self.dead):
                return False
            at_rest = [self.held[sid, bid] for bid in range(code.width)]
            expected = code.encode(at_rest[: code.n])
            if not all(np.array_equal(a, b) for a, b in zip(expected, at_rest)):
                return False
        return True


def payload(size, seed=0):
    return np.random.default_rng(seed).integers(0, 256, size, dtype=np.uint8)


def degrade(blocks: Blocks) -> None:
    """Kill nodes until some stripe has lost a block."""
    for node in blocks.cluster.node_ids():
        blocks.kill(node)
        if blocks.store.degraded():
            return


class TestPutGet:
    def test_roundtrip_single_stripe(self):
        blocks = Blocks()
        data = payload(100)
        info = blocks.put(data)
        assert len(info.stripe_ids) == 1
        np.testing.assert_array_equal(blocks.get(info), data)

    def test_roundtrip_multi_stripe(self):
        blocks = Blocks()
        data = payload(5000)  # > 6 * 256 bytes -> several stripes
        info = blocks.put(data)
        assert len(info.stripe_ids) > 1
        np.testing.assert_array_equal(blocks.get(info), data)

    def test_empty_object(self):
        blocks = Blocks()
        info = blocks.put(payload(0))
        assert len(info.stripe_ids) == 1 and blocks.get(info).size == 0

    def test_multiple_objects(self):
        blocks = Blocks()
        blobs = [payload(300 + i, seed=i) for i in range(5)]
        infos = [blocks.put(data) for data in blobs]
        for info, data in zip(infos, blobs):
            np.testing.assert_array_equal(blocks.get(info), data)
        ids = [sid for info in infos for sid in info.stripe_ids]
        assert ids == sorted(set(ids)) == sorted(blocks.store.stripes)

    def test_duplicate_name_rejected(self):
        """A stripe id names one record: adding it twice is refused."""
        blocks = Blocks()
        info = blocks.put(payload(1))
        with pytest.raises(ValueError, match="already"):
            blocks.store.add(blocks.store.stripe(info.stripe_ids[0]))

    def test_missing_object(self):
        """Deleted stripes are gone by id; their neighbours still read."""
        blocks = Blocks()
        first, second = blocks.put(payload(3000)), blocks.put(payload(400, seed=1))
        for sid in first.stripe_ids:
            blocks.store.remove(sid)
        with pytest.raises(KeyError):
            blocks.get(first)
        np.testing.assert_array_equal(blocks.get(second), payload(400, seed=1))

    def test_verify_clean_system(self):
        blocks = Blocks()
        blocks.put(payload(2000))
        assert blocks.verify()


class TestFailures:
    def test_fail_node_reports_lost_blocks(self):
        blocks = Blocks()
        blocks.put(payload(5000))
        lost = blocks.kill(0)
        assert lost == len(blocks.store.blocks_on_node(0))
        assert (lost > 0) == bool(blocks.store.degraded())

    def test_fail_node_idempotent(self):
        blocks = Blocks()
        blocks.put(payload(5000))
        assert blocks.kill(0) > 0
        assert blocks.kill(0) == 0

    def test_unknown_node(self):
        with pytest.raises(KeyError):
            Blocks().kill(999)

    def test_plain_get_raises_when_degraded(self):
        blocks = Blocks()
        info = blocks.put(payload(5000))
        degrade(blocks)
        with pytest.raises(DegradedError):
            blocks.get(info)

    def test_degraded_get_returns_original(self):
        blocks = Blocks()
        data = payload(5000)
        info = blocks.put(data)
        blocks.kill(0)
        np.testing.assert_array_equal(blocks.get(info, client=29), data)

    def test_verify_false_when_degraded(self):
        blocks = Blocks()
        blocks.put(payload(5000))
        degrade(blocks)
        assert not blocks.verify()


class TestRepair:
    def test_repair_restores_everything(self):
        blocks = Blocks()
        data = payload(8000)
        info = blocks.put(data)
        lost = blocks.kill(0)
        repaired = blocks.repair()
        assert sum(len(ctx.failed_blocks) for ctx in repaired) == lost
        assert blocks.store.degraded() == []
        assert blocks.verify()
        np.testing.assert_array_equal(blocks.get(info), data)

    def test_repair_reports_simulated_cost(self):
        """What the catalog hands the byte executor is the same context
        the simulator prices."""
        blocks = Blocks()
        blocks.put(payload(8000))
        blocks.kill(0)
        repaired = blocks.repair()
        assert repaired
        for ctx in repaired:
            outcome = simulate_repair(blocks.scheme, ctx, SIMICS_BANDWIDTH)
            assert outcome.total_repair_time > 0
            assert outcome.cross_rack_bytes > 0

    def test_repair_noop_when_clean(self):
        blocks = Blocks()
        blocks.put(payload(1000))
        assert blocks.repair() == []

    def test_placement_updated_to_live_nodes(self):
        blocks = Blocks()
        blocks.put(payload(8000))
        blocks.kill(0)
        blocks.repair()
        for stored in blocks.store:
            assert not blocks.dead & set(stored.placement.block_to_node.values())

    def test_sequential_failures_up_to_tolerance(self):
        """k=2: two separate failure+repair cycles keep everything intact."""
        blocks = Blocks()
        data = payload(8000)
        info = blocks.put(data)
        for victim in (0, 6):
            blocks.kill(victim)
            blocks.repair()
        assert blocks.verify()
        np.testing.assert_array_equal(blocks.get(info), data)

    def test_concurrent_failures_within_tolerance(self):
        blocks = Blocks()
        data = payload(8000)
        info = blocks.put(data)
        # two nodes in different racks: at most 2 blocks per stripe lost
        blocks.kill(0)
        blocks.kill(6)
        repaired = blocks.repair()
        lost = [len(ctx.failed_blocks) for ctx in repaired]
        assert lost == sorted(lost, reverse=True)  # most at risk first
        assert blocks.verify()
        np.testing.assert_array_equal(blocks.get(info), data)

    def test_revive_node_restores_capacity(self):
        blocks = Blocks()
        blocks.put(payload(2000))
        blocks.kill(0)
        blocks.repair()
        blocks.dead.discard(0)  # replaced: empty capacity, old bytes stay lost
        blocks.put(payload(500, seed=9))
        assert blocks.verify()

    @pytest.mark.parametrize(
        "scheme", [TraditionalRepair(), CARRepair()], ids=lambda s: s.name
    )
    def test_alternative_schemes(self, scheme):
        blocks = Blocks(scheme=scheme)
        data = payload(5000)
        info = blocks.put(data)
        blocks.kill(0)
        # CAR handles one failure per stripe — a single node failure
        # qualifies (one block per stripe).
        blocks.repair()
        np.testing.assert_array_equal(blocks.get(info), data)


#: (code, cluster, placement policy, schemes that can repair it).  CAR and
#: the LRC local repair plan one failure per stripe: they see one death at
#: a time; the others up to ``k`` at once.
RS_SCHEMES = [TraditionalRepair(), CARRepair(), RPRScheme()]
SHAPES = [
    (get_code(4, 2), Cluster.homogeneous(5, 6), None, RS_SCHEMES),
    (get_code(6, 3), Cluster.homogeneous(4, 5), None, RS_SCHEMES),
    (LRCCode(12, 2, 2), Cluster.homogeneous(9, 4), ContiguousPlacement(per_rack=2),
     [LRCLocalRepair()]),
]


class TestPropertyRoundtrips:
    @given(
        st.integers(1, 6000),
        st.integers(0, 2**31 - 1),
        st.sampled_from([(4, 2), (6, 2), (6, 3)]),
    )
    @settings(max_examples=15, deadline=None)
    def test_put_fail_repair_get(self, size, seed, nk):
        blocks = Blocks(code=get_code(*nk))
        data = payload(size, seed=seed)
        info = blocks.put(data)
        blocks.kill(seed % blocks.cluster.num_nodes)
        blocks.repair()
        assert blocks.verify()
        np.testing.assert_array_equal(blocks.get(info), data)

    @given(st.integers(0, 2**31 - 1), st.sampled_from(SHAPES), st.integers(0, 2))
    @settings(max_examples=25, deadline=None)
    def test_kill_revive_sequences_keep_every_stripe_whole(self, seed, shape, pick):
        code, cluster, policy, schemes = shape
        scheme = schemes[pick % len(schemes)]
        burst = 1 if scheme.name in ("car", LRCLocalRepair().name) else code.k
        rng = random.Random(seed)
        blocks = Blocks(code, scheme, cluster, policy, block_size=64)
        data = payload(rng.randint(1, 64 * code.n * 7), seed=seed)
        info = blocks.put(data)
        for _ in range(6):
            live = sorted(set(cluster.node_ids()) - blocks.dead)
            # Repair needs a live free node per lost block: keep a stripe's
            # width of nodes alive.
            room = len(live) - code.width
            for victim in rng.sample(live, min(room, rng.randint(1, burst))):
                blocks.kill(victim)
            for ctx in blocks.repair():
                targets = dict(ctx.recovery_override)
                survivors = set(ctx.placement.block_to_node.values()) - {
                    ctx.placement.node_of(bid) for bid in targets
                }
                for bid, node in targets.items():
                    own = ctx.placement.rack_of_block(cluster, bid)
                    free = set(cluster.nodes_in_rack(own)) - survivors - blocks.dead
                    # Another rack only when the block's own had no spare.
                    assert cluster.rack_of(node) == own or not free - set(targets.values())
            assert blocks.store.degraded() == []
            for stored in blocks.store:
                holders = list(stored.placement.block_to_node.values())
                assert len(set(holders)) == code.width == len(holders)
                assert not blocks.dead & set(holders)
            assert blocks.verify() and blocks.scrub() == []
            np.testing.assert_array_equal(blocks.get(info), data)
            for node in rng.sample(sorted(blocks.dead), rng.randint(0, len(blocks.dead))):
                blocks.dead.discard(node)


class TestScrubbing:
    def test_clean_system_scrubs_empty(self):
        blocks = Blocks()
        blocks.put(payload(2000))
        assert blocks.scrub() == []

    def test_corruption_detected_and_localised(self):
        blocks = Blocks()
        blocks.put(payload(5000))
        blocks.corrupt(0, 2, byte_index=17)
        assert blocks.scrub() == [(0, 2)]

    def test_corruption_invisible_to_fail_tracking(self):
        blocks = Blocks()
        blocks.put(payload(5000))
        blocks.corrupt(0, 1)
        assert blocks.store.degraded() == []  # silent!
        assert not blocks.verify()            # ...but data is wrong

    def test_repair_corruption_restores_bytes(self):
        blocks = Blocks()
        data = payload(5000)
        info = blocks.put(data)
        blocks.corrupt(0, 0, byte_index=3)
        blocks.corrupt(1, 4, byte_index=9)
        repaired = blocks.repair_corruption()
        assert [ctx.failed_blocks for ctx in repaired] == [(0,), (4,)]
        assert blocks.scrub() == []
        assert blocks.verify()
        np.testing.assert_array_equal(blocks.get(info), data)

    def test_corrupt_parity_repaired_too(self):
        blocks = Blocks()
        blocks.put(payload(3000))
        parity_block = blocks.store.code.n  # P0
        blocks.corrupt(0, parity_block)
        assert blocks.scrub() == [(0, parity_block)]
        blocks.repair_corruption()
        assert blocks.verify()

    def test_corrupt_unknown_block_rejected(self):
        """Only blocks at rest can rot: an unknown stripe and a block that
        died with its node have no bytes to scrub."""
        blocks = Blocks()
        blocks.put(payload(100))
        with pytest.raises(KeyError):
            blocks.corrupt(99, 0)
        blocks.kill(blocks.store.stripe(0).placement.node_of(0))
        with pytest.raises(KeyError):
            blocks.corrupt(0, 0)
        assert blocks.scrub() == []

    def test_corruption_plus_node_failure(self):
        """Corruption and an erasure in the same stripe (within k=2)."""
        blocks = Blocks()
        data = payload(5000)
        info = blocks.put(data)
        blocks.corrupt(0, 1)
        blocks.kill(blocks.store.stripe(0).placement.node_of(3))
        repaired = blocks.repair_corruption()
        assert repaired[0].failed_blocks == (1, 3)
        assert blocks.verify()
        np.testing.assert_array_equal(blocks.get(info), data)


class TestOverwrite:
    def test_overwrite_changes_content(self):
        blocks = Blocks()
        new = payload(3000, seed=2)
        info = blocks.put(payload(3000, seed=1))
        assert blocks.overwrite(info, new) > 0
        np.testing.assert_array_equal(blocks.get(info), new)

    def test_overwrite_keeps_codewords_valid(self):
        blocks = Blocks()
        info = blocks.put(payload(5000, seed=3))
        blocks.overwrite(info, payload(5000, seed=4))
        assert blocks.verify()
        assert blocks.scrub() == []

    def test_unchanged_blocks_skipped(self):
        blocks = Blocks()
        data = payload(3000, seed=5)
        info = blocks.put(data)
        modified = data.copy()
        modified[0] ^= 0xFF  # touch only the first block
        assert blocks.overwrite(info, modified) == 1
        np.testing.assert_array_equal(blocks.get(info), modified)

    def test_identical_overwrite_is_noop(self):
        blocks = Blocks()
        data = payload(2000, seed=6)
        info = blocks.put(data)
        assert blocks.overwrite(info, data) == 0

    def test_size_change_rejected(self):
        blocks = Blocks()
        info = blocks.put(payload(1000))
        with pytest.raises(ValueError):
            blocks.overwrite(info, payload(1001))

    def test_unknown_object_rejected(self):
        blocks = Blocks()
        ghost = ObjectInfo("ghost", 1, (7,), blocks.block_size, 6)
        with pytest.raises(KeyError):
            blocks.overwrite(ghost, payload(1))

    def test_degraded_stripe_rejected(self):
        """Parities must be trustworthy before they absorb deltas."""
        blocks = Blocks()
        info = blocks.put(payload(5000, seed=7))
        degrade(blocks)
        with pytest.raises(DegradedError):
            blocks.overwrite(info, payload(5000, seed=8))

    def test_overwrite_then_failure_then_repair(self):
        """Updated parities (and checksums) must support later repairs."""
        blocks = Blocks()
        info = blocks.put(payload(4000, seed=9))
        new = payload(4000, seed=10)
        blocks.overwrite(info, new)
        blocks.kill(1)
        blocks.repair()
        assert blocks.verify() and blocks.scrub() == []
        np.testing.assert_array_equal(blocks.get(info), new)


def parallel_and_serial_seconds(blocks: Blocks, contexts) -> tuple[float, float]:
    """All repairs merged onto the cluster vs one stripe at a time."""
    outcomes = [simulate_repair(blocks.scheme, ctx, SIMICS_BANDWIDTH) for ctx in contexts]
    graph = merge_plans([o.plan for o in outcomes], SIMICS_DECODE)
    merged = SimulationEngine(blocks.cluster, SIMICS_BANDWIDTH).run(graph)
    return merged.makespan, sum(o.total_repair_time for o in outcomes)


class TestParallelRepairReport:
    """The catalog's contexts are what a merged repair wave schedules."""

    def test_parallel_at_most_serial(self):
        blocks = Blocks()
        blocks.put(payload(8000))
        blocks.kill(0)
        repaired = blocks.repair()
        assert len(repaired) > 1
        parallel, serial = parallel_and_serial_seconds(blocks, repaired)
        assert 0 < parallel <= serial + 1e-9

    def test_single_stripe_parallel_equals_serial(self):
        blocks = Blocks()
        blocks.put(payload(100))  # one stripe
        blocks.kill(blocks.store.stripe(0).placement.node_of(0))
        repaired = blocks.repair()
        assert [ctx.failed_blocks for ctx in repaired] == [(0,)]
        parallel, serial = parallel_and_serial_seconds(blocks, repaired)
        assert parallel == pytest.approx(serial)


def test_a_catalog_that_cannot_place_a_rebuilt_block_says_so():
    """Every node dead or holding a survivor: planning fails, typed."""
    blocks = Blocks(cluster=Cluster.homogeneous(4, 2))  # 8 nodes, width 8
    blocks.put(payload(100))
    blocks.kill(0)
    with pytest.raises(RepairPlanningError, match="no live node"):
        blocks.repair()
