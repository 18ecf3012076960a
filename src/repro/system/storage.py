"""StorageSystem: an adoptable facade over the whole repair stack.

A single object ties together encoding, placement, node state, repair
and degraded reads — the API a downstream system would integrate:

>>> system = StorageSystem(cluster, get_code(6, 2), block_size=4096)
>>> info = system.put("photo", payload_bytes)
>>> system.fail_node(0)
>>> report = system.repair()            # rebuilds everything node 0 held
>>> bytes(system.get("photo")) == bytes(payload_bytes)
True

Every repair is executed *concretely* (real GF arithmetic over the
stored bytes — the store afterwards holds genuinely reconstructed
blocks, and placements are updated to the recovery nodes) and
*symbolically* (the discrete-event engine reports what the repair would
cost on the configured network).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field

import numpy as np

from ..cluster import BandwidthModel, Cluster, Placement, RPRPlacement, SIMICS_BANDWIDTH
from ..repair import (
    RepairContext,
    RepairPlanningError,
    RepairScheme,
    RPRScheme,
    degraded_read_context,
    execute_plan,
    pick_live_spares,
    simulate_repair,
)
from ..repair.plan import block_key
from ..rs import DecodeCostModel, RSCode, SIMICS_DECODE
from ..multistripe.store import StoredStripe, rotate_placement
from .objects import ObjectInfo, reassemble, split_into_stripes

__all__ = ["StorageSystem", "RepairReport", "StorageError", "DegradedObjectError"]


class StorageError(RuntimeError):
    """Base error for storage operations."""


class DegradedObjectError(StorageError):
    """Raised when a plain read hits missing blocks (use a degraded read)."""


@dataclass(frozen=True)
class RepairReport:
    """What one repair pass rebuilt and what it would have cost.

    ``simulated_seconds`` is the *parallel* makespan of all per-stripe
    plans merged onto the cluster (stripes pipeline across ports exactly
    as a real rebuild would); ``simulated_serial_seconds`` is the
    one-stripe-at-a-time sum for comparison.
    """

    blocks_repaired: int
    stripes_touched: int
    simulated_seconds: float
    simulated_cross_rack_bytes: float
    simulated_serial_seconds: float = 0.0


@dataclass
class _StripeState:
    stored: StoredStripe
    # failed blocks not yet repaired
    missing: set[int] = field(default_factory=set)
    # write-time CRC32 per block, for scrubbing
    checksums: dict[int, int] = field(default_factory=dict)


class StorageSystem:
    """Erasure-coded object store over a simulated cluster.

    Parameters
    ----------
    cluster:
        Topology to place data on.
    code:
        RS(n, k) code for every stripe.
    block_size:
        Bytes per block.
    placement_policy:
        Stripe placement policy (default: §3.3 pre-placement); stripes are
        rack/slot-rotated per stripe id to decluster load.
    scheme:
        Repair planner (default: RPR).
    bandwidth / cost_model:
        Network and decode models used for the simulated cost reports.
    """

    def __init__(
        self,
        cluster: Cluster,
        code: RSCode,
        block_size: int,
        placement_policy=None,
        scheme: RepairScheme | None = None,
        bandwidth: BandwidthModel = SIMICS_BANDWIDTH,
        cost_model: DecodeCostModel = SIMICS_DECODE,
    ) -> None:
        if block_size < 1:
            raise StorageError("block_size must be positive")
        self.cluster = cluster
        self.code = code
        self.block_size = block_size
        self.placement_policy = placement_policy or RPRPlacement()
        self.scheme = scheme or RPRScheme()
        self.bandwidth = bandwidth
        self.cost_model = cost_model

        self._base_placement = self.placement_policy.place(cluster, code.n, code.k)
        self._stripes: list[_StripeState] = []
        self._objects: dict[str, ObjectInfo] = {}
        self._node_data: dict[int, dict[tuple[int, int], np.ndarray]] = {}
        self._dead_nodes: set[int] = set()

    # -- write path -----------------------------------------------------------

    def put(self, name: str, data) -> ObjectInfo:
        """Encode and store an object; returns its metadata."""
        if name in self._objects:
            raise StorageError(f"object {name!r} already exists")
        data = np.asarray(bytearray(data) if isinstance(data, (bytes, bytearray)) else data)
        data = np.asarray(data, dtype=np.uint8).ravel()
        stripe_ids = []
        for blocks in split_into_stripes(data, self.code.n, self.block_size):
            stripe_ids.append(self._store_stripe(blocks))
        info = ObjectInfo(
            name=name,
            size=int(data.size),
            stripe_ids=tuple(stripe_ids),
            block_size=self.block_size,
            n=self.code.n,
        )
        self._objects[name] = info
        return info

    def _store_stripe(self, data_blocks) -> int:
        sid = len(self._stripes)
        placement = rotate_placement(
            self.cluster,
            self._base_placement,
            rack_offset=sid % self.cluster.num_racks,
            slot_offset=sid // self.cluster.num_racks,
        )
        encoded = self.code.encode(data_blocks)
        checksums = {}
        for bid, payload in enumerate(encoded):
            node = placement.node_of(bid)
            if node in self._dead_nodes:
                raise StorageError(
                    f"placement landed block on dead node {node}; "
                    f"repair before writing"
                )
            self._node_data.setdefault(node, {})[(sid, bid)] = payload
            checksums[bid] = zlib.crc32(payload.tobytes())
        self._stripes.append(
            _StripeState(
                stored=StoredStripe(
                    stripe_id=sid, code=self.code, placement=placement
                ),
                checksums=checksums,
            )
        )
        return sid

    # -- read path ---------------------------------------------------------

    def get(self, name: str, client_node: int | None = None) -> np.ndarray:
        """Read an object's bytes.

        With ``client_node`` given, missing data blocks are reconstructed
        on the fly (degraded read) at that node; without it, a read that
        hits missing blocks raises :class:`DegradedObjectError`.
        """
        info = self._info(name)
        stripe_blocks = []
        for sid in info.stripe_ids:
            state = self._stripes[sid]
            blocks = []
            for bid in range(self.code.n):
                payload = self._read_block(state, bid)
                if payload is None:
                    if client_node is None:
                        raise DegradedObjectError(
                            f"object {name!r} has block {bid} of stripe {sid} "
                            f"missing; pass client_node= for a degraded read"
                        )
                    payload = self._degraded_read(state, bid, client_node)
                blocks.append(payload)
            stripe_blocks.append(blocks)
        return reassemble(info, stripe_blocks)

    def _read_block(self, state: _StripeState, bid: int) -> np.ndarray | None:
        if bid in state.missing:
            return None
        node = state.stored.placement.node_of(bid)
        if node in self._dead_nodes:
            return None
        return self._node_data.get(node, {}).get((state.stored.stripe_id, bid))

    def _degraded_read(self, state: _StripeState, bid: int, client: int) -> np.ndarray:
        ctx = self._repair_context(state, (bid,))
        read_ctx = degraded_read_context(ctx, client)
        plan = self.scheme.plan(read_ctx)
        store = self._payload_store_for(state)
        result = execute_plan(plan, self.cluster, store)
        return result.recovered[bid]

    # -- in-place updates -------------------------------------------------

    def overwrite(self, name: str, data) -> int:
        """Overwrite an object in place via parity-delta updates.

        The new content must be the same size as the old (classic
        block-store semantics; size-changing writes are a delete +
        re-put).  Only the data blocks whose bytes actually changed are
        updated; each changed block streams one delta to every parity
        (the CAU setting).  Returns the number of blocks updated.

        Raises
        ------
        StorageError
            On size mismatch, unknown object, or degraded stripes (repair
            first — parities must be trustworthy before absorbing deltas).
        """
        from ..repair.plan import block_key
        from ..repair.update import plan_update

        info = self._info(name)
        data = np.asarray(
            bytearray(data) if isinstance(data, (bytes, bytearray)) else data
        )
        data = np.asarray(data, dtype=np.uint8).ravel()
        if data.size != info.size:
            raise StorageError(
                f"overwrite must keep the size ({info.size} bytes); "
                f"got {data.size}"
            )
        new_stripes = split_into_stripes(data, self.code.n, self.block_size)
        updated = 0
        for sid, new_blocks in zip(info.stripe_ids, new_stripes):
            state = self._stripes[sid]
            if state.missing:
                raise StorageError(
                    f"stripe {sid} is degraded; repair before overwriting"
                )
            for bid in range(self.code.n):
                old = self._read_block(state, bid)
                if old is None:
                    raise StorageError(
                        f"stripe {sid} block {bid} unavailable (dead node?)"
                    )
                if np.array_equal(old, new_blocks[bid]):
                    continue
                ctx = self._repair_context(state, failed=())
                plan = plan_update(ctx, bid)
                store = self._payload_store_for(state)
                data_node = state.stored.placement.node_of(bid)
                store.setdefault(data_node, {})[
                    f"update:new:{bid}"
                ] = new_blocks[bid]
                result = execute_plan(plan, self.cluster, store)
                for out_bid, payload in result.recovered.items():
                    node = state.stored.placement.node_of(out_bid)
                    self._node_data[node][(sid, out_bid)] = payload
                    state.checksums[out_bid] = zlib.crc32(payload.tobytes())
                updated += 1
        return updated

    # -- failures and repair ----------------------------------------------

    def fail_node(self, node_id: int) -> int:
        """Kill a node: its payloads are gone.  Returns blocks lost."""
        self.cluster.node(node_id)
        if node_id in self._dead_nodes:
            return 0
        self._dead_nodes.add(node_id)
        lost = 0
        dropped = self._node_data.pop(node_id, {})
        for sid, bid in dropped:
            self._stripes[sid].missing.add(bid)
            lost += 1
        # Blocks placed on the node but already dropped earlier still count
        # as missing via stripe state; nothing else to do.
        return lost

    def revive_node(self, node_id: int) -> None:
        """Bring a (repaired or empty) node back as usable capacity.

        Its old payloads are *not* restored — data lost stays lost until
        :meth:`repair` rebuilds it elsewhere.
        """
        self._dead_nodes.discard(node_id)

    def degraded_stripes(self) -> list[int]:
        """Stripe ids with missing blocks."""
        return [
            s.stored.stripe_id for s in self._stripes if s.missing
        ]

    def repair(self) -> RepairReport:
        """Rebuild every missing block onto live spare nodes.

        Each affected stripe is repaired with the configured scheme: the
        plan is executed concretely (the store then holds real
        reconstructed bytes and the stripe's placement points at the
        recovery nodes) and simulated for the cost report.
        """
        blocks = stripes = 0
        serial_seconds = 0.0
        sim_cross = 0.0
        plans: list = []
        for state in self._stripes:
            if not state.missing:
                continue
            failed = tuple(sorted(state.missing))
            ctx = self._repair_context(state, failed)
            outcome = simulate_repair(self.scheme, ctx, self.bandwidth)
            plan = outcome.plan
            store = self._payload_store_for(state)
            result = execute_plan(plan, self.cluster, store)
            serial_seconds += outcome.total_repair_time
            sim_cross += outcome.cross_rack_bytes
            plans.append(plan)

            mapping = dict(state.stored.placement.block_to_node)
            for bid in failed:
                target, _key = plan.outputs[bid]
                self._node_data.setdefault(target, {})[
                    (state.stored.stripe_id, bid)
                ] = result.recovered[bid]
                mapping[bid] = target
            state.stored = StoredStripe(
                stripe_id=state.stored.stripe_id,
                code=self.code,
                placement=Placement(
                    n=self.code.n, k=self.code.k, block_to_node=mapping
                ),
            )
            blocks += len(failed)
            stripes += 1
            state.missing.clear()
        parallel_seconds = 0.0
        if plans:
            from ..multistripe import merge_plans
            from ..sim import SimulationEngine

            graph = merge_plans(plans, self.cost_model)
            parallel_seconds = (
                SimulationEngine(self.cluster, self.bandwidth).run(graph).makespan
            )
        return RepairReport(
            blocks_repaired=blocks,
            stripes_touched=stripes,
            simulated_seconds=parallel_seconds,
            simulated_cross_rack_bytes=sim_cross,
            simulated_serial_seconds=serial_seconds,
        )

    # -- scrubbing (silent-corruption handling) --------------------------------

    def corrupt_block(
        self, stripe_id: int, block_id: int, byte_index: int = 0
    ) -> None:
        """Fault injection: silently flip bits in one stored block.

        Models latent sector errors / bit rot — the payload changes but
        the system is not notified (unlike :meth:`fail_node`).  Only
        :meth:`scrub` can find it.
        """
        state = self._stripes[stripe_id]
        node = state.stored.placement.node_of(block_id)
        bucket = self._node_data.get(node, {})
        key = (stripe_id, block_id)
        if key not in bucket:
            raise StorageError(f"block {block_id} of stripe {stripe_id} not stored")
        payload = bucket[key].copy()
        payload[byte_index % payload.size] ^= 0xFF
        bucket[key] = payload

    def scrub(self) -> list[tuple[int, int]]:
        """Compare every stored block against its write-time CRC32.

        Returns the ``(stripe_id, block_id)`` pairs whose bytes no longer
        match — silent corruption localised per block (re-encoding alone
        would only tell that *some* block of a stripe is bad).
        """
        corrupted = []
        for state in self._stripes:
            sid = state.stored.stripe_id
            for bid in range(self.code.width):
                payload = self._read_block(state, bid)
                if payload is None:
                    continue
                if zlib.crc32(payload.tobytes()) != state.checksums[bid]:
                    corrupted.append((sid, bid))
        return corrupted

    def repair_corruption(self) -> RepairReport:
        """Scrub, discard corrupted blocks, and rebuild them.

        A corrupted block cannot be trusted as a decode helper, so it is
        dropped (becoming an erasure) before the normal repair pass runs.
        """
        for sid, bid in self.scrub():
            state = self._stripes[sid]
            node = state.stored.placement.node_of(bid)
            self._node_data.get(node, {}).pop((sid, bid), None)
            state.missing.add(bid)
        return self.repair()

    # -- integrity ------------------------------------------------------------

    def verify(self) -> bool:
        """Check every stripe with no missing blocks is a valid codeword."""
        for state in self._stripes:
            if state.missing:
                return False
            payloads = {}
            for bid in range(self.code.width):
                payload = self._read_block(state, bid)
                if payload is None:
                    return False
                payloads[bid] = payload
            data = [payloads[b] for b in range(self.code.n)]
            expected = self.code.encode(data)
            for bid in range(self.code.width):
                if not np.array_equal(expected[bid], payloads[bid]):
                    return False
        return True

    def objects(self) -> list[ObjectInfo]:
        return list(self._objects.values())

    # -- internals ----------------------------------------------------------

    def _info(self, name: str) -> ObjectInfo:
        try:
            return self._objects[name]
        except KeyError:
            raise StorageError(f"no object {name!r}") from None

    def _repair_context(self, state: _StripeState, failed: tuple[int, ...]) -> RepairContext:
        placement = state.stored.placement
        # Helpers must be live: blocks on dead nodes count as failed too.
        dead_blocks = tuple(
            sorted(
                set(failed)
                | {
                    bid
                    for bid, node in placement.block_to_node.items()
                    if node in self._dead_nodes
                }
            )
        )
        return RepairContext(
            code=self.code,
            cluster=self.cluster,
            placement=placement,
            failed_blocks=dead_blocks,
            block_size=self.block_size,
            cost_model=self.cost_model,
            recovery_override=self._recovery_override(state, dead_blocks),
        )

    def _recovery_override(
        self, state: _StripeState, failed: tuple[int, ...]
    ) -> tuple[tuple[int, int], ...]:
        """Pick live spare targets (the default policy ignores dead nodes)."""
        try:
            return pick_live_spares(
                self.cluster,
                state.stored.placement,
                failed,
                dead_nodes=self._dead_nodes,
            )
        except RepairPlanningError as exc:
            raise StorageError(
                f"{exc} (stripe {state.stored.stripe_id})"
            ) from exc

    def _payload_store_for(
        self, state: _StripeState
    ) -> dict[int, dict[str, np.ndarray]]:
        store: dict[int, dict[str, np.ndarray]] = {}
        for bid in range(self.code.width):
            payload = self._read_block(state, bid)
            if payload is not None:
                node = state.stored.placement.node_of(bid)
                store.setdefault(node, {})[block_key(bid)] = payload
        return store
