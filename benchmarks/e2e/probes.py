"""Direct probes: one public function of one layer, timed alone.

A probe is a *ceiling*, not a share of an operation: it says how fast
the layer runs when nothing else is in the way, at the block size of the
workload that asked.  The ladder in the report states each ceiling as a
fraction of the one beneath it (memcpy -> GF kernel -> batched codec ->
wire frame -> null RPC x block -> object MiB/s).
"""

from __future__ import annotations

import asyncio
import statistics
import time
import zlib

import numpy as np

from repro.cluster import Cluster, RPRPlacement, SIMICS_BANDWIDTH
from repro.experiments import context_for
from repro.gf.batch import gf_matmul_blocks
from repro.live import live_environment, run_plan_live_sync
from repro.live.transport import TcpStream, connect_tcp
from repro.live.wire import read_frame, send_frame
from repro.repair import (
    RepairContext,
    RPRScheme,
    initial_store_for,
    pick_live_spares,
    plan_degraded_read,
    simulate_repair,
)
from repro.rs import get_code
from repro.store import StorageDaemon, call
from repro.telemetry import NULL_RECORDER
from repro.workloads import encoded_stripe

from fixture import HOST, K, N, PER_RACK, RACKS

MIB = float(1 << 20)

#: Each probe repeats for about this long; the reported time is the
#: median repetition.
PROBE_SECONDS = 0.12
MIN_REPS = 7


def _median_seconds(fn) -> float:
    fn()  # warm: table caches, allocator, first-call imports
    samples = []
    deadline = time.perf_counter() + PROBE_SECONDS
    while len(samples) < MIN_REPS or time.perf_counter() < deadline:
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


async def _median_seconds_async(fn) -> float:
    await fn()
    samples = []
    deadline = time.perf_counter() + PROBE_SECONDS
    while len(samples) < MIN_REPS or time.perf_counter() < deadline:
        start = time.perf_counter()
        await fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def _compute_probes(block_size: int, rng: np.random.Generator) -> dict:
    code = get_code(N, K)
    data = rng.integers(0, 256, (N, block_size), dtype=np.uint8)
    blocks = list(data)
    parity = np.empty((K, block_size), dtype=np.uint8)
    coding = code.generator[N:]

    # Batched ceiling: enough stripes that per-call overhead vanishes.
    stripes = max(1, (8 << 20) // (N * block_size))
    stack = rng.integers(0, 256, (stripes, N, block_size), dtype=np.uint8)
    arena = np.empty((stripes, N + K, block_size), dtype=np.uint8)

    copy_src = stack.reshape(-1)
    copy_dst = np.empty_like(copy_src)

    t_copy = _median_seconds(lambda: np.copyto(copy_dst, copy_src))
    t_matmul = _median_seconds(
        lambda: gf_matmul_blocks(coding, data, code.tables, out=parity)
    )
    t_encode = _median_seconds(lambda: code.encode(blocks))
    t_many = _median_seconds(lambda: code.encode_many(stack, out=arena))
    # The callers' shape: crc32 over a fresh .tobytes() copy of the block.
    t_crc = _median_seconds(lambda: zlib.crc32(data[0].tobytes()))
    user = N * block_size
    return {
        # Bytes touched = read + written, as BENCH_coding.json counts them.
        "numpy.memcpy_GBps": 2 * copy_src.nbytes / t_copy / 1e9,
        "gf.matmul_GBps": (N + K) * block_size / t_matmul / 1e9,
        "rs.encode_MiBps": user / t_encode / MIB,
        "rs.encode_many_MiBps": stripes * user / t_many / MIB,
        "crc.MiBps": block_size / t_crc / MIB,
    }


def _planner_probes(block_size: int) -> dict:
    cluster = Cluster.homogeneous(RACKS, PER_RACK)
    code = get_code(N, K)
    placement = RPRPlacement().place(cluster, N, K)
    scheme = RPRScheme()
    lost = 0
    holder = placement.node_of(lost)
    degraded = RepairContext(
        code=code, cluster=cluster, placement=placement,
        failed_blocks=(lost,), block_size=block_size,
    )
    repair = RepairContext(
        code=code, cluster=cluster, placement=placement,
        failed_blocks=(lost,), block_size=block_size,
        recovery_override=pick_live_spares(
            cluster, placement, (lost,), dead_nodes={holder}
        ),
    )
    return {
        "planner.degraded_plan_ms": 1e3 * _median_seconds(
            lambda: plan_degraded_read(scheme, degraded, holder)
        ),
        "planner.plan_ms": 1e3 * _median_seconds(lambda: scheme.plan(repair)),
        "sim.simulate_repair_ms": 1e3 * _median_seconds(
            lambda: simulate_repair(scheme, repair, SIMICS_BANDWIDTH)
        ),
    }


def _live_runtime_probe(block_size: int, seed: int) -> dict:
    """The live runtime executing an RS(8,3) RPR plan with no shaping:
    what the runtime itself costs once the token-bucket sleeps are gone."""
    env = live_environment(8, 3, block_size=block_size)
    failed = (1,)
    plan = simulate_repair(RPRScheme(), context_for(env, failed), env.bandwidth).plan
    stripe = encoded_stripe(env.code, block_size, seed=seed)

    def run() -> None:
        store = initial_store_for(stripe, env.placement, failed)
        result = run_plan_live_sync(
            plan, env.cluster, store, bandwidth=None, transport="tcp"
        )
        if not np.array_equal(result.recovered[1], stripe.get_payload(1)):
            raise RuntimeError("unshaped live repair rebuilt wrong bytes")

    return {"live_runtime.unshaped_plan_ms": 1e3 * _median_seconds(run)}


async def _network_probes(block_size: int, rng: np.random.Generator) -> dict:
    payload = rng.integers(0, 256, block_size, dtype=np.uint8)

    # One frame each way over a loopback socket: payload out, empty ack back.
    async def serve(reader, writer) -> None:
        stream = TcpStream(reader, writer)
        try:
            while True:
                await read_frame(stream)
                await send_frame(stream, {"t": "ack"}, b"")
        except ConnectionError:
            pass
        finally:
            await stream.aclose()

    server = await asyncio.start_server(serve, HOST, 0)
    stream = await connect_tcp(HOST, server.sockets[0].getsockname()[1])

    async def frame_round_trip() -> None:
        await send_frame(stream, {"t": "probe"}, payload)
        await read_frame(stream)

    try:
        t_frame = await _median_seconds_async(frame_round_trip)
    finally:
        await stream.aclose()
        server.close()
        await server.wait_closed()

    # A daemon with no coordinator beats nobody: `ping` is the whole cost
    # of one RPC (connect, two frames, dispatch, close) and nothing else.
    daemon = StorageDaemon(0, None, host=HOST, recorder=NULL_RECORDER)
    port = await daemon.start()
    try:
        t_rpc = await _median_seconds_async(lambda: call(HOST, port, "ping"))
    finally:
        await daemon.aclose()
    return {
        "wire.frame_MiBps": block_size / t_frame / MIB,
        "messages.null_rpc_us": 1e6 * t_rpc,
    }


def run_probes(block_size: int, seed: int) -> dict:
    """Every probe at ``block_size``; must be called outside an event loop."""
    rng = np.random.default_rng(seed)
    out = _compute_probes(block_size, rng)
    out.update(_planner_probes(block_size))
    out.update(asyncio.run(_network_probes(block_size, rng)))
    out.update(_live_runtime_probe(block_size, seed))
    return out
