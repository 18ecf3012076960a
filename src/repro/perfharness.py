"""Performance-regression harness for the hot paths.

Times the event engine on merged node-rebuild graphs, the GF/RS coding
kernels (single-stripe vs batched), and the live asyncio runtime
(telemetry off vs on), then writes machine-readable reports —
``BENCH_engine.json``, ``BENCH_coding.json`` and ``BENCH_live.json`` —
so perf changes show up in review diffs instead of anecdotes.  Run it
via ``benchmarks/run_perf.py``, ``rpr perf``, or ``python -m
repro.perfharness``; pass ``--quick`` for the CI-sized variant.
:func:`compare_reports` turns two such reports into a pass/fail gate
(see ``benchmarks/check_perf_regression.py``).

Timing style: best-of-N wall clock around whole calls.  Best-of (not
mean) because the quantity under regression test is the code's cost, and
every slower sample is noise from elsewhere on the machine; N is small
because the workloads are already sized to dominate per-call overhead.

See ``docs/PERFORMANCE.md`` for how to read and regenerate the reports.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

import numpy as np

__all__ = [
    "engine_suite",
    "coding_suite",
    "live_suite",
    "qos_suite",
    "compare_reports",
    "append_history",
    "write_reports",
    "main",
]

SCHEMA_VERSION = 1

#: Rolling log of every harness run, one JSON object per line.  Unlike
#: the ``BENCH_*.json`` snapshots (overwritten each run), the history
#: accumulates, so trends across commits/CI runs can be plotted from one
#: file.
HISTORY_NAME = "BENCH_history.jsonl"


def _measure(fn, reps: int, warmup: int = 1, nbytes: int | None = None) -> dict:
    """Best-of-``reps`` seconds for ``fn()``, after ``warmup`` calls.

    ``nbytes`` is the benchmark's estimated memory traffic (logical
    bytes read + written per call); when given it is recorded as
    ``bytes_touched`` so reports can derive ``bytes_touched / best_s``
    as a memory-bandwidth figure.
    """
    for _ in range(warmup):
        fn()
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - t0
        if elapsed < best:
            best = elapsed
    entry = {"best_s": best, "reps": reps}
    if nbytes is not None:
        entry["bytes_touched"] = nbytes
    return entry


def _env_info(quick: bool) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "quick": quick,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
    }


def engine_suite(quick: bool = False) -> dict:
    """Event-engine timings on merged node-rebuild graphs.

    Exercises the resource-indexed scheduler end to end: RS(6,2) over a
    5x8 cluster, scatter rebuild of node 0, all stripes' plans merged
    into one graph (the ``benchmarks/bench_engine_scale.py`` scenario).
    """
    from .cluster import Cluster, SIMICS_BANDWIDTH
    from .multistripe import StripeStore, merge_plans, node_failure_contexts
    from .repair import RPRScheme
    from .rs import SIMICS_DECODE, get_code
    from .sim import FaultPlan, NodeDeath, SimulationEngine

    # The 100k-stripe graph (~202k jobs) is the scale headline for the
    # signature-group scheduler; it only runs in full mode, with fewer
    # reps — a single run is seconds, so best-of-2 is already stable.
    stripe_counts = [40] if quick else [40, 200, 100_000]
    reps = 3 if quick else 7
    report = _env_info(quick)
    report["results"] = {}
    for num_stripes in stripe_counts:
        cluster = Cluster.homogeneous(5, 8)
        store = StripeStore.build(cluster, get_code(6, 2), num_stripes)
        _, contexts = node_failure_contexts(store, 0, mode="scatter")
        plans = [RPRScheme().plan(ctx) for ctx in contexts]
        graph = merge_plans(plans, SIMICS_DECODE)
        engine = SimulationEngine(cluster, SIMICS_BANDWIDTH)
        result = engine.run(graph)
        count_reps = 2 if num_stripes >= 100_000 else reps
        timing = _measure(lambda: engine.run(graph), count_reps, warmup=0)
        timing.update(
            jobs=len(graph),
            events=len(result.events),
            makespan_s=result.makespan,
        )
        report["results"][f"node_rebuild_{num_stripes}_stripes"] = timing
        if num_stripes == 200:
            # Fault hooks must cost nothing until a fault fires: the same
            # graph under a plan whose one death lies beyond the makespan.
            never = FaultPlan(
                deaths=(NodeDeath(node=1, time=2.0 * result.makespan),)
            )
            report["results"]["node_rebuild_200_stripes_idle_fault_hooks"] = _measure(
                lambda: engine.run(graph, never), reps, warmup=0
            )
    return report


def coding_suite(quick: bool = False) -> dict:
    """GF/RS kernel timings: single-block calls and the batched stack.

    Every entry runs the same kernel (``gf_matmul_blocks``); the suite
    times it at each shape a caller reaches it with — one block, one
    stripe at a time, a 64-stripe stack, the store's node rebuild.
    Entries that move a known number of bytes carry a ``bytes_touched``
    estimate (logical bytes in + bytes out) so a memory-bandwidth figure
    can be derived.
    """
    from .gf import linear_combine, scale, scale_accumulate, scratch_pool
    from .multistripe import (
        StripeStore,
        encode_store_payloads,
        rebuild_node_payloads,
    )
    from .cluster import Cluster
    from .rs import get_code
    from .rs.decode import decode_blocks

    reps = 3 if quick else 9
    num_stripes, block = 64, 64 * 1024
    big = (1 if quick else 4) * 1024 * 1024
    rng = np.random.default_rng(42)
    code = get_code(6, 2)

    report = _env_info(quick)
    results: dict = {}
    report["results"] = results

    # -- scalar kernels ----------------------------------------------------
    buf = rng.integers(0, 256, big, dtype=np.uint8)
    acc = np.zeros(big, dtype=np.uint8)
    results["scale_4MiB" if not quick else "scale_1MiB"] = _measure(
        lambda: scale(37, buf), reps, nbytes=2 * big
    )
    results["scale_accumulate"] = _measure(
        lambda: scale_accumulate(acc, 91, buf), reps, nbytes=3 * big
    )
    terms = [rng.integers(0, 256, big, dtype=np.uint8) for _ in range(6)]
    results["linear_combine_6"] = _measure(
        lambda: linear_combine([3, 7, 19, 33, 101, 250], terms),
        reps,
        nbytes=7 * big,
    )

    # -- batched encode vs per-stripe --------------------------------------
    data = rng.integers(0, 256, (num_stripes, code.n, block), dtype=np.uint8)
    arena = np.empty((num_stripes, code.width, block), dtype=np.uint8)
    encode_bytes = (code.n + code.width) * num_stripes * block

    def encode_per_stripe():
        return [
            code.encode([data[s, j] for j in range(code.n)])
            for s in range(num_stripes)
        ]

    results["encode_per_stripe"] = _measure(
        encode_per_stripe, reps, nbytes=encode_bytes
    )
    results["encode_many"] = _measure(
        lambda: code.encode_many(data), reps, nbytes=encode_bytes
    )
    results["encode_many_arena"] = _measure(
        lambda: code.encode_many(data, out=arena), reps, nbytes=encode_bytes
    )

    # -- batched decode vs per-stripe --------------------------------------
    encoded = code.encode_many(data)
    failed = [0, code.n + 1]
    available = {
        b: np.ascontiguousarray(encoded[:, b, :])
        for b in range(code.width)
        if b not in failed
    }

    def decode_per_stripe():
        return [
            decode_blocks(
                code, {b: available[b][s] for b in available}, failed
            )
            for s in range(num_stripes)
        ]

    decode_bytes = (code.n + len(failed)) * num_stripes * block
    results["decode_per_stripe"] = _measure(
        decode_per_stripe, reps, nbytes=decode_bytes
    )
    results["decode_many"] = _measure(
        lambda: code.decode_many(available, failed), reps, nbytes=decode_bytes
    )

    # -- store-level rebuild through the batched stack ---------------------
    cluster = Cluster.homogeneous(5, 8)
    store = StripeStore.build(cluster, code, 40)
    payloads = encode_store_payloads(store, block)
    results["store_rebuild_40_stripes"] = _measure(
        lambda: rebuild_node_payloads(store, 0, payloads), reps
    )

    results["buffer_pool"] = scratch_pool.stats()
    report["derived"] = {"stripes": num_stripes, "block_bytes": block}
    return report


def live_suite(quick: bool = False) -> dict:
    """Live-runtime timings: plan execution with telemetry off vs on.

    Runs an RS(6,3) single-failure RPR plan end to end on the asyncio
    runtime — in-process streams, *unshaped* links so wall clock is
    dominated by runtime overhead rather than token-bucket sleeps.  The
    ``derived.telemetry_overhead_ratio`` is the acceptance bar for the
    zero-cost-when-disabled claim: the plain run exercises the
    instrumented code with the recorder compiled out (``None``), the
    ``_telemetry`` run records every span, phase and gauge.
    """
    from .experiments import context_for
    from .live import run_plan_live_sync
    from .live.validate import live_environment
    from .repair import RPRScheme, initial_store_for, simulate_repair
    from .telemetry import CLOCK_WALL, TelemetryRecorder
    from .workloads import encoded_stripe

    reps = 7 if quick else 15
    block = (16 if quick else 64) * 1024
    env = live_environment(6, 3, block_size=block)
    ctx = context_for(env, [1])
    predicted = simulate_repair(RPRScheme(), ctx, env.bandwidth)
    stripe = encoded_stripe(env.code, block, seed=0)

    def execute(recorder=None):
        store = initial_store_for(stripe, env.placement, [1])
        return run_plan_live_sync(
            predicted.plan, env.cluster, store, bandwidth=None, recorder=recorder
        )

    wire_bytes = block * len(predicted.plan.sends())

    report = _env_info(quick)
    results: dict = {}
    report["results"] = results

    plain = _measure(execute, reps, nbytes=wire_bytes)
    plain.update(ops=len(predicted.plan.ops))
    results["plan_execute_rs6_3"] = plain

    def execute_with_telemetry():
        return execute(TelemetryRecorder(CLOCK_WALL, meta={"source": "live"}))

    instrumented = _measure(execute_with_telemetry, reps)
    instrumented.update(ops=len(predicted.plan.ops))
    results["plan_execute_rs6_3_telemetry"] = instrumented

    # Store service path: block.put + block.get round trips against one
    # in-process daemon over real localhost TCP, recorder off (explicit
    # NULL_RECORDER) vs the deployed config (streaming recorder flushing
    # every span to disk).  Gates the observability plane's hot-path
    # cost: derived.store_telemetry_overhead beyond the perf-regression
    # threshold means stats/span recording leaked into the data path.
    import asyncio
    import os
    import tempfile

    from .store import StorageDaemon
    from .store.messages import call as store_call, close_idle_connections
    from .telemetry import NULL_RECORDER, StreamingRecorder

    rounds = 12 if quick else 24
    payload = os.urandom(block)

    def store_roundtrips(recorder):
        async def run():
            daemon = StorageDaemon(0, None, recorder=recorder)
            port = await daemon.start()
            try:
                for i in range(rounds):
                    key = f"bench-{i % 4}"
                    await store_call(
                        "127.0.0.1", port, "block.put", {"key": key},
                        blob=payload,
                    )
                    await store_call(
                        "127.0.0.1", port, "block.get", {"key": key}
                    )
            finally:
                await daemon.aclose()
                await close_idle_connections()

        asyncio.run(run())

    bare = _measure(
        lambda: store_roundtrips(NULL_RECORDER),
        reps,
        nbytes=2 * rounds * block,
    )
    bare.update(round_trips=2 * rounds)
    results["store_block_roundtrip"] = bare

    with tempfile.TemporaryDirectory(prefix="rpr-bench-") as tmp:

        def recorded():
            rec = StreamingRecorder(
                Path(tmp) / "telemetry-bench.jsonl",
                CLOCK_WALL,
                meta={"component": "daemon", "node": "bench"},
            )
            try:
                store_roundtrips(rec)
            finally:
                rec.close()

        streamed = _measure(recorded, reps)
    streamed.update(round_trips=2 * rounds)
    results["store_block_roundtrip_telemetry"] = streamed

    report["derived"] = {
        "block_bytes": block,
        "telemetry_overhead_ratio": round(
            instrumented["best_s"] / plain["best_s"], 3
        ),
        "store_telemetry_overhead": round(
            streamed["best_s"] / bare["best_s"], 3
        ),
        # Zero-copy headline: payload bytes crossing the wire (SendOps x
        # block size) over the plain run's wall clock.  The memoryview
        # send path and preallocated-frame receive path show up here.
        "wire_throughput_MiBps": round(
            wire_bytes / plain["best_s"] / (1024 * 1024), 1
        ),
    }
    return report


def qos_suite(quick: bool = False) -> dict:
    """Foreground tail latency vs repair bandwidth on the live store.

    Replays one seeded Zipfian GET trace three times against an
    in-process store cluster (:class:`repro.qos.LocalService`), killing
    the same daemon mid-run each time:

    * ``replay_unshaped`` — no link shaping (reference point);
    * ``replay_repair_hog`` — links shaped, 95% guaranteed to repair
      (what an unthrottled repair plane does to users);
    * ``replay_qos`` — links shaped, 20% to repair (the QoS policy).

    The ``best_s`` entries gate end-to-end replay wall clock; the
    ``derived.curve`` holds the latency/repair trade-off.  The suite
    *raises* if the p99 of *degraded* GETs (the requests served while
    the outage is live, flagged per-sample so the metric does not
    depend on catching the repair window with a status poll) is not
    strictly better under the QoS split than under the repair hog — the
    ordering is token-bucket arithmetic (80% vs 5% of the link), so a
    violation means the QoS plane is broken, and the CI perf gate
    (which reruns this suite) turns that into a red build.
    """
    from .qos import kill_mid_trace_replay, percentiles

    block = 16 * 1024
    # The victim daemon holds a block of most stripes, so the repair
    # volume — and with it how long repair traffic occupies the links —
    # scales with the object count.  Sized so the repair-hog run spends
    # ~1 s of the trace squeezing foreground GETs to its 5% share;
    # smaller working sets let repair slip between user requests and
    # the trade-off disappears into sampling noise.
    objects = 30 if quick else 40
    requests = 350 if quick else 500
    object_bytes = 3 * block
    link_rate = 1.5e6
    kill_at = 0.25
    seed = 42

    report = _env_info(quick)
    results: dict = {}
    report["results"] = results
    curve: dict = {}

    def measure(name: str, rate, share: float) -> dict:
        t0 = time.perf_counter()
        rep, _ = kill_mid_trace_replay(
            objects=objects,
            requests=requests,
            object_bytes=object_bytes,
            kill_at=kill_at,
            seed=seed,
            get_fraction=0.95,
            concurrency=8,
            block_size=block,
            link_rate=rate,
            repair_share=share,
            suspect_after=0.45,
            sweep_interval=0.05,
            heartbeat=0.1,
        )
        wall = time.perf_counter() - t0
        if rep.errors:
            first = rep.errors[0]
            raise RuntimeError(
                f"{name}: {len(rep.errors)} replay errors under failure "
                f"(first: {first.op} {first.obj}: {first.error}) — "
                f"degraded reads must never fail"
            )
        get_all = rep.summary(op="get")
        degraded = percentiles(
            [s.latency for s in rep.samples if s.op == "get" and s.ok and s.degraded]
        )
        results[name] = {
            "best_s": wall,
            "reps": 1,
            "requests": len(rep.samples),
            "degraded_gets": rep.degraded_gets,
        }
        curve[name] = {
            "link_rate_Bps": rate,
            "repair_share": share,
            "get_p50_s": get_all["p50"],
            "get_p99_s": get_all["p99"],
            "get_p999_s": get_all["p999"],
            "degraded_get_p99_s": degraded["p99"],
            "degraded_get_count": degraded["count"],
            "repair_window_s": (
                None
                if rep.repair_window is None or rep.repair_window[1] is None
                else round(rep.repair_window[1] - rep.repair_window[0], 3)
            ),
            "rejected_puts": len(rep.rejections),
        }
        return curve[name]

    measure("replay_unshaped", None, 0.5)
    # The latency ordering is token-bucket arithmetic, but one replay is
    # one sample of it: repair traffic is bursty, so a single hog run can
    # finish its sends in the gaps between user requests and show no
    # squeeze at all.  One re-measure of the shaped pair separates that
    # sampling accident from an actually broken QoS plane.
    for attempt in (1, 2):
        hog = measure("replay_repair_hog", link_rate, 0.95)["degraded_get_p99_s"]
        qos = measure("replay_qos", link_rate, 0.2)["degraded_get_p99_s"]
        if hog is not None and qos is not None and qos < hog:
            break
        if attempt == 2:
            raise RuntimeError(
                f"QoS ordering violated: degraded GET p99 is {qos} s with "
                f"QoS throttling vs {hog} s with repair hogging the link — "
                f"throttled repair must serve users strictly better"
            )
    report["derived"] = {
        "block_bytes": block,
        "objects": objects,
        "requests": requests,
        "kill_at_s": kill_at,
        "curve": curve,
        "qos_repair_p99_improvement_x": round(hog / qos, 3),
    }
    return report


#: Benchmarks faster than this are skipped by :func:`compare_reports` —
#: at tens of microseconds the 25% band is all timer noise.
COMPARE_FLOOR_S = 5e-5


def compare_reports(
    baseline: dict, current: dict, threshold: float = 0.25
) -> list[str]:
    """Regression messages for ``current`` vs ``baseline``, empty if clean.

    Compares every ``best_s`` entry present in both reports; a benchmark
    slower than ``baseline * (1 + threshold)`` is a regression.  Entries
    below :data:`COMPARE_FLOOR_S` in the baseline are skipped, and a
    benchmark that vanished from ``current`` is reported too (a silent
    rename would otherwise un-gate it).  Reports from mismatched
    ``quick`` modes are refused: quick and full runs size their
    workloads differently, so the ratio would be meaningless.
    """
    if baseline.get("quick") != current.get("quick"):
        return [
            f"quick-mode mismatch: baseline quick={baseline.get('quick')} "
            f"vs current quick={current.get('quick')} — rerun with the "
            f"baseline's mode"
        ]
    messages = []
    for name, entry in sorted(baseline.get("results", {}).items()):
        if not isinstance(entry, dict) or "best_s" not in entry:
            continue
        if entry["best_s"] < COMPARE_FLOOR_S:
            continue
        now = current.get("results", {}).get(name)
        if not isinstance(now, dict) or "best_s" not in now:
            messages.append(f"{name}: present in baseline but missing from current run")
            continue
        ratio = now["best_s"] / entry["best_s"]
        if ratio > 1.0 + threshold:
            messages.append(
                f"{name}: {now['best_s'] * 1e3:.2f} ms vs baseline "
                f"{entry['best_s'] * 1e3:.2f} ms ({ratio:.2f}x, "
                f"threshold {1.0 + threshold:.2f}x)"
            )
    return messages


def append_history(out_dir: Path, reports: dict[str, dict]) -> Path:
    """Append one timestamped record for this run to the history log.

    The record keeps only the regression-relevant numbers (``best_s``
    per benchmark, plus derived speedups) so the file stays small enough
    to commit or upload as a CI artifact indefinitely.
    """
    import datetime

    record: dict = {
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"
        ),
    }
    for suite_name, report in reports.items():
        record[suite_name] = {
            name: entry["best_s"]
            for name, entry in report["results"].items()
            if isinstance(entry, dict) and "best_s" in entry
        }
        if report.get("derived"):
            record[f"{suite_name}_derived"] = report["derived"]
        record.setdefault("quick", report.get("quick"))
        record.setdefault("python", report.get("python"))
    path = Path(out_dir) / HISTORY_NAME
    with path.open("a") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")
    return path


#: Report file -> the suite that fills it, in run order.
REPORT_SUITES = (
    ("BENCH_engine.json", engine_suite),
    ("BENCH_coding.json", coding_suite),
    ("BENCH_live.json", live_suite),
    ("BENCH_qos.json", qos_suite),
)


def write_reports(out_dir: Path, quick: bool = False) -> list[Path]:
    """Run every suite, write the ``BENCH_*.json`` reports, log history."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    reports = {}
    for name, suite in REPORT_SUITES:
        report = suite(quick)
        reports[name.removeprefix("BENCH_").removesuffix(".json")] = report
        path = out_dir / name
        path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
        written.append(path)
    written.append(append_history(out_dir, reports))
    return written


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="time the engine and coding hot paths, write BENCH_*.json"
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI-sized run: fewer reps, smaller graphs and blocks",
    )
    parser.add_argument(
        "--out-dir",
        type=Path,
        default=Path.cwd(),
        help="where to write the reports (default: current directory)",
    )
    args = parser.parse_args(argv)
    for path in write_reports(args.out_dir, quick=args.quick):
        if path.name == HISTORY_NAME:
            print(f"appended run to {path}")
            continue
        report = json.loads(path.read_text())
        print(f"wrote {path}")
        for name, entry in sorted(report["results"].items()):
            if "best_s" not in entry:
                continue
            line = f"  {name:<32} {entry['best_s'] * 1e3:9.2f} ms"
            if entry.get("bytes_touched"):
                # Memory-bandwidth estimate: logical bytes in + out over
                # the best wall clock — a roofline sanity figure.
                gbps = entry["bytes_touched"] / entry["best_s"] / 1e9
                line += f"  ~{gbps:6.2f} GB/s"
            print(line)
        for name, value in sorted(report.get("derived", {}).items()):
            print(f"  {name:<32} {value}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
