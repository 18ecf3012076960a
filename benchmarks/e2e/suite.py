"""Suite mode: every workload, untraced then traced, and the printed report.

Each run is its own child interpreter (the same command the driver
uses), so peak RSS and warm caches of one workload never leak into the
next.  The report restates the generic ``BENCHMARK.json`` metrics under
the names a reader of the store thinks in (``put_ops_per_s`` on
``small_objects`` is ``throughput_per_s`` on ``small_put``), prints the
per-layer matrix and the layer-ceiling ladder, and the JSON it writes is
what ``compare.py`` reads.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np

from workloads import MIB, OBJECT_WORKLOADS, WORKLOADS

RUN = Path(__file__).with_name("run.py")

#: (reader's workload, reader's metric, unit, source workload, source
#: metric, scale).  Source metrics live in the untraced run's end-to-end
#: set, or - the two paper ratios, which only one workload can measure -
#: in the traced run's per-layer set.
LARGE_MIB = OBJECT_WORKLOADS["large_put"].object_bytes / MIB
NAMED = (
    ("small_objects", "put_ops_per_s", "1/s", "small_put", "throughput_per_s", 1.0),
    ("small_objects", "get_ops_per_s", "1/s", "small_get", "throughput_per_s", 1.0),
    ("small_objects", "put_p50_ms", "ms", "small_put", "latency_p50_ms", 1.0),
    ("small_objects", "get_p50_ms", "ms", "small_get", "latency_p50_ms", 1.0),
    ("large_objects", "put_MiBps", "MiB/s", "large_put", "throughput_per_s", LARGE_MIB),
    ("large_objects", "get_MiBps", "MiB/s", "large_get", "throughput_per_s", LARGE_MIB),
    ("large_objects", "put_p50_ms", "ms", "large_put", "latency_p50_ms", 1.0),
    ("large_objects", "get_p50_ms", "ms", "large_get", "latency_p50_ms", 1.0),
    ("degraded_reads", "get_ops_per_s", "1/s", "degraded_reads", "throughput_per_s", 1.0),
    ("degraded_reads", "get_p50_ms", "ms", "degraded_reads", "latency_p50_ms", 1.0),
    ("node_repair", "repair_stripes_per_s", "1/s", "node_repair", "throughput_per_s", 1.0),
    ("node_repair", "time_to_healthy_s", "s", "node_repair", "latency_p50_ms", 1e-3),
    ("shaped_repair", "live_over_sim_ratio", "ratio", "shaped_repair",
     "live_runtime.live_over_sim_ratio", 1.0),
    ("shaped_repair", "rpr_speedup_x", "x", "shaped_repair", "live_runtime.rpr_speedup_x", 1.0),
)


def environment(seed: int) -> dict:
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "transport": "loopback TCP (127.0.0.1), one process, one event loop, one client",
    }


def _child(workload: str, seed: int, seconds: float, trace: int, trace_dir: Path | None) -> dict:
    command = [
        sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace), "--detail",
    ]
    if trace and trace_dir is not None:
        command += ["--trace-out", str(trace_dir / f"{workload}.spans.jsonl")]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{workload} (trace {trace}) exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-2])


def run_suite(args, contract: dict) -> int:
    seconds = contract["run_seconds"] * args.rounds_scale
    out = Path(args.out) if args.out else None
    trace_dir = None
    if out is not None:
        out.parent.mkdir(parents=True, exist_ok=True)
        trace_dir = out.parent
    results = {}
    for workload in WORKLOADS:
        print(f"running {workload} ...", file=sys.stderr, flush=True)
        results[workload] = {
            "untraced": _child(workload, args.seed, seconds, 0, None),
            "traced": _child(workload, args.seed, seconds, 1, trace_dir),
        }
    report = {
        "schema": 1,
        "environment": environment(args.seed),
        "rounds_scale": args.rounds_scale,
        "seconds": seconds,
        "workloads": results,
    }
    print_report(report, contract)
    if out is not None:
        out.write_text(json.dumps(report, indent=1))
        print(f"\nwrote {out}")
    failed = [
        f"{name}/{kind}" for name, pair in results.items()
        for kind, run in pair.items() if not run["correct"]
    ]
    if failed:
        print(f"INCORRECT OUTPUT in: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


# -- report ---------------------------------------------------------------------


def layer_value(report: dict, workload: str, metric: str) -> float:
    return report["workloads"][workload]["traced"]["metrics"][metric]["value"]


def named_rows(report: dict):
    """The reader's view: one row per named metric, with in-run quartiles."""
    for reader_workload, name, unit, workload, metric, scale in NAMED:
        untraced = report["workloads"][workload]["untraced"]
        if metric in untraced["end_to_end"]:
            s = untraced["end_to_end"][metric]
            yield (reader_workload, name, unit, scale * s["median"], scale * s["q1"],
                   scale * s["q3"], s["n"], f"{workload}.{metric}")
        else:
            value = scale * layer_value(report, workload, metric)
            yield reader_workload, name, unit, value, value, value, 1, f"{workload}.{metric}"
    for workload, pair in report["workloads"].items():
        for metric, unit in (("setup_s", "s"), ("peak_rss_MiB", "MiB")):
            s = pair["untraced"]["end_to_end"][metric]
            yield workload, metric, unit, s["median"], s["q1"], s["q3"], s["n"], f"{workload}.{metric}"


def _num(value: float) -> str:
    if value == 0:
        return "-"
    if abs(value) >= 1000:
        return f"{value:.0f}"
    return f"{value:.3g}" if abs(value) < 100 else f"{value:.1f}"


def print_report(report: dict, contract: dict) -> None:
    env = report["environment"]
    print(
        f"store end-to-end benchmark: seed {env['seed']}, {env['nproc']} cpus, "
        f"python {env['python']}, numpy {env['numpy']}, {env['transport']}; "
        f"{report['seconds']:g} s per measured phase"
    )
    print("\nEnd-to-end (telemetry off; median over rounds [q1 .. q3], n rounds)")
    for workload, name, unit, median, q1, q3, n, source in named_rows(report):
        print(f"  {workload:15s} {name:22s} {_num(median):>9s} {unit:6s}"
              f" [{_num(q1)} .. {_num(q3)}] n={n:<3d} <- {source}")

    print("\nOperations attempted / failed (untraced + traced)")
    for workload, pair in report["workloads"].items():
        attempted = sum(run["attempted"] for run in pair.values())
        failed = sum(run["failed"] for run in pair.values())
        print(f"  {workload:15s} {attempted:6d} / {failed}")

    names = list(report["workloads"])
    print("\nPer layer (traced run, probes, stats deltas; '-' = layer not entered)")
    print(f"  {'':38s}" + "".join(f"{n[:10]:>11s}" for n in names))
    for metric in contract["per_layer"]:
        cells = "".join(f"{_num(layer_value(report, n, metric['name'])):>11s}" for n in names)
        print(f"  {metric['name']:31s}{metric['unit']:>6s} {cells}")

    print_ladder(report)


def print_ladder(report: dict) -> None:
    """Each ceiling as a fraction of the one beneath it, in MiB/s of user
    bytes at the large workloads' 1 MiB block."""
    spec = OBJECT_WORKLOADS["large_put"]
    width = 9 / 6  # RS(6,3): bytes on the wire or through the kernel per user byte

    def probe(metric):
        return layer_value(report, "large_put", metric)

    def object_mibps(workload):
        rate = report["workloads"][workload]["untraced"]["end_to_end"]["throughput_per_s"]
        return rate["median"] * spec.object_bytes / MIB

    rungs = [
        ("memcpy (read+write)", probe("numpy.memcpy_GBps") * 1e9 / 2 / MIB),
        ("gf.matmul_GBps", probe("gf.matmul_GBps") * 1e9 / width / MIB),
        ("rs.encode_many_MiBps", probe("rs.encode_many_MiBps")),
        ("rs.encode_MiBps (as the client calls it)", probe("rs.encode_MiBps")),
        ("wire.frame_MiBps / 1.5 (n+k blocks per n)", probe("wire.frame_MiBps") / width),
        ("one null RPC per block, 9 per 6 blocks",
         spec.block_size / (probe("messages.null_rpc_us") * 1e-6) / MIB / width),
        ("object PUT (large_put)", object_mibps("large_put")),
    ]
    print("\nLayer-ceiling ladder, user MiB/s at 1 MiB blocks (fraction of the rung beneath)")
    beneath = None
    for label, value in rungs:
        share = f"{value / beneath:7.1%}" if beneath else "       "
        print(f"  {label:44s} {value:10.1f} {share}")
        beneath = value
    print(f"  {'object GET (large_get), vs wire.frame_MiBps':44s} "
          f"{object_mibps('large_get'):10.1f} "
          f"{object_mibps('large_get') / probe('wire.frame_MiBps'):7.1%}")

    null_ms = layer_value(report, "small_get", "messages.null_rpc_us") / 1e3
    get_ms = report["workloads"]["small_get"]["untraced"]["end_to_end"]["latency_p50_ms"]["median"]
    block_ms = layer_value(report, "degraded_reads", "messages.call_ms.block_get")
    print(
        f"\nRPC floor: null RPC {null_ms:.3f} ms; small GET p50 {get_ms:.2f} ms = "
        f"{get_ms / null_ms:.1f} null RPCs (it issues 7).  A 64 KiB block.get inside a "
        f"degraded GET takes {block_ms:.2f} ms; BENCH_live.json's 48-round-trip block loop "
        f"implies ~0.70 ms per 64 KiB round trip."
    )
    print("\nSpan accounting (sum of self times along the blocking path / op time; tracing cost)")
    for workload in report["workloads"]:
        coverage = layer_value(report, workload, "trace.path_coverage")
        overhead = layer_value(report, workload, "trace.overhead_ratio")
        print(f"  {workload:15s} path coverage {_num(coverage):>6s}   "
              f"traced/untraced op time {overhead:.3f}")
