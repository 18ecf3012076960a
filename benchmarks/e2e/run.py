#!/usr/bin/env python3
"""End-to-end benchmark of the object store, with a per-layer breakdown.

One workload, as the driver runs it (last stdout line is the result)::

    python3 benchmarks/e2e/run.py --workload small_put --seed 1 --seconds 10 --trace 0

``--trace 0`` measures with telemetry off and reports the end-to-end
metrics of ``BENCHMARK.json``; ``--trace 1`` installs span shims, turns
the program's recorders on, runs the layer probes and reports the
per-layer metrics.

Every workload, untraced then traced, each in its own interpreter, with
a printed report (ladder, named metrics) and a JSON file for compare.py::

    python3 benchmarks/e2e/run.py --seed 1 --out bench-out/e2e.json [--rounds-scale 0.3]

The benchmark's own unit checks (no cluster, < 5 s)::

    python3 benchmarks/e2e/run.py --selftest
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SOURCE = ROOT / "src"


def load_contract() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _bootstrap() -> None:
    """Import the program from *this* checkout's source tree, or refuse."""
    if not (SOURCE / "repro" / "__init__.py").is_file():
        raise SystemExit(
            f"benchmarks/e2e: no program to measure - {SOURCE}/repro is missing"
        )
    sys.path.insert(0, str(SOURCE))
    sys.path.insert(0, str(HERE))


#: An untraced run is measured by this many fresh interpreters in turn,
#: each for a third of ``--seconds``, and their rounds are pooled: two
#: interpreters on one quiet machine differ by several percent (where the
#: allocator and the kernel happened to put things), and the median over
#: pooled rounds is steadier than any one of them.  It also makes set-up
#: time a median over three cold set-ups at no extra cost.
POOL = 3


def _measure_here(args, contract: dict) -> dict:
    """Run the workload in this interpreter; returns the detail record."""
    from probes import run_probes
    from workloads import PROBE_BLOCK, run_workload

    traced = bool(args.trace)
    # Probes first, in a clean interpreter: a hundred thousand live span
    # objects make every later allocation pay for the collector.
    probed = run_probes(PROBE_BLOCK[args.workload], args.seed) if traced else {}
    outcome = run_workload(args.workload, args.seed, args.seconds, traced, args.process or 0)
    per_layer = {}
    if traced:
        # A layer the workload never enters did no work there: 0.
        per_layer = dict.fromkeys((m["name"] for m in contract["per_layer"]), 0.0)
        per_layer.update(outcome.per_layer)
        per_layer.update(probed)
        if args.trace_out and outcome.tracer is not None:  # shaped_repair has no store spans
            outcome.tracer.write_jsonl(args.trace_out)
    for line in outcome.errors:
        print(f"FAILED: {line}", file=sys.stderr)
    return {
        "attempted": outcome.attempted, "failed": outcome.failed, "errors": outcome.errors,
        "end_to_end": outcome.end_to_end, "per_layer": per_layer, "detail": outcome.detail,
    }


def _measure_pooled(args) -> dict:
    """Untraced: ``POOL`` child interpreters one after another, rounds pooled."""
    from measure import summarize
    from workloads import check_ordering

    members = []
    for process in range(POOL):
        command = [
            sys.executable, str(HERE / "run.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds / POOL),
            "--trace", "0", "--process", str(process), "--detail",
        ]
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        if done.returncode != 0:
            raise SystemExit(f"interpreter {process} of the pool exited with {done.returncode}")
        members.append(json.loads(done.stdout.strip().splitlines()[-2]))
    # The one oracle that needs the whole run: shaped_repair's ordering.
    checked, failures = check_ordering(
        [p for m in members for p in m["detail"].get("passes", ())]
    )
    for line in failures:
        print(f"FAILED: {line}", file=sys.stderr)
    return {
        "attempted": checked + sum(m["attempted"] for m in members),
        "failed": len(failures) + sum(m["failed"] for m in members),
        "errors": failures + [e for m in members for e in m["errors"]],
        "end_to_end": {
            name: summarize([v for m in members for v in m["end_to_end"][name]["values"]])
            for name in members[0]["end_to_end"]
        },
        "per_layer": {},
        "detail": {"interpreters": [m["detail"] for m in members]},
    }


def run_one(args: argparse.Namespace, contract: dict) -> int:
    started = time.perf_counter()
    if args.trace or args.process is not None:
        record = _measure_here(args, contract)
        declared = contract["per_layer"] if args.trace else contract["end_to_end"]
    else:
        record = _measure_pooled(args)
        declared = contract["end_to_end"]
    values = record["per_layer"] if args.trace else {
        name: s["median"] for name, s in record["end_to_end"].items()
    }
    names = {m["name"] for m in declared}
    if set(values) != names:
        raise SystemExit(
            f"metrics differ from BENCHMARK.json: missing {sorted(names - set(values))}, "
            f"undeclared {sorted(set(values) - names)}"
        )
    result = {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
            for m in declared
        },
    }
    if args.detail:
        print(json.dumps({
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "wall_s": time.perf_counter() - started,
            **record, **result,
        }, default=list))
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run this one workload and print one result line")
    parser.add_argument("--seed", type=int, default=1,
                        help="drives payload bytes and read order (default 1)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of the measured phase (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--detail", action="store_true",
                        help="print quartiles, samples and errors as the line before the result")
    parser.add_argument("--process", type=int, default=None,
                        help="internal: measure untraced in this interpreter as pool member N")
    parser.add_argument("--trace-out", help="write the traced run's spans here as JSONL")
    parser.add_argument("--out", help="suite mode: write every workload's results here")
    parser.add_argument("--rounds-scale", type=float, default=1.0,
                        help="suite mode: scale every workload's measured phase (smoke: 0.3)")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args(argv)

    _bootstrap()
    if args.selftest:
        from selftest import run_selftest
        return run_selftest()
    contract = load_contract()
    if args.workload:
        if args.seconds is None:
            args.seconds = float(contract["run_seconds"])
        return run_one(args, contract)
    from suite import run_suite
    return run_suite(args, contract)


if __name__ == "__main__":
    raise SystemExit(main())
