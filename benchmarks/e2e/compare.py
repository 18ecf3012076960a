#!/usr/bin/env python3
"""Compare two suite results under the bounds fixed in BENCHMARK.json.

    python3 benchmarks/e2e/compare.py BASELINE.json CANDIDATE.json

One row per workload x end-to-end metric.  ``regressed``: the candidate's
median is worse than the baseline's by more than the metric's bound.
``unresolved``: the rounds inside either run spread wider than the bound,
so a difference of that size cannot be told from noise - reported as
such, never as unchanged, unless every round of the candidate reads
better than every round of the baseline.  Count metrics are compared for
exact equality: a count that moves means the program does different
work, whatever the clock says.  Exit code 1 when anything regressed, a
count differs or an operation failed.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

CONTRACT = Path(__file__).resolve().parents[2] / "BENCHMARK.json"

#: Per-layer metrics that must repeat exactly between runs of one program.
COUNT_METRICS = (
    "messages.rpcs_per_op",
    "transport.connects_per_op",
    "wire.bytes_per_user_byte",
    "daemon.rpcs_per_op",
    "daemon.repair_blocks_per_stripe",
    "client.helper_bytes_per_op",
    "store_repair.cross_rack_bytes_per_stripe",
)


def verdict(base: dict, cand: dict, better: str, bound: float) -> tuple[float, float, str]:
    """``(worse_by, spread, verdict)`` for one workload x metric pair."""
    a, b = base["median"], cand["median"]
    worse_by = (b - a) / a if better == "lower" else (a - b) / a
    spread = max(base["spread"], cand["spread"])
    if spread > bound:
        if better == "lower":
            clear_win = max(cand["values"]) < min(base["values"])
        else:
            clear_win = min(cand["values"]) > max(base["values"])
        return worse_by, spread, "ok" if clear_win else "unresolved"
    return worse_by, spread, "regressed" if worse_by > bound else "ok"


def compare(baseline: dict, candidate: dict, contract: dict) -> int:
    bad = 0
    print(f"{'workload':15s} {'metric':17s} {'baseline':>10s} {'candidate':>10s} "
          f"{'worse by':>9s} {'bound':>6s} {'spread':>7s}  verdict")
    for workload, pair in baseline["workloads"].items():
        other = candidate["workloads"].get(workload)
        if other is None:
            print(f"{workload:15s} missing from candidate")
            bad += 1
            continue
        for metric in contract["end_to_end"]:
            name = metric["name"]
            base = pair["untraced"]["end_to_end"][name]
            cand = other["untraced"]["end_to_end"][name]
            worse_by, spread, word = verdict(base, cand, metric["better"], metric["bound"])
            bad += word == "regressed"
            print(f"{workload:15s} {name:17s} {base['median']:10.4g} {cand['median']:10.4g} "
                  f"{worse_by:+9.1%} {metric['bound']:6.0%} {spread:7.1%}  {word}")
    print()
    for workload, pair in baseline["workloads"].items():
        other = candidate["workloads"].get(workload)
        if other is None:
            continue
        for name in COUNT_METRICS:
            a = pair["traced"]["metrics"][name]["value"]
            b = other["traced"]["metrics"][name]["value"]
            if a == b == 0:
                continue
            same = a == b
            bad += not same
            print(f"{workload:15s} {name:42s} {a:12.6g} {b:12.6g}  "
                  f"{'same' if same else 'DIFFERS'}")
    for side, run in (("baseline", baseline), ("candidate", candidate)):
        failed = sum(r["failed"] for p in run["workloads"].values() for r in p.values())
        print(f"{side}: {failed} failed operations")
        bad += failed > 0
    return 1 if bad else 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    baseline, candidate = (json.loads(Path(p).read_text()) for p in argv)
    return compare(baseline, candidate, json.loads(CONTRACT.read_text()))


if __name__ == "__main__":
    raise SystemExit(main())
