#!/usr/bin/env python
"""Perf-regression gate: rerun the harness, compare against baselines.

For every committed ``BENCH_*.json`` baseline this reruns the matching
suite *in the baseline's own quick mode* (quick and full runs name and
size their workloads differently, so cross-mode ratios are meaningless),
writes the fresh report plus a ``BENCH_history.jsonl`` trend record to
``--out-dir``, and fails if any benchmark regressed more than
``--threshold`` (default 25%) against its baseline ``best_s``.

    python benchmarks/check_perf_regression.py                # gate vs repo baselines
    python benchmarks/check_perf_regression.py --threshold 0.5

Baselines are refreshed deliberately — run ``rpr perf`` (or
``benchmarks/run_perf.py``) at the repo root and commit the updated
``BENCH_*.json`` alongside the change that moved the numbers.  See
``docs/PERFORMANCE.md``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.perfharness import REPORT_SUITES, append_history, compare_reports  # noqa: E402

SUITES = dict(REPORT_SUITES)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--baseline-dir",
        type=Path,
        default=REPO_ROOT,
        help="where the committed BENCH_*.json baselines live (default: repo root)",
    )
    parser.add_argument(
        "--out-dir",
        type=Path,
        default=Path("bench-out"),
        help="where to write the fresh reports + history record",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.25,
        help="maximum tolerated slowdown as a fraction (0.25 = 25%%)",
    )
    args = parser.parse_args(argv)
    args.out_dir.mkdir(parents=True, exist_ok=True)

    failures: list[str] = []
    fresh: dict[str, dict] = {}
    compared = 0
    for name, suite in SUITES.items():
        baseline_path = args.baseline_dir / name
        if not baseline_path.exists():
            print(f"skipping {name}: no baseline at {baseline_path}")
            continue
        baseline = json.loads(baseline_path.read_text())
        current = suite(quick=bool(baseline.get("quick")))
        fresh[name.removeprefix("BENCH_").removesuffix(".json")] = current
        (args.out_dir / name).write_text(
            json.dumps(current, indent=2, sort_keys=True) + "\n"
        )
        messages = compare_reports(baseline, current, threshold=args.threshold)
        compared += 1
        status = "REGRESSED" if messages else "ok"
        print(f"{name}: {status}")
        for message in messages:
            print(f"  {message}")
            failures.append(f"{name}: {message}")
    if fresh:
        append_history(args.out_dir, fresh)
    if not compared:
        print("no baselines found — nothing gated", file=sys.stderr)
        return 2
    if failures:
        print(
            f"\nperf gate FAILED: {len(failures)} regression(s) beyond "
            f"{args.threshold:.0%}",
            file=sys.stderr,
        )
        return 1
    print(f"\nperf gate OK ({compared} suites within {args.threshold:.0%})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
