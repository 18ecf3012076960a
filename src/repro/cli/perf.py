"""``rpr perf``: refresh the ``BENCH_*.json`` reports."""

from __future__ import annotations

from ..perfharness import main


def cmd_perf(args):
    return main(["--out-dir", str(args.out_dir), *(["--quick"] if args.quick else [])]), None
