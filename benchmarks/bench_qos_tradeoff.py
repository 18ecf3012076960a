#!/usr/bin/env python
"""QoS trade-off bench: foreground latency vs repair bandwidth share.

One seeded Zipfian GET/PUT trace is replayed against an in-process store
cluster (:class:`repro.qos.LocalService`) whose daemon NICs are shaped;
a daemon is killed mid-trace every time.  The sweep varies the link's
guaranteed repair share and reports the foreground percentiles against
the observed repair window — the latency/repair-throughput curve behind
``docs/QOS.md``: give repair more of the link and it finishes sooner,
but every degraded user read pays for it at the tail.

Runs two ways:

    pytest benchmarks/bench_qos_tradeoff.py          # bench harness
    python benchmarks/bench_qos_tradeoff.py --smoke  # CI qos-smoke

Exit status is nonzero if any replayed GET failed (degraded reads must
survive the kill) or — in smoke mode — the service did not repair back
to healthy afterwards.
"""

from __future__ import annotations

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.experiments import format_table  # noqa: E402
from repro.qos import kill_mid_trace_replay  # noqa: E402

FULL_SHARES = (0.1, 0.2, 0.5, 0.8, 0.95)
SMOKE_SHARES = (0.2,)
LINK_RATE = 1.5e6
BLOCK = 16 * 1024
KILL_AT = 0.25
SEED = 42


def _replay(link_rate, repair_share, *, objects, requests, wait_repaired=False):
    """One kill-mid-trace replay; returns ``(report, repairs_done)``."""
    report, status = kill_mid_trace_replay(
        objects=objects,
        requests=requests,
        object_bytes=3 * BLOCK,
        kill_at=KILL_AT,
        seed=SEED,
        get_fraction=0.95,
        concurrency=8,
        wait_repaired=wait_repaired,
        block_size=BLOCK,
        link_rate=link_rate,
        repair_share=repair_share,
        suspect_after=0.45,
        sweep_interval=0.05,
        heartbeat=0.1,
    )
    return report, len(status["repairs"])


def run_sweep(shares=FULL_SHARES, *, objects=30, requests=350) -> list[dict]:
    """One row per repair share, plus an unshaped reference row."""
    rows = []
    for share in (None, *shares):
        link_rate = None if share is None else LINK_RATE
        report, repairs = _replay(
            link_rate,
            0.5 if share is None else share,
            objects=objects,
            requests=requests,
        )
        summary = report.to_dict()
        window = report.repair_window
        rows.append(
            {
                "repair_share": share,
                "get_p50_s": summary["get"]["p50"],
                "get_p99_s": summary["get"]["p99"],
                "get_repair_phase_p99_s": summary["get_repair_phase"]["p99"],
                "degraded_gets": summary["degraded_gets"],
                "repair_window_s": (
                    None
                    if window is None or window[1] is None
                    else window[1] - window[0]
                ),
                "repairs_done": repairs,
                "errors": summary["errors"],
                "rejected_puts": summary["rejected"],
            }
        )
    return rows


def rows_to_table(rows) -> str:
    def fmt(value, scale=1e3, unit=""):
        return "-" if value is None else f"{value * scale:.1f}{unit}"

    return format_table(
        [
            "repair_share",
            "get_p50_ms",
            "get_p99_ms",
            "repair_get_p99_ms",
            "degraded",
            "window_ms",
            "repairs",
            "errors",
        ],
        [
            [
                "unshaped" if r["repair_share"] is None else f"{r['repair_share']:.2f}",
                fmt(r["get_p50_s"]),
                fmt(r["get_p99_s"]),
                fmt(r["get_repair_phase_p99_s"]),
                str(r["degraded_gets"]),
                fmt(r["repair_window_s"]),
                str(r["repairs_done"]),
                str(r["errors"]),
            ]
            for r in rows
        ],
    )


def check_rows(rows) -> None:
    """Invariants every sweep must satisfy (used by pytest and --smoke)."""
    for row in rows:
        share = row["repair_share"]
        assert row["errors"] == 0, (
            f"repair_share={share}: {row['errors']} failed requests — "
            f"degraded reads must survive the mid-trace kill"
        )
        assert row["degraded_gets"] > 0, (
            f"repair_share={share}: the kill produced no degraded reads; "
            f"the trace never exercised the degraded path"
        )


def test_qos_tradeoff(bench_once):
    rows = bench_once(
        lambda: run_sweep(shares=(0.2, 0.95), objects=12, requests=150)
    )
    emit_rows(rows)
    check_rows(rows)


def emit_rows(rows) -> None:
    from conftest import emit

    emit(
        "Foreground latency vs repair share (shaped NICs, daemon killed "
        "mid-trace)",
        rows_to_table(rows),
    )


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="one shaped replay with a mid-trace kill, then wait for the "
        "service to repair back to healthy — the CI qos-smoke check",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        report, repairs = _replay(
            LINK_RATE, SMOKE_SHARES[0], objects=8, requests=80, wait_repaired=True
        )
        summary = report.to_dict()
        print(
            f"requests={summary['requests']} errors={summary['errors']} "
            f"rejected_puts={summary['rejected']} "
            f"degraded_gets={summary['degraded_gets']} repairs={repairs}"
        )
        assert summary["errors"] == 0, "replayed requests failed"
        assert summary["degraded_gets"] > 0, "kill produced no degraded reads"
        assert repairs >= 1, "service never repaired the killed node's blocks"
        print("qos smoke OK")
        return 0
    rows = run_sweep()
    print(rows_to_table(rows))
    check_rows(rows)
    print("qos tradeoff OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
