"""``rpr faults`` and ``rpr trace``: one repair, optionally under injected
faults, as a summary or as a utilization + critical-path report.

Death times are given as *fractions of the fault-free makespan*
(``--kill 6@0.5`` kills node 6 halfway through the undisturbed
schedule), so a scenario means the same thing across block sizes and
testbeds; :func:`repro.repair.simulate_fault_scenario` does the
anchoring.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, replace

import numpy as np

from ..experiments import context_for
from ..repair import IrrecoverableError, simulate_fault_scenario
from ..sim import telemetry_from_sim
from ..telemetry import RunTrace, TelemetryTrace, render_gantt, render_report, to_jsonl
from ..workloads import encoded_stripe
from .common import UsageError, headline, parse_at_spec, scenario

#: ``--verify`` replays the scenario at this block size on real bytes.
VERIFY_BLOCK = 1 << 16


def _degraded(args, env, scheme, ctx, stripe=None):
    """``(fault-free makespan, degraded outcome)`` of ``ctx`` under the fault flags."""
    return simulate_fault_scenario(
        scheme,
        ctx,
        env.bandwidth,
        kill=parse_at_spec(args.kill, "kill"),
        slow=parse_at_spec(args.slow, "slow"),
        loss_probability=args.loss_prob,
        deaths=args.deaths,
        seed=args.seed,
        stripe=stripe,
        max_attempts=args.max_attempts,
    )


def cmd_faults(args):
    """Run one repair under injected faults and report the degraded outcome.

    ``--verify`` replays the same scenario — same fractions, re-anchored
    to the small run's own timeline — on a real byte store and checks the
    recovered payloads against the lost originals.
    """
    env, scheme, failed = scenario(args)
    ctx = context_for(env, failed)
    try:
        horizon, outcome = _degraded(args, env, scheme, ctx)
    except IrrecoverableError as exc:
        return 1, {"status": "irrecoverable", "reason": str(exc)}
    payload = {**outcome.to_dict(), "status": "completed", "fault_free_time": horizon}
    if args.verify:
        stripe = encoded_stripe(env.code, VERIFY_BLOCK, seed=args.seed)
        try:
            _, verified = _degraded(
                args, env, scheme, replace(ctx, block_size=VERIFY_BLOCK), stripe
            )
            payload["byte_oracle"] = all(
                np.array_equal(verified.recovered[f], stripe.get_payload(f)) for f in failed
            )
        except IrrecoverableError:
            payload["byte_oracle"] = None  # scenario unverifiable at this scale
    return int(payload.get("byte_oracle") is False), payload


def text_faults(p, args):
    if p["status"] == "irrecoverable":
        return f"IRRECOVERABLE: {p['reason']}"
    lines = [
        f"{headline(args)} under injected faults (seed {args.seed}):",
        f"  fault-free time   : {p['fault_free_time']:.2f} s",
        f"  degraded time     : {p['total_repair_time']:.2f} s "
        f"({p['total_repair_time'] / p['fault_free_time']:.2f}x)",
        f"  attempts          : {p['attempts']}",
    ]
    if p["dead_nodes"]:
        dead = ", ".join(
            f"node {node} @ {when:.1f}s"
            for node, when in sorted((int(n), t) for n, t in p["dead_nodes"].items())
        )
        lines.append(f"  node deaths       : {dead}")
    lines.append(f"  transfer retries  : {p['retry_count']}")
    lines.append(f"  wasted traffic    : {p['wasted_bytes'] / 1e6:.1f} MB")
    if p["reused_payloads"]:
        lines.append(f"  reused payloads   : {', '.join(p['reused_payloads'])}")
    if "byte_oracle" in p:
        verdict = {None: "skipped (small-scale replay irrecoverable)", True: "OK",
                   False: "MISMATCH"}[p["byte_oracle"]]
        lines.append(f"  byte oracle       : {verdict}")
    return "\n".join(lines)


@dataclass(frozen=True)
class TraceReport:
    """One traced run: ``--json`` is the utilization view, ``--jsonl`` the
    telemetry it was derived from, the text report both under a headline."""

    headline: str
    telemetry: TelemetryTrace
    view: RunTrace

    def to_dict(self) -> dict:
        return self.view.to_dict()


def cmd_trace(args):
    """Utilization + bottleneck report of one attempt of the repair.

    The repair runs under whatever fault flags are given (``--kill``,
    ``--slow``, ``--loss-prob``, ``--deaths`` > 0; none is one fault-free
    attempt) and the trace is one attempt of its outcome (``--attempt``,
    default the final one).  Aborted occupancy shows up as zero-byte
    intervals and the critical path walks across abort and retry
    boundaries.
    """
    env, scheme, failed = scenario(args)
    try:
        _, outcome = _degraded(args, env, scheme, context_for(env, failed))
    except IrrecoverableError as exc:
        print(f"IRRECOVERABLE: {exc}", file=sys.stderr)
        return 1, None
    if not -outcome.attempts <= args.attempt < outcome.attempts:
        raise UsageError(
            f"--attempt {args.attempt} out of range; outcome has "
            f"{outcome.attempts} attempts"
        )
    telemetry = telemetry_from_sim(
        outcome.sims[args.attempt], env.cluster, meta={"scheme": outcome.scheme}
    )
    if args.kill or args.slow or args.loss_prob or args.deaths:
        suffix = (
            f" under injected faults (seed {args.seed}) — attempt "
            f"{args.attempt % outcome.attempts + 1} of {outcome.attempts}"
        )
    else:
        suffix = f", {args.placement} placement"
    return 0, TraceReport(
        headline(args) + suffix, telemetry, RunTrace.from_telemetry(telemetry, env.cluster)
    )


def text_trace(report: TraceReport, args):
    if args.jsonl:
        return to_jsonl(report.telemetry)
    text = f"{report.headline}\n{render_report(report.view)}"
    if args.gantt:
        text += f"\n\n{render_gantt(report.view, width=args.width)}"
    return text
