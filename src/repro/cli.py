"""Command-line interface: regenerate any experiment or run one repair.

Usage (installed as ``rpr`` or via ``python -m repro.cli``):

    rpr list                        # what can be regenerated
    rpr figure 8                    # print Figure 8's rows
    rpr figure 9 --cap 100          # cap exhaustive sweeps at 100 scenarios
    rpr table 1                     # Table 1's bandwidth matrix
    rpr repair --code 12,4 --fail 1 --scheme rpr [--testbed ec2]
    rpr compare --code 12,4 --fail 1                # all schemes, one table
    rpr faults --code 8,3 --fail 2 --kill 12@0.7    # degraded repair under injected faults
    rpr trace --code 6,4 --fail 1 --scheme rpr      # utilization + bottleneck report
    rpr trace --code 6,2 --fail 1 --gantt           # ... plus the ASCII schedule chart
    rpr trace --code 8,3 --fail 2 --kill 4@0.5      # same report for a degraded repair
    rpr telemetry report --code 6,3 --fail 1        # span/counter/histogram summary
    rpr telemetry diff --code 6,3 --fail 1          # per-op sim vs live ratios
    rpr telemetry export --source both --out t.json # Chrome trace for Perfetto
    rpr telemetry assemble --dir .rpr-store         # stitch per-process store traces
    rpr store stats --prom                          # scrape the live metrics plane
    rpr top                                         # refreshing cluster dashboard
    rpr rebuild --code 6,2 --stripes 30 --node 0    # full-node rebuild
    rpr durability --code 12,4                      # MTTDL per scheme
    rpr extension lrc                               # extension experiments
    rpr perf --quick                                # refresh BENCH_*.json reports
    rpr live --code 6,3 --fail 1 --validate         # live runtime vs simulator

Every report subcommand accepts ``--json`` for machine-readable output.
"""

from __future__ import annotations

import argparse
import sys

from . import experiments
from .ec2 import REGIONS, TABLE1_MBPS
from .experiments import (
    build_ec2_env,
    build_simics_environment,
    format_table,
    run_scheme,
)
from .repair import CARRepair, RPRScheme, TraditionalRepair

__all__ = ["main"]

_SCHEMES = {
    "traditional": TraditionalRepair,
    "car": CARRepair,
    "rpr": RPRScheme,
}

_FIGURES = {
    "6": ("figure6_rows", ["code", "traditional_s", "rpr_s"]),
    "7": (
        "figure7_rows",
        ["code", "tra_cross_blocks", "car_cross_blocks", "rpr_cross_blocks"],
    ),
    "8": (
        "figure8_rows",
        ["code", "tra_time_s", "car_time_s", "rpr_time_s", "rpr_vs_tra_pct", "rpr_vs_car_pct"],
    ),
    "9": (
        "figure9_rows",
        ["code", "tra_time_s", "rpr_time_s", "rpr_time_min_s", "rpr_time_max_s", "time_reduction_pct"],
    ),
    "10": (
        "figure10_rows",
        ["code", "tra_cross_blocks", "rpr_cross_blocks", "traffic_reduction_pct"],
    ),
    "11": (
        "figure11_rows",
        ["code", "tra_time_s", "rpr_time_s", "time_reduction_pct", "traffic_reduction_pct"],
    ),
    "12": (
        "figure12_rows",
        ["code", "tra_time_s", "car_time_s", "rpr_time_s", "rpr_vs_tra_pct", "rpr_vs_car_pct"],
    ),
    "13": (
        "figure13_rows",
        ["code", "tra_time_s", "rpr_time_s", "time_reduction_pct"],
    ),
    "14": (
        "figure14_rows",
        ["code", "tra_time_s", "rpr_time_s", "time_reduction_pct"],
    ),
}

#: Figures whose row generators accept a scenario cap.
_CAPPED = {"9", "10", "11", "13", "14"}


def _cmd_list(_args) -> int:
    print("figures: " + ", ".join(sorted(_FIGURES, key=int)))
    print("tables:  1")
    print("extensions: " + ", ".join(sorted(_EXTENSIONS)))
    print("schemes: " + ", ".join(_SCHEMES))
    print("testbeds: simics, ec2")
    return 0


def _cmd_figure(args) -> int:
    if args.number not in _FIGURES:
        print(f"unknown figure {args.number!r}; try: rpr list", file=sys.stderr)
        return 2
    fn_name, columns = _FIGURES[args.number]
    fn = getattr(experiments, fn_name)
    rows = fn(cap=args.cap) if args.number in _CAPPED else fn()
    if args.json:
        import json

        print(json.dumps({"figure": args.number, "rows": rows}, indent=2))
        return 0
    print(f"Figure {args.number}")
    print(format_table(columns, [[row[c] for c in columns] for row in rows]))
    return 0


_EXTENSIONS = {
    "node-rebuild": (
        "node_rebuild_rows",
        ["scheme", "mode", "rebuild", "makespan_s", "cross_blocks", "rack_imbalance"],
    ),
    "durability": (
        "durability_rows",
        ["code", "tra_repair_s", "rpr_repair_s", "tra_mttdl_years", "rpr_mttdl_years", "amplification"],
    ),
    "lrc": (
        "lrc_rows",
        ["code", "mean_repair_s", "mean_cross_blocks", "four_failure_coverage_pct"],
    ),
    "slice-pipelining": (
        "slice_pipelining_rows",
        ["code", "chained_failures", "failures", "slices", "tree_cross_blocks",
         "chain_cross_blocks", "tree_time_s", "chain_time_s", "tree_block_times",
         "chain_block_times", "time_reduction_pct"],
    ),
}


def _cmd_extension(args) -> int:
    if args.name not in _EXTENSIONS:
        print(
            f"unknown extension {args.name!r}; known: {sorted(_EXTENSIONS)}",
            file=sys.stderr,
        )
        return 2
    fn_name, columns = _EXTENSIONS[args.name]
    rows = getattr(experiments, fn_name)()
    if args.json:
        import json

        print(json.dumps({"extension": args.name, "rows": rows}, indent=2))
        return 0
    print(f"Extension: {args.name}")
    print(
        format_table(
            columns,
            [["%.3g" % row[c] if isinstance(row[c], float) else row[c] for c in columns] for row in rows],
        )
    )
    return 0


def _cmd_table(args) -> int:
    if args.number != "1":
        print(f"unknown table {args.number!r}; only Table 1 exists", file=sys.stderr)
        return 2
    header = ["region"] + [r.title() for r in REGIONS]
    rows = []
    for a in REGIONS:
        row = [a.title()]
        for b in REGIONS:
            key = (a, b) if (a, b) in TABLE1_MBPS else (b, a)
            row.append(TABLE1_MBPS.get(key, ""))
        rows.append(row)
    print("Table 1 — region bandwidths (Mbps)")
    print(format_table(header, rows))
    return 0


def _parse_code(text: str) -> tuple[int, int]:
    try:
        n, k = (int(x) for x in text.split(","))
        return n, k
    except ValueError:
        raise SystemExit(f"--code must look like '12,4', got {text!r}")


def _parse_fail(text: str, n: int, k: int) -> list[int]:
    try:
        failed = sorted(int(x) for x in text.split(","))
    except ValueError:
        raise SystemExit(f"--fail must be comma-separated block ids like '0,3', got {text!r}")
    if len(set(failed)) != len(failed) or len(failed) > k or not all(
        0 <= b < n + k for b in failed
    ):
        raise SystemExit(
            f"--fail must name at most {k} distinct blocks of RS({n},{k})'s stripe "
            f"(0..{n + k - 1}), got {text!r}"
        )
    return failed


def _scenario(args):
    """``(env, scheme, failed)`` from a verb's scenario flags, validated once.

    A flag the verb does not declare falls back: no ``--placement`` is
    the RPR placement, no ``--scheme`` / ``--fail`` yields ``None``.  A
    bad value exits with a one-line message naming the flag — before
    anything is printed, and never as a traceback.
    """
    n, k = _parse_code(args.code)
    failed = _parse_fail(args.fail, n, k) if hasattr(args, "fail") else None
    if getattr(args, "width", 10) < 10:
        raise SystemExit(f"--width must be at least 10 columns, got {args.width}")
    builder = build_ec2_env if args.testbed == "ec2" else build_simics_environment
    env = builder(n, k, placement=getattr(args, "placement", "rpr"))
    scheme = _SCHEMES[args.scheme]() if hasattr(args, "scheme") else None
    return env, scheme, failed


def _headline(args, env, scheme, failed) -> str:
    return (
        f"{scheme.name} repairing blocks {failed} of RS({env.code.n},{env.code.k}) "
        f"on the {args.testbed} testbed"
    )


def _cmd_repair(args) -> int:
    try:
        env, scheme, failed = _scenario(args)
    except SystemExit as exc:  # this verb's usage errors are exit code 2
        print(exc, file=sys.stderr)
        return 2
    n, k = env.code.n, env.code.k
    outcome = run_scheme(env, scheme, failed)
    if args.json:
        import json

        print(
            json.dumps(
                {
                    "code": [n, k],
                    "testbed": args.testbed,
                    "placement": args.placement,
                    "failed": failed,
                    "scheme": scheme.name,
                    "total_repair_time_s": outcome.total_repair_time,
                    "cross_rack_bytes": outcome.cross_rack_bytes,
                    "cross_rack_blocks": outcome.cross_rack_blocks,
                    "intra_rack_bytes": outcome.intra_rack_bytes,
                    "plan_ops": len(outcome.plan.ops),
                },
                indent=2,
            )
        )
        return 0
    print(
        f"RS({n},{k}) {args.testbed} testbed, {args.placement} placement, "
        f"failed blocks {failed}, scheme {scheme.name}"
    )
    print(f"  total repair time : {outcome.total_repair_time:.2f} s")
    print(f"  cross-rack traffic: {outcome.cross_rack_blocks:.1f} blocks "
          f"({outcome.cross_rack_bytes / 1e6:.0f} MB)")
    print(f"  intra-rack traffic: {outcome.intra_rack_bytes / 1e6:.0f} MB")
    print(f"  plan size         : {len(outcome.plan.ops)} ops")
    return 0


def _cmd_compare(args) -> int:
    from .metrics import percent_reduction

    env, _, failed = _scenario(args)
    n, k = env.code.n, env.code.k
    names = ["traditional", "rpr"] if len(failed) > 1 else ["traditional", "car", "rpr"]
    outcomes = {
        name: run_scheme(env, _SCHEMES[name](), failed) for name in names
    }
    rows = [
        [
            name,
            o.total_repair_time,
            o.cross_rack_blocks,
            percent_reduction(
                outcomes["traditional"].total_repair_time, o.total_repair_time
            ),
        ]
        for name, o in outcomes.items()
    ]
    if args.json:
        import json

        print(
            json.dumps(
                {
                    "code": [n, k],
                    "testbed": args.testbed,
                    "failed": failed,
                    "schemes": [
                        {
                            "scheme": name,
                            "repair_time_s": time_s,
                            "cross_blocks": blocks,
                            "vs_traditional_pct": reduction,
                        }
                        for name, time_s, blocks, reduction in rows
                    ],
                },
                indent=2,
            )
        )
        return 0
    print(
        f"RS({n},{k}) on the {args.testbed} testbed, failed blocks {failed}:"
    )
    print(
        format_table(
            ["scheme", "repair_time_s", "cross_blocks", "vs_traditional_%"], rows
        )
    )
    return 0


def _parse_at_spec(spec: str, what: str) -> list[tuple[int, float]]:
    """Parse comma-separated ``node@value`` pairs (e.g. ``6@0.5,12@0.7``)."""
    pairs = []
    for item in spec.split(","):
        try:
            node, value = item.split("@")
            pairs.append((int(node), float(value)))
        except ValueError:
            raise SystemExit(
                f"--{what} expects comma-separated node@value pairs, got {item!r}"
            )
    return pairs


def _build_fault_plan(args, cluster, horizon):
    """Fault plan from CLI flags, death times anchored to ``horizon``."""
    from .sim import FaultPlan, NodeDeath, Straggler, random_fault_plan

    if args.kill or args.slow or args.loss_prob:
        deaths = tuple(
            NodeDeath(node, frac * horizon)
            for node, frac in _parse_at_spec(args.kill, "kill")
        ) if args.kill else ()
        stragglers = tuple(
            Straggler(node, factor)
            for node, factor in _parse_at_spec(args.slow, "slow")
        ) if args.slow else ()
        return FaultPlan(
            deaths=deaths,
            stragglers=stragglers,
            loss_probability=args.loss_prob,
            seed=args.seed,
        )
    return random_fault_plan(
        cluster.node_ids(),
        seed=args.seed,
        deaths=args.deaths,
        death_window=(0.0, horizon),
    )


def _degraded(args, env, scheme, ctx, stripe=None):
    """``(fault-free makespan, degraded outcome)`` of ``ctx`` under the fault flags.

    Death times are fractions of the fault-free makespan of ``ctx``
    itself, so a scenario means the same thing at any block size.
    """
    from .repair import simulate_repair, simulate_repair_with_faults

    horizon = simulate_repair(scheme, ctx, env.bandwidth).total_repair_time
    faults = _build_fault_plan(args, env.cluster, horizon)
    return horizon, simulate_repair_with_faults(
        scheme, ctx, env.bandwidth, faults, stripe=stripe,
        max_attempts=args.max_attempts,
    )


def _cmd_faults(args) -> int:
    """Run one repair under injected faults and report the degraded outcome.

    Death times are given as *fractions of the fault-free makespan*
    (``--kill 6@0.5`` kills node 6 halfway through the undisturbed
    schedule), so a scenario means the same thing across block sizes and
    testbeds.  ``--verify`` replays the same scenario — same fractions,
    re-anchored to the small run's own timeline — on a real byte store
    and checks the recovered payloads against the lost originals.
    """
    import numpy as np
    from dataclasses import replace as dc_replace

    from .experiments import context_for
    from .repair import IrrecoverableError
    from .workloads import encoded_stripe

    env, scheme, failed = _scenario(args)
    ctx = context_for(env, failed)
    try:
        horizon, outcome = _degraded(args, env, scheme, ctx)
    except IrrecoverableError as exc:
        if args.json:
            import json

            print(json.dumps({"status": "irrecoverable", "reason": str(exc)}))
        else:
            print(f"IRRECOVERABLE: {exc}")
        return 1

    oracle = None
    if args.verify:
        small_block = 1 << 16
        stripe = encoded_stripe(env.code, small_block, seed=args.seed)
        try:
            _, verified = _degraded(
                args, env, scheme, dc_replace(ctx, block_size=small_block), stripe
            )
            oracle = all(
                np.array_equal(verified.recovered[f], stripe.get_payload(f))
                for f in failed
            )
        except IrrecoverableError:
            oracle = None  # scenario unverifiable at this scale

    if args.json:
        import json

        payload = outcome.to_dict()
        payload["status"] = "completed"
        payload["fault_free_time"] = horizon
        if args.verify:
            payload["byte_oracle"] = oracle
        print(json.dumps(payload, indent=2))
        return 0 if oracle is not False else 1

    print(f"{_headline(args, env, scheme, failed)} under injected faults (seed {args.seed}):")
    print(f"  fault-free time   : {horizon:.2f} s")
    print(
        f"  degraded time     : {outcome.total_repair_time:.2f} s "
        f"({outcome.total_repair_time / horizon:.2f}x)"
    )
    print(f"  attempts          : {outcome.attempts}")
    if outcome.dead_nodes:
        dead = ", ".join(
            f"node {node} @ {when:.1f}s"
            for node, when in sorted(outcome.dead_nodes.items())
        )
        print(f"  node deaths       : {dead}")
    print(f"  transfer retries  : {outcome.retry_count}")
    print(f"  wasted traffic    : {outcome.wasted_bytes / 1e6:.1f} MB")
    if outcome.reused_payloads:
        print(f"  reused payloads   : {', '.join(outcome.reused_payloads)}")
    if args.verify:
        if oracle is None:
            print("  byte oracle       : skipped (small-scale replay irrecoverable)")
        else:
            print(f"  byte oracle       : {'OK' if oracle else 'MISMATCH'}")
            if not oracle:
                return 1
    return 0


def _cmd_trace(args) -> int:
    """Utilization + bottleneck report, fault-free or degraded.

    Any fault flag (``--kill``, ``--slow``, ``--loss-prob``, or
    ``--deaths`` > 0) switches the command onto the faulted engine: the
    repair replays under the injected scenario and the trace comes from
    one attempt of the degraded outcome (``--attempt``, default the
    final one).  Aborted occupancy shows up as zero-byte intervals and
    the critical path walks across abort and retry boundaries.
    """
    from .telemetry import RunTrace, render_gantt, render_report, to_jsonl

    env, scheme, failed = _scenario(args)
    headline = _headline(args, env, scheme, failed)
    if args.kill or args.slow or args.loss_prob or args.deaths:
        from .experiments import context_for
        from .repair import IrrecoverableError
        from .sim import telemetry_from_sim

        try:
            _, degraded = _degraded(args, env, scheme, context_for(env, failed))
        except IrrecoverableError as exc:
            print(f"IRRECOVERABLE: {exc}", file=sys.stderr)
            return 1
        if not -degraded.attempts <= args.attempt < degraded.attempts:
            print(
                f"--attempt {args.attempt} out of range; outcome has "
                f"{degraded.attempts} attempts",
                file=sys.stderr,
            )
            return 2
        telemetry = telemetry_from_sim(degraded.sims[args.attempt], env.cluster)
        headline += (
            f" under injected faults (seed {args.seed}) — attempt "
            f"{args.attempt % degraded.attempts + 1} of {degraded.attempts}"
        )
    else:
        telemetry = run_scheme(env, scheme, failed).telemetry()
        headline += f", {args.placement} placement"
    trace = RunTrace.from_telemetry(telemetry, env.cluster)
    if args.json:
        import json

        print(json.dumps(trace.to_dict(), indent=2))
        return 0
    if args.jsonl:
        print(to_jsonl(telemetry), end="")
        return 0
    print(headline)
    print(render_report(trace))
    if args.gantt:
        print()
        print(render_gantt(trace, width=args.width))
    return 0


def _cmd_rebuild(args) -> int:
    from .multistripe import StripeStore, repair_node_failure

    env, scheme, _ = _scenario(args)
    n, k = env.code.n, env.code.k
    store = StripeStore.build(env.cluster, env.code, num_stripes=args.stripes)
    lost = store.blocks_on_node(args.node)
    outcome = repair_node_failure(
        store,
        args.node,
        scheme,
        env.bandwidth,
        mode=args.mode,
        rebuild=args.rebuild,
        balance=args.balance,
        block_size=env.block_size,
        cost_model=env.cost_model,
    )
    if args.json:
        import json

        print(
            json.dumps(
                {
                    "code": [n, k],
                    "node": args.node,
                    "stripes": args.stripes,
                    "lost_blocks": len(lost),
                    "scheme": scheme.name,
                    "mode": args.mode,
                    "rebuild": args.rebuild,
                    "makespan_s": outcome.makespan,
                    "cross_rack_blocks": outcome.total_cross_rack_bytes / env.block_size,
                    "rack_imbalance_max_mean": outcome.rack_upload_imbalance["max_mean_ratio"],
                },
                indent=2,
            )
        )
        return 0
    print(
        f"node {args.node} holds {len(lost)} blocks across a "
        f"{args.stripes}-stripe RS({n},{k}) store"
    )
    print(f"  makespan          : {outcome.makespan:.2f} s")
    print(
        f"  cross-rack traffic: "
        f"{outcome.total_cross_rack_bytes / env.block_size:.0f} blocks"
    )
    print(
        f"  rack imbalance    : "
        f"{outcome.rack_upload_imbalance['max_mean_ratio']:.2f} (max/mean)"
    )
    return 0


def _cmd_durability(args) -> int:
    from .experiments import context_for
    from .reliability import mttdl_from_repair_times
    from .repair import simulate_repair

    env, _, _ = _scenario(args)
    n, k = env.code.n, env.code.k
    year = 365.25 * 24 * 3600
    lam = 1 / (args.block_mtbf_years * year)
    results = {}
    repair_times = {}
    for name in ("traditional", "rpr"):
        scheme = _SCHEMES[name]()
        times = [
            simulate_repair(
                scheme, context_for(env, list(range(l))), env.bandwidth
            ).total_repair_time
            for l in range(1, k + 1)
        ]
        repair_times[name] = times
        results[name] = mttdl_from_repair_times(n + k, k, lam, times)
    amplification = results["rpr"] / results["traditional"]
    if args.json:
        import json

        print(
            json.dumps(
                {
                    "code": [n, k],
                    "testbed": args.testbed,
                    "block_mtbf_years": args.block_mtbf_years,
                    "schemes": [
                        {
                            "scheme": name,
                            "repair_times_s": repair_times[name],
                            "mttdl_years": results[name] / year,
                        }
                        for name in results
                    ],
                    "durability_amplification": amplification,
                },
                indent=2,
            )
        )
        return 0
    print(
        f"RS({n},{k}) on the {args.testbed} testbed, one failure per block "
        f"per {args.block_mtbf_years:g} years:"
    )
    for name, value in results.items():
        print(
            f"  {name:>12}: repair(1)={repair_times[name][0]:7.1f} s  "
            f"MTTDL={value / year:.3e} years"
        )
    print(f"  durability amplification: {amplification:.1f}x")
    return 0


def _cmd_live(args) -> int:
    """Execute repairs on the live asyncio runtime and compare to the sim.

    Runs every requested scheme's plan on real bytes over real (shaped)
    connections, printing the measured makespan next to the simulator's
    prediction.  ``--validate`` turns the report into a gate: exit
    nonzero unless every recovered block is byte-identical to the lost
    original *and* measured makespans rank the schemes the way the
    simulator predicts.
    """
    from .live import run_live_validation

    n, k = _parse_code(args.code)
    failed = _parse_fail(args.fail, n, k)
    schemes = args.schemes.split(",") if args.schemes else None
    if schemes is not None:
        unknown = set(schemes) - set(_SCHEMES)
        if unknown:
            print(f"unknown schemes {sorted(unknown)}; known: {sorted(_SCHEMES)}",
                  file=sys.stderr)
            return 2
    report = run_live_validation(
        n,
        k,
        failed,
        schemes=schemes,
        block_size=args.block_size,
        transport=args.transport,
        seed=args.seed,
        timeout=args.timeout,
    )
    ok = report.all_bytes_ok and report.ordering_ok()
    if args.json:
        import json

        payload = report.to_dict()
        payload["validated"] = ok if args.validate else None
        print(json.dumps(payload, indent=2))
        return 0 if (ok or not args.validate) else 1

    print(
        f"RS({n},{k}) failed blocks {failed}: live runtime "
        f"({args.transport} transport, {args.block_size // 1024} KiB blocks) "
        f"vs simulator"
    )
    rows = [
        [
            row.scheme,
            f"{row.predicted_s:.3f}",
            f"{row.measured_s:.3f}",
            f"{row.ratio:.2f}",
            "ok" if row.bytes_ok else "MISMATCH",
            row.cross_rack_bytes,
            row.gather,
            row.slices,
        ]
        for row in report.rows
    ]
    print(
        format_table(
            ["scheme", "predicted_s", "measured_s", "ratio", "bytes", "cross_bytes",
             "gather", "slices"],
            rows,
        )
    )
    print(f"  bytes    : {'all recovered blocks identical' if report.all_bytes_ok else 'MISMATCH'}")
    print(f"  ordering : {'matches simulator' if report.ordering_ok() else 'DISAGREES with simulator'}")
    if args.validate and not ok:
        return 1
    return 0


def _cmd_telemetry(args) -> int:
    """Span-structured telemetry: summarise, diff sim vs live, or export.

    Three modes:

    ``report``
        Simulate one repair and summarise its telemetry trace (op spans,
        fault events, counters, histograms) — sim-clock seconds.
    ``diff``
        Run the same plan through the simulator *and* the live runtime
        with telemetry on, align every op span by id and print per-op
        measured/predicted ratios, the worst divergers and the
        critical-path delta.  Exits nonzero if any op fails to align.
    ``export``
        Write the trace(s) out as canonical JSONL or Chrome trace-event
        JSON (loadable in Perfetto / ``chrome://tracing``).  ``--source
        both`` puts the sim prediction and the live measurement side by
        side as two processes in one Chrome trace.
    """
    import json

    from .telemetry import render_diff, to_chrome_trace, to_jsonl

    if args.mode == "assemble":
        return _telemetry_assemble(args)

    env, scheme, failed = _scenario(args)
    n, k = env.code.n, env.code.k

    if args.mode == "report":
        trace = run_scheme(env, scheme, failed).telemetry()
        if args.json:
            print(json.dumps(trace.to_dict(), indent=2))
            return 0
        ops = sorted(trace.op_spans().values(), key=lambda s: -s.duration)
        print(f"{_headline(args, env, scheme, failed)} — telemetry ({trace.clock} clock)")
        print(f"  spans    : {len(trace.spans)} ({len(ops)} ops)")
        print(f"  events   : {len(trace.events)}")
        print(f"  extent   : {trace.extent:.3f} s")
        for name in sorted(trace.counters):
            print(f"  counter  : {name} = {trace.counters[name]:g}")
        for name in sorted(trace.histograms):
            values = trace.histograms[name]
            print(
                f"  histogram: {name} n={len(values)} "
                f"mean={sum(values) / len(values):.4g} max={max(values):.4g}"
            )
        print("  slowest ops:")
        for span in ops[: args.top]:
            print(
                f"    {span.op_id:<28} {span.duration:8.3f} s  "
                f"{span.attrs.get('kind', '?')}"
                f"{' CROSS' if span.attrs.get('cross_rack') else ''}"
            )
        return 0

    if args.mode == "diff":
        from .live import run_live_validation

        report = run_live_validation(
            n,
            k,
            failed,
            schemes=[args.scheme],
            block_size=args.block_size,
            transport=args.transport,
            seed=args.seed,
            timeout=args.timeout,
            telemetry=True,
        )
        diff = report.rows[0].diff
        if args.json:
            print(json.dumps(diff.to_dict(), indent=2))
        else:
            print(
                f"{args.scheme} repairing blocks {failed} of RS({n},{k}): "
                f"simulator prediction vs live measurement "
                f"({args.transport} transport, {args.block_size // 1024} KiB blocks)"
            )
            print(render_diff(diff, top=args.top))
        return 0 if diff.all_aligned else 1

    # export
    from .live import live_context, live_environment, run_plan_live_sync
    from .repair import initial_store_for, simulate_repair
    from .telemetry import CLOCK_WALL, TelemetryRecorder
    from .workloads import encoded_stripe

    if args.format == "jsonl" and args.source == "both":
        print("--format jsonl holds a single trace; pick --source sim or live",
              file=sys.stderr)
        return 2

    traces = []
    if args.source == "sim":
        traces.append((f"sim:{scheme.name}", run_scheme(env, scheme, failed).telemetry()))
    else:
        env = live_environment(
            n, k, block_size=args.block_size, placement=args.placement
        )
        ctx = live_context(env, failed)
        predicted = simulate_repair(scheme, ctx, env.bandwidth)
        if args.source == "both":
            traces.append((f"sim:{scheme.name}", predicted.telemetry()))
        stripe = encoded_stripe(env.code, args.block_size, seed=args.seed)
        store = initial_store_for(stripe, env.placement, failed)
        recorder = TelemetryRecorder(
            CLOCK_WALL,
            meta={"source": "live", "scheme": scheme.name, "transport": args.transport},
        )
        live = run_plan_live_sync(
            predicted.plan,
            env.cluster,
            store,
            bandwidth=env.bandwidth,
            transport=args.transport,
            timeout=args.timeout,
            recorder=recorder,
        )
        traces.append((f"live:{scheme.name}", live.telemetry))

    if args.format == "jsonl":
        text = to_jsonl(traces[0][1])
    else:
        text = json.dumps(to_chrome_trace(traces), indent=2) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {args.format} trace ({len(text)} bytes) to {args.out}")
    else:
        print(text, end="")
    return 0


def _telemetry_assemble(args) -> int:
    """Stitch per-process store telemetry files into one trace.

    Sources come from explicit paths and/or ``--dir`` (a store state
    directory, globbed for ``telemetry-*.jsonl``).  Default output is
    the propagated span tree per trace id plus the critical path of the
    last-finishing root; ``--out`` exports the assembled trace through
    the existing Chrome/JSONL writers instead.
    """
    import json
    from pathlib import Path

    from .telemetry import (
        assemble_files,
        build_tree,
        critical_path,
        render_critical_path,
        render_tree,
        to_chrome_trace,
        to_jsonl,
        trace_ids,
    )

    paths = list(args.paths)
    if args.dir:
        paths.extend(
            str(p) for p in sorted(Path(args.dir).glob("telemetry-*.jsonl"))
        )
    paths = [p for p in paths if Path(p).exists()]
    if not paths:
        print(
            "telemetry assemble: no telemetry files (pass paths or --dir "
            "with telemetry-*.jsonl)",
            file=sys.stderr,
        )
        return 2
    trace = assemble_files(paths)

    if args.out:
        if args.format == "jsonl":
            text = to_jsonl(trace)
        else:
            text = json.dumps(to_chrome_trace([("assembled", trace)]), indent=2) + "\n"
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {args.format} trace ({len(text)} bytes) to {args.out}")
        return 0
    if args.json:
        print(json.dumps(trace.to_dict(), indent=2))
        return 0

    print(
        f"assembled {len(paths)} streams: {len(trace.spans)} spans, "
        f"{len(trace.events)} events, {trace.extent:.3f} s extent"
    )
    ids = trace_ids(trace)
    if not ids:
        print("no propagated trace ids found (spans lack trace_id attrs)")
        return 0
    last_root = None
    for tid in ids:
        roots = build_tree(trace, tid)
        if not roots:
            continue
        print(f"\ntrace {tid}:")
        print(render_tree(roots))
        root = max(roots, key=lambda nd: (nd.span.end, nd.span.start))
        if last_root is None or root.span.end >= last_root.span.end:
            last_root = root
    if last_root is not None:
        print("\ncritical path (last-finishing trace):")
        print(render_critical_path(critical_path(last_root)))
    return 0


def _stats_snapshots(scrape: dict) -> list[dict]:
    """Coordinator + reachable daemon snapshots from a cluster scrape."""
    return [scrape["coordinator"]] + [
        body for _, body in sorted(scrape["nodes"].items(), key=lambda kv: int(kv[0]))
        if "error" not in body
    ]


def _latency_lines(snap: dict, indent: str = "  ") -> list[str]:
    """Per-op latency histogram summary rows for one stats snapshot."""
    from .telemetry import LATENCY_PREFIX, LogHistogram

    lines = []
    for name in sorted(snap.get("histograms", {})):
        if not name.startswith(LATENCY_PREFIX):
            continue
        hist = LogHistogram.from_dict(snap["histograms"][name])
        if not hist.count:
            continue
        op = name[len(LATENCY_PREFIX):]
        lines.append(
            f"{indent}{op:<24} n={hist.count:<6} "
            f"mean={hist.mean * 1e3:8.2f}ms "
            f"p50={hist.quantile(0.5) * 1e3:8.2f}ms "
            f"p99={hist.quantile(0.99) * 1e3:8.2f}ms"
        )
    return lines


def _render_stats(scrape: dict) -> str:
    """Human-readable cluster metrics: one block per process."""
    out = []
    coord = scrape["coordinator"]
    g = coord.get("gauges", {})
    out.append(
        f"coordinator: up {coord.get('uptime_s', 0.0):.1f}s, "
        f"{int(g.get('nodes_alive', 0))} nodes alive, "
        f"{int(g.get('objects', 0))} objects, "
        f"{int(g.get('degraded_stripes', 0))} degraded stripes, "
        f"{int(g.get('repairs_active', 0))} repairs active, "
        f"{coord.get('repairs_done', 0)} repairs done, "
        f"{int(g.get('open_connections', 0))} connections open"
    )
    out.extend(_latency_lines(coord))
    for nid, body in sorted(scrape["nodes"].items(), key=lambda kv: int(kv[0])):
        if "error" in body:
            out.append(f"node-{nid}: UNREACHABLE ({body['error']})")
            continue
        ng = body.get("gauges", {})
        nic = ""
        if "nic_util" in ng:
            nic = f", NIC {100 * ng['nic_util']:.1f}% of {ng.get('nic_rate_Bps', 0):.0f} B/s"
        out.append(
            f"node-{nid}: up {body.get('uptime_s', 0.0):.1f}s, "
            f"{int(ng.get('blocks', 0))} blocks, "
            f"{int(ng.get('repairs_inflight', 0))} repairs in flight, "
            f"{int(ng.get('open_connections', 0))} connections open{nic}"
        )
        out.extend(_latency_lines(body))
    return "\n".join(out)


def _cmd_top(args) -> int:
    """Refreshing terminal dashboard over the store's metrics plane.

    Scrapes the same ``stats`` RPCs as ``rpr store stats`` every
    ``--interval`` seconds and redraws a compact per-node table; exits
    on Ctrl-C (or after ``--iterations`` frames, for scripts/tests).
    """
    import time

    from .store import LauncherError, StoreError, StoreLauncher
    from .telemetry import LATENCY_PREFIX, LogHistogram

    launcher = StoreLauncher(args.dir)

    def quantile_ms(snap: dict, op: str, q: float) -> str:
        data = snap.get("histograms", {}).get(f"{LATENCY_PREFIX}{op}")
        if not data:
            return "-"
        hist = LogHistogram.from_dict(data)
        if not hist.count:
            return "-"
        return f"{hist.quantile(q) * 1e3:.1f}"

    def frame() -> str:
        status = launcher.status()
        scrape = launcher.client().stats()
        coord = scrape["coordinator"]
        g = coord.get("gauges", {})
        lines = [
            f"rpr top — {args.dir}  (interval {args.interval:g}s, Ctrl-C to quit)",
            f"coordinator: up {coord.get('uptime_s', 0.0):.1f}s  "
            f"nodes {int(g.get('nodes_alive', 0))}/{len(scrape['nodes'])}  "
            f"objects {int(g.get('objects', 0))}  "
            f"degraded {int(g.get('degraded_stripes', 0))}  "
            f"repairs active {int(g.get('repairs_active', 0))} "
            f"done {coord.get('repairs_done', 0)}  "
            f"conns {int(g.get('open_connections', 0))}",
            "",
            f"{'node':<8} {'proc':<8} {'beat':>7} {'blocks':>7} {'rif':>4} "
            f"{'nic%':>6} {'fg p99 ms':>10} {'rep p99 ms':>11} {'rpcs':>7} "
            f"{'conns':>6}",
        ]
        nodes = status["service"].get("nodes", {})
        for nid, body in sorted(scrape["nodes"].items(), key=lambda kv: int(kv[0])):
            info = nodes.get(nid, {})
            proc = "run" if status["processes"].get(f"node-{nid}") else "DEAD"
            beat = f"{info['beat_age_s']:.1f}s" if "beat_age_s" in info else "-"
            if "error" in body:
                lines.append(
                    f"node-{nid:<4} {proc:<8} {beat:>7} {'-':>7} {'-':>4} "
                    f"{'-':>6} {'-':>10} {'-':>11} {'-':>7} {'-':>6}"
                )
                continue
            ng = body.get("gauges", {})
            nc = body.get("counters", {})
            rpcs = sum(int(v) for k, v in nc.items() if k.startswith("rpc:"))
            nic = f"{100 * ng['nic_util']:.1f}" if "nic_util" in ng else "-"
            fg = quantile_ms(body, "block.get:foreground", 0.99)
            if fg == "-":
                fg = quantile_ms(body, "block.put:foreground", 0.99)
            rep = quantile_ms(body, "repair.block:repair", 0.99)
            if rep == "-":
                rep = quantile_ms(body, "repair.exec:repair", 0.99)
            lines.append(
                f"node-{nid:<4} {proc:<8} {beat:>7} "
                f"{int(ng.get('blocks', 0)):>7} "
                f"{int(ng.get('repairs_inflight', 0)):>4} "
                f"{nic:>6} {fg:>10} {rep:>11} {rpcs:>7} "
                f"{int(ng.get('open_connections', 0)):>6}"
            )
        coord_lat = _latency_lines(coord, indent="")
        if coord_lat:
            lines.append("")
            lines.append("coordinator latency:")
            lines.extend("  " + line for line in coord_lat)
        return "\n".join(lines)

    shown = 0
    try:
        while True:
            try:
                text = frame()
            except (LauncherError, StoreError, ConnectionError, OSError) as exc:
                text = f"rpr top: cluster unreachable ({exc})"
            if args.iterations != 1 and sys.stdout.isatty():
                sys.stdout.write("\x1b[2J\x1b[H")
            print(text, flush=True)
            shown += 1
            if args.iterations and shown >= args.iterations:
                return 0
            time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0


def _cmd_store(args) -> int:
    """Drive the multi-process object store service (see docs/LIVE.md).

    ``up`` launches one coordinator and one daemon subprocess per node,
    rooted at a state directory; the other verbs find the cluster
    through that directory, so each can run as its own invocation.
    ``kill`` SIGKILLs a daemon — the coordinator notices the missed
    heartbeats and repairs the lost blocks onto live spares with the
    configured scheme.
    """
    import json

    from .store import LauncherError, StoreError, StoreLauncher

    launcher = StoreLauncher(args.dir)
    try:
        if args.store_command == "up":
            n, k = _parse_code(args.code)
            state = launcher.up(
                racks=args.racks,
                per_rack=args.per_rack,
                n=n,
                k=k,
                scheme=args.scheme,
                block_size=args.block_size,
                suspect_after=args.suspect_after,
                heartbeat_interval=args.heartbeat_interval,
                link_rate=args.link_rate,
                repair_share=args.repair_share,
            )
            addr = state["coordinator"]
            print(
                f"store up: coordinator {addr['host']}:{addr['port']} "
                f"(pid {addr['pid']}), {len(state['daemons'])} daemons, "
                f"scheme {args.scheme}, state in {args.dir}"
            )
            return 0
        if args.store_command == "down":
            launcher.down()
            print("store down: all processes stopped")
            return 0
        if args.store_command == "status":
            status = launcher.status()
            if args.json:
                print(json.dumps(status, indent=2))
                return 0
            procs = status["processes"]
            service = status["service"]
            print(f"processes: {sum(procs.values())}/{len(procs)} running")
            for name, alive in sorted(procs.items()):
                print(f"  {name:<14} {'running' if alive else 'DEAD'}")
            if "error" in service:
                print(f"service unreachable: {service['error']}")
                return 1
            alive_nodes = sum(1 for e in service["nodes"].values() if e["alive"])
            print(
                f"service: scheme {service['scheme']}, "
                f"RS({service['code']['n']},{service['code']['k']}), "
                f"{alive_nodes}/{len(service['nodes'])} nodes alive, "
                f"{len(service['objects'])} objects, "
                f"{len(service['degraded'])} degraded stripes, "
                f"{len(service['repairs'])} repairs done"
            )
            for nid, info in sorted(
                service["nodes"].items(), key=lambda kv: int(kv[0])
            ):
                meta = info.get("meta", {})
                extra = (
                    f"{int(meta['repairs_inflight'])} repairs in flight"
                    if "repairs_inflight" in meta
                    else ""
                )
                blocks = (
                    f"{int(meta['blocks'])} blocks" if "blocks" in meta else ""
                )
                detail = ", ".join(x for x in (blocks, extra) if x)
                print(
                    f"  node-{nid:<4} {'alive' if info['alive'] else 'DEAD':<6} "
                    f"last beat {info['beat_age_s']:6.2f}s ago"
                    + (f"  ({detail})" if detail else "")
                )
            return 0
        if args.store_command == "kill":
            pid = launcher.kill_daemon(args.node)
            print(
                f"SIGKILLed daemon for node {args.node} (pid {pid}); the "
                f"coordinator will notice the missed heartbeats and repair"
            )
            return 0

        client = launcher.client()
        if args.store_command == "stats":
            from .telemetry import snapshots_to_prometheus

            scrape = client.stats()
            if args.prom:
                print(snapshots_to_prometheus(_stats_snapshots(scrape)), end="")
            elif args.json:
                print(json.dumps(scrape, indent=2))
            else:
                print(_render_stats(scrape))
            return 0
        if args.store_command == "put":
            data = (
                sys.stdin.buffer.read()
                if args.file == "-"
                else open(args.file, "rb").read()
            )
            client.put(args.name, data)
            print(f"put {args.name}: {len(data)} bytes")
            return 0
        if args.store_command == "get":
            data, report = client.get_with_report(
                args.name, degraded=args.degraded
            )
            if args.out:
                with open(args.out, "wb") as fh:
                    fh.write(data)
            if args.json:
                payload = {**report, "nbytes": len(data)}
                if args.out:
                    payload["out"] = args.out
                print(json.dumps(payload, indent=2))
            elif args.out:
                tag = " (degraded read)" if report["degraded"] else ""
                print(f"got {args.name}: {len(data)} bytes -> {args.out}{tag}")
            else:
                sys.stdout.buffer.write(data)
            return 0
        if args.store_command == "rm":
            reply = client.delete(args.name)
            print(f"deleted {args.name} ({reply['dropped']} blocks dropped)")
            return 0
        if args.store_command == "ls":
            for entry in client.list_objects():
                print(f"{entry['size']:>12}  {entry['stripes']:>3} stripes  {entry['name']}")
            return 0
        raise AssertionError(f"unhandled store command {args.store_command!r}")
    except (LauncherError, StoreError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _cmd_qos(args) -> int:
    """Replay a Zipfian user workload against an in-process store cluster.

    Brings up a :class:`repro.qos.LocalService`, preloads the working
    set, replays the seeded trace (optionally killing a daemon mid-run
    with ``--kill-at``), and prints per-phase latency percentiles — the
    single-point version of ``benchmarks/bench_qos_tradeoff.py``.
    """
    import asyncio
    import json

    from .qos import LocalService, preload_working_set, replay_trace
    from .workloads import zipf_object_trace

    n, k = _parse_code(args.code)

    async def run():
        async with LocalService(
            racks=args.racks,
            per_rack=args.per_rack,
            n=n,
            k=k,
            scheme=args.scheme,
            block_size=args.block_size,
            link_rate=args.link_rate,
            repair_share=args.repair_share,
        ) as svc:
            expected = await preload_working_set(
                svc.client, args.objects, args.object_bytes, seed=args.seed
            )
            events = zipf_object_trace(
                args.objects,
                args.requests,
                rate=args.rate,
                zipf_s=args.zipf_s,
                get_fraction=args.get_fraction,
                seed=args.seed,
            )
            kills = []
            if args.kill_at is not None:
                victim = svc.coordinator.stripes[0].placement.node_of(0)
                kills = [(args.kill_at, victim)]
            report = await replay_trace(
                svc.client,
                events,
                mode=args.mode,
                concurrency=args.concurrency,
                time_scale=args.time_scale,
                expected=expected,
                kills=kills,
                kill_fn=svc.kill,
                object_bytes=args.object_bytes,
                seed=args.seed,
            )
            status = await svc.client.status()
            return report, status

    report, status = asyncio.run(run())
    result = report.to_dict()
    result["repairs"] = len(status["repairs"])
    result["scheme"] = args.scheme
    result["link_rate"] = args.link_rate
    result["repair_share"] = args.repair_share
    if args.json:
        print(json.dumps(result, indent=2))
        return 1 if result["errors"] else 0

    def ms(v):
        return "-" if v is None else f"{v * 1e3:8.2f}ms"

    shaped = (
        f"link {args.link_rate:.0f} B/s, repair share {args.repair_share}"
        if args.link_rate
        else "unshaped"
    )
    print(
        f"qos replay: {result['requests']} requests ({args.mode}-loop), "
        f"scheme {args.scheme}, {shaped}"
    )
    print(
        f"  errors {result['errors']}, rejected {result['rejected']}, "
        f"degraded gets {result['degraded_gets']}, repairs "
        f"{result['repairs']}, repair window {result['repair_window']}"
    )
    for label, key in (
        ("GET (all)", "get"),
        ("GET (repair phase)", "get_repair_phase"),
        ("PUT (all)", "put"),
    ):
        s = result[key]
        print(
            f"  {label:<20} n={s['count']:<5} p50 {ms(s['p50'])}  "
            f"p99 {ms(s['p99'])}  p999 {ms(s['p999'])}"
        )
    return 1 if result["errors"] else 0


def _cmd_perf(args) -> int:
    from .perfharness import main as perf_main

    argv = ["--out-dir", str(args.out_dir)]
    if args.quick:
        argv.append("--quick")
    return perf_main(argv)


def _add_scenario_args(parser, *, code, fail=None, scheme=True, placement=True) -> None:
    """The flags :func:`_scenario` reads; a verb omits the ones it has no use for."""
    parser.add_argument("--code", default=code, help="RS code as 'n,k'")
    if fail is not None:
        parser.add_argument(
            "--fail", default=fail, help="failed block ids, comma-separated"
        )
    if scheme:
        parser.add_argument("--scheme", choices=sorted(_SCHEMES), default="rpr")
    parser.add_argument("--testbed", choices=["simics", "ec2"], default="simics")
    if placement:
        parser.add_argument("--placement", choices=["rpr", "contiguous"], default="rpr")


def _add_fault_args(parser, *, deaths) -> None:
    """The flags :func:`_build_fault_plan` reads."""
    parser.add_argument(
        "--kill",
        default="",
        help="explicit node deaths as node@fraction of the fault-free "
        "makespan, comma-separated (e.g. '12@0.7,6@0.3')",
    )
    parser.add_argument(
        "--slow",
        default="",
        help="stragglers as node@slowdown-factor, comma-separated (e.g. '4@3.0')",
    )
    parser.add_argument(
        "--loss-prob", type=float, default=0.0,
        help="per-transfer loss probability (seeded, deterministic)",
    )
    parser.add_argument(
        "--deaths", type=int, default=deaths,
        help="random node deaths when no --kill/--slow/--loss-prob is given",
    )
    parser.add_argument("--seed", type=int, default=0, help="fault-plan seed")
    parser.add_argument(
        "--max-attempts", type=int, default=3,
        help="re-planning budget before the repair is declared irrecoverable",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rpr",
        description="RPR reproduction: regenerate paper experiments or run one repair",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list figures, tables and schemes").set_defaults(
        func=_cmd_list
    )

    fig = sub.add_parser("figure", help="regenerate one figure's rows")
    fig.add_argument("number", help="figure number (6-14)")
    fig.add_argument(
        "--cap", type=int, default=experiments.DEFAULT_SCENARIO_CAP,
        help="max scenarios per sweep (larger sweeps are sampled)",
    )
    fig.add_argument(
        "--json", action="store_true", help="emit machine-readable rows"
    )
    fig.set_defaults(func=_cmd_figure)

    ext = sub.add_parser("extension", help="regenerate an extension experiment")
    ext.add_argument("name", help="node-rebuild | durability | lrc")
    ext.add_argument("--json", action="store_true", help="machine-readable rows")
    ext.set_defaults(func=_cmd_extension)

    tab = sub.add_parser("table", help="regenerate one table")
    tab.add_argument("number", help="table number (1)")
    tab.set_defaults(func=_cmd_table)

    rep = sub.add_parser("repair", help="simulate a single repair")
    _add_scenario_args(rep, code="12,4", fail="1")
    rep.add_argument("--json", action="store_true", help="machine-readable output")
    rep.set_defaults(func=_cmd_repair)

    cmp_ = sub.add_parser("compare", help="run every scheme on one scenario")
    _add_scenario_args(cmp_, code="12,4", fail="1", scheme=False)
    cmp_.add_argument("--json", action="store_true", help="machine-readable output")
    cmp_.set_defaults(func=_cmd_compare)

    fl = sub.add_parser(
        "faults",
        help="simulate a repair under injected faults (node death, stragglers, loss)",
    )
    _add_scenario_args(fl, code="8,3", fail="2")
    _add_fault_args(fl, deaths=1)
    fl.add_argument(
        "--verify", action="store_true",
        help="replay the scenario on a real byte store and check the "
        "recovered payloads equal the lost originals",
    )
    fl.add_argument("--json", action="store_true", help="machine-readable output")
    fl.set_defaults(func=_cmd_faults)

    tc = sub.add_parser(
        "trace",
        help="per-rack utilization + critical-path bottleneck report for one repair",
    )
    _add_scenario_args(tc, code="6,4", fail="1")
    tc.add_argument("--gantt", action="store_true", help="append the utilization Gantt chart")
    tc.add_argument("--width", type=int, default=64, help="Gantt chart width")
    _add_fault_args(tc, deaths=0)
    tc.add_argument(
        "--attempt", type=int, default=-1,
        help="which attempt of a degraded repair to trace (default: final)",
    )
    tc.add_argument("--json", action="store_true", help="emit the trace as one JSON object")
    tc.add_argument(
        "--jsonl", action="store_true",
        help="emit the run's telemetry as canonical JSON lines "
        "(what 'rpr telemetry export --format jsonl' writes)",
    )
    tc.set_defaults(func=_cmd_trace)

    te = sub.add_parser(
        "telemetry",
        help="span telemetry: report one repair, diff sim vs live, or export "
        "Chrome/JSONL traces",
    )
    te.add_argument("mode", choices=["report", "diff", "export", "assemble"])
    te.add_argument(
        "paths", nargs="*",
        help="assemble: telemetry JSONL files to stitch (see also --dir)",
    )
    te.add_argument(
        "--dir", default="",
        help="assemble: store state directory to glob telemetry-*.jsonl from",
    )
    _add_scenario_args(te, code="6,3", fail="1")
    te.add_argument(
        "--transport", choices=["memory", "tcp"], default="memory",
        help="diff/export: live-runtime transport",
    )
    te.add_argument(
        "--block-size", type=int, default=64 * 1024,
        help="diff/export: payload bytes per block for the live run",
    )
    te.add_argument(
        "--timeout", type=float, default=120.0,
        help="diff/export: wall-clock budget for the live run",
    )
    te.add_argument("--seed", type=int, default=0, help="stripe payload seed")
    te.add_argument(
        "--top", type=int, default=8,
        help="rows shown for slowest ops / worst divergers",
    )
    te.add_argument(
        "--source", choices=["sim", "live", "both"], default="sim",
        help="export: which interpreter's trace (both = side-by-side Chrome trace)",
    )
    te.add_argument(
        "--format", choices=["chrome", "jsonl"], default="chrome",
        help="export format: Chrome trace-event JSON (Perfetto) or canonical JSONL",
    )
    te.add_argument("--out", default="", help="export: output path (default stdout)")
    te.add_argument("--json", action="store_true", help="machine-readable output")
    te.set_defaults(func=_cmd_telemetry)

    rb = sub.add_parser("rebuild", help="rebuild everything a failed node held")
    _add_scenario_args(rb, code="6,2", placement=False)
    rb.add_argument("--stripes", type=int, default=30)
    rb.add_argument("--node", type=int, default=0)
    rb.add_argument("--mode", choices=["parallel", "sequential"], default="parallel")
    rb.add_argument("--rebuild", choices=["replacement", "scatter"], default="scatter")
    rb.add_argument("--balance", action="store_true")
    rb.add_argument("--json", action="store_true", help="machine-readable output")
    rb.set_defaults(func=_cmd_rebuild)

    du = sub.add_parser("durability", help="MTTDL per scheme from measured repair times")
    _add_scenario_args(du, code="12,4", scheme=False, placement=False)
    du.add_argument(
        "--block-mtbf-years",
        type=float,
        default=4.0,
        help="mean time between failures per block, in years",
    )
    du.add_argument("--json", action="store_true", help="machine-readable output")
    du.set_defaults(func=_cmd_durability)

    lv = sub.add_parser(
        "live",
        help="execute repairs on the live asyncio runtime, cross-validated "
        "against the simulator",
    )
    lv.add_argument("--code", default="6,3", help="RS code as 'n,k'")
    lv.add_argument("--fail", default="1", help="failed block ids, comma-separated")
    lv.add_argument(
        "--schemes", default="",
        help="comma-separated subset of schemes (default: all applicable)",
    )
    lv.add_argument(
        "--transport", choices=["memory", "tcp"], default="memory",
        help="in-process streams or real localhost sockets",
    )
    lv.add_argument(
        "--block-size", type=int, default=64 * 1024,
        help="payload bytes per block (scaled-down testbed default: 64 KiB)",
    )
    lv.add_argument(
        "--validate", action="store_true",
        help="exit nonzero unless bytes match and measured ordering agrees "
        "with the simulator",
    )
    lv.add_argument(
        "--timeout", type=float, default=120.0,
        help="hard wall-clock budget per scheme (hangs fail, not stall)",
    )
    lv.add_argument("--seed", type=int, default=0, help="stripe payload seed")
    lv.add_argument("--json", action="store_true", help="machine-readable report")
    lv.set_defaults(func=_cmd_live)

    st = sub.add_parser(
        "store",
        help="run the multi-process object store service "
        "(coordinator + daemons as real subprocesses)",
    )
    st.add_argument(
        "--dir", default=".rpr-store",
        help="state directory the cluster is rooted at (default: .rpr-store)",
    )
    stsub = st.add_subparsers(dest="store_command", required=True)
    st_up = stsub.add_parser("up", help="launch coordinator + one daemon per node")
    st_up.add_argument("--racks", type=int, default=3)
    st_up.add_argument("--per-rack", type=int, default=2)
    st_up.add_argument("--code", default="3,2", help="RS code as 'n,k'")
    st_up.add_argument("--scheme", choices=sorted(_SCHEMES), default="rpr")
    st_up.add_argument(
        "--block-size", type=int, default=64 * 1024,
        help="bytes per stored block",
    )
    st_up.add_argument(
        "--suspect-after", type=float, default=2.0,
        help="seconds of heartbeat silence before a node is declared dead",
    )
    st_up.add_argument("--heartbeat-interval", type=float, default=0.5)
    st_up.add_argument(
        "--link-rate", type=float, default=None, metavar="BYTES_PER_S",
        help="shape every daemon NIC to this rate with a QoS "
        "foreground/repair split (default: unshaped)",
    )
    st_up.add_argument(
        "--repair-share", type=float, default=0.5,
        help="fraction of --link-rate guaranteed to repair traffic",
    )
    stsub.add_parser("down", help="stop every process and clear the state dir")
    st_status = stsub.add_parser(
        "status", help="process liveness + per-daemon heartbeat age / "
        "repairs in flight + service-side cluster status"
    )
    st_status.add_argument("--json", action="store_true", help="machine-readable output")
    st_stats = stsub.add_parser(
        "stats", help="scrape the live metrics plane (coordinator + every daemon)"
    )
    st_stats.add_argument(
        "--json", action="store_true", help="raw snapshots as one JSON object"
    )
    st_stats.add_argument(
        "--prom", action="store_true",
        help="Prometheus text exposition (counters, gauges, latency histograms)",
    )
    st_kill = stsub.add_parser(
        "kill", help="SIGKILL one daemon so the coordinator must repair"
    )
    st_kill.add_argument("node", type=int, help="node id of the daemon to kill")
    st_put = stsub.add_parser("put", help="store an object (striped + encoded)")
    st_put.add_argument("name")
    st_put.add_argument("file", help="path to read, or '-' for stdin")
    st_get = stsub.add_parser("get", help="fetch an object back")
    st_get.add_argument("name")
    st_get.add_argument("--out", default=None, help="write here instead of stdout")
    st_get.add_argument(
        "--degraded",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="reconstruct blocks on dead nodes client-side instead of "
        "failing (--no-degraded restores the strict behaviour)",
    )
    st_get.add_argument(
        "--json", action="store_true",
        help="print the read report (degraded flag + reconstructed "
        "blocks) instead of raw bytes; combine with --out for the data",
    )
    st_rm = stsub.add_parser("rm", help="delete an object")
    st_rm.add_argument("name")
    stsub.add_parser("ls", help="list stored objects")
    st.set_defaults(func=_cmd_store)

    tp = sub.add_parser(
        "top", help="refreshing terminal dashboard over a running store cluster"
    )
    tp.add_argument(
        "--dir", default=".rpr-store",
        help="state directory of the cluster (default: .rpr-store)",
    )
    tp.add_argument(
        "--interval", type=float, default=2.0, help="seconds between frames"
    )
    tp.add_argument(
        "--iterations", type=int, default=0,
        help="stop after this many frames (0 = run until Ctrl-C)",
    )
    tp.set_defaults(func=_cmd_top)

    qs = sub.add_parser(
        "qos",
        help="replay a Zipfian user workload against an in-process store "
        "cluster, optionally killing a daemon mid-run",
    )
    qs.add_argument("--racks", type=int, default=3)
    qs.add_argument("--per-rack", type=int, default=2)
    qs.add_argument("--code", default="3,2", help="RS code as 'n,k'")
    qs.add_argument("--scheme", choices=sorted(_SCHEMES), default="rpr")
    qs.add_argument("--block-size", type=int, default=16 * 1024)
    qs.add_argument("--objects", type=int, default=8, help="working-set size")
    qs.add_argument("--requests", type=int, default=100)
    qs.add_argument("--object-bytes", type=int, default=3 * 16 * 1024)
    qs.add_argument("--rate", type=float, default=200.0,
                    help="open-loop arrival rate (req/s) in the trace")
    qs.add_argument("--zipf-s", type=float, default=1.0)
    qs.add_argument("--get-fraction", type=float, default=0.9)
    qs.add_argument("--mode", choices=("closed", "open"), default="closed")
    qs.add_argument("--concurrency", type=int, default=4,
                    help="closed-loop client count")
    qs.add_argument("--time-scale", type=float, default=1.0,
                    help="open-loop trace-time multiplier")
    qs.add_argument(
        "--link-rate", type=float, default=None, metavar="BYTES_PER_S",
        help="shape daemon NICs with the QoS split (default: unshaped)",
    )
    qs.add_argument("--repair-share", type=float, default=0.5)
    qs.add_argument(
        "--kill-at", type=float, default=None, metavar="SECONDS",
        help="kill the daemon holding stripe 0 block 0 this long into "
        "the replay",
    )
    qs.add_argument("--seed", type=int, default=0)
    qs.add_argument("--json", action="store_true", help="machine-readable output")
    qs.set_defaults(func=_cmd_qos)

    pf = sub.add_parser(
        "perf", help="time the engine and coding hot paths, write BENCH_*.json"
    )
    pf.add_argument(
        "--quick", action="store_true", help="CI-sized run (fewer reps, smaller sizes)"
    )
    pf.add_argument(
        "--out-dir",
        default=".",
        help="where to write BENCH_engine.json / BENCH_coding.json",
    )
    pf.set_defaults(func=_cmd_perf)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
