"""``rpr live`` and ``rpr telemetry``: the live runtime beside the simulator,
and span telemetry summarised, diffed, exported or assembled."""

from __future__ import annotations

from pathlib import Path

from ..experiments import format_table, run_scheme
from ..live import run_live_validation
from ..repair import SCHEMES
from ..telemetry import (
    assemble_files,
    build_tree,
    critical_path,
    render_critical_path,
    render_diff,
    render_tree,
    to_chrome_trace,
    to_jsonl,
    trace_ids,
)
from .common import UsageError, headline, parse_stripe, scenario, to_json


def _validate(args, schemes, **kwargs):
    """The one library call of ``live`` / ``telemetry diff`` / ``telemetry export``."""
    parse_stripe(args)
    unknown = set(schemes or ()) - set(SCHEMES)
    if unknown:
        raise UsageError(f"unknown schemes {sorted(unknown)}; known: {sorted(SCHEMES)}")
    return run_live_validation(
        args.n, args.k, args.failed,
        schemes=schemes,
        block_size=args.block_size,
        transport=args.transport,
        seed=args.seed,
        timeout=args.timeout,
        **kwargs,
    )


def cmd_live(args):
    """Execute repairs on the live asyncio runtime and compare to the sim.

    Runs every requested scheme's plan on real bytes over real (shaped)
    connections, reporting the measured makespan next to the simulator's
    prediction.  ``--validate`` turns the report into a gate: exit
    nonzero unless every recovered block is byte-identical to the lost
    original *and* measured makespans rank the schemes the way the
    simulator predicts.
    """
    report = _validate(args, args.schemes.split(",") if args.schemes else None)
    ok = report.all_bytes_ok and report.ordering_ok()
    payload = {**report.to_dict(), "validated": ok if args.validate else None}
    return int(args.validate and not ok), payload


def text_live(p, _args):
    n, k = p["code"]
    table = format_table(
        ["scheme", "predicted_s", "measured_s", "ratio", "bytes", "cross_bytes",
         "gather", "slices"],
        [
            [
                row["scheme"],
                f"{row['predicted_s']:.3f}",
                f"{row['measured_s']:.3f}",
                f"{row['ratio']:.2f}",
                "ok" if row["bytes_ok"] else "MISMATCH",
                row["cross_rack_bytes"],
                row["gather"],
                row["slices"],
            ]
            for row in p["schemes"]
        ],
    )
    return (
        f"RS({n},{k}) failed blocks {p['failed']}: live runtime "
        f"({p['transport']} transport, {p['block_size'] // 1024} KiB blocks) "
        f"vs simulator\n{table}\n"
        f"  bytes    : {'all recovered blocks identical' if p['all_bytes_ok'] else 'MISMATCH'}\n"
        f"  ordering : "
        f"{'matches simulator' if p['ordering_ok'] else 'DISAGREES with simulator'}"
    )


def cmd_telemetry_report(args):
    """Simulate one repair and summarise its telemetry trace (op spans,
    fault events, counters, histograms) — sim-clock seconds."""
    env, scheme, failed = scenario(args)
    return 0, run_scheme(env, scheme, failed).telemetry()


def text_telemetry_report(trace, args):
    ops = sorted(trace.op_spans().values(), key=lambda s: -s.duration)
    lines = [
        f"{headline(args)} — telemetry ({trace.clock} clock)",
        f"  spans    : {len(trace.spans)} ({len(ops)} ops)",
        f"  events   : {len(trace.events)}",
        f"  extent   : {trace.extent:.3f} s",
    ]
    lines += [f"  counter  : {name} = {trace.counters[name]:g}" for name in sorted(trace.counters)]
    for name in sorted(trace.histograms):
        values = trace.histograms[name]
        lines.append(
            f"  histogram: {name} n={len(values)} "
            f"mean={sum(values) / len(values):.4g} max={max(values):.4g}"
        )
    lines.append("  slowest ops:")
    lines += [
        f"    {span.op_id:<28} {span.duration:8.3f} s  {span.attrs.get('kind', '?')}"
        f"{' CROSS' if span.attrs.get('cross_rack') else ''}"
        for span in ops[: args.top]
    ]
    return "\n".join(lines)


def cmd_telemetry_diff(args):
    """Run the same plan through the simulator *and* the live runtime with
    telemetry on and align every op span by id; exits nonzero if any op
    fails to align."""
    diff = _validate(args, [args.scheme], telemetry=True).rows[0].diff
    return int(not diff.all_aligned), diff


def text_telemetry_diff(diff, args):
    return (
        f"{args.scheme} repairing blocks {args.failed} of RS({args.n},{args.k}): "
        f"simulator prediction vs live measurement "
        f"({args.transport} transport, {args.block_size // 1024} KiB blocks)\n"
        f"{render_diff(diff, top=args.top)}"
    )


def _write_trace(traces, args) -> None:
    """Write ``[(name, trace), ...]`` as ``--format`` to ``--out`` (or stdout)."""
    if args.format == "jsonl":
        text = to_jsonl(traces[0][1])
    else:
        text = to_json(to_chrome_trace(traces)) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"wrote {args.format} trace ({len(text)} bytes) to {args.out}")
    else:
        print(text, end="")


def cmd_telemetry_export(args):
    """Write the trace(s) out as canonical JSONL or Chrome trace-event JSON
    (loadable in Perfetto / ``chrome://tracing``).  ``--source both`` puts
    the sim prediction and the live measurement side by side as two
    processes in one Chrome trace."""
    if args.format == "jsonl" and args.source == "both":
        raise UsageError("--format jsonl holds a single trace; pick --source sim or live")
    if args.source == "sim":
        env, scheme, failed = scenario(args)
        traces = [(f"sim:{args.scheme}", run_scheme(env, scheme, failed).telemetry())]
    else:
        row = _validate(
            args, [args.scheme], placement=args.placement, telemetry=True
        ).rows[0]
        traces = [(f"sim:{args.scheme}", row.sim_trace)] if args.source == "both" else []
        traces.append((f"live:{args.scheme}", row.live_trace))
    _write_trace(traces, args)
    return 0, None


def cmd_telemetry_assemble(args):
    """Stitch per-process store telemetry files into one trace.

    Sources come from explicit paths and/or ``--dir`` (a store state
    directory, globbed for ``telemetry-*.jsonl``).  Default output is
    the propagated span tree per trace id plus the critical path of the
    last-finishing root; ``--out`` exports the assembled trace through
    the Chrome/JSONL writers instead.
    """
    paths = [Path(p) for p in args.paths]
    if args.dir:
        paths += sorted(Path(args.dir).glob("telemetry-*.jsonl"))
    args.paths = [p for p in paths if p.exists()]
    if not args.paths:
        raise UsageError(
            "telemetry assemble: no telemetry files (pass paths or --dir "
            "with telemetry-*.jsonl)"
        )
    trace = assemble_files(args.paths)
    if args.out:
        _write_trace([("assembled", trace)], args)
        return 0, None
    return 0, trace


def text_telemetry_assemble(trace, args):
    lines = [
        f"assembled {len(args.paths)} streams: {len(trace.spans)} spans, "
        f"{len(trace.events)} events, {trace.extent:.3f} s extent"
    ]
    ids = trace_ids(trace)
    if not ids:
        return lines[0] + "\nno propagated trace ids found (spans lack trace_id attrs)"
    last_root = None
    for tid in ids:
        roots = build_tree(trace, tid)
        if not roots:
            continue
        lines += [f"\ntrace {tid}:", render_tree(roots)]
        root = max(roots, key=lambda nd: (nd.span.end, nd.span.start))
        if last_root is None or root.span.end >= last_root.span.end:
            last_root = root
    if last_root is not None:
        lines += ["\ncritical path (last-finishing trace):",
                  render_critical_path(critical_path(last_root))]
    return "\n".join(lines)
