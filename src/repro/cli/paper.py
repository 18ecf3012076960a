"""Paper figures and tables, single repairs, node rebuilds, durability."""

from __future__ import annotations

import inspect

from .. import experiments
from ..ec2 import REGIONS, TABLE1_MBPS
from ..experiments import format_table, rebuild_node, run_scheme
from ..metrics import percent_reduction
from ..repair import SCHEMES
from .common import UsageError, env_builder, parse_code, scenario
from .table import EXTENSIONS, FIGURES


def cmd_list(_args):
    return 0, "\n".join(
        [
            "figures: " + ", ".join(sorted(FIGURES, key=int)),
            "tables:  1",
            "extensions: " + ", ".join(sorted(EXTENSIONS)),
            "schemes: " + ", ".join(SCHEMES),
            "testbeds: simics, ec2",
        ]
    )


def cmd_figure(args):
    if args.number not in FIGURES:
        raise UsageError(f"unknown figure {args.number!r}; try: rpr list")
    fn = getattr(experiments, f"figure{args.number}_rows")
    capped = "cap" in inspect.signature(fn).parameters  # the exhaustive sweeps
    return 0, {"figure": args.number, "rows": fn(cap=args.cap) if capped else fn()}


def text_figure(payload, _args):
    columns = FIGURES[payload["figure"]]
    return f"Figure {payload['figure']}\n" + format_table(
        columns, [[row[c] for c in columns] for row in payload["rows"]]
    )


def cmd_extension(args):
    if args.name not in EXTENSIONS:
        raise UsageError(f"unknown extension {args.name!r}; known: {sorted(EXTENSIONS)}")
    return 0, {"extension": args.name, "rows": getattr(experiments, EXTENSIONS[args.name])()}


def text_extension(payload, _args):
    columns = [key for key, value in payload["rows"][0].items() if not isinstance(value, list)]
    return f"Extension: {payload['extension']}\n" + format_table(
        columns,
        [
            ["%.3g" % row[c] if isinstance(row[c], float) else row[c] for c in columns]
            for row in payload["rows"]
        ],
    )


def cmd_table(args):
    if args.number != "1":
        raise UsageError(f"unknown table {args.number!r}; only Table 1 exists")
    rows = [
        [a.title()]
        + [TABLE1_MBPS.get((a, b) if (a, b) in TABLE1_MBPS else (b, a), "") for b in REGIONS]
        for a in REGIONS
    ]
    return 0, "Table 1 — region bandwidths (Mbps)\n" + format_table(
        ["region"] + [r.title() for r in REGIONS], rows
    )


def cmd_repair(args):
    env, scheme, failed = scenario(args)
    outcome = run_scheme(env, scheme, failed)
    return 0, {
        "code": [args.n, args.k],
        "testbed": args.testbed,
        "placement": args.placement,
        "failed": failed,
        "scheme": scheme.name,
        "total_repair_time_s": outcome.total_repair_time,
        "cross_rack_bytes": outcome.cross_rack_bytes,
        "cross_rack_blocks": outcome.cross_rack_blocks,
        "intra_rack_bytes": outcome.intra_rack_bytes,
        "plan_ops": len(outcome.plan.ops),
    }


def text_repair(p, _args):
    n, k = p["code"]
    return (
        f"RS({n},{k}) {p['testbed']} testbed, {p['placement']} placement, "
        f"failed blocks {p['failed']}, scheme {p['scheme']}\n"
        f"  total repair time : {p['total_repair_time_s']:.2f} s\n"
        f"  cross-rack traffic: {p['cross_rack_blocks']:.1f} blocks "
        f"({p['cross_rack_bytes'] / 1e6:.0f} MB)\n"
        f"  intra-rack traffic: {p['intra_rack_bytes'] / 1e6:.0f} MB\n"
        f"  plan size         : {p['plan_ops']} ops"
    )


def cmd_compare(args):
    env, _, failed = scenario(args)
    names = ["traditional", "rpr"] if len(failed) > 1 else ["traditional", "car", "rpr"]
    outcomes = {name: run_scheme(env, SCHEMES[name](), failed) for name in names}
    baseline = outcomes["traditional"].total_repair_time
    return 0, {
        "code": [args.n, args.k],
        "testbed": args.testbed,
        "failed": failed,
        "schemes": [
            {
                "scheme": name,
                "repair_time_s": o.total_repair_time,
                "cross_blocks": o.cross_rack_blocks,
                "vs_traditional_pct": percent_reduction(baseline, o.total_repair_time),
            }
            for name, o in outcomes.items()
        ],
    }


def text_compare(p, _args):
    n, k = p["code"]
    return f"RS({n},{k}) on the {p['testbed']} testbed, failed blocks {p['failed']}:\n" + (
        format_table(
            ["scheme", "repair_time_s", "cross_blocks", "vs_traditional_%"],
            [
                [r["scheme"], r["repair_time_s"], r["cross_blocks"], r["vs_traditional_pct"]]
                for r in p["schemes"]
            ],
        )
    )


def cmd_rebuild(args):
    env, scheme, _ = scenario(args)
    outcome = rebuild_node(
        env, scheme, num_stripes=args.stripes, failed_node=args.node,
        mode=args.mode, rebuild=args.rebuild, balance=args.balance,
    )
    return 0, {
        "code": [args.n, args.k],
        "node": args.node,
        "stripes": args.stripes,
        "lost_blocks": len(outcome.failure.lost),
        "scheme": scheme.name,
        "mode": args.mode,
        "rebuild": args.rebuild,
        "makespan_s": outcome.makespan,
        "cross_rack_blocks": outcome.total_cross_rack_bytes / env.block_size,
        "rack_imbalance_max_mean": outcome.rack_upload_imbalance["max_mean_ratio"],
    }


def text_rebuild(p, _args):
    n, k = p["code"]
    return (
        f"node {p['node']} holds {p['lost_blocks']} blocks across a "
        f"{p['stripes']}-stripe RS({n},{k}) store\n"
        f"  makespan          : {p['makespan_s']:.2f} s\n"
        f"  cross-rack traffic: {p['cross_rack_blocks']:.0f} blocks\n"
        f"  rack imbalance    : {p['rack_imbalance_max_mean']:.2f} (max/mean)"
    )


def cmd_durability(args):
    n, k = parse_code(args.code)
    (row,) = experiments.durability_rows([(n, k)], args.block_mtbf_years, env_builder(args))
    return 0, {
        "code": [n, k],
        "testbed": args.testbed,
        "block_mtbf_years": args.block_mtbf_years,
        "schemes": [
            {
                "scheme": name,
                "repair_times_s": row[f"{prefix}_repair_times_s"],
                "mttdl_years": row[f"{prefix}_mttdl_years"],
            }
            for name, prefix in (("traditional", "tra"), ("rpr", "rpr"))
        ],
        "durability_amplification": row["amplification"],
    }


def text_durability(p, _args):
    n, k = p["code"]
    lines = [
        f"RS({n},{k}) on the {p['testbed']} testbed, one failure per block "
        f"per {p['block_mtbf_years']:g} years:"
    ]
    for row in p["schemes"]:
        lines.append(
            f"  {row['scheme']:>12}: repair(1)={row['repair_times_s'][0]:7.1f} s  "
            f"MTTDL={row['mttdl_years']:.3e} years"
        )
    lines.append(f"  durability amplification: {p['durability_amplification']:.1f}x")
    return "\n".join(lines)
