"""``rpr store``, ``rpr top`` and ``rpr qos``: the running object store.

``store up`` launches one coordinator and one daemon subprocess per
node, rooted at a state directory; the other ``store`` verbs and ``top``
find the cluster through that directory, so each can run as its own
invocation (see docs/LIVE.md).  ``store kill`` SIGKILLs a daemon — the
coordinator sees the dropped connection and repairs the lost blocks
onto live spares with the configured scheme.  ``qos`` needs no running
cluster: it brings one up in-process for the length of a replay.
"""

from __future__ import annotations

import functools
import sys
import time
from pathlib import Path

from ..qos import kill_mid_trace_replay
from ..store import LauncherError, StoreError, StoreLauncher
from ..telemetry import render_scrape, render_top, scrape_snapshots, snapshots_to_prometheus
from .common import parse_code


def _cluster(args) -> dict:
    """The cluster flags (``store up`` and ``qos`` share them) as the
    keywords ``StoreLauncher.up`` and ``LocalService`` share."""
    n, k = parse_code(args.code)
    return dict(
        racks=args.racks, per_rack=args.per_rack, n=n, k=k, scheme=args.scheme,
        block_size=args.block_size, link_rate=args.link_rate, repair_share=args.repair_share,
    )


def _store_verb(handler):
    """A launcher or service failure is one ``error:`` line and exit 1;
    a service failure names its kind: ``error (not_found): ...``."""

    @functools.wraps(handler)
    def run(args):
        try:
            return handler(args, StoreLauncher(args.dir))
        except (LauncherError, StoreError) as exc:
            kind = f" ({exc.kind})" if isinstance(exc, StoreError) else ""
            print(f"error{kind}: {exc}", file=sys.stderr)
            return 1, None

    return run


@_store_verb
def cmd_store_up(args, launcher):
    state = launcher.up(
        **_cluster(args),
        suspect_after=args.suspect_after,
        heartbeat_interval=args.heartbeat_interval,
    )
    addr = state["coordinator"]
    return 0, (
        f"store up: coordinator {addr['host']}:{addr['port']} "
        f"(pid {addr['pid']}), {len(state['daemons'])} daemons, "
        f"scheme {args.scheme}, state in {args.dir}"
    )


@_store_verb
def cmd_store_down(_args, launcher):
    launcher.down()
    return 0, "store down: all processes stopped"


@_store_verb
def cmd_store_status(_args, launcher):
    status = launcher.status()
    return int("error" in status["service"]), status


def text_store_status(status, _args):
    procs, service = status["processes"], status["service"]
    lines = [f"processes: {sum(procs.values())}/{len(procs)} running"]
    lines += [
        f"  {name:<14} {'running' if alive else 'DEAD'}" for name, alive in sorted(procs.items())
    ]
    if "error" in service:
        return "\n".join([*lines, f"service unreachable: {service['error']}"])
    nodes = sorted(service["nodes"].items(), key=lambda kv: int(kv[0]))
    lines.append(
        f"service: scheme {service['scheme']}, "
        f"RS({service['code']['n']},{service['code']['k']}), "
        f"{sum(1 for _, e in nodes if e['alive'])}/{len(nodes)} nodes alive, "
        f"{len(service['objects'])} objects, "
        f"{len(service['degraded'])} degraded stripes, "
        f"{len(service['repairs'])} repairs done"
    )
    for nid, info in nodes:
        meta = info.get("meta", {})
        detail = ", ".join(
            f"{int(meta[key])} {label}"
            for key, label in (("blocks", "blocks"), ("repairs_inflight", "repairs in flight"))
            if key in meta
        )
        lines.append(
            f"  node-{nid:<4} {'alive' if info['alive'] else 'DEAD':<6} "
            f"last beat {info['beat_age_s']:6.2f}s ago" + (f"  ({detail})" if detail else "")
        )
    return "\n".join(lines)


@_store_verb
def cmd_store_kill(args, launcher):
    pid = launcher.kill_daemon(args.node)
    return 0, (
        f"SIGKILLed daemon for node {args.node} (pid {pid}); the "
        f"coordinator will notice the dropped connection and repair"
    )


@_store_verb
def cmd_store_stats(_args, launcher):
    return 0, launcher.client().stats()


def text_store_stats(scrape, args):
    if args.prom:
        return snapshots_to_prometheus(scrape_snapshots(scrape))
    return render_scrape(scrape)


@_store_verb
def cmd_store_put(args, launcher):
    data = sys.stdin.buffer.read() if args.file == "-" else Path(args.file).read_bytes()
    launcher.client().put(args.name, data)
    return 0, f"put {args.name}: {len(data)} bytes"


@_store_verb
def cmd_store_get(args, launcher):
    data, report = launcher.client().get_with_report(args.name, degraded=args.degraded)
    payload = {**report, "nbytes": len(data)}
    if args.out:
        Path(args.out).write_bytes(data)
        payload["out"] = args.out
    elif not args.json:
        sys.stdout.buffer.write(data)
        return 0, None
    return 0, payload


def text_store_get(p, args):
    tag = " (degraded read)" if p["degraded"] else ""
    return f"got {args.name}: {p['nbytes']} bytes -> {p['out']}{tag}"


@_store_verb
def cmd_store_rm(args, launcher):
    reply = launcher.client().delete(args.name)
    return 0, f"deleted {args.name} ({reply['dropped']} blocks dropped)"


@_store_verb
def cmd_store_ls(_args, launcher):
    return 0, "\n".join(
        f"{entry['size']:>12}  {entry['stripes']:>3} stripes  {entry['name']}"
        for entry in launcher.client().list_objects()
    )


def cmd_top(args):
    """Refreshing terminal dashboard over the store's metrics plane.

    Scrapes the same ``stats`` RPCs as ``rpr store stats`` every
    ``--interval`` seconds and redraws a compact per-node table; exits
    on Ctrl-C (or after ``--iterations`` frames, for scripts/tests).
    """
    launcher = StoreLauncher(args.dir)
    shown = 0
    try:
        while True:
            try:
                text = (
                    f"rpr top — {args.dir}  (interval {args.interval:g}s, Ctrl-C to quit)\n"
                    + render_top(launcher.client().stats(), launcher.status())
                )
            except (LauncherError, StoreError, ConnectionError, OSError) as exc:
                text = f"rpr top: cluster unreachable ({exc})"
            if args.iterations != 1 and sys.stdout.isatty():
                sys.stdout.write("\x1b[2J\x1b[H")
            print(text, flush=True)
            shown += 1
            if args.iterations and shown >= args.iterations:
                return 0, None
            time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0, None


def cmd_qos(args):
    """Replay a Zipfian user workload against an in-process store cluster
    (optionally killing a daemon mid-run with ``--kill-at``) — the
    single-point version of ``benchmarks/bench_qos_tradeoff.py``."""
    report, status = kill_mid_trace_replay(
        objects=args.objects, requests=args.requests, object_bytes=args.object_bytes,
        kill_at=args.kill_at, seed=args.seed,
        rate=args.rate, zipf_s=args.zipf_s, get_fraction=args.get_fraction,
        mode=args.mode, concurrency=args.concurrency, time_scale=args.time_scale,
        **_cluster(args),
    )
    result = {
        **report.to_dict(),
        "repairs": len(status["repairs"]),
        "scheme": args.scheme,
        "link_rate": args.link_rate,
        "repair_share": args.repair_share,
    }
    return int(bool(result["errors"])), result


def text_qos(p, args):
    def ms(v):
        return "-" if v is None else f"{v * 1e3:8.2f}ms"

    shaped = (
        f"link {p['link_rate']:.0f} B/s, repair share {p['repair_share']}"
        if p["link_rate"]
        else "unshaped"
    )
    lines = [
        f"qos replay: {p['requests']} requests ({args.mode}-loop), "
        f"scheme {p['scheme']}, {shaped}",
        f"  errors {p['errors']}, rejected {p['rejected']}, "
        f"degraded gets {p['degraded_gets']}, repairs "
        f"{p['repairs']}, repair window {p['repair_window']}",
    ]
    for label, key in (
        ("GET (all)", "get"),
        ("GET (repair phase)", "get_repair_phase"),
        ("PUT (all)", "put"),
    ):
        s = p[key]
        lines.append(
            f"  {label:<20} n={s['count']:<5} p50 {ms(s['p50'])}  "
            f"p99 {ms(s['p99'])}  p999 {ms(s['p999'])}"
        )
    return "\n".join(lines)
