"""Text views of a cluster stats scrape.

A *scrape* is what :meth:`repro.store.StoreClient.stats` returns: the
coordinator's :meth:`StatsRegistry.snapshot` under ``"coordinator"`` and
one per daemon under ``"nodes"`` (``{"error": ...}`` for a daemon that
did not answer).  :func:`snapshots_to_prometheus` is its machine view;
these are the two human ones — :func:`render_scrape` (one block per
process, ``rpr store stats``) and :func:`render_top` (one table row per
node with the launcher's process/heartbeat columns, ``rpr top``) — over
the same coordinator summary, node order and latency rows.
"""

from __future__ import annotations

from .histogram import LATENCY_PREFIX, LogHistogram

__all__ = ["render_scrape", "render_top", "scrape_snapshots"]


def _nodes(scrape: dict) -> list[tuple[str, dict]]:
    return sorted(scrape["nodes"].items(), key=lambda kv: int(kv[0]))


def scrape_snapshots(scrape: dict) -> list[dict]:
    """Coordinator + reachable daemon snapshots, for the Prometheus view."""
    return [scrape["coordinator"]] + [
        body for _, body in _nodes(scrape) if "error" not in body
    ]


def _gauge(snap: dict, name: str) -> int:
    return int(snap.get("gauges", {}).get(name, 0))


def _counter(snap: dict, name: str) -> int:
    return int(snap.get("counters", {}).get(name, 0))


def _repair_line(coord: dict) -> str:
    """Stripes repaired, the windows they went out in, and failures by kind."""
    failed = {
        name.split(":", 1)[1]: int(value)
        for name, value in sorted(coord.get("counters", {}).items())
        if name.startswith("repair_failed:") and value
    }
    kinds = ", ".join(f"{count} {kind}" for kind, count in failed.items())
    return (
        f"  repair: {coord.get('repairs_done', 0)} stripes in "
        f"{_counter(coord, 'repair_windows')} windows, "
        f"{sum(failed.values())} failed" + (f" ({kinds})" if kinds else "")
    )


def _up(snap: dict) -> str:
    return f"up {snap.get('uptime_s', 0.0):.1f}s"


def _latency(snap: dict, op: str) -> LogHistogram | None:
    data = snap.get("histograms", {}).get(f"{LATENCY_PREFIX}{op}")
    hist = LogHistogram.from_dict(data) if data else None
    return hist if hist is not None and hist.count else None


def _latency_lines(snap: dict) -> list[str]:
    """Per-op latency histogram summary rows for one stats snapshot."""
    ops = sorted(
        name[len(LATENCY_PREFIX):]
        for name in snap.get("histograms", {})
        if name.startswith(LATENCY_PREFIX)
    )
    return [
        f"  {op:<24} n={hist.count:<6} mean={hist.mean * 1e3:8.2f}ms "
        f"p50={hist.quantile(0.5) * 1e3:8.2f}ms p99={hist.quantile(0.99) * 1e3:8.2f}ms"
        for op in ops
        if (hist := _latency(snap, op)) is not None
    ]


def render_scrape(scrape: dict) -> str:
    """Human-readable cluster metrics: one block per process."""
    coord = scrape["coordinator"]
    out = [
        f"coordinator: {_up(coord)}, {_gauge(coord, 'nodes_alive')} nodes alive, "
        f"{_gauge(coord, 'objects')} objects, "
        f"{_gauge(coord, 'degraded_stripes')} degraded stripes, "
        f"{_gauge(coord, 'repairs_active')} repairs active, "
        f"{coord.get('repairs_done', 0)} repairs done, "
        f"{_gauge(coord, 'open_connections')} connections open",
        f"  detection: {_counter(coord, 'hangups')} hangups, "
        f"{_counter(coord, 'probes_sent')} probes sent, "
        f"{_counter(coord, 'deaths_refused')} deaths on a refused probe, "
        f"{_counter(coord, 'deaths_silent')} on silence",
        _repair_line(coord),
        *_latency_lines(coord),
    ]
    for nid, body in _nodes(scrape):
        if "error" in body:
            out.append(f"node-{nid}: UNREACHABLE ({body['error']})")
            continue
        ng = body.get("gauges", {})
        nic = ""
        if "nic_util" in ng:
            nic = f", NIC {100 * ng['nic_util']:.1f}% of {ng.get('nic_rate_Bps', 0):.0f} B/s"
        out.append(
            f"node-{nid}: {_up(body)}, {_gauge(body, 'blocks')} blocks, "
            f"{_gauge(body, 'repairs_inflight')} repairs in flight, "
            f"{_gauge(body, 'open_connections')} connections open{nic}"
        )
        out.extend(_latency_lines(body))
    return "\n".join(out)


def render_top(scrape: dict, status: dict) -> str:
    """The same scrape as one table row per node.

    ``status`` is :meth:`repro.store.StoreLauncher.status` — which
    processes run and how old each daemon's last heartbeat is; the
    foreground / repair p99 columns fall back from the GET / per-block
    histogram to the PUT / whole-repair one when the first is empty.
    """

    def p99_ms(snap: dict, *ops: str) -> str:
        hists = [hist for op in ops if (hist := _latency(snap, op)) is not None]
        return f"{hists[0].quantile(0.99) * 1e3:.1f}" if hists else "-"

    coord = scrape["coordinator"]
    lines = [
        f"coordinator: {_up(coord)}  "
        f"nodes {_gauge(coord, 'nodes_alive')}/{len(scrape['nodes'])}  "
        f"objects {_gauge(coord, 'objects')}  degraded {_gauge(coord, 'degraded_stripes')}  "
        f"repairs active {_gauge(coord, 'repairs_active')} "
        f"done {coord.get('repairs_done', 0)}  conns {_gauge(coord, 'open_connections')}",
        "",
        f"{'node':<8} {'proc':<8} {'beat':>7} {'blocks':>7} {'rif':>4} "
        f"{'nic%':>6} {'fg p99 ms':>10} {'rep p99 ms':>11} {'rpcs':>7} {'conns':>6}",
    ]
    beats = status["service"].get("nodes", {})
    for nid, body in _nodes(scrape):
        info = beats.get(nid, {})
        proc = "run" if status["processes"].get(f"node-{nid}") else "DEAD"
        beat = f"{info['beat_age_s']:.1f}s" if "beat_age_s" in info else "-"
        if "error" in body:
            blocks = rif = nic = fg = rep = rpcs = conns = "-"
        else:
            ng = body.get("gauges", {})
            blocks, rif = _gauge(body, "blocks"), _gauge(body, "repairs_inflight")
            nic = f"{100 * ng['nic_util']:.1f}" if "nic_util" in ng else "-"
            fg = p99_ms(body, "block.get:foreground", "block.put:foreground")
            rep = p99_ms(body, "repair.block:repair", "repair.exec:repair")
            rpcs = sum(
                int(v) for k, v in body.get("counters", {}).items() if k.startswith("rpc:")
            )
            conns = _gauge(body, "open_connections")
        lines.append(
            f"node-{nid:<4} {proc:<8} {beat:>7} {blocks:>7} {rif:>4} "
            f"{nic:>6} {fg:>10} {rep:>11} {rpcs:>7} {conns:>6}"
        )
    coord_lat = _latency_lines(coord)
    if coord_lat:
        lines += ["", "coordinator latency:", *coord_lat]
    return "\n".join(lines)
