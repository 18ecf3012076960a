#!/usr/bin/env python3
"""Kill a storage daemon mid-flight and watch the service repair itself.

This is the multi-process counterpart of ``operational_timeline.py``:
instead of driving the stripe catalog in one process, it launches a *real*
coordinator plus six storage daemons as separate OS processes
(``repro.store``), then:

1. PUTs an object — the client encodes RS(3,2) stripes locally and
   writes blocks straight to the daemons,
2. SIGKILLs the daemon holding stripe 0's first block (a genuinely
   unclean death: no goodbye, no flushing),
3. waits while the coordinator notices the dropped connection it
   watches the daemon's port on (the kernel closed the dead process's
   sockets), probes the daemon (its port refuses: the process is gone,
   so the death is confirmed rather than waited out), plans a
   rack-aware pipeline repair (RPR), and drives the surviving daemons
   to rebuild the lost blocks onto live spares,
4. GETs the object back and asserts the bytes are identical,
5. prints each repair's measured cross-rack traffic next to the
   simulator's prediction — the two must match exactly
   (``ledger_match``),
6. assembles the per-process telemetry streams (client + coordinator +
   every daemon, *including the SIGKILLed one's pre-kill spans* — each
   process appends JSONL span-by-span, so nothing needed a graceful
   exit) into one cross-process trace and prints the repair's
   end-to-end critical path, and checks that the coordinator recorded
   the victim's death with evidence ``refused``, after a hangup.

Run:  python examples/store_kill_demo.py [--smoke]

``--smoke`` shrinks the object to one stripe for CI.
"""

import argparse
import asyncio
import os
import tempfile
import time
from pathlib import Path

from repro.live import audit_store_repairs
from repro.store import StoreLauncher, call, close_idle_connections
from repro.telemetry import (
    CLOCK_WALL,
    PROC_ATTR,
    StreamingRecorder,
    assemble_files,
    build_tree,
    critical_path,
    render_critical_path,
    trace_ids,
)

BLOCK_SIZE = 4096
CONFIG = dict(
    racks=3, per_rack=2, n=3, k=2, scheme="rpr", block_size=BLOCK_SIZE,
    suspect_after=1.5, heartbeat_interval=0.25, startup_timeout=60.0,
)


def pick_victim(addr: dict, name: str) -> int:
    """The node holding stripe 0's first block — guaranteed to hurt."""
    async def lookup():
        try:
            return await call(addr["host"], addr["port"], "object.lookup", {"name": name})
        finally:
            await close_idle_connections()  # this loop ends with the lookup

    info, _ = asyncio.run(lookup())
    return info["stripes"][0]["placement"]["0"]


def show_assembled_trace(state_dir: Path, victim: int) -> None:
    """Stitch every process's telemetry into one trace; print the repair
    tree's critical path — where the kill→rebuild time actually went."""
    paths = sorted(state_dir.glob("telemetry-*.jsonl"))
    trace = assemble_files(paths)
    victim_spans = [
        s for s in trace.spans if s.attrs.get(PROC_ATTR) == f"node-{victim}"
    ]
    print(
        f"\nassembled one cross-process trace from {len(paths)} telemetry "
        f"streams: {len(trace.spans)} spans over {trace.extent:.2f}s"
    )
    assert victim_spans, "the SIGKILLed daemon's pre-kill spans must survive"
    print(
        f"  node {victim} was SIGKILLed, yet {len(victim_spans)} of its "
        f"spans survived (streamed before the kill)"
    )
    deaths = [e.attrs for e in trace.events if e.name == "node.dead"]
    evidence = [(d["evidence"], d["after"]) for d in deaths if d["node"] == victim]
    assert evidence == [("refused", "hangup")], f"node {victim}'s death: {deaths}"
    print(
        f"  node {victim}'s kill dropped the coordinator's watch connection, "
        f"and a refused probe confirmed the death"
    )
    repair_roots = [
        root
        for tid in trace_ids(trace)
        for root in build_tree(trace, tid)
        if root.span.name.startswith("repair:")
    ]
    assert repair_roots, "expected at least one heartbeat-triggered repair trace"
    root = max(repair_roots, key=lambda nd: nd.span.end)
    procs = {nd.proc for nd in critical_path(root)}
    print(
        f"  {len(repair_roots)} repair trace(s); critical path of the "
        f"last-finishing one (spans {', '.join(sorted(procs))}):"
    )
    for line in render_critical_path(critical_path(root)).splitlines():
        print(f"    {line}")


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true", help="single-stripe object (CI-sized)"
    )
    args = parser.parse_args(argv)
    nbytes = (2 * BLOCK_SIZE if args.smoke else 3 * 2 * BLOCK_SIZE) + 123

    with tempfile.TemporaryDirectory(prefix="rpr-store-") as tmp:
        state_dir = Path(tmp) / "cluster"
        launcher = StoreLauncher(state_dir)
        state = launcher.up(**CONFIG)
        client_rec = StreamingRecorder(
            state_dir / "telemetry-client.jsonl",
            CLOCK_WALL,
            meta={"component": "client", "node": "client"},
        )
        client_rec.set_origin(time.monotonic())
        try:
            print(
                f"cluster up: coordinator + {len(state['daemons'])} daemons "
                f"({CONFIG['racks']} racks x {CONFIG['per_rack']} nodes, "
                f"RS({CONFIG['n']},{CONFIG['k']}), scheme {CONFIG['scheme']})"
            )
            client = launcher.client(recorder=client_rec)
            data = os.urandom(nbytes)
            reply = client.put("demo.bin", data)
            print(f"put demo.bin: {nbytes} bytes over {reply['stripes']} stripes")

            victim = pick_victim(state["coordinator"], "demo.bin")
            pid = launcher.kill_daemon(victim)
            print(f"\nSIGKILL node {victim} (pid {pid}) — no goodbye, no flush")

            status = client.wait_healthy(timeout=45.0, min_repairs=1)
            print(
                f"coordinator confirmed the death and repaired "
                f"{len(status['repairs'])} stripes:"
            )
            for rec in status["repairs"]:
                assert rec["ledger_match"], rec
                print(
                    f"  stripe {rec['sid']}: blocks {rec['failed_blocks']} "
                    f"rebuilt on nodes {sorted(rec['targets'].values())}; "
                    f"cross-rack {rec['measured']['cross_rack_bytes']} B measured "
                    f"== {rec['simulated']['cross_rack_bytes']} B simulated "
                    f"(ledger_match={rec['ledger_match']})"
                )

            audit = audit_store_repairs(status["repairs"])
            assert audit.ledger_ok, audit.to_dict()
            print(
                f"independent audit: {audit.repairs} repairs, "
                f"{audit.measured_cross_rack_bytes} B cross-rack measured "
                f"vs {audit.simulated_cross_rack_bytes} B simulated — ledgers agree"
            )

            got = client.get("demo.bin")
            assert got == data, "post-repair GET returned different bytes"
            print(
                f"\nget demo.bin after repair: {len(got)} bytes, "
                f"byte-identical to what was stored"
            )
            print(
                "every rebuilt block lives on a live spare; node "
                f"{victim} is out of every placement"
            )

            client_rec.close()
            show_assembled_trace(state_dir, victim)
        finally:
            launcher.down()
        print("cluster down — all processes reaped")


if __name__ == "__main__":
    main()
