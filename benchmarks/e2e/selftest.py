"""Unit checks of the benchmark's own arithmetic (no cluster, < 5 s).

Run with ``python3 benchmarks/e2e/run.py --selftest``.  Not collected by
the repository's pytest run on purpose: it tests the instrument, not the
program.
"""

from __future__ import annotations

import asyncio
import traceback

import repro.store.client as client_mod
import repro.store.coordinator as coordinator_mod
import repro.store.messages as messages_mod
import repro.store.repair as repair_mod
from repro.rs import RSCode

from compare import verdict
from measure import quartiles, summarize, tail, tail_percentile
from tracing import Span, SpanTree, Tracer, self_time, union_length
from workloads import round_metrics


def check_tail_percentile() -> None:
    # Highest percentile with at least ten samples beyond it.
    assert tail_percentile(99) is None
    assert tail_percentile(100) == 0.90
    assert tail_percentile(999) == 0.90
    assert tail_percentile(1000) == 0.99
    assert tail_percentile(10_000) == 0.999
    assert tail_percentile(100_000) == 0.9999
    q, value = tail(range(1000))
    assert (q, value) == (0.99, 989.0), (q, value)  # 990..999: ten beyond
    assert tail(range(50)) == (0.5, 24.5)  # no tail to speak of: the median


def check_median_of_rounds() -> None:
    assert quartiles([7.0]) == (7.0, 7.0, 7.0)
    # Three rounds of latencies: 4 ops in 2 s, 2 ops in 2 s, 3 ops in 1 s.
    rounds = [[0.5, 0.5, 0.5, 0.5], [0.5, 1.5], [0.25, 0.25, 0.5]]
    metrics = round_metrics(rounds)
    assert metrics["throughput_per_s"]["median"] == 2.0, metrics
    assert metrics["throughput_per_s"]["values"] == [2.0, 1.0, 3.0]
    assert metrics["latency_p50_ms"]["median"] == 500.0 and metrics["latency_p50_ms"]["n"] == 3
    # One slow round does not move the median.
    assert summarize([10, 10, 10, 10, 100])["median"] == 10
    assert summarize([90.0, 100.0, 110.0, 100.0])["spread"] == (107.5 - 92.5) / 100.0


def check_self_time() -> None:
    assert union_length([(1, 4), (3, 6), (8, 12)]) == 9
    parent = Span("op", "op", 0.0, 10.0, "p")
    children = [
        Span("a", "x", 1.0, 4.0, "a", "p"),
        Span("b", "x", 3.0, 6.0, "b", "p"),   # overlaps a
        Span("c", "x", 8.0, 12.0, "c", "p"),  # runs past the parent: clipped
    ]
    assert self_time(parent, children) == 10.0 - (5.0 + 2.0)
    assert self_time(parent, []) == 10.0


def check_blocking_path() -> None:
    op = Span("put", "op", 0.0, 10.0, "op")
    spans = [
        op,
        Span("status", "messages", 0.0, 3.0, "s", "op"),
        Span("block.put", "messages", 3.0, 9.0, "late", "op"),
        Span("block.put", "messages", 3.0, 5.0, "shadowed", "op"),
        Span("read_frame", "wire", 4.0, 9.0, "r", "late"),
        # No parent: an RPC the coordinator issued; attached by time.
        Span("block.stat", "messages", 9.0, 9.5, "orphan"),
        # No parent and outside every op: ignored.
        Span("heartbeat-ish", "messages", 20.0, 21.0, "stray"),
    ]
    tree = SpanTree(spans, [op])
    assert {s.sid for s in tree.descendants(op)} == {"s", "late", "shadowed", "r", "orphan"}
    assert tree.self_time(op) == 0.5
    # op 0.5 + status 3 + orphan 0.5 + late (1 self + 5 read_frame); not `shadowed`.
    assert tree.blocking_self_sum(op) == 10.0, tree.blocking_self_sum(op)


def _shimmed_names() -> list:
    return [
        client_mod.call, coordinator_mod.call, repair_mod.call,
        repair_mod.RepairSession.__init__.__kwdefaults__["rpc"],
        messages_mod.connect_tcp, messages_mod.send_frame, messages_mod.read_frame,
        RSCode.encode, RSCode.decode_many,
        client_mod.execute_plan, client_mod.split_into_stripes, client_mod.reassemble,
    ]


def check_shims_restore() -> None:
    before = _shimmed_names()
    tracer = Tracer()
    with tracer:
        during = _shimmed_names()
        assert all(a is not b for a, b in zip(before, during)), "a name was not shimmed"
        assert client_mod.call is coordinator_mod.call
    after = _shimmed_names()
    assert all(a is b for a, b in zip(before, after)), "a name was not restored"
    try:
        with tracer:
            raise KeyError("boom")
    except KeyError:
        pass
    assert all(a is b for a, b in zip(before, _shimmed_names())), "not restored after an error"


def check_gathered_parents() -> None:
    tracer = Tracer()

    async def rpc(delay):
        await asyncio.sleep(delay)

    shim = tracer._wrap(rpc, "rpc", "messages")

    async def main():
        with tracer.op("put"):
            await asyncio.gather(shim(0.01), shim(0.02), shim(0.005))
        await shim(0.001)  # outside any op

    asyncio.run(main())
    op = next(s for s in tracer.spans if s.layer == "op")
    rpcs = [s for s in tracer.spans if s.name == "rpc"]
    assert [s.parent for s in rpcs].count(op.sid) == 3
    assert [s.parent for s in rpcs].count(None) == 1
    assert op.attrs == {"blob_bytes": 0}


def check_verdicts() -> None:
    def stat(median, spread=0.01):
        return {"median": median, "spread": spread, "values": [median * 0.9, median * 1.1]}

    assert verdict(stat(100), stat(105), "lower", 0.10)[2] == "ok"
    assert verdict(stat(100), stat(115), "lower", 0.10)[2] == "regressed"
    assert verdict(stat(100), stat(85), "higher", 0.10)[2] == "regressed"
    assert verdict(stat(100), stat(120), "higher", 0.10)[2] == "ok"
    assert verdict(stat(100, 0.2), stat(115), "lower", 0.10)[2] == "unresolved"
    # Wide, but every candidate round beats every baseline round.
    assert verdict(stat(100, 0.2), stat(50), "lower", 0.10)[2] == "ok"
    assert verdict(stat(100, 0.2), stat(200), "higher", 0.10)[2] == "ok"


CHECKS = (
    check_tail_percentile,
    check_median_of_rounds,
    check_self_time,
    check_blocking_path,
    check_shims_restore,
    check_gathered_parents,
    check_verdicts,
)


def run_selftest() -> int:
    failed = 0
    for check in CHECKS:
        try:
            check()
        except Exception:  # noqa: BLE001 - report every failing check, then exit non-zero
            failed += 1
            print(f"FAIL {check.__name__}")
            traceback.print_exc()
        else:
            print(f"ok   {check.__name__}")
    print(f"{len(CHECKS) - failed}/{len(CHECKS)} checks passed")
    return 1 if failed else 0
