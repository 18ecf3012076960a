"""Trace contexts, cross-process assembly, and crash-durable streaming."""

import json

from repro.telemetry import (
    CLOCK_WALL,
    PROC_ATTR,
    StreamingRecorder,
    TelemetryRecorder,
    TraceContext,
    assemble_files,
    assemble_trace,
    build_tree,
    critical_path,
    from_jsonl,
    new_span_id,
    render_critical_path,
    render_tree,
    to_chrome_trace,
    to_jsonl,
    trace_ids,
)
from repro.telemetry.distributed import (
    PARENT_ID_ATTR,
    SPAN_ID_ATTR,
    TRACE_ID_ATTR,
)


class TestTraceContext:
    def test_span_ids_are_random_64_bit_hex(self):
        ids = {new_span_id() for _ in range(256)}
        assert len(ids) == 256  # no collisions in a tiny sample
        for sid in ids:
            assert len(sid) == 16
            int(sid, 16)  # valid hex

    def test_root_and_child_lineage(self):
        root = TraceContext.root()
        child = root.child()
        grandchild = child.child()
        assert child.trace_id == root.trace_id == grandchild.trace_id
        assert child.parent_id == root.span_id
        assert grandchild.parent_id == child.span_id
        assert len({root.span_id, child.span_id, grandchild.span_id}) == 3

    def test_wire_round_trip(self):
        ctx = TraceContext.root().child()
        back = TraceContext.from_wire(ctx.to_wire())
        assert back == ctx
        # A root has no parent — the wire form omits the key entirely.
        root = TraceContext.root()
        assert "p" not in root.to_wire()
        assert TraceContext.from_wire(root.to_wire()) == root
        assert TraceContext.from_wire(None) is None
        assert TraceContext.from_wire({}) is None

    def test_attrs_link_spans(self):
        ctx = TraceContext.root().child()
        attrs = ctx.attrs()
        assert attrs[TRACE_ID_ATTR] == ctx.trace_id
        assert attrs[SPAN_ID_ATTR] == ctx.span_id
        assert attrs[PARENT_ID_ATTR] == ctx.parent_id


def _recorder(node: str, origin_unix: float) -> TelemetryRecorder:
    rec = TelemetryRecorder(CLOCK_WALL, meta={"node": node})
    rec.meta["origin_unix"] = origin_unix
    return rec


class TestAssembleTrace:
    def test_aligns_clocks_via_origin_unix(self):
        # Two processes whose local t=0 differ by 5 wall seconds: a span
        # at local t=1 in the later process lands at assembled t=6.
        early = _recorder("client", origin_unix=1000.0)
        late = _recorder("node-0", origin_unix=1005.0)
        early.span("put:x", 1.0, 2.0)
        late.span("rpc:block.put", 1.0, 1.5)
        merged = assemble_trace(
            [("client", early.trace()), ("node-0", late.trace())]
        )
        by_name = {s.name: s for s in merged.spans}
        assert by_name["put:x"].start == 1.0
        assert by_name["rpc:block.put"].start == 6.0
        assert by_name["rpc:block.put"].end == 6.5
        assert merged.meta["origin_unix"] == 1000.0
        assert merged.meta["sources"] == ["client", "node-0"]

    def test_namespaces_and_proc_attr(self):
        a = _recorder("a", 0.0)
        b = _recorder("b", 0.0)
        for rec in (a, b):
            rec.count("pacing.stalls", 2)
            rec.span("work", 0.0, 1.0, op_id="op1")
        merged = assemble_trace([("a", a.trace()), ("b", b.trace())])
        assert merged.counters == {"a/pacing.stalls": 2, "b/pacing.stalls": 2}
        assert sorted(s.op_id for s in merged.spans) == ["a/op1", "b/op1"]
        assert sorted(s.attrs[PROC_ATTR] for s in merged.spans) == ["a", "b"]

    def test_cross_process_tree_and_critical_path(self):
        # client -> coordinator -> two daemons; the tree must follow the
        # propagated span ids, and the critical path the slower daemon.
        root_ctx = TraceContext.root()
        hop = root_ctx.child()
        client = _recorder("client", 1000.0)
        client.span("get:obj", 0.0, 4.0, **root_ctx.attrs())
        coord = _recorder("coordinator", 1000.0)
        coord.span("rpc:object.lookup", 0.1, 3.9, **hop.attrs())
        fast, slow = hop.child(), hop.child()
        d0 = _recorder("node-0", 1000.0)
        d0.span("rpc:block.get", 0.2, 1.0, **fast.attrs())
        d1 = _recorder("node-1", 1000.0)
        d1.span("rpc:block.get", 0.2, 3.5, **slow.attrs())
        merged = assemble_trace(
            [
                ("client", client.trace()),
                ("coordinator", coord.trace()),
                ("node-0", d0.trace()),
                ("node-1", d1.trace()),
            ]
        )
        assert trace_ids(merged) == [root_ctx.trace_id]
        roots = build_tree(merged, root_ctx.trace_id)
        assert len(roots) == 1
        assert roots[0].span.name == "get:obj"
        assert roots[0].proc == "client"
        (lookup,) = roots[0].children
        assert {c.proc for c in lookup.children} == {"node-0", "node-1"}
        path = critical_path(roots[0])
        assert [n.proc for n in path] == ["client", "coordinator", "node-1"]
        rendered = render_tree(roots)
        assert "get:obj [client]" in rendered
        assert "└─" in rendered
        assert "node-1" in render_critical_path(path)

    def test_orphan_parent_becomes_root(self):
        # The parent process's stream is missing: its children must
        # still render, as roots, rather than vanish.
        missing_parent = TraceContext.root().child()
        rec = _recorder("node-0", 0.0)
        rec.span("rpc:block.get", 0.0, 1.0, **missing_parent.child().attrs())
        merged = assemble_trace([("node-0", rec.trace())])
        roots = build_tree(merged)
        assert len(roots) == 1
        assert roots[0].span.name == "rpc:block.get"

    def test_uninstrumented_spans_ignored_by_tree(self):
        rec = _recorder("a", 0.0)
        rec.span("legacy", 0.0, 1.0)  # no span_id attr
        rec.span("traced", 0.0, 1.0, **TraceContext.root().attrs())
        roots = build_tree(assemble_trace([("a", rec.trace())]))
        assert [r.span.name for r in roots] == ["traced"]

    def test_assembled_trace_round_trips_jsonl_and_perfetto(self):
        # The assembled trace is a plain TelemetryTrace: the existing
        # exporters must accept it unchanged (ISSUE satellite c).
        ctx = TraceContext.root()
        a = _recorder("client", 1000.0)
        a.span("put:x", 0.0, 1.0, **ctx.attrs())
        b = _recorder("node-0", 1001.0)
        b.span("rpc:block.put", 0.0, 0.5, **ctx.child().attrs())
        merged = assemble_trace([("client", a.trace()), ("node-0", b.trace())])
        clone = from_jsonl(to_jsonl(merged))
        assert to_jsonl(clone) == to_jsonl(merged)  # byte-identical
        assert len(build_tree(clone)) == 1
        chrome = to_chrome_trace([("assembled", merged)])
        names = {e["name"] for e in chrome["traceEvents"] if e["ph"] == "X"}
        assert {"put:x", "rpc:block.put"} <= names


class TestStreamingRecorder:
    def test_spans_survive_without_close(self, tmp_path):
        # The crash contract: records are on disk the moment they are
        # recorded, so a SIGKILL'd process still leaves its telemetry.
        path = tmp_path / "telemetry.jsonl"
        rec = StreamingRecorder(path, CLOCK_WALL, meta={"node": "node-0"})
        rec.span("rpc:block.put", 0.0, 0.25, nbytes=4096)
        rec.event("daemon.start")
        # No close(): read the file as a post-mortem would.
        trace = from_jsonl(path.read_text())
        assert [s.name for s in trace.spans] == ["rpc:block.put"]
        assert trace.spans[0].attrs["nbytes"] == 4096
        assert [e.name for e in trace.events] == ["daemon.start"]
        assert trace.meta["node"] == "node-0"
        rec.close()

    def test_metrics_flushed_on_close(self, tmp_path):
        path = tmp_path / "telemetry.jsonl"
        rec = StreamingRecorder(path, CLOCK_WALL, metrics_interval_s=3600.0)
        rec.span("op", 0.0, 1.0)
        rec.count("repairs_done", 2)
        rec.gauge("nic_util", 0.5, at=0.5)
        rec.observe("latency", 0.01)
        rec.close()
        trace = from_jsonl(path.read_text())
        assert trace.counters["repairs_done"] == 2
        assert trace.gauges["nic_util"] == [(0.5, 0.5)]
        assert trace.histograms["latency"] == [0.01]

    def test_streamed_equals_in_memory_trace(self, tmp_path):
        path = tmp_path / "telemetry.jsonl"
        rec = StreamingRecorder(path, CLOCK_WALL, meta={"node": "c"})
        ctx = TraceContext.root()
        rec.span("repair:r0", 1.0, 2.0, **ctx.attrs())
        rec.count("repairs_done")
        rec.close()
        assert to_jsonl(from_jsonl(path.read_text())) == to_jsonl(rec.trace())

    def test_line_buffered_writes_are_whole_records(self, tmp_path):
        path = tmp_path / "telemetry.jsonl"
        rec = StreamingRecorder(path, CLOCK_WALL)
        for i in range(20):
            rec.span(f"op{i}", float(i), float(i) + 0.5)
        # Every line on disk parses on its own — no torn records.
        for line in path.read_text().splitlines():
            json.loads(line)
        rec.close()

    def test_assemble_files_names_by_meta_node(self, tmp_path):
        ctx = TraceContext.root()
        paths = []
        for node, hop in (("client", ctx), ("node-3", ctx.child())):
            p = tmp_path / f"telemetry-{node}.jsonl"
            rec = StreamingRecorder(p, CLOCK_WALL, meta={"node": node})
            rec.set_origin(0.0)
            rec.span(f"work:{node}", 10.0, 11.0, **hop.attrs())
            rec.close()
            paths.append(p)
        merged = assemble_files(paths)
        assert sorted(s.attrs[PROC_ATTR] for s in merged.spans) == [
            "client",
            "node-3",
        ]
        roots = build_tree(merged, ctx.trace_id)
        assert len(roots) == 1
        assert [c.proc for c in roots[0].children] == ["node-3"]

    def test_a_long_lived_recorder_keeps_nothing_it_has_written(self, tmp_path):
        # A store process records spans for as long as it lives: what is
        # on disk must not also pile up in memory.
        path = tmp_path / "telemetry.jsonl"
        ticks = iter(range(10**7))
        rec = StreamingRecorder(
            path, CLOCK_WALL, meta={"node": "node-0"}, metrics_interval_s=1000.0,
            time_source=lambda: float(next(ticks)),
        )
        for i in range(100_000):
            rec.span("rpc:block.get", float(i), i + 0.5, nbytes=4096)
            if i % 10 == 0:
                rec.gauge("nic_util", 0.5, at=float(i))
                rec.observe("latency", 0.001)
            if i % 1000 == 0:
                rec.event("sweep", at=float(i))
        held = len(rec._spans) + len(rec._events) + sum(
            len(samples) for samples in (*rec._gauges.values(), *rec._histograms.values())
        )
        assert held <= 2 * 100  # only the samples since the last metrics snapshot
        rec.close()
        trace = rec.trace()  # read back from the file, which holds everything
        assert len(trace.spans) == 100_000 and len(trace.events) == 100
        assert len(trace.gauges["nic_util"]) == len(trace.histograms["latency"]) == 10_000
        assert sum('"record":"span"' in line for line in path.open()) == 100_000
