"""The service-side verbs: ``qos``, ``telemetry assemble``, ``store``, ``top``.

``qos`` runs against a real 6-daemon in-process cluster; ``telemetry
assemble`` reads two synthetic per-process streams; ``store`` and ``top``
are driven against a stub launcher (canned status + scrape, one node
unreachable) so their rendering is pinned without subprocesses.  The
last test keeps the paper-figure verbs from importing the service stack.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.telemetry import (
    CLOCK_WALL,
    StreamingRecorder,
    TraceContext,
    validate_prometheus_text,
)

from .conftest import canned_scrape, canned_status

SRC = Path(__file__).resolve().parents[2] / "src"


class TestQos:
    def test_kill_mid_trace_json(self, capsys):
        """Zero errors, at least one degraded GET, and the repair has run
        by the time the 2 s open-loop trace ends."""
        code = main([
            "qos", "--block-size", "4096", "--objects", "6", "--object-bytes", "12288",
            "--requests", "200", "--rate", "100", "--mode", "open",
            "--get-fraction", "0.95", "--kill-at", "0.05", "--seed", "11", "--json",
        ])
        result = json.loads(capsys.readouterr().out)
        assert code == 0 and result["errors"] == 0
        assert result["requests"] == 200
        assert result["degraded_gets"] >= 1
        assert result["repairs"] >= 1
        assert result["scheme"] == "rpr" and result["link_rate"] is None
        assert result["get"]["count"] > 0 and result["get"]["p99"] is not None

    def test_text_report(self, capsys):
        assert main([
            "qos", "--block-size", "4096", "--objects", "3", "--object-bytes", "12288",
            "--requests", "20", "--link-rate", "4000000", "--repair-share", "0.25",
        ]) == 0
        out = capsys.readouterr().out
        assert "qos replay: 20 requests (closed-loop), scheme rpr, " \
               "link 4000000 B/s, repair share 0.25" in out
        assert "errors 0, rejected 0, degraded gets 0, repairs 0" in out
        assert "GET (all)" in out and "GET (repair phase)" in out and "PUT (all)" in out


@pytest.fixture
def two_streams(tmp_path):
    """A client root span with one child hop on node-3, as two files."""
    ctx = TraceContext.root()
    for node, hop, (start, end) in (
        ("client", ctx, (10.0, 11.0)),
        ("node-3", ctx.child(), (10.2, 10.7)),
    ):
        rec = StreamingRecorder(
            tmp_path / f"telemetry-{node}.jsonl", CLOCK_WALL, meta={"node": node}
        )
        rec.set_origin(0.0)
        rec.span(f"work:{node}", start, end, **hop.attrs())
        rec.close()
    return tmp_path, ctx


class TestTelemetryAssemble:
    def test_tree_and_critical_path(self, two_streams, capsys):
        directory, ctx = two_streams
        assert main(["telemetry", "assemble", "--dir", str(directory)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("assembled 2 streams: 2 spans, 0 events, 11.000 s extent\n")
        assert f"\ntrace {ctx.trace_id}:\n" in out
        tree = out.split(f"trace {ctx.trace_id}:\n")[1]
        assert tree.index("work:client [client]") < tree.index("work:node-3 [node-3]")
        assert "\ncritical path (last-finishing trace):\n" in out

    def test_explicit_paths_and_json(self, two_streams, capsys):
        directory, _ = two_streams
        paths = sorted(str(p) for p in directory.glob("telemetry-*.jsonl"))
        assert main(["telemetry", "assemble", *paths, "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["meta"]["sources"] == ["client", "node-3"]
        assert len(data["spans"]) == 2

    @pytest.mark.parametrize("fmt", ["chrome", "jsonl"])
    def test_out_exports_the_assembled_trace(self, two_streams, fmt, capsys):
        from repro.telemetry import from_jsonl

        directory, _ = two_streams
        out = directory / f"assembled.{fmt}"
        assert main(["telemetry", "assemble", "--dir", str(directory),
                     "--format", fmt, "--out", str(out)]) == 0
        text = out.read_text()
        assert capsys.readouterr().out == (
            f"wrote {fmt} trace ({len(text)} bytes) to {out}\n"
        )
        if fmt == "jsonl":
            assert len(from_jsonl(text).spans) == 2
        else:
            assert any(e["ph"] == "X" for e in json.loads(text)["traceEvents"])

    def test_no_files_is_a_usage_error(self, tmp_path, capsys):
        assert main(["telemetry", "assemble", "--dir", str(tmp_path)]) == 2
        assert "no telemetry files" in capsys.readouterr().err


STATS_TEXT = """\
coordinator: up 12.5s, 1 nodes alive, 3 objects, 2 degraded stripes, 1 repairs active, \
6 repairs done, 4 connections open
  detection: 1 hangups, 2 probes sent, 1 deaths on a refused probe, 0 on silence
  repair: 6 stripes in 2 windows, 1 failed (1 unavailable)
  lookup                   n=2      mean=    3.00ms p50=    2.05ms p99=    4.10ms
node-0: up 9.2s, 7 blocks, 1 repairs in flight, 2 connections open, NIC 37.5% of 1500000 B/s
  block.get:foreground     n=1      mean=   10.00ms p50=   16.38ms p99=   16.38ms
  repair.exec:repair       n=1      mean=   50.00ms p50=   65.54ms p99=   65.54ms
node-1: UNREACHABLE (connection refused)
"""

TOP_TEXT = """\
rpr top — DIR  (interval 2s, Ctrl-C to quit)
coordinator: up 12.5s  nodes 1/2  objects 3  degraded 2  repairs active 1 done 6  conns 4

node     proc        beat  blocks  rif   nic%  fg p99 ms  rep p99 ms    rpcs  conns
node-0    run         0.1s       7    1   37.5       16.4        65.5      12      2
node-1    DEAD        4.5s       -    -      -          -           -       -      -

coordinator latency:
  lookup                   n=2      mean=    3.00ms p50=    2.05ms p99=    4.10ms
"""


class TestStoreVerbs:
    def test_up_passes_every_flag_to_the_launcher(self, stub_launcher, capsys):
        assert main(["store", "--dir", "D", "up", "--code", "4,2", "--scheme", "car",
                     "--block-size", "4096", "--link-rate", "1e6"]) == 0
        assert capsys.readouterr().out == (
            "store up: coordinator 127.0.0.1:7000 (pid 42), 6 daemons, scheme car, "
            "state in D\n"
        )
        assert stub_launcher.calls == [("up", {
            "racks": 3, "per_rack": 2, "n": 4, "k": 2, "scheme": "car",
            "block_size": 4096, "suspect_after": 2.0, "heartbeat_interval": 0.5,
            "link_rate": 1e6, "repair_share": 0.5,
        })]

    def test_down_and_kill(self, stub_launcher, capsys):
        assert main(["store", "down"]) == 0
        assert capsys.readouterr().out == "store down: all processes stopped\n"
        assert main(["store", "kill", "3"]) == 0
        assert capsys.readouterr().out.startswith(
            "SIGKILLed daemon for node 3 (pid 103); the coordinator will notice"
        )

    def test_launcher_error_is_one_line_exit_1(self, stub_launcher, capsys):
        assert main(["store", "kill", "99"]) == 1
        assert capsys.readouterr().err == "error: no daemon for node 99\n"

    def test_status(self, stub_launcher, capsys):
        assert main(["store", "status"]) == 0
        assert capsys.readouterr().out == (
            "processes: 2/3 running\n"
            "  coordinator    running\n"
            "  node-0         running\n"
            "  node-1         DEAD\n"
            "service: scheme rpr, RS(3,2), 1/2 nodes alive, 3 objects, "
            "2 degraded stripes, 6 repairs done\n"
            "  node-0    alive  last beat   0.12s ago  (7 blocks, 1 repairs in flight)\n"
            "  node-1    DEAD   last beat   4.50s ago\n"
        )
        assert main(["store", "status", "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == canned_status()

    def test_stats_three_ways(self, stub_launcher, capsys):
        assert main(["store", "stats"]) == 0
        assert capsys.readouterr().out == STATS_TEXT
        assert main(["store", "stats", "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == canned_scrape()
        assert main(["store", "stats", "--prom"]) == 0
        prom = capsys.readouterr().out
        assert validate_prometheus_text(prom) == []
        assert 'node="node-0"' in prom and 'node="node-1"' not in prom
        assert 'rpr_events_total{name="repair_windows",node="coordinator"} 2' in prom
        assert 'rpr_events_total{name="repair_failed:unavailable",node="coordinator"} 1' in prom
        assert 'rpr_events_total{name="repair_failed:not_found",node="coordinator"} 0' in prom

    def test_object_round_trip(self, stub_launcher, tmp_path, capsys):
        src, back = tmp_path / "o.bin", tmp_path / "b.bin"
        src.write_bytes(b"x" * 1000)
        assert main(["store", "put", "obj", str(src)]) == 0
        assert capsys.readouterr().out == "put obj: 1000 bytes\n"
        assert main(["store", "ls"]) == 0
        assert capsys.readouterr().out == "        1000    1 stripes  obj\n"
        assert main(["store", "get", "obj", "--out", str(back)]) == 0
        assert capsys.readouterr().out == f"got obj: 1000 bytes -> {back} (degraded read)\n"
        assert back.read_bytes() == src.read_bytes()
        assert main(["store", "get", "obj", "--no-degraded", "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == {
            "degraded": False, "reconstructed": [[0, 1]], "nbytes": 1000,
        }
        assert main(["store", "rm", "obj"]) == 0
        assert capsys.readouterr().out == "deleted obj (5 blocks dropped)\n"
        assert main(["store", "get", "obj"]) == 1
        assert capsys.readouterr().err == "error (not_found): no such object 'obj'\n"


class TestTop:
    def test_one_frame(self, stub_launcher, capsys):
        assert main(["top", "--dir", "DIR", "--iterations", "1"]) == 0
        assert capsys.readouterr().out == TOP_TEXT

    def test_unreachable_cluster_still_draws_a_frame(self, tmp_path, capsys):
        assert main(["top", "--dir", str(tmp_path), "--iterations", "1"]) == 0
        assert capsys.readouterr().out.startswith("rpr top: cluster unreachable (no cluster state")


def test_figure_verbs_do_not_import_the_service_stack():
    """``rpr figure 6`` needs the simulator only: no store, no live
    runtime, no event loop."""
    probe = (
        "import sys; from repro.cli import main; main(['figure', '6']); "
        "print(sorted(m for m in ('repro.store', 'repro.live', 'repro.qos', 'asyncio') "
        "if m in sys.modules))"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"
