"""Shared fixtures for the CLI tests: a store launcher that needs no
processes, and the LRC extension computed once per session."""

import copy
import functools
from types import SimpleNamespace

import pytest

from repro import experiments
from repro.store import LauncherError, NotFound, StoreLauncher
from repro.telemetry import StatsRegistry


@pytest.fixture(scope="session", autouse=True)
def lrc_rows_once():
    """``repro.experiments.lrc_rows`` is pure, takes no argument and costs
    seconds; ``rpr extension lrc`` runs it in four CLI tests and the
    ``EXPERIMENTS.md`` check in one more.  The first call computes it and
    every call returns a fresh copy of that result, so the pinned outputs
    are still the real function's."""
    once = functools.cache(experiments.lrc_rows)
    patch = pytest.MonkeyPatch()
    patch.setattr(experiments, "lrc_rows", lambda: copy.deepcopy(once()))
    yield
    patch.undo()


def canned_scrape() -> dict:
    """Coordinator + node 0 (shaped NIC, latencies) + node 1 unreachable."""
    clock = iter([0.0] + [12.5] * 8).__next__
    coord = StatsRegistry("coordinator", clock=clock)
    for name, value in (("nodes_alive", 1), ("objects", 3), ("degraded_stripes", 2),
                        ("repairs_active", 1), ("open_connections", 4)):
        coord.gauge(name, value)
    coord.count("hangups", 1)
    coord.count("probes_sent", 2)
    coord.count("deaths_refused", 1)
    coord.latency("lookup", 0.002)
    coord.latency("lookup", 0.004)
    node = StatsRegistry("node-0", clock=iter([0.0] + [9.25] * 8).__next__)
    for name, value in (("blocks", 7), ("repairs_inflight", 1), ("open_connections", 2),
                        ("nic_util", 0.375), ("nic_rate_Bps", 1.5e6)):
        node.gauge(name, value)
    node.count("rpc:block.get", 5)
    node.count("rpc:block.put", 7)
    node.latency("block.get", 0.010, "foreground")
    node.latency("repair.exec", 0.050, "repair")
    return {
        "coordinator": {**coord.snapshot(), "repairs_done": 6},
        "nodes": {"0": node.snapshot(), "1": {"error": "connection refused"}},
    }


def canned_status() -> dict:
    return {
        "processes": {"coordinator": True, "node-0": True, "node-1": False},
        "service": {
            "scheme": "rpr",
            "code": {"n": 3, "k": 2},
            "nodes": {
                "0": {"alive": True, "beat_age_s": 0.125,
                      "meta": {"blocks": 7, "repairs_inflight": 1}},
                "1": {"alive": False, "beat_age_s": 4.5, "meta": {}},
            },
            "objects": ["a", "b", "c"],
            "degraded": [4, 9],
            "repairs": [{}] * 6,
        },
    }


class StubClient:
    def __init__(self):
        self.objects = {}

    def stats(self):
        return canned_scrape()

    def put(self, name, data):
        self.objects[name] = bytes(data)

    def get_with_report(self, name, degraded=True):
        if name not in self.objects:
            raise NotFound(f"no such object {name!r}")
        return self.objects[name], {"degraded": degraded, "reconstructed": [[0, 1]]}

    def delete(self, name):
        del self.objects[name]
        return {"dropped": 5}

    def list_objects(self):
        return [{"name": n, "size": len(d), "stripes": 1} for n, d in self.objects.items()]


@pytest.fixture
def stub_launcher(monkeypatch):
    """``StoreLauncher`` with every process/RPC touchpoint canned; yields
    the stub ``client`` and the recorded lifecycle ``calls``."""
    client = StubClient()
    calls = []

    def up(self, **config):
        calls.append(("up", config))
        return {"coordinator": {"host": "127.0.0.1", "port": 7000, "pid": 42},
                "daemons": {str(i): 100 + i for i in range(6)}}

    def kill_daemon(self, node_id):
        if node_id == 99:
            raise LauncherError("no daemon for node 99")
        return 100 + node_id

    monkeypatch.setattr(StoreLauncher, "up", up)
    monkeypatch.setattr(StoreLauncher, "down", lambda self: calls.append(("down", {})))
    monkeypatch.setattr(StoreLauncher, "status", lambda self: canned_status())
    monkeypatch.setattr(StoreLauncher, "kill_daemon", kill_daemon)
    monkeypatch.setattr(StoreLauncher, "client", lambda self: client)
    return SimpleNamespace(client=client, calls=calls)
