"""Plain-subprocess harness: bring a store cluster up, tear it down.

No containers, no supervisors — one coordinator process plus one daemon
process per cluster node, all ``python -m`` children of whoever calls
:meth:`StoreLauncher.up`.  Everything the harness knows lives in a
*state directory*:

```
<state_dir>/
  coordinator.json      # {"host", "port"} — written by the coordinator
  state.json            # pids + config, written by the launcher
  coordinator.log       # stdout+stderr of the coordinator
  node-<i>.log          #   "        "     of each daemon
  telemetry-*.jsonl     # per-component streaming telemetry (appended
                        # span-by-span, so it survives a SIGKILL)
```

so ``up``/``status``/``kill``/``down`` can run as *separate CLI
invocations* (the `rpr store` subcommands) and still find the cluster.
``kill`` is the service's whole reason to exist: SIGKILL a daemon, watch
the coordinator see its watch connection drop, confirm the death with a
refused probe at the next sweep and orchestrate a real repair.  (Silence
bounds detection only for a dead host, which sends no hangup.)
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import repro

from .client import SyncStoreClient
from .messages import StoreError

__all__ = ["StoreLauncher", "LauncherError"]


class LauncherError(RuntimeError):
    """The harness could not start, find, or stop the cluster."""


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - exists but not ours
        return True
    return True


def _proc_running(pid: int) -> bool:
    """Is the process genuinely running (reaping it if it exited)?

    Children we spawned must be wait()ed or they linger as zombies that
    ``os.kill(pid, 0)`` still sees; a launcher in a *different* process
    (separate CLI invocations share only state.json) gets
    ``ChildProcessError`` and falls back to the signal probe.
    """
    try:
        reaped, _status = os.waitpid(pid, os.WNOHANG)
        return reaped == 0
    except ChildProcessError:
        return _pid_alive(pid)


class StoreLauncher:
    """Manage one store cluster rooted at a state directory."""

    def __init__(self, state_dir: str | Path) -> None:
        self.state_dir = Path(state_dir)

    # -- paths --------------------------------------------------------------

    @property
    def state_file(self) -> Path:
        return self.state_dir / "state.json"

    @property
    def coordinator_file(self) -> Path:
        return self.state_dir / "coordinator.json"

    def _env(self) -> dict:
        # Children must import repro exactly as we do, wherever we were
        # launched from.
        src_root = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        existing = env.get("PYTHONPATH", "")
        env["PYTHONPATH"] = src_root + (os.pathsep + existing if existing else "")
        return env

    def _spawn(self, argv: list[str], log_name: str) -> subprocess.Popen:
        log = open(self.state_dir / log_name, "wb")
        try:
            return subprocess.Popen(
                [sys.executable, "-m", *argv],
                stdout=log,
                stderr=subprocess.STDOUT,
                stdin=subprocess.DEVNULL,
                env=self._env(),
                start_new_session=True,
            )
        finally:
            log.close()

    # -- lifecycle ----------------------------------------------------------

    def up(
        self,
        *,
        racks: int,
        per_rack: int,
        n: int,
        k: int,
        scheme: str = "rpr",
        block_size: int = 64 * 1024,
        suspect_after: float = 2.0,
        sweep_interval: float = 0.25,
        heartbeat_interval: float = 0.5,
        startup_timeout: float = 30.0,
        link_rate: float | None = None,
        repair_share: float = 0.5,
    ) -> dict:
        """Start coordinator + one daemon per node; returns the state dict.

        Blocks until every daemon has registered (first heartbeat) or
        ``startup_timeout`` elapses — a cluster that is "up" is actually
        serving, not merely forked.
        """
        self.state_dir.mkdir(parents=True, exist_ok=True)
        if self.state_file.exists():
            raise LauncherError(
                f"{self.state_file} exists; is a cluster already up? "
                f"(run `down` first, or point at a fresh state dir)"
            )
        self.coordinator_file.unlink(missing_ok=True)

        num_nodes = racks * per_rack
        coordinator = self._spawn(
            [
                "repro.store.coordinator",
                "--racks", str(racks),
                "--per-rack", str(per_rack),
                "--n", str(n),
                "--k", str(k),
                "--scheme", scheme,
                "--block-size", str(block_size),
                "--suspect-after", str(suspect_after),
                "--sweep-interval", str(sweep_interval),
                "--state-file", str(self.coordinator_file),
                "--telemetry", str(self.state_dir / "telemetry-coordinator.jsonl"),
            ],
            "coordinator.log",
        )
        procs: dict[str, subprocess.Popen] = {"coordinator": coordinator}
        try:
            addr = self._await_coordinator(coordinator, startup_timeout)
            qos_args = []
            if link_rate is not None:
                qos_args = [
                    "--link-rate", str(link_rate),
                    "--repair-share", str(repair_share),
                ]
            for node_id in range(num_nodes):
                procs[f"node-{node_id}"] = self._spawn(
                    [
                        "repro.store.daemon",
                        "--node-id", str(node_id),
                        "--coordinator", f"{addr['host']}:{addr['port']}",
                        "--heartbeat-interval", str(heartbeat_interval),
                        *qos_args,
                        "--telemetry",
                        str(self.state_dir / f"telemetry-node-{node_id}.jsonl"),
                    ],
                    f"node-{node_id}.log",
                )
            self._await_registration(addr, num_nodes, startup_timeout)
        except BaseException:
            for proc in procs.values():
                if proc.poll() is None:
                    proc.kill()
            raise

        state = {
            "coordinator": {**addr, "pid": coordinator.pid},
            "daemons": {
                str(node_id): procs[f"node-{node_id}"].pid
                for node_id in range(num_nodes)
            },
            "config": {
                "racks": racks, "per_rack": per_rack, "n": n, "k": k,
                "scheme": scheme, "block_size": block_size,
                "suspect_after": suspect_after,
                "heartbeat_interval": heartbeat_interval,
                "link_rate": link_rate, "repair_share": repair_share,
            },
        }
        self.state_file.write_text(json.dumps(state, indent=2))
        return state

    def _await_coordinator(self, proc: subprocess.Popen, timeout: float) -> dict:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if proc.poll() is not None:
                raise LauncherError(
                    f"coordinator exited with {proc.returncode} during startup; "
                    f"see {self.state_dir / 'coordinator.log'}"
                )
            if self.coordinator_file.exists():
                try:
                    return json.loads(self.coordinator_file.read_text())
                except json.JSONDecodeError:
                    pass  # racing the atomic rename; retry
            time.sleep(0.05)
        raise LauncherError(f"coordinator did not bind within {timeout}s")

    def _await_registration(self, addr: dict, num_nodes: int, timeout: float) -> None:
        client = SyncStoreClient(addr["host"], addr["port"])
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            try:
                status = client.status()
            except (StoreError, ConnectionError, OSError):
                time.sleep(0.1)
                continue
            alive = sum(1 for info in status["nodes"].values() if info["alive"])
            if alive >= num_nodes:
                return
            time.sleep(0.1)
        raise LauncherError(
            f"only {alive}/{num_nodes} daemons registered within {timeout}s"
        )

    def load_state(self) -> dict:
        if not self.state_file.exists():
            raise LauncherError(f"no cluster state at {self.state_file}")
        return json.loads(self.state_file.read_text())

    def client(self, *, recorder=None) -> SyncStoreClient:
        addr = self.load_state()["coordinator"]
        return SyncStoreClient(addr["host"], addr["port"], recorder=recorder)

    def status(self) -> dict:
        """Service status plus harness-level process liveness."""
        state = self.load_state()
        procs = {
            "coordinator": _proc_running(state["coordinator"]["pid"]),
            **{
                f"node-{node_id}": _proc_running(pid)
                for node_id, pid in state["daemons"].items()
            },
        }
        try:
            service = self.client().status()
        except (StoreError, ConnectionError, OSError) as exc:
            service = {"error": str(exc)}
        return {"processes": procs, "service": service}

    def kill_daemon(self, node_id: int) -> int:
        """SIGKILL one daemon — the failure the service exists to survive."""
        state = self.load_state()
        try:
            pid = state["daemons"][str(node_id)]
        except KeyError:
            raise LauncherError(f"no daemon for node {node_id}") from None
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            raise LauncherError(f"daemon {node_id} (pid {pid}) already gone") from None
        return pid

    def down(self, *, timeout: float = 10.0) -> None:
        """Graceful shutdown (RPC), escalating to SIGKILL on stragglers."""
        state = self.load_state()
        try:
            self.client().shutdown_service()
        except (StoreError, ConnectionError, OSError, LauncherError):
            pass  # already half-dead; escalate below
        pids = [state["coordinator"]["pid"], *state["daemons"].values()]
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline and any(_proc_running(p) for p in pids):
            time.sleep(0.1)
        for pid in pids:
            if _proc_running(pid):
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
                try:
                    os.waitpid(pid, 0)
                except ChildProcessError:
                    pass
        self.state_file.unlink(missing_ok=True)
        self.coordinator_file.unlink(missing_ok=True)
