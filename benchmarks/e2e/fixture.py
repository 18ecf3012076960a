"""The benchmark's cluster: 12 daemons + coordinator + one client, in-process.

``repro.qos.driver.LocalService`` would do, except that it always hands
daemons and coordinator a live in-memory ``TelemetryRecorder``; the
end-to-end numbers must be measured with telemetry *off*.  This fixture
builds the same thing from the public ``Coordinator`` / ``StorageDaemon``
/ ``StoreClient`` and passes ``NULL_RECORDER`` everywhere for untraced
runs, in-memory recorders for traced ones.

One process, one event loop, loopback TCP: every RPC crosses a real
socket, but client, coordinator and daemons share one core's worth of
interpreter, so a latency here is the *sum* of what every party does.
"""

from __future__ import annotations

import asyncio

from repro.cluster import Cluster
from repro.rs import get_code
from repro.store import Coordinator, StorageDaemon, StoreClient
from repro.telemetry import CLOCK_WALL, NULL_RECORDER, TelemetryRecorder

RACKS, PER_RACK = 3, 4
N, K = 6, 3
SCHEME = "rpr"
HOST = "127.0.0.1"

#: Far beyond any run: the coordinator's own sweep loop never fires, the
#: benchmark calls ``detector.sweep()`` itself where a death must be known.
NEVER = 1e9


class Cluster12:
    """3 racks x 4 daemons, RS(6,3), scheme ``rpr``, over loopback TCP."""

    def __init__(
        self,
        block_size: int,
        *,
        heartbeat: float = 0.5,
        suspect_after: float = 30.0,
        sweep_interval: float = 0.25,
        traced: bool = False,
    ) -> None:
        self.cluster = Cluster.homogeneous(RACKS, PER_RACK)
        self.code = get_code(N, K)
        self.heartbeat = heartbeat
        self.traced = traced
        #: (component, recorder) of every party ever started; empty when
        #: untraced.  A replaced daemon's recorder stays listed.
        self.recorders: list[tuple[str, TelemetryRecorder]] = []
        self.coordinator = Coordinator(
            self.cluster,
            self.code,
            scheme=SCHEME,
            block_size=block_size,
            host=HOST,
            suspect_after=suspect_after,
            sweep_interval=sweep_interval,
            recorder=self._recorder("coordinator"),
        )
        self.daemons: dict[int, StorageDaemon] = {}
        self.client: StoreClient | None = None
        self.port: int | None = None

    def _recorder(self, component: str) -> TelemetryRecorder:
        if not self.traced:
            return NULL_RECORDER
        # No set_origin: spans keep raw time.monotonic() stamps, the same
        # base the benchmark's own shims use, so they merge without shifts.
        rec = TelemetryRecorder(CLOCK_WALL, meta={"component": component})
        self.recorders.append((component, rec))
        return rec

    async def start(self) -> None:
        self.port = await self.coordinator.start()
        for node_id in self.cluster.node_ids():
            await self.start_daemon(node_id)
        self.client = StoreClient(HOST, self.port, recorder=self._recorder("client"))

    async def start_daemon(self, node_id: int) -> None:
        """Start a fresh, empty daemon and wait until the coordinator sees it."""
        daemon = StorageDaemon(
            node_id,
            (HOST, self.port),
            host=HOST,
            heartbeat_interval=self.heartbeat,
            recorder=self._recorder(f"daemon-{node_id}"),
        )
        await daemon.start()
        self.daemons[node_id] = daemon
        deadline = asyncio.get_running_loop().time() + 10.0
        while True:
            entry = self.coordinator.detector.entry(node_id)
            if entry is not None and entry.alive and entry.port == daemon.port:
                return
            if asyncio.get_running_loop().time() > deadline:
                raise RuntimeError(f"daemon {node_id} never registered")
            await asyncio.sleep(0.002)

    async def kill(self, node_id: int) -> None:
        """In-process SIGKILL: the daemon stops serving and stops beating."""
        await self.daemons.pop(node_id).aclose()

    async def stop(self) -> None:
        for daemon in self.daemons.values():
            await daemon.aclose()
        self.daemons.clear()
        await self.coordinator.aclose()
