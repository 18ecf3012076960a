"""One in-process store cluster: coordinator, a daemon per node, a client.

The parties ``rpr store up`` runs as subprocesses, here as tasks on one
event loop over real loopback TCP, so a test, a replay or a bench can
bring a cluster up, kill nodes, and tear it down in milliseconds.
"""

from __future__ import annotations

import asyncio

from ..cluster import Cluster
from ..rs import get_code
from .client import StoreClient
from .coordinator import Coordinator
from .daemon import StorageDaemon

__all__ = ["LocalService"]


class LocalService:
    """``async with`` one in-process cluster; ``link_rate`` /
    ``repair_share`` switch on the daemons' QoS NIC split."""

    def __init__(
        self,
        *,
        racks: int = 3,
        per_rack: int = 2,
        n: int = 3,
        k: int = 2,
        scheme: str = "rpr",
        block_size: int = 16 * 1024,
        suspect_after: float = 0.8,
        sweep_interval: float = 0.1,
        heartbeat: float = 0.15,
        link_rate: float | None = None,
        repair_share: float = 0.5,
    ) -> None:
        self.cluster = Cluster.homogeneous(racks, per_rack)
        self.heartbeat = heartbeat
        self.link_rate = link_rate
        self.repair_share = repair_share
        self.coordinator = Coordinator(
            self.cluster,
            get_code(n, k),
            scheme=scheme,
            block_size=block_size,
            suspect_after=suspect_after,
            sweep_interval=sweep_interval,
        )
        self.daemons: dict[int, StorageDaemon] = {}
        self.client: StoreClient | None = None

    async def __aenter__(self) -> "LocalService":
        port = await self.coordinator.start()
        for nid in self.cluster.node_ids():
            await self.start_daemon(nid)
        self.client = StoreClient("127.0.0.1", port)
        return self

    async def __aexit__(self, *exc) -> None:
        for daemon in self.daemons.values():
            await daemon.aclose()
        await self.coordinator.aclose()
        # The cluster's parties shared this loop's RPC connections; the
        # loop ends with the cluster, so close what is left idle.
        await self.client.aclose()

    async def start_daemon(self, node_id: int) -> StorageDaemon:
        """Start a fresh, empty daemon for ``node_id`` (at bring-up, or in
        place of a killed one) and wait until the coordinator's detector
        sees it alive on the new daemon's port."""
        daemon = StorageDaemon(
            node_id,
            ("127.0.0.1", self.coordinator.port),
            heartbeat_interval=self.heartbeat,
            link_rate=self.link_rate,
            repair_share=self.repair_share,
        )
        await daemon.start()
        self.daemons[node_id] = daemon
        deadline = asyncio.get_running_loop().time() + 10.0
        while True:
            entry = self.coordinator.detector.entry(node_id)
            if entry is not None and entry.alive and entry.port == daemon.port:
                return daemon
            if asyncio.get_running_loop().time() > deadline:
                raise RuntimeError(f"daemon {node_id} never registered")
            await asyncio.sleep(0.002)

    async def kill(self, node_id: int) -> None:
        """In-process SIGKILL: the daemon stops serving AND beating."""
        await self.daemons.pop(node_id).aclose()
