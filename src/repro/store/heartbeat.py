"""Node liveness: daemon-side heartbeats, coordinator-side detection.

A daemon announces itself by heartbeating — the first beat *is* the
registration, carrying the ephemeral port the daemon actually bound
(never a configured guess; see the transport layer's port-registry
rationale).  The coordinator's :class:`FailureDetector` keeps one entry
per node.  Silence is the evidence it takes by itself: a node whose last
beat is older than ``suspect_after`` is dead.  The coordinator adds
evidence of its own before that.  A node is a *suspect* when it has been
silent past :data:`PROBE_AFTER` of ``suspect_after``, or when it *hung
up*: the coordinator holds one idle connection to each daemon's port,
and a daemon's server drops it only when the process dies (the kernel
closes a SIGKILLed process's sockets at once).  The coordinator pings a
suspect once.  A refused connection is a dead daemon on a live host,
dead at once; an answer is as good as a beat; a probe that times out
proves nothing, and ``suspect_after`` stays the bound for a silent,
unreachable node (a dead host sends no hangup).

Both halves read time from the running event loop (``loop.time()``,
``asyncio.sleep``) and nothing else, so on a real loop they run on the
monotonic clock and a test runs them in virtual time.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Callable

from .messages import call

__all__ = [
    "HeartbeatSender", "FailureDetector", "NodeEntry", "DEFAULT_INTERVAL", "PROBE_AFTER",
]

#: Default seconds between beats; the detector's default suspicion
#: threshold is a few multiples of this.
DEFAULT_INTERVAL = 0.5

#: Silence, as a share of ``suspect_after``, that makes a node a suspect
#: worth a ping; also the longest a ping waits for its answer.  At the
#: default timing (2.0 s, beats every 0.5 s) a third is more than one
#: beat interval, so a node whose beat is merely late is not pinged.
PROBE_AFTER = 1 / 3


class HeartbeatSender:
    """Daemon side: beat the coordinator every ``interval`` seconds.

    A failed beat (coordinator restarting, transient refusals beyond the
    connect backoff) is *not* fatal — the daemon keeps serving and
    retries at the next tick; the cost of a dropped beat is bounded by
    the detector's ``suspect_after`` slack.
    """

    def __init__(
        self,
        node_id: int,
        coordinator: tuple[str, int],
        *,
        port: int,
        host: str = "127.0.0.1",
        interval: float = DEFAULT_INTERVAL,
        rpc=call,
    ) -> None:
        self.node_id = node_id
        self.coordinator = coordinator
        self.host = host
        self.port = port
        self.interval = interval
        self.beats_sent = 0
        self.beats_failed = 0
        self._rpc = rpc

    async def beat_once(self, extra: dict | None = None) -> bool:
        """One beat; returns True when the coordinator acknowledged."""
        body = {"node_id": self.node_id, "host": self.host, "port": self.port}
        if extra:
            body.update(extra)
        try:
            await self._rpc(
                self.coordinator[0],
                self.coordinator[1],
                "heartbeat",
                body,
                timeout=max(self.interval * 4, 2.0),
                attempts=2,
            )
        except (ConnectionError, OSError, asyncio.TimeoutError):
            self.beats_failed += 1
            return False
        self.beats_sent += 1
        return True

    async def run(self, extra: Callable[[], dict] | None = None) -> None:
        """Beat forever (cancel the task to stop)."""
        while True:
            await self.beat_once(extra() if extra else None)
            await asyncio.sleep(self.interval)


@dataclass
class NodeEntry:
    """What the coordinator knows about one storage node."""

    node_id: int
    host: str
    port: int
    last_beat: float
    alive: bool = True
    #: The coordinator's watch connection to this node dropped since its
    #: last sign of life: a suspect until a probe or a beat settles it.
    hung_up: bool = False
    beats: int = 0
    meta: dict = field(default_factory=dict)

    @property
    def addr(self) -> tuple[str, int]:
        return (self.host, self.port)


class FailureDetector:
    """Coordinator side: registry of nodes and their last heartbeat.

    ``suspect_after`` is the silence threshold: :meth:`sweep` returns
    the nodes that just crossed it (newly dead) so the caller can kick
    off repair exactly once per death.  :meth:`suspects` names the nodes
    silent past :data:`PROBE_AFTER` of it or reported by
    :meth:`hangup`, for the caller to probe; :meth:`answered` and
    :meth:`refused` record what the probe found.  A hangup alone never
    kills: only silence, or a refusal the caller saw, does.
    A node that beats again after being declared dead is *revived* as
    empty capacity — its in-memory payloads died with the old process,
    and any blocks it held have been (or are being) rebuilt elsewhere.
    """

    def __init__(self, *, suspect_after: float) -> None:
        if suspect_after <= 0:
            raise ValueError(f"suspect_after must be positive, got {suspect_after}")
        self.suspect_after = suspect_after
        self.nodes: dict[int, NodeEntry] = {}

    def beat(self, node_id: int, host: str, port: int, meta: dict | None = None) -> NodeEntry:
        """Record one heartbeat; returns the (possibly new) entry."""
        now = asyncio.get_running_loop().time()
        entry = self.nodes.get(node_id)
        if entry is None:
            entry = self.nodes[node_id] = NodeEntry(
                node_id=node_id, host=host, port=port, last_beat=now
            )
        entry.host = host
        entry.port = port
        entry.last_beat = now
        entry.alive = True
        entry.hung_up = False
        entry.beats += 1
        if meta:
            entry.meta.update(meta)
        return entry

    def sweep(self) -> list[NodeEntry]:
        """Mark overdue nodes dead; returns only the *newly* dead ones."""
        now = asyncio.get_running_loop().time()
        newly_dead = []
        for entry in self.nodes.values():
            if entry.alive and now - entry.last_beat > self.suspect_after:
                entry.alive = False
                newly_dead.append(entry)
        return newly_dead

    def suspects(self) -> list[NodeEntry]:
        """Live nodes that hung up or are silent past :data:`PROBE_AFTER`
        of ``suspect_after``."""
        since = asyncio.get_running_loop().time() - PROBE_AFTER * self.suspect_after
        return [e for e in self.nodes.values()
                if e.alive and (e.hung_up or e.last_beat < since)]

    def hangup(self, node_id: int) -> None:
        """The node's watched connection dropped: a suspect, still alive."""
        self.nodes[node_id].hung_up = True

    def answered(self, node_id: int) -> None:
        """A probe's answer: evidence of life, as fresh as a beat."""
        entry = self.nodes[node_id]
        entry.last_beat = asyncio.get_running_loop().time()
        entry.hung_up = False

    def refused(self, node_id: int) -> None:
        """A probe's refused connection: the process is gone, dead now."""
        self.nodes[node_id].alive = False

    def alive_ids(self) -> set[int]:
        return {nid for nid, e in self.nodes.items() if e.alive}

    def dead_ids(self) -> set[int]:
        return {nid for nid, e in self.nodes.items() if not e.alive}

    def entry(self, node_id: int) -> NodeEntry | None:
        return self.nodes.get(node_id)

    def to_dict(self) -> dict:
        now = asyncio.get_running_loop().time()
        return {
            str(nid): {
                "host": e.host,
                "port": e.port,
                "alive": e.alive,
                "beat_age_s": now - e.last_beat,
                "beats": e.beats,
                **({"meta": e.meta} if e.meta else {}),
            }
            for nid, e in sorted(self.nodes.items())
        }
