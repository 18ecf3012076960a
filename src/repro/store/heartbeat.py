"""Node liveness: daemon-side heartbeats, coordinator-side detection.

A daemon announces itself by heartbeating — the first beat *is* the
registration, carrying the ephemeral port the daemon actually bound
(never a configured guess; see the transport layer's port-registry
rationale).  The coordinator's :class:`FailureDetector` is the one judge
of liveness.  Silence past ``suspect_after`` is death.  Before that, a
node silent past :data:`PROBE_AFTER` of it, or one that *hung up* (the
detector's idle *watch* connection to its port dropped, which a
daemon's server does only when the process dies), is a suspect, pinged
once at the next sweep.  A refused connection is death at once; an
answer is as good as a beat, so a coordinator that was itself stalled
never declares death off stale beats; a probe that times out proves
nothing (a dead host sends no hangup).

Both halves read time from the running event loop (``loop.time()``,
``asyncio.sleep``) and nothing else, so on a real loop they run on the
monotonic clock and a test runs them in virtual time.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Callable

from ..live.transport import cancel_and_wait, connect_tcp
from ..telemetry import StatsRegistry, TelemetryRecorder
from .messages import StoreError, call

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

#: The ``stats`` counter of each kind of evidence a death is declared on.
DEATH_COUNTERS = {"refused": "deaths_refused", "silence": "deaths_silent"}


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
    #: The watch connection to this node dropped since its last sign of
    #: life: a suspect until a probe or a beat settles it.
    hung_up: bool = False
    beats: int = 0
    meta: dict = field(default_factory=dict)
    #: The last beat of the silence this node was probed in: one probe
    #: per silence, however many sweeps it lasts (a hangup earns one more).
    probed: float | None = None
    #: The task holding the watch connection to ``port``.
    watch: asyncio.Task | None = field(default=None, repr=False)

    @property
    def addr(self) -> tuple[str, int]:
        return (self.host, self.port)


class FailureDetector:
    """Coordinator side: registry of nodes, and every judgement of liveness.

    ``suspect_after`` is the silence threshold: :meth:`sweep` marks the
    nodes that just crossed it dead and returns them, nothing else.
    :meth:`suspects` names the nodes silent past :data:`PROBE_AFTER` of
    it or reported by :meth:`hangup`; :meth:`answered` and
    :meth:`refused` record what a probe found.  A hangup alone never
    kills.  :meth:`start` runs the watches, probes and sweeps.
    A node that beats again after being declared dead is *revived* as
    empty capacity — its in-memory payloads died with the old process,
    and any blocks it held have been (or are being) rebuilt elsewhere.
    """

    def __init__(self, *, suspect_after: float) -> None:
        if suspect_after <= 0:
            raise ValueError(f"suspect_after must be positive, got {suspect_after}")
        self.suspect_after = suspect_after
        self.nodes: dict[int, NodeEntry] = {}
        #: The sweep loop, while it runs; a beat opens watches only then.
        self._task: asyncio.Task | None = None

    def start(
        self,
        interval: float,
        on_dead: Callable[[list[int]], object],
        stats: StatsRegistry,
        rec: TelemetryRecorder,
    ) -> None:
        """Probe the suspects, then judge silence, every ``interval``
        seconds until :meth:`aclose`; meanwhile a beat opens a watch.

        Each death is a ``node.dead`` event on ``rec`` with its
        ``evidence`` (``refused`` / ``silence``) and ``after`` (what made
        it a suspect: ``hangup`` / ``silence``), then ``on_dead(ids)``;
        ``stats`` counts hangups, probes and deaths by evidence.
        """
        self._on_dead, self._stats, self._rec = on_dead, stats, rec
        for name in ("hangups", "probes_sent", *DEATH_COUNTERS.values()):
            stats.count(name, 0)
        self._task = asyncio.ensure_future(self._run(interval))

    async def aclose(self) -> None:
        """Stop the sweep loop and drop every watch."""
        task, self._task = self._task, None
        if task is None:
            return
        # cancel_and_wait, not cancel+await: a cancel that lands in a
        # ping's cleanup (the connection's close) can be absorbed there
        # and leave teardown parked forever.
        await cancel_and_wait(task)
        watches = [w for entry in self.nodes.values() if (w := self._unwatch(entry))]
        await asyncio.gather(*watches, return_exceptions=True)

    async def _run(self, interval: float) -> None:
        while True:
            await asyncio.sleep(interval)
            await self._probe_suspects()
            self._declare_dead(self.sweep(), "silence")

    def beat(self, node_id: int, host: str, port: int, meta: dict | None = None) -> NodeEntry:
        """Record one heartbeat; returns the (possibly new) entry.

        A watch on a port the node has left is cancelled: the old
        process's later hangup is not the new one's.
        """
        now = asyncio.get_running_loop().time()
        entry = self.nodes.get(node_id)
        if entry is None:
            entry = self.nodes[node_id] = NodeEntry(
                node_id=node_id, host=host, port=port, last_beat=now
            )
        elif entry.port != port:
            self._unwatch(entry)
        entry.host = host
        entry.port = port
        entry.last_beat = now
        entry.alive = True
        entry.hung_up = False
        entry.beats += 1
        if meta:
            entry.meta.update(meta)
        if self._task is not None and (entry.watch is None or entry.watch.done()):
            entry.watch = asyncio.ensure_future(self._hold_watch(entry, port))
        return entry

    def _unwatch(self, entry: NodeEntry) -> asyncio.Task | None:
        """Cancel ``entry``'s watch; returns its task, if it had one."""
        task, entry.watch = entry.watch, None
        if task is not None:
            task.cancel()
        return task

    async def _hold_watch(self, entry: NodeEntry, port: int) -> None:
        """Hold one connection to a daemon and send nothing on it.

        The daemon's server parks it like any idle connection and closes
        it only when the process dies, so its end, or a refused connect,
        is a hangup: the node becomes a suspect for the next sweep.
        """
        try:
            stream = await connect_tcp(entry.host, port, attempts=1)
        except ConnectionRefusedError:
            pass  # nothing listens there any more
        except OSError:
            return  # proves nothing
        else:
            try:
                await stream.read_exactly(1)  # the daemon never writes here
            except (asyncio.IncompleteReadError, OSError):
                pass
            finally:
                stream.abort()
        if entry.alive and entry.port == port:  # not dead already, nor an old port
            self.hangup(entry.node_id)
            self._stats.count("hangups")

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
        """The node's watched connection dropped: a suspect, still alive,
        due one more probe."""
        entry = self.nodes[node_id]
        entry.hung_up = True
        entry.probed = None

    def answered(self, node_id: int) -> None:
        """A probe's answer: evidence of life, as fresh as a beat."""
        entry = self.nodes[node_id]
        entry.last_beat = asyncio.get_running_loop().time()
        entry.hung_up = False

    def refused(self, node_id: int) -> None:
        """A probe's refused connection: the process is gone, dead now."""
        self.nodes[node_id].alive = False

    async def _probe_suspects(self) -> None:
        """Ping every suspect not yet probed in its silence or since its
        hangup, all at once.

        A refusal declares the node dead; an answer refreshes it before
        the sweep that follows judges silence.  A ping waits at most
        ``PROBE_AFTER * suspect_after``, and a node is probed once per
        silence, so a node that neither answers nor refuses is still
        declared dead within ``suspect_after`` plus one sweep.
        """
        suspects = [(e, e.last_beat) for e in self.suspects() if e.probed != e.last_beat]
        if not suspects:
            return
        for entry, beat in suspects:
            entry.probed = beat
        answers = await asyncio.gather(*(self._ping(entry) for entry, _ in suspects))
        refused = []
        for (entry, beat), answer in zip(suspects, answers):
            if not entry.alive or entry.last_beat != beat:
                continue  # beat (perhaps from a new port) while the ping was out
            if answer == "answered":
                self.answered(entry.node_id)
            elif answer == "refused":
                self.refused(entry.node_id)
                refused.append(entry)
        self._declare_dead(refused, "refused")

    async def _ping(self, entry: NodeEntry) -> str | None:
        """``"answered"``, ``"refused"``, or None when the ping proves nothing."""
        self._stats.count("probes_sent")
        try:
            async with asyncio.timeout(PROBE_AFTER * self.suspect_after):
                body, _ = await call(entry.host, entry.port, "ping", attempts=1)
        except ConnectionRefusedError:
            return "refused"
        except (StoreError, OSError, TimeoutError):
            return None
        return "answered" if body.get("node_id") == entry.node_id else None

    def _declare_dead(self, entries: list[NodeEntry], evidence: str) -> None:
        for entry in entries:
            self._rec.event(
                "node.dead", category="fault", node=entry.node_id, evidence=evidence,
                after="hangup" if entry.hung_up else "silence",
            )
            self._stats.count(DEATH_COUNTERS[evidence])
            self._unwatch(entry)
        self._on_dead([entry.node_id for entry in entries])

    def alive_ids(self) -> set[int]:
        return {nid for nid, e in self.nodes.items() if e.alive}

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
