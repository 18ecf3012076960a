"""Discrete-event execution of a job graph on a cluster.

The engine replaces the paper's Simics + wondershaper testbed.  Its
contract:

* **Dependencies** — a job may start only after all of its dependencies
  have finished.
* **Port exclusivity** — each node owns one upload port and one download
  port; a transfer holds the source's upload port and the destination's
  download port for its whole duration.  This is the mechanism behind
  every serialisation the paper discusses (the recovery node receiving
  ``n`` blocks one after another in §2.3; schedule 1's idle racks in
  Fig. 5).
* **CPU exclusivity** — each node runs one compute job at a time.
* **Greedy, non-preemptive, deterministic** — when a resource frees, the
  ready job with the smallest (ready-time, insertion-order) key starts.
  Planners that want a specific order encode it via dependencies.

Transfer durations are ``nbytes / rate(src, dst)`` with the rate supplied
by the bandwidth model; there is no flow sharing, matching the paper's
whole-transfer "timestep" accounting.

There is one scheduling loop.  Blocked jobs are parked per *resource
signature* (the full tuple of ports/CPU the job needs) and a completion
only reconsiders signatures containing a resource it actually freed —
never the whole pending set, and never a waiter whose other port is
still busy.  Wakeups are lazy: a freed resource promotes only its *best*
startable waiter into the candidate heap; when that candidate is
consumed without taking the resource (token-blocked, or failed on a dead
endpoint), the next-best is promoted in its place.  This is
schedule-equivalent to waking every waiter — candidates are still
consumed in global (ready-time, insertion-order) priority — but costs
O(cluster) per free event instead of O(queue depth); on merged
100k-stripe rebuild graphs, where thousands of transfers contend for the
same recovery-node port, that is the difference between minutes and
seconds.

Injected faults (:mod:`repro.sim.faults`) are hooks on that loop, not a
second loop: stragglers scale the job table before the run, due deaths
fire between completions and starts, a lost transfer is requeued where a
delivered one would release its dependents, and a candidate with a dead
endpoint fails where it would have started.  Each hook sits behind a
test that stays false until a fault can fire, so a fault-free run pays a
few boolean tests per job and faulted multi-stripe runs get the same
parking as fault-free ones.

Job ids are interned to dense ints for the whole run: the hot loops
compare ``(ready, seq)`` int/float pairs and index flat lists, never
hash or compare job-id strings; per-job durations, resource tuples and
rack relations are precomputed once per run with per-endpoint-pair
caching.  Golden tests in ``tests/sim/test_engine_golden.py`` and
``tests/sim/test_faults_golden.py`` pin the schedules bit-for-bit; see
``docs/PERFORMANCE.md`` for measurements.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from dataclasses import dataclass, field

from ..cluster import BandwidthModel, Cluster
from .events import EventKind, TraceEvent
from .faults import FaultPlan, FaultReport
from .jobs import ComputeJob, JobGraph, TransferJob

__all__ = ["JobTiming", "SimResult", "SimulationEngine"]

_START_KINDS = frozenset({EventKind.TRANSFER_START, EventKind.COMPUTE_START})
_ABORT_KIND = {
    EventKind.TRANSFER_END: EventKind.TRANSFER_ABORT,
    EventKind.COMPUTE_END: EventKind.COMPUTE_ABORT,
}


def _event_sort_key(e: TraceEvent) -> tuple[float, bool, str]:
    """Chronological order, ends before starts at one instant, id tie-break."""
    return (e.time, e.kind in _START_KINDS, e.job_id)


@dataclass(frozen=True, slots=True)
class JobTiming:
    """Start/end instants of one executed job."""

    job_id: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class SimResult:
    """Outcome of one simulation run.

    Attributes
    ----------
    makespan:
        Finish time of the last job (the paper's *total repair time*).
    timings:
        Per-job start/end times.
    events:
        Chronological trace of starts and finishes.
    jobs:
        The executed job graph's jobs, kept so the telemetry emitter
        (:mod:`repro.sim.emitter`) can record declared dependency edges
        for the critical-path walk.  Empty for hand-built results.
    faults:
        :class:`~repro.sim.faults.FaultReport` describing what injected
        faults did to this run; ``None`` for fault-free runs.
    """

    makespan: float
    timings: dict[str, JobTiming]
    events: list[TraceEvent] = field(default_factory=list)
    jobs: dict[str, TransferJob | ComputeJob] = field(default_factory=dict)
    faults: FaultReport | None = None

    def transfers(self) -> list[TraceEvent]:
        """All transfer-end events (one per completed transfer)."""
        return [e for e in self.events if e.kind == EventKind.TRANSFER_END]

    def cross_rack_bytes(self) -> float:
        """Total bytes moved through the aggregation switch."""
        return sum(e.nbytes for e in self.transfers() if e.cross_rack)

    def intra_rack_bytes(self) -> float:
        """Total bytes moved below TOR switches."""
        return sum(e.nbytes for e in self.transfers() if not e.cross_rack)


class SimulationEngine:
    """Event-driven executor binding a cluster to a bandwidth model.

    Parameters
    ----------
    cluster / bandwidth:
        Topology and link model.
    cross_capacity:
        Optional cap on *concurrent cluster-wide cross-rack transfers* —
        models a constrained aggregation switch.  The paper's model (and
        the default, ``None``) only limits per-node ports; the cap is a
        sensitivity knob: RPR's pipeline schedules several simultaneous
        cross-rack transfers, so a tight switch erodes exactly that
        parallelism.
    """

    def __init__(
        self,
        cluster: Cluster,
        bandwidth: BandwidthModel,
        cross_capacity: int | None = None,
    ) -> None:
        if cross_capacity is not None and cross_capacity < 1:
            raise ValueError("cross_capacity must be >= 1 (or None)")
        self.cluster = cluster
        self.bandwidth = bandwidth
        self.cross_capacity = cross_capacity

    # -- precomputation ----------------------------------------------------

    def _job_table(self, jobs: dict[str, TransferJob | ComputeJob]):
        """Precompute per-job facts, caching per-endpoint-pair lookups.

        Merged multi-stripe graphs reuse a handful of (src, dst) pairs
        across hundreds of transfers, so ``bandwidth.rate`` / ``latency``
        and ``cluster.same_rack`` are resolved once per pair instead of
        once per scheduling decision.  The lookups double as the fail-fast
        validation of unknown nodes / missing bandwidth entries.

        Returns ``(table, num_resources)`` where ``table[seq]`` — jobs
        interned to dense ints in insertion order — is ``(resource_ids,
        duration, cross, start_kind, end_kind, node, peer, nbytes)`` and
        resource ids are dense ints (ports and CPUs interned per run) so
        the scheduler's busy/waiter bookkeeping runs on flat lists
        instead of hashed strings or tuples.
        """
        pair_cache: dict[tuple[int, int], tuple[float, float, bool]] = {}
        resource_ids: dict[tuple[str, int], int] = {}

        def rid(key: tuple[str, int]) -> int:
            found = resource_ids.get(key)
            if found is None:
                found = resource_ids[key] = len(resource_ids)
            return found

        table: list[tuple] = []
        for job in jobs.values():
            if isinstance(job, TransferJob):
                pair = (job.src, job.dst)
                cached = pair_cache.get(pair)
                if cached is None:
                    cached = (
                        self.bandwidth.rate(self.cluster, job.src, job.dst),
                        self.bandwidth.latency(self.cluster, job.src, job.dst),
                        self.cluster.same_rack(job.src, job.dst),
                    )
                    pair_cache[pair] = cached
                rate, latency, same_rack = cached
                table.append(
                    (
                        (rid(("up", job.src)), rid(("down", job.dst))),
                        latency + job.nbytes / rate,
                        not same_rack,
                        EventKind.TRANSFER_START,
                        EventKind.TRANSFER_END,
                        job.src,
                        job.dst,
                        job.nbytes,
                    )
                )
            else:
                self.cluster.node(job.node)
                table.append(
                    (
                        (rid(("cpu", job.node)),),
                        job.seconds,
                        False,
                        EventKind.COMPUTE_START,
                        EventKind.COMPUTE_END,
                        job.node,
                        -1,
                        0.0,
                    )
                )
        return table, len(resource_ids)

    # -- execution ---------------------------------------------------------

    def run(self, graph: JobGraph, faults: FaultPlan | None = None) -> SimResult:
        """Execute ``graph`` to completion and return timings and trace.

        A truthy ``faults`` plan is injected deterministically (see
        :mod:`repro.sim.faults`) and a
        :class:`~repro.sim.faults.FaultReport` is attached to the result:

        * At one instant, completions are processed first, then node
          deaths, then job starts — a transfer finishing exactly when its
          endpoint dies still completes, while a job becoming ready at
          the death instant fails instead of starting.
        * A node death aborts every running job touching the dead node
          (its timing ends at the death and its resources free), fails
          every job that would afterwards start there *at the instant it
          would have started*, and transitively skips everything
          depending on an aborted or failed job.
        * A lost transfer occupies its ports for its full duration, then
          delivers nothing and is requeued immediately; its dependents
          wait for the successful attempt.
        * A straggler scales the durations of the job table up front.

        Faults are hooks on the one scheduling loop, each behind a test
        that is false until a fault can fire, so an empty (or ``None``)
        plan and a plan whose faults never fire (e.g. deaths beyond the
        makespan) both produce the fault-free schedule bit-for-bit.
        """
        graph.validate()
        jobs = graph.jobs
        report = FaultReport() if faults else None
        if not jobs:
            return SimResult(makespan=0.0, timings={}, events=[], faults=report)

        info, num_resources = self._job_table(jobs)
        if faults and faults.stragglers:
            # Fault hook: a job runs at the pace of its slowest endpoint.
            slow = faults.straggler_factor
            info = [
                (row[0], row[1] * max(slow(n) for n in row[5:7] if n >= 0), *row[2:])
                for row in info
            ]
        lossy = bool(faults and (faults.losses or faults.loss_probability))
        # Deaths still to fire, earliest first; ``dead`` stays empty (and
        # the per-candidate fault test false) until the first one does.
        pending_deaths = deque(
            sorted((t, n) for n, t in faults.death_times().items()) if faults else ()
        )
        dead: dict[int, float] = {}
        skipped: list[str] = []
        heappush, heappop, isclose = heapq.heappush, heapq.heappop, math.isclose

        # Jobs interned to dense seqs in insertion order: heap items are
        # (ready_time, seq) pairs — seq doubles as the insertion-order
        # tie-break — and every per-job fact is a flat-list index.
        jids = list(jobs)
        total = len(jids)
        seq_of = {jid: i for i, jid in enumerate(jids)}
        remaining = [0] * total
        dependents: list[list[int]] = [[] for _ in range(total)]
        for seq, job in enumerate(jobs.values()):
            deps = set(job.deps)
            remaining[seq] = len(deps)
            for dep in deps:
                dependents[seq_of[dep]].append(seq)
        # Jobs downstream of an aborted or failed job (never considered for
        # start: one of their dependencies never finishes).
        is_skipped = bytearray(total)

        busy = bytearray(num_resources)
        # Blocked jobs are parked in a heap per *resource signature* — the
        # full tuple of resource ids the job needs — rather than per single
        # blocking resource.  A signature's waiters are only looked at when
        # every resource in the signature is free, so a transfer stuck
        # behind a long-busy peer port is never re-examined (the per-single-
        # resource scheme bounced such jobs between the two port heaps at
        # every instant, which went quadratic on merged 100k-stripe graphs).
        # The number of distinct signatures touching a resource is bounded
        # by the cluster shape (one per peer node plus the local CPU), not
        # by queue depth, so each free event costs O(cluster), not O(jobs).
        groups: dict[tuple[int, ...], list[tuple[float, int]]] = {}
        # Resource id -> (waiter heap, signature) pairs for signatures
        # containing it (registered at first park; empty heaps are skipped,
        # never unregistered).  Heap references are stored directly so the
        # promote scan never touches the dict.
        res_groups: list[list[tuple[list, tuple[int, ...]]]] = [
            [] for _ in range(num_resources)
        ]
        # from_res[seq]: the resource whose free event promoted this
        # candidate (-1 if it became a candidate by dependency readiness).
        from_res = [-1] * total
        # Jobs blocked solely on the cross-rack switch token.
        token_waiters: list[tuple[float, int]] = []
        cross_inflight = 0
        cap = self.cross_capacity

        # Candidate heap: jobs to (re)consider at the current instant, in
        # deterministic (ready-time, insertion-order) priority.  A job's key
        # is fixed when its last dependency finishes (or its last attempt
        # was lost) and never changes, so the greedy tie-break matches the
        # original full-rescan scheduler.
        candidates: list[tuple[float, int]] = []
        for seq in range(total):
            if not remaining[seq]:
                heappush(candidates, (0.0, seq))

        def park(item: tuple[float, int], key: tuple[int, ...]) -> None:
            parked = groups.get(key)
            if parked is None:
                parked = [item]
                groups[key] = parked
                entry = (parked, key)
                for r in key:
                    res_groups[r].append(entry)
            else:
                heappush(parked, item)

        def promote(r: int) -> None:
            # Move the best *startable* waiter needing (just-freed) resource
            # r into the candidate heap: the minimum (ready, seq) among the
            # tops of r's signature heaps whose resources are all free.  At
            # most one candidate per free event is in flight: the next-best
            # is promoted only after this one is consumed without re-taking
            # r.  Waiters whose signature still has a busy resource stay
            # parked untouched — they could not have started, and the free
            # event of that busy resource will reconsider them.
            best_item = None
            best_heap = None
            for parked, key in res_groups[r]:
                if not parked:
                    continue
                top = parked[0]
                if best_item is not None and best_item <= top:
                    continue
                for x in key:
                    if busy[x]:
                        break
                else:
                    best_item = top
                    best_heap = parked
            if best_heap is not None:
                item = heappop(best_heap)
                from_res[item[1]] = r
                heappush(candidates, item)

        def skip_dependents(root: int) -> int:
            # Everything downstream of an aborted or failed job never runs.
            count = 0
            stack = list(dependents[root])
            while stack:
                child = stack.pop()
                if is_skipped[child]:
                    continue
                is_skipped[child] = 1
                skipped.append(jids[child])
                count += 1
                stack.extend(dependents[child])
            return count

        def trace(time: float, kind: str, seq: int) -> None:
            # Fault events only; starts and ends build theirs inline (a call
            # per event is measurable at 400k events).
            _, _, cross, _, _, node, peer, nbytes = info[seq]
            events.append(
                TraceEvent(
                    time=time,
                    kind=kind,
                    job_id=jids[seq],
                    node=node,
                    peer=peer,
                    cross_rack=cross,
                    nbytes=nbytes,
                )
            )

        running: list[tuple[float, int]] = []  # (end, seq)
        timings: dict[str, JobTiming] = {}
        events: list[TraceEvent] = []
        now = 0.0
        completed = 0  # finished + aborted + failed + skipped

        while True:
            # Fault hook: fire every death due at this instant — after the
            # completions that advanced the clock here, before any start.
            while pending_deaths and (
                pending_deaths[0][0] <= now
                or isclose(pending_deaths[0][0], now, rel_tol=0, abs_tol=1e-12)
            ):
                dtime, victim = pending_deaths.popleft()
                dead[victim] = report.dead_nodes[victim] = dtime
                now = max(now, dtime)
                events.append(
                    TraceEvent(
                        time=dtime,
                        kind=EventKind.NODE_DEATH,
                        job_id=f"fault:death:{victim}",
                        node=victim,
                    )
                )
                doomed = {
                    seq
                    for _, seq in running
                    if info[seq][5] == victim or info[seq][6] == victim
                }
                if not doomed:
                    continue
                running = [e for e in running if e[1] not in doomed]
                heapq.heapify(running)
                for seq in sorted(doomed):
                    res, duration, cross, _, end_kind, _, _, nbytes = info[seq]
                    for r in res:
                        busy[r] = 0
                        promote(r)
                    if cross and cap is not None:
                        cross_inflight -= 1
                        for item in token_waiters:
                            heappush(candidates, item)
                        token_waiters = []
                    jid = jids[seq]
                    start = timings[jid].start
                    timings[jid] = JobTiming(job_id=jid, start=start, end=dtime)
                    if nbytes and duration > 0:
                        report.aborted_bytes += nbytes * min(
                            1.0, (dtime - start) / duration
                        )
                    report.aborted[jid] = dtime
                    trace(dtime, _ABORT_KIND[end_kind], seq)
                    completed += 1 + skip_dependents(seq)

            # Start every candidate whose resources are free; park the rest
            # on the resource (or token) that blocks them.  Starting a job
            # frees nothing, so a single pass over the candidates suffices.
            while candidates:
                item = heappop(candidates)
                seq = item[1]
                src = from_res[seq]
                if src >= 0:
                    from_res[seq] = -1
                res, duration, cross, start_kind, end_kind, node, peer, nbytes = info[seq]
                needs_token = cross and cap is not None
                blocked = True
                if dead and (node in dead or peer in dead):
                    # Fault hook: an endpoint is dead, so the job fails at
                    # the instant it would have started.
                    report.failed[jids[seq]] = now
                    trace(now, _ABORT_KIND[end_kind], seq)
                    completed += 1 + skip_dependents(seq)
                else:
                    for r in res:
                        if busy[r]:
                            park(item, res)
                            break
                    else:
                        if needs_token and cross_inflight >= cap:
                            token_waiters.append(item)
                        else:
                            blocked = False
                if blocked:
                    # Consumed without starting: hand the resource that
                    # promoted it (if still free) to the next-best waiter.
                    if src >= 0 and not busy[src]:
                        promote(src)
                    continue
                # Starting takes every resource in res — src among them —
                # so the waiters left parked on src stay correctly parked.
                for r in res:
                    busy[r] = 1
                if needs_token:
                    cross_inflight += 1
                end = now + duration
                heappush(running, (end, seq))
                jid = jids[seq]
                timings[jid] = JobTiming(job_id=jid, start=now, end=end)
                events.append(TraceEvent(now, start_kind, jid, node, peer, cross, nbytes))

            if completed >= total:
                break
            if not running:
                raise RuntimeError(
                    "deadlock: jobs pending but nothing running "
                    "(resource conflict cycle?)"
                )
            end = running[0][0]
            if (
                pending_deaths
                and pending_deaths[0][0] < end
                and not isclose(pending_deaths[0][0], end, rel_tol=0, abs_tol=1e-12)
            ):
                # Fault hook: the next event is a death, strictly before
                # any completion.
                now = pending_deaths[0][0]
                continue
            # Advance to the next completion.
            batch = [heappop(running)[1]]
            # Complete everything ending at the same instant for determinism.
            while running and isclose(running[0][0], end, rel_tol=0, abs_tol=1e-12):
                batch.append(heappop(running)[1])
            now = end
            token_freed = False
            for done_seq in batch:
                res, _, cross, _, end_kind, node, peer, nbytes = info[done_seq]
                for r in res:
                    busy[r] = 0
                    promote(r)
                if cross and cap is not None:
                    cross_inflight -= 1
                    token_freed = True
                if lossy and end_kind == EventKind.TRANSFER_END:
                    # Fault hook: a lost attempt held its ports, delivers
                    # nothing and goes straight back to the candidates.
                    done_id = jids[done_seq]
                    attempt = report.lost.get(done_id, 0)
                    if faults.is_lost(done_id, attempt):
                        report.lost[done_id] = attempt + 1
                        report.retried_bytes += nbytes
                        trace(now, EventKind.TRANSFER_LOST, done_seq)
                        heappush(candidates, (now, done_seq))
                        continue
                events.append(
                    TraceEvent(now, end_kind, jids[done_seq], node, peer, cross, nbytes)
                )
                completed += 1
                for child in dependents[done_seq]:
                    left = remaining[child] - 1
                    remaining[child] = left
                    if not left:
                        heappush(candidates, (now, child))
            if token_freed and token_waiters:
                for item in token_waiters:
                    heappush(candidates, item)
                token_waiters = []

        if report is not None:
            report.skipped = tuple(skipped)
        events.sort(key=_event_sort_key)
        makespan = max((t.end for t in timings.values()), default=0.0)
        return SimResult(
            makespan=makespan,
            timings=timings,
            events=events,
            jobs=dict(jobs),
            faults=report,
        )
