"""Deterministic fault injection for the discrete-event engine.

The paper's evaluation assumes every helper survives the whole repair.
Real clusters do not cooperate: helpers die mid-gather, slow nodes drag
a pipelined round, and transfers are lost to flaky links.  This module
describes such faults as *data* — a :class:`FaultPlan` — so the engine
can apply them deterministically:

* :class:`NodeDeath` — at simulation time ``t`` a node drops dead.  Jobs
  running on the node (either transfer endpoint, or the CPU) are aborted
  at ``t``; jobs that would start on it afterwards fail instead of
  starting, and everything depending on a failed job is skipped.
* :class:`Straggler` — a node's ports and CPU run ``factor``-times slower
  for the whole run (a degraded disk/NIC).  Transfers touching the node
  stretch by the worse endpoint's factor.
* :class:`TransferLoss` — the first ``attempts`` tries of one named
  transfer complete on the wire but deliver nothing (checksum failure /
  dropped stream); the engine immediately requeues the transfer, so the
  retry contends for ports again and the lost bytes are accounted as
  retried work.  A seeded ``loss_probability`` draws further losses
  deterministically per ``(seed, job, attempt)`` — independent of
  scheduling order, so the same plan always loses the same transfers.

Determinism contract: the same :class:`FaultPlan` against the same job
graph produces a bit-identical schedule (golden-pinned in
``tests/sim/test_faults_golden.py``), and a plan whose faults never fire
reproduces the fault-free schedule exactly.

The engine reports what happened in a :class:`FaultReport` attached to
its :class:`~repro.sim.engine.SimResult`; the degraded-repair layer
(:mod:`repro.repair.faults`) consumes it to re-plan around the damage.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field, replace

__all__ = [
    "FaultPlan",
    "FaultReport",
    "NodeDeath",
    "Straggler",
    "TransferLoss",
    "random_fault_plan",
]


@dataclass(frozen=True)
class NodeDeath:
    """Node ``node`` fails permanently at simulation time ``time``."""

    node: int
    time: float

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ValueError(f"death time must be >= 0, got {self.time}")


@dataclass(frozen=True)
class Straggler:
    """Node ``node`` runs ``factor`` times slower than healthy peers."""

    node: int
    factor: float

    def __post_init__(self) -> None:
        if self.factor <= 0:
            raise ValueError(f"straggler factor must be > 0, got {self.factor}")


@dataclass(frozen=True)
class TransferLoss:
    """The first ``attempts`` tries of transfer ``job_id`` are lost."""

    job_id: str
    attempts: int = 1

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise ValueError(f"attempts must be >= 1, got {self.attempts}")


def _hash_fraction(seed: int, job_id: str, attempt: int) -> float:
    """Deterministic uniform draw in [0, 1) for one transfer attempt.

    Hash-based (not stream-based) so the draw depends only on the
    (seed, job, attempt) identity, never on scheduling order.
    """
    digest = hashlib.blake2b(
        f"{seed}:{job_id}:{attempt}".encode(), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big") / 2**64


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic set of faults to inject into one simulation run.

    An empty plan (the default) is falsy and leaves the engine on its
    fault-free fast path, bit-for-bit.

    Attributes
    ----------
    deaths / stragglers / losses:
        Explicit fault events (see the event classes above).
    loss_probability:
        Per-attempt probability that any transfer is lost, drawn
        deterministically from ``seed`` and the job id.  At most
        ``max_random_losses`` consecutive random losses hit one job, so
        retries always terminate.
    seed:
        Seed for the probabilistic loss draws.
    """

    deaths: tuple[NodeDeath, ...] = ()
    stragglers: tuple[Straggler, ...] = ()
    losses: tuple[TransferLoss, ...] = ()
    loss_probability: float = 0.0
    seed: int = 0
    max_random_losses: int = 2

    def __post_init__(self) -> None:
        if not 0.0 <= self.loss_probability < 1.0:
            raise ValueError(
                f"loss_probability must be in [0, 1), got {self.loss_probability}"
            )
        if self.max_random_losses < 0:
            raise ValueError("max_random_losses must be >= 0")

    def __bool__(self) -> bool:
        return bool(
            self.deaths or self.stragglers or self.losses or self.loss_probability
        )

    # -- queries the engine makes ---------------------------------------

    def death_times(self) -> dict[int, float]:
        """Earliest death time per node."""
        times: dict[int, float] = {}
        for death in self.deaths:
            if death.node not in times or death.time < times[death.node]:
                times[death.node] = death.time
        return times

    def straggler_factor(self, node: int) -> float:
        """Combined slowdown of one node (product of its entries)."""
        factor = 1.0
        for straggler in self.stragglers:
            if straggler.node == node:
                factor *= straggler.factor
        return factor

    def is_lost(self, job_id: str, attempt: int) -> bool:
        """Whether attempt number ``attempt`` (0-based) of a transfer is lost."""
        for loss in self.losses:
            if loss.job_id == job_id:
                return attempt < loss.attempts
        if self.loss_probability and attempt < self.max_random_losses:
            return _hash_fraction(self.seed, job_id, attempt) < self.loss_probability
        return False

    # -- re-planning support --------------------------------------------

    def shifted(self, offset: float) -> "FaultPlan":
        """The plan as seen by a run starting ``offset`` seconds later.

        Deaths in the past clamp to time 0 (the node is dead from the
        start — a safety net for re-planned runs, which should never
        schedule work there anyway).  Stragglers and losses are
        time-free and carry over unchanged.
        """
        if offset == 0.0:
            return self
        return replace(
            self,
            deaths=tuple(
                NodeDeath(node=d.node, time=max(0.0, d.time - offset))
                for d in self.deaths
            ),
        )


def random_fault_plan(
    nodes,
    seed: int = 0,
    deaths: int = 1,
    death_window: tuple[float, float] = (0.0, 60.0),
    stragglers: int = 0,
    straggler_range: tuple[float, float] = (2.0, 4.0),
    loss_probability: float = 0.0,
) -> FaultPlan:
    """Draw a seeded :class:`FaultPlan` over ``nodes``.

    ``deaths`` nodes die at uniform times in ``death_window``;
    ``stragglers`` further nodes slow by a uniform factor in
    ``straggler_range``.  The same seed always yields the same plan.
    """
    pool = sorted(nodes)
    if deaths + stragglers > len(pool):
        raise ValueError(
            f"cannot pick {deaths} deaths + {stragglers} stragglers "
            f"from {len(pool)} nodes"
        )
    rng = random.Random(seed)
    picked = rng.sample(pool, deaths + stragglers)
    return FaultPlan(
        deaths=tuple(
            NodeDeath(node=node, time=rng.uniform(*death_window))
            for node in picked[:deaths]
        ),
        stragglers=tuple(
            Straggler(node=node, factor=rng.uniform(*straggler_range))
            for node in picked[deaths:]
        ),
        loss_probability=loss_probability,
        seed=seed,
    )


@dataclass
class FaultReport:
    """What the injected faults did to one run.

    Attributes
    ----------
    dead_nodes:
        Node id → simulation time it died (only deaths that occurred
        within the run's horizon).
    aborted:
        Job id → abort time, for jobs killed mid-flight by a node death.
        Their :class:`~repro.sim.engine.JobTiming` ends at the abort.
    failed:
        Job id → time the engine refused to start it (an endpoint was
        already dead).
    skipped:
        Jobs never attempted because a dependency aborted or failed.
    lost:
        Transfer job id → number of lost attempts that were retried.
    retried_bytes:
        Bytes carried by lost attempts (wire work that delivered nothing).
    aborted_bytes:
        Pro-rata bytes of transfers aborted mid-flight.
    """

    dead_nodes: dict[int, float] = field(default_factory=dict)
    aborted: dict[str, float] = field(default_factory=dict)
    failed: dict[str, float] = field(default_factory=dict)
    skipped: tuple[str, ...] = ()
    lost: dict[str, int] = field(default_factory=dict)
    retried_bytes: float = 0.0
    aborted_bytes: float = 0.0

    @property
    def incomplete(self) -> set[str]:
        """Jobs that did not run to completion."""
        return set(self.aborted) | set(self.failed) | set(self.skipped)

    @property
    def complete(self) -> bool:
        """True when every job of the graph finished despite the faults."""
        return not (self.aborted or self.failed or self.skipped)

    @property
    def retry_count(self) -> int:
        return sum(self.lost.values())
