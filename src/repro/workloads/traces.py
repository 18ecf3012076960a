"""Failure traces: seeded operational timelines for store-level replay.

Generates the event sequence an operator would live through — node
failures arriving as a Poisson process over a cluster — so higher layers
(examples, soak tests) can replay months of operation deterministically
against a :class:`repro.multistripe.StripeStore` and verify nothing is ever lost
while accounting the repair work each incident triggers.
"""

from __future__ import annotations

import bisect
import random
from dataclasses import dataclass
from typing import Iterator

from ..cluster import Cluster

__all__ = [
    "FailureEvent",
    "RequestEvent",
    "poisson_node_failures",
    "zipf_object_trace",
    "zipf_weights",
    "DAY",
    "YEAR",
]

DAY = 24 * 3600.0
YEAR = 365.25 * DAY


@dataclass(frozen=True)
class FailureEvent:
    """One node failure at an absolute time (seconds since trace start)."""

    time: float
    node_id: int


def poisson_node_failures(
    cluster: Cluster,
    node_mtbf: float,
    horizon: float,
    seed: int = 0,
    allow_repeat: bool = True,
) -> Iterator[FailureEvent]:
    """Yield node failures over ``horizon`` seconds, time-ordered.

    Each node fails independently as a Poisson process with mean time
    between failures ``node_mtbf`` (a failed node is assumed repaired /
    replaced promptly, so with ``allow_repeat`` it can fail again later;
    without it each node fails at most once — useful for worst-case
    burn-in stories).

    The aggregate process is simulated directly: exponential interarrival
    at rate ``num_nodes / node_mtbf`` with a uniform victim draw — exact
    for the repeat-allowed model and a close, deterministic approximation
    otherwise.
    """
    if node_mtbf <= 0 or horizon <= 0:
        raise ValueError("node_mtbf and horizon must be positive")
    rng = random.Random(seed)
    nodes = cluster.node_ids()
    failed_once: set[int] = set()
    time = 0.0
    while True:
        active = len(nodes) if allow_repeat else len(nodes) - len(failed_once)
        if active == 0:
            return
        time += rng.expovariate(active / node_mtbf)
        if time > horizon:
            return
        if allow_repeat:
            victim = rng.choice(nodes)
        else:
            victim = rng.choice([n for n in nodes if n not in failed_once])
            failed_once.add(victim)
        yield FailureEvent(time=time, node_id=victim)


@dataclass(frozen=True)
class RequestEvent:
    """One foreground user request in a replayed trace.

    Attributes
    ----------
    time:
        Arrival time in seconds since trace start (open-loop schedule;
        closed-loop replay uses only the order).
    op:
        ``"get"`` or ``"put"``.
    obj:
        Object name the request targets.  GETs always name an object
        from the preloaded working set; PUTs name fresh versioned
        objects so replays never collide with the store's
        no-overwrite rule.
    """

    time: float
    op: str
    obj: str


def zipf_weights(count: int, s: float) -> list[float]:
    """Normalised Zipf(s) popularity over ranks ``0..count-1``.

    ``s = 0`` is uniform; web/storage object popularity is typically
    ``s ≈ 0.9–1.1`` (a small hot set takes most of the traffic).
    """
    if count < 1:
        raise ValueError("count must be positive")
    if s < 0:
        raise ValueError(f"zipf exponent must be non-negative, got {s}")
    raw = [1.0 / (rank + 1) ** s for rank in range(count)]
    total = sum(raw)
    return [w / total for w in raw]


def zipf_object_trace(
    num_objects: int,
    num_requests: int,
    *,
    rate: float = 100.0,
    zipf_s: float = 1.0,
    get_fraction: float = 0.9,
    seed: int = 0,
    name_prefix: str = "obj",
) -> list[RequestEvent]:
    """A seeded hot/cold GET/PUT trace over a preloaded object set.

    Arrivals are Poisson at ``rate`` requests/second (the open-loop
    schedule; closed-loop replay ignores the times).  Each request is a
    GET with probability ``get_fraction``, targeting an object drawn
    from a Zipf(``zipf_s``) popularity over the ``num_objects``
    preloaded names ``<prefix>-<rank>`` — rank 0 is the hottest.  PUTs
    write fresh ``<prefix>-put-<i>`` names.

    Deterministic for a given argument tuple; the driver
    (:mod:`repro.qos`) preloads the working set and replays the
    list against a live store.
    """
    if num_requests < 0:
        raise ValueError("num_requests must be non-negative")
    if rate <= 0:
        raise ValueError(f"rate must be positive, got {rate}")
    if not 0.0 <= get_fraction <= 1.0:
        raise ValueError(f"get_fraction must be in [0, 1], got {get_fraction}")
    rng = random.Random(seed)
    weights = zipf_weights(num_objects, zipf_s)
    cdf: list[float] = []
    acc = 0.0
    for w in weights:
        acc += w
        cdf.append(acc)
    events: list[RequestEvent] = []
    time = 0.0
    puts = 0
    for _ in range(num_requests):
        time += rng.expovariate(rate)
        if rng.random() < get_fraction:
            u = rng.random()
            rank = bisect.bisect_left(cdf, u)
            rank = min(rank, num_objects - 1)
            events.append(
                RequestEvent(time=time, op="get", obj=f"{name_prefix}-{rank}")
            )
        else:
            events.append(
                RequestEvent(time=time, op="put", obj=f"{name_prefix}-put-{puts}")
            )
            puts += 1
    return events
