"""Token-bucket link shaping — the wondershaper stand-in.

The paper's testbed throttled links with wondershaper (§5.1); here one
:class:`TokenBucket` paces every shaped byte.  The live runtime gives
every directed node pair a one-class bucket fed at the scenario's
:meth:`repro.cluster.BandwidthModel.rate` (:class:`LinkShaper`), charged
one chunk at a time by the sender; a store daemon gives its NIC one
bucket split between ``foreground`` and ``repair`` classes
(docs/QOS.md).  Pacing is *debt-based*: a send deducts its bytes
immediately and sleeps off any deficit once, so long-run throughput
converges to the configured rate regardless of sleep jitter —
oversleeping one chunk accrues tokens for the next (bounded by
``capacity``), which is what keeps shaped transfers within a few percent
of ``nbytes / rate`` even on a noisy CI host.

The bucket reads time from the running event loop (``loop.time()``) and
waits with ``asyncio.sleep``: on a real loop that is the monotonic
clock, and ``tests/live/test_shaper.py`` checks the accounting exactly
on a virtual-time loop.
"""

from __future__ import annotations

import asyncio

from ..cluster import BandwidthModel, Cluster

__all__ = [
    "TokenBucket",
    "LinkShaper",
]

#: Default burst window in seconds: the bucket holds at most this much
#: rate-worth of credit, so a transfer can never run ahead of the shaped
#: rate by more than ``DEFAULT_BURST_S * rate`` bytes.
DEFAULT_BURST_S = 0.02


class TokenBucket:
    """Debt-based token bucket for one link, optionally split by class.

    Without ``weights`` the bucket has one class and every sender draws
    on one budget.  With ``weights`` every class owns a guaranteed share
    ``rate * weight / sum(weights)`` of the link, refilled continuously.
    The split is *work-conserving* through borrowing: credit accrued to
    a class with no outstanding debt (nobody of that class is waiting)
    is donated to classes in debt, so a lone sender always sees the full
    link rate while competing classes converge to their weight ratio.
    Pacing waits serialise only *within* a class (one lock per class): a
    foreground send never queues behind a repair send's pacing sleep.

    Parameters
    ----------
    rate:
        Bytes/second the link may carry.
    capacity:
        Maximum accrued credit in bytes (the burst), split across the
        classes by share.  Defaults to ``rate * DEFAULT_BURST_S``,
        floored at one typical chunk so tiny rates still make progress.
    weights:
        ``{class: weight}`` for a classed bucket; ``None`` (the default)
        for one class.  Classed calls name their class
        (``acquire(nbytes, "repair")``).
    recorder / label:
        Optional :class:`repro.telemetry.TelemetryRecorder` the bucket
        reports pacing into (stall counts and durations, debt-at-stall
        gauge samples tagged with ``label``; a classed bucket adds a
        ``:{class}`` suffix to each name).  ``None`` — the default —
        keeps :meth:`acquire` on the exact uninstrumented instruction
        path; the perf harness bounds the residue.
    """

    def __init__(
        self,
        rate: float,
        capacity: float | None = None,
        *,
        weights: dict[str, float] | None = None,
        recorder=None,
        label: str = "",
    ) -> None:
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        if capacity is not None and capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        if weights is None:
            weights = {"": 1.0}
        if not weights:
            raise ValueError("need at least one traffic class")
        if any(w <= 0 for w in weights.values()):
            raise ValueError(f"weights must be positive, got {weights}")
        self.rate = float(rate)
        self.capacity = (
            float(capacity)
            if capacity is not None
            else max(self.rate * DEFAULT_BURST_S, 16 * 1024.0)
        )
        total = float(sum(weights.values()))
        self.shares: dict[str, float] = {cls: w / total for cls, w in weights.items()}
        self._caps = {
            cls: max(self.capacity * share, 1.0) for cls, share in self.shares.items()
        }
        # Start empty: the first transfer pays full fare from byte one,
        # matching the simulator's nbytes/rate accounting.  Credit only
        # accrues (up to the class's cap) while the link sits idle, and
        # as compensation for oversleeping a pacing wait.  Time is the
        # running loop's; a bucket built outside one starts at first use.
        self._tokens = {cls: 0.0 for cls in self.shares}
        try:
            self._last: float | None = asyncio.get_running_loop().time()
        except RuntimeError:
            self._last = None
        self._locks = {cls: asyncio.Lock() for cls in self.shares}
        self._recorder = recorder if recorder else None
        self.label = label
        #: Cumulative bytes successfully charged per class — the NIC
        #: utilization ledger the store's ``stats`` RPC reports from.
        #: Refunds (bytes that never reached the wire) are subtracted.
        self.sent = {cls: 0.0 for cls in self.shares}

    def _refill(self) -> None:
        now = asyncio.get_running_loop().time()
        elapsed = 0.0 if self._last is None else now - self._last
        if elapsed > 0:
            overflow = 0.0
            for cls, share in self.shares.items():
                cap = self._caps[cls]
                new = self._tokens[cls] + elapsed * self.rate * share
                if new > cap:
                    overflow += new - cap
                    new = cap
                self._tokens[cls] = new
            if overflow > 0:
                # Work conservation at refill time: credit an idle class
                # cannot hold (its accrual clipped at the burst cap) pays
                # down other classes' debt instead of evaporating.  Debt
                # only rises toward zero, never past it, so this mints no
                # burst — it just stops a lone sender's effective rate
                # from sagging below ``rate`` across long pacing stalls.
                for cls in self.shares:
                    bal = self._tokens[cls]
                    if bal < 0:
                        pay = min(overflow, -bal)
                        self._tokens[cls] = bal + pay
                        overflow -= pay
                        if overflow <= 0:
                            break
        self._last = now

    def _borrow(self, cls: str) -> None:
        """Pull idle classes' credit into ``cls``'s debt (work conservation).

        A class is *idle* when its balance is non-negative — no sender of
        that class is paying off debt — so its accrued tokens would
        otherwise sit unused while ``cls`` sleeps.
        """
        debt = -self._tokens[cls]
        if debt <= 0:
            return
        for donor in self.shares:
            if donor == cls:
                continue
            spare = self._tokens[donor]
            if spare <= 0:
                continue
            take = min(spare, debt)
            self._tokens[donor] -= take
            self._tokens[cls] += take
            debt -= take
            if debt <= 0:
                return

    def _idle_share(self, cls: str) -> float:
        """``cls``'s effective rate fraction: its share plus idle classes'."""
        share = self.shares[cls]
        for donor, donor_share in self.shares.items():
            if donor != cls and self._tokens[donor] >= 0:
                share += donor_share
        return share

    def reset(self) -> None:
        """Drop idle credit at the start of a transfer.

        Credit accrued while the link sat idle (e.g. the sender was
        waiting for ports) would let the next transfer start up to
        ``capacity`` bytes ahead of the shaped rate; a transfer begins
        from zero so its duration is ``nbytes / rate`` like the
        simulator's.  Debt still owed is kept — resets never forgive
        pacing — but time already slept pays it down first: the refill
        runs before the credit is dropped, so back-to-back transfers on
        one link do not pay the previous transfer's last chunk twice.
        """
        self._refill()
        for cls, tokens in self._tokens.items():
            self._tokens[cls] = min(tokens, 0.0)

    async def acquire(self, nbytes: int, cls: str = "") -> None:
        """Charge ``nbytes`` to class ``cls``, sleeping off any deficit.

        The deduction happens before the wait, so concurrent senders of
        one class serialise fairly behind its lock and the aggregate
        long-run throughput is exactly ``rate``.  A stall takes one
        sleep, sized at the class's current effective rate (its share
        plus the shares of idle classes); debt the sleep did not pay off
        is carried into the class's next ``acquire``.

        The charge is exception-safe: if the pacing sleep is cancelled
        (the sender's task died mid-transfer), the deduction is rolled
        back — those bytes never went out, and the bucket outlives the
        transfer, so a leaked charge would tax the link's *next*
        transfer.
        """
        if nbytes <= 0:
            return
        if cls not in self.shares:
            raise KeyError(f"unknown traffic class {cls!r}; have {sorted(self.shares)}")
        async with self._locks[cls]:
            self._refill()
            self._tokens[cls] -= nbytes
            self._borrow(cls)
            debt = -self._tokens[cls]
            if debt > 0:
                wait = debt / (self.rate * self._idle_share(cls))
                rec = self._recorder
                if rec is not None:
                    tag = f":{cls}" if cls else ""
                    rec.count(f"pacing.stalls{tag}")
                    rec.observe(f"pacing.stall_s{tag}", wait)
                    rec.gauge(f"bucket.debt_bytes{tag}:{self.label}", debt)
                try:
                    await asyncio.sleep(wait)
                except BaseException:
                    self._tokens[cls] = min(self._tokens[cls] + nbytes, self._caps[cls])
                    raise
            self.sent[cls] += nbytes

    def refund(self, nbytes: int, cls: str = "") -> None:
        """Return ``nbytes`` of ``cls`` charge that never reached the wire.

        Called by :func:`repro.live.wire.send_frame` when a chunk's
        write raises after its tokens were acquired.  Capped at the
        class's share of ``capacity`` like any other credit, so a refund
        can never mint a burst larger than the configured one.
        """
        if nbytes <= 0:
            return
        self._tokens[cls] = min(self._tokens[cls] + nbytes, self._caps[cls])
        self.sent[cls] = max(0.0, self.sent[cls] - nbytes)


class LinkShaper:
    """Per-link pacing for a cluster under a bandwidth model.

    Buckets are created lazily per directed ``(src, dst)`` pair at the
    model's rate for that pair; :meth:`latency` exposes the model's
    per-transfer setup delay so the runtime can apply it before the
    first byte (the wondershaper analogue of propagation delay).  A
    ``None`` bandwidth model turns shaping off entirely — transfers run
    at memory/loopback speed, which is the mode the byte-oracle
    equivalence tests use.
    """

    def __init__(
        self,
        cluster: Cluster,
        bandwidth: BandwidthModel | None,
        *,
        recorder=None,
    ) -> None:
        self.cluster = cluster
        self.bandwidth = bandwidth
        self._recorder = recorder if recorder else None
        self._buckets: dict[tuple[int, int], TokenBucket] = {}

    @property
    def shaped(self) -> bool:
        return self.bandwidth is not None

    def bucket(self, src: int, dst: int) -> TokenBucket | None:
        """The pacing bucket for ``src -> dst`` (``None`` when unshaped)."""
        if self.bandwidth is None:
            return None
        key = (src, dst)
        found = self._buckets.get(key)
        if found is None:
            rate = self.bandwidth.rate(self.cluster, src, dst)
            found = self._buckets[key] = TokenBucket(
                rate,
                capacity=max(rate * DEFAULT_BURST_S, 1.0),
                recorder=self._recorder,
                label=f"n{src}->n{dst}",
            )
        return found

    def latency(self, src: int, dst: int) -> float:
        if self.bandwidth is None:
            return 0.0
        return self.bandwidth.latency(self.cluster, src, dst)
