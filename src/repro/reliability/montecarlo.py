"""Monte-Carlo stripe durability with scheme-measured repair times.

Complements the Markov model with a trajectory simulation that keeps the
full failure-set state (the Markov chain only counts failures; actual
repair time also depends on *which* blocks failed and where they live).

Each trial plays one stripe forward:

* every surviving block fails independently after Exp(lam) time;
* the moment a failure occurs, a repair of the *current failure set*
  starts (or restarts — an in-flight repair that gains another failure
  is re-planned for the larger set, a conservative model);
* the repair duration is the scheme's simulated total repair time for
  exactly that failure set on the configured testbed (cached per set);
* when repairs complete, all failed blocks return at once;
* the trial ends at the first instant ``k + 1`` blocks are down.

The mean over trials estimates MTTDL under the scheme — faster schemes
spend less time exposed and survive longer.

**Rare-event caveat.**  At production failure rates, data loss on a
k>=2 stripe is astronomically rare: a run-to-loss simulation would need
~MTTDL x failure-rate events per trial.  The simulator therefore bounds
each trial at ``max_events`` and raises if loss was not reached —
callers must pick an *accelerated* failure rate (comparable to
``1 / repair_time``) where trajectories terminate; the scheme *ordering*
is preserved under acceleration, and the analytic Markov model
(:func:`repro.reliability.mttdl`) covers realistic rates exactly.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from ..repair import RepairContext, RepairScheme, simulate_repair
from ..experiments.common import ExperimentEnv

__all__ = ["DurabilityResult", "simulate_stripe_lifetimes"]


@dataclass(frozen=True)
class DurabilityResult:
    """Monte-Carlo durability estimate."""

    mttdl_seconds: float
    trials: int
    min_lifetime: float
    max_lifetime: float
    repair_sets_evaluated: int


def simulate_stripe_lifetimes(
    env: ExperimentEnv,
    scheme: RepairScheme,
    lam: float,
    trials: int = 100,
    seed: int = 0,
    repair_time_scale: float = 1.0,
    max_events: int = 2_000_000,
    loss_predicate=None,
) -> DurabilityResult:
    """Estimate MTTDL of one stripe under ``scheme`` on ``env``.

    Parameters
    ----------
    lam:
        Per-block failure rate (1/seconds).  Must be *accelerated* — on
        the order of ``1 / repair_time`` — or trials will not terminate
        (see the module's rare-event caveat).
    trials:
        Monte-Carlo trials (each runs to data loss).
    repair_time_scale:
        Multiplier on measured repair times — lets sensitivity sweeps ask
        "what if repair were twice as slow" without rebuilding plans.
    max_events:
        Per-trial event budget; exceeded budgets raise RuntimeError with
        guidance rather than spinning forever.
    loss_predicate:
        Optional ``callable(failed_set) -> bool`` deciding when data is
        lost.  Defaults to the MDS rule ``len(failed) > k``; non-MDS
        codes (LRC) pass a recoverability check so pattern-dependent
        losses — e.g. four failures concentrated in one local group —
        count even though the failure count is within ``k``.
    """
    if lam <= 0:
        raise ValueError("failure rate must be positive")
    if trials < 1:
        raise ValueError("need at least one trial")
    if repair_time_scale <= 0:
        raise ValueError("repair_time_scale must be positive")

    width = env.code.width
    k = env.code.k
    if loss_predicate is None:
        loss_predicate = lambda failed: len(failed) > k  # noqa: E731
    rng = random.Random(seed)
    repair_cache: dict[tuple[int, ...], float] = {}

    def repair_time(failed: frozenset[int]) -> float:
        key = tuple(sorted(failed))
        if key not in repair_cache:
            ctx = RepairContext(
                code=env.code,
                cluster=env.cluster,
                placement=env.placement,
                failed_blocks=key,
                block_size=env.block_size,
                cost_model=env.cost_model,
            )
            outcome = simulate_repair(scheme, ctx, env.bandwidth)
            repair_cache[key] = outcome.total_repair_time
        return repair_cache[key] * repair_time_scale

    lifetimes = []
    for _ in range(trials):
        now = 0.0
        failed: set[int] = set()
        repair_done = math.inf
        events = 0
        while True:
            events += 1
            if events > max_events:
                raise RuntimeError(
                    f"trial exceeded {max_events} events without data loss; "
                    f"the failure rate is too low for run-to-loss Monte "
                    f"Carlo — accelerate lam toward 1/repair_time or use "
                    f"the analytic mttdl() model"
                )
            healthy = width - len(failed)
            next_failure = now + rng.expovariate(healthy * lam)
            if repair_done <= next_failure:
                # repair completes before the next failure
                now = repair_done
                failed.clear()
                repair_done = math.inf
                continue
            now = next_failure
            survivors = sorted(set(range(width)) - failed)
            failed.add(rng.choice(survivors))
            if loss_predicate(failed):
                lifetimes.append(now)
                break
            # (re)start the repair for the enlarged failure set
            repair_done = now + repair_time(frozenset(failed))

    return DurabilityResult(
        mttdl_seconds=sum(lifetimes) / len(lifetimes),
        trials=trials,
        min_lifetime=min(lifetimes),
        max_lifetime=max(lifetimes),
        repair_sets_evaluated=len(repair_cache),
    )
