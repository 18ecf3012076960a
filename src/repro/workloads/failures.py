"""Failure-scenario generation.

The evaluation sweeps failures three ways (§5.1):

* single-block: one random data block fails; figures average over every
  possible position ("a random data block ... is assumed to have failed").
* multi-block non-worst: ``2 <= l <= k-1`` failures; bars show the mean
  over **all possible block locations** with min/max caps.
* multi-block worst: exactly ``k`` failures, again over all locations.

Exhaustive enumeration is feasible at these widths, so the default
generators enumerate; a seeded random sampler covers larger sweeps.

All generators share one convention: ``data_only=False`` — failures range
over the full stripe width (data + parity), matching how nodes actually
die.  The paper's single-failure figures restrict to data blocks; callers
reproducing them pass ``data_only=True`` explicitly.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Iterator

from ..rs import RSCode

__all__ = [
    "FailureScenario",
    "single_failure_scenarios",
    "multi_failure_scenarios",
    "sample_scenarios",
    "scenario_count",
    "validate_scenario",
]


@dataclass(frozen=True)
class FailureScenario:
    """One failure event: which blocks of a stripe were lost."""

    failed_blocks: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.failed_blocks:
            raise ValueError("a failure scenario loses at least one block")
        if list(self.failed_blocks) != sorted(set(self.failed_blocks)):
            raise ValueError("failed blocks must be sorted and unique")

    @property
    def size(self) -> int:
        return len(self.failed_blocks)


def validate_scenario(code: RSCode, scenario: FailureScenario) -> FailureScenario:
    """Check a scenario against a concrete code; returns it unchanged.

    :class:`FailureScenario` alone cannot know the stripe shape, so a
    hand-built scenario with a negative or out-of-range block id (or more
    failures than the code tolerates) used to surface only deep inside
    decode.  Every consumer of externally-supplied scenarios should pass
    them through here first for a clear, early error.

    Raises
    ------
    ValueError
        If any block id falls outside ``[0, code.width)`` or the scenario
        loses more than ``code.k`` blocks.
    """
    bad = [b for b in scenario.failed_blocks if not 0 <= b < code.width]
    if bad:
        raise ValueError(
            f"failure scenario {scenario.failed_blocks} has block ids {bad} "
            f"outside the RS({code.n},{code.k}) stripe (width {code.width})"
        )
    if scenario.size > code.k:
        raise ValueError(
            f"failure scenario loses {scenario.size} blocks but "
            f"RS({code.n},{code.k}) tolerates at most {code.k}"
        )
    return scenario


def single_failure_scenarios(
    code: RSCode, data_only: bool = False
) -> list[FailureScenario]:
    """Every single-block failure across the stripe.

    ``data_only=True`` restricts to data blocks — the paper's
    single-failure experiments ("a random data block ... is assumed to
    have failed").
    """
    last = code.n if data_only else code.width
    return [FailureScenario((b,)) for b in range(last)]


def multi_failure_scenarios(
    code: RSCode, failures: int, data_only: bool = False
) -> list[FailureScenario]:
    """All :math:`\\binom{w}{l}` block-position combinations for ``l``
    failures (the paper's "all possible block locations").

    Raises
    ------
    ValueError
        If ``failures`` exceeds the code's tolerance ``k``.
    """
    if not 1 <= failures <= code.k:
        raise ValueError(
            f"RS({code.n},{code.k}) tolerates 1..{code.k} failures, got {failures}"
        )
    last = code.n if data_only else code.width
    return [
        FailureScenario(tuple(combo))
        for combo in itertools.combinations(range(last), failures)
    ]


def scenario_count(code: RSCode, failures: int, data_only: bool = False) -> int:
    """Size of the exhaustive sweep without materialising it."""
    last = code.n if data_only else code.width
    return math.comb(last, failures)


def sample_scenarios(
    code: RSCode,
    failures: int,
    count: int,
    seed: int = 0,
    data_only: bool = False,
    unique: bool = False,
) -> Iterator[FailureScenario]:
    """Seeded random sample of failure scenarios.

    By default draws are independent (with replacement across draws,
    without replacement within one scenario), so small spaces can repeat
    scenarios and silently skew averaged sweeps.  ``unique=True`` rejects
    duplicates; when ``count`` meets or exceeds the whole space it falls
    back to enumerating every scenario (in a seeded shuffle order), so the
    result is never an infinite rejection loop and never repeats.
    """
    if count < 1:
        raise ValueError("count must be positive")
    rng = random.Random(seed)
    last = code.n if data_only else code.width
    if not 1 <= failures <= min(code.k, last):
        raise ValueError(f"cannot draw {failures} failures from {last} blocks")
    if unique:
        space = math.comb(last, failures)
        if count >= space:
            scenarios = [
                FailureScenario(tuple(combo))
                for combo in itertools.combinations(range(last), failures)
            ]
            rng.shuffle(scenarios)
            yield from scenarios
            return
        seen: set[tuple[int, ...]] = set()
        while len(seen) < count:
            combo = tuple(sorted(rng.sample(range(last), failures)))
            if combo in seen:
                continue
            seen.add(combo)
            yield FailureScenario(combo)
        return
    for _ in range(count):
        yield FailureScenario(tuple(sorted(rng.sample(range(last), failures))))
