"""LRC decoding: locality-aware recovery equations.

The decoder expresses each failed block's generator row over surviving
rows, preferring the cheapest helper set:

1. **Local repair** — a lost data block (or local parity) whose group is
   otherwise intact decodes as the XOR of the ``n/l`` group survivors
   plus/using the local parity: the LRC fast path.
2. **General repair** — any other recoverable pattern solves
   ``c · G[available] = G[target]`` over GF(256)
   (:func:`repro.gf.mat_solve`), with available rows ordered
   group-first so the solution stays as local as the pattern allows.

LRC is not MDS: some ``l + g``-failure patterns (e.g. three failures
inside one group of an LRC(12, 2, 2)) have no solution.  Those raise
:class:`UnrecoverableError` rather than returning silently wrong data.
"""

from __future__ import annotations

import numpy as np

from ..gf import mat_solve
from ..rs import RecoveryEquation
from .code import LRCCode

__all__ = ["UnrecoverableError", "lrc_recovery_equations", "is_recoverable"]


class UnrecoverableError(ValueError):
    """The failure pattern exceeds the LRC's recovery capability."""


def _local_equation(code: LRCCode, target: int, available: set[int]) -> RecoveryEquation | None:
    """The group-XOR fast path, if the target's group is otherwise intact."""
    group = code.group_of(target)
    if group is None:
        return None
    members = set(code.group(group)) | {code.local_parity(group)}
    helpers = members - {target}
    if not helpers <= available:
        return None
    return RecoveryEquation(
        target=target,
        terms=tuple((h, 1) for h in sorted(helpers)),
        requires_matrix_build=False,
    )


def _helper_order(code: LRCCode, target: int, available: list[int]) -> list[int]:
    """Order available rows so elimination prefers local helpers."""
    group = code.group_of(target)

    def key(block: int) -> tuple[int, int]:
        if group is not None and code.group_of(block) == group:
            return (0, block)
        if not code.is_global_parity(block):
            return (1, block)
        return (2, block)

    return sorted(available, key=key)


def lrc_recovery_equations(
    code: LRCCode, failed_ids, available_ids
) -> list[RecoveryEquation]:
    """One recovery equation per failed block, cheapest-first.

    Parameters
    ----------
    failed_ids:
        Blocks to reconstruct.
    available_ids:
        Surviving blocks (any number — unlike MDS decoding there is no
        fixed helper count; the solver uses as few as the pattern allows).

    Raises
    ------
    UnrecoverableError
        If any failed block cannot be expressed over the survivors.
    """
    failed = list(failed_ids)
    available = sorted(set(available_ids))
    if set(failed) & set(available):
        raise ValueError("a block cannot be both failed and available")
    for bid in failed + available:
        if not 0 <= bid < code.width:
            raise ValueError(f"block id {bid} outside code of width {code.width}")

    equations = []
    avail_set = set(available)
    for target in failed:
        local = _local_equation(code, target, avail_set)
        if local is not None:
            equations.append(local)
            continue
        ordered = _helper_order(code, target, available)
        a = code.generator[ordered].T.astype(np.uint8)  # n x m
        b = code.generator_row(target).astype(np.uint8)
        x = mat_solve(a, b)
        if x is None:
            raise UnrecoverableError(
                f"block {target} cannot be recovered from survivors "
                f"{available} (LRC({code.n},{code.l},{code.g}) is not MDS)"
            )
        terms = tuple(
            (h, int(c)) for h, c in sorted(zip(ordered, x.tolist())) if c != 0
        )
        equations.append(
            RecoveryEquation(
                target=target, terms=terms, requires_matrix_build=True
            )
        )
    return equations


def is_recoverable(code: LRCCode, failed_ids) -> bool:
    """Can this failure pattern be repaired at all?"""
    failed = sorted(set(failed_ids))
    available = [b for b in range(code.width) if b not in failed]
    try:
        lrc_recovery_equations(code, failed, available)
        return True
    except UnrecoverableError:
        return False
