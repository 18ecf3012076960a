"""Partial decoding: slicing a recovery equation into intermediate blocks.

The paper's §2.1.2 / eq. (4) observation: because decoding is a GF linear
combination, any partition of an equation's terms can be combined
independently into *intermediate blocks* ``I_j`` of the same size as a data
block, and the XOR of the intermediates equals the lost block.  RPR slices
by rack (eq. (9)) so each rack ships at most one intermediate per recovery
sub-equation across the aggregation switch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from ..gf import linear_combine
from .decode import RecoveryEquation

__all__ = ["PartialSlice", "slice_equation_by_group", "combine_intermediates"]


@dataclass(frozen=True)
class PartialSlice:
    """One group's share of a recovery equation — an intermediate block spec.

    ``I_{target, group} = sum(coeff * helper)`` over the helpers that live
    in ``group`` (for RPR, a rack).
    """

    target: int
    group: object
    terms: tuple[tuple[int, int], ...]

    @property
    def helper_ids(self) -> tuple[int, ...]:
        return tuple(h for h, _ in self.terms)

    @property
    def is_xor_only(self) -> bool:
        return all(c == 1 for _, c in self.terms)

    def materialise(self, payloads: Mapping[int, np.ndarray]) -> np.ndarray:
        """Compute the intermediate block from concrete helper payloads."""
        coeffs = [c for _, c in self.terms]
        blocks = [payloads[h] for h, _ in self.terms]
        return linear_combine(coeffs, blocks)


def slice_equation_by_group(
    equation: RecoveryEquation, group_of: Mapping[int, object]
) -> dict[object, PartialSlice]:
    """Partition ``equation`` into per-group partial slices (eq. (9)).

    Parameters
    ----------
    equation:
        The full recovery equation (eq. (8) row).
    group_of:
        Maps each helper block id to its group key (rack id for RPR).

    Returns
    -------
    dict mapping group key to that group's :class:`PartialSlice`.  Groups
    contributing no helper do not appear.  The XOR of all slices'
    materialised blocks equals the equation's target block.

    Raises
    ------
    KeyError
        If a helper block has no group assignment.
    """
    by_group: dict[object, list[tuple[int, int]]] = {}
    for helper, coeff in equation.terms:
        group = group_of[helper]
        by_group.setdefault(group, []).append((helper, coeff))
    return {
        group: PartialSlice(target=equation.target, group=group, terms=tuple(terms))
        for group, terms in by_group.items()
    }


def combine_intermediates(intermediates) -> np.ndarray:
    """XOR intermediate blocks into the reconstructed target block.

    The final step of eq. (4)/(9): ``I_0 ^ I_1 ^ ... = d_f``.  Coefficients
    were already applied when the intermediates were materialised, so this
    is a pure XOR reduction.
    """
    intermediates = list(intermediates)
    if not intermediates:
        raise ValueError("need at least one intermediate block")
    return linear_combine([1] * len(intermediates), intermediates)
