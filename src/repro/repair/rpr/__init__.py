"""RPR: rack-aware pipeline repair (the paper's contribution).

Submodules map to the paper's techniques:

* :mod:`.inner` — Algorithm 1 (*Inner*) and its multi-failure extension
  (Algorithm 3, *Inner-multi*): per-rack pairwise partial-decoding trees.
* :mod:`.cross` — Algorithm 2 (*Cross*) and its multi-failure extension
  (Algorithm 4, *Cross-multi*): the greedy binomial pipeline of rack
  intermediates onto the recovery node — and the slice-pipelined chain
  the planner weighs against it when it knows the links.
* :mod:`.scheme` — the :class:`RPRScheme` planner tying them together.
"""

from .cross import (
    CrossArrival,
    build_chain_gather,
    build_cross_gather,
    build_direct_gather,
    chain_slices,
)
from .inner import InnerResult, build_inner_trees
from .scheme import RPRScheme

__all__ = [
    "CrossArrival",
    "InnerResult",
    "RPRScheme",
    "build_chain_gather",
    "build_cross_gather",
    "build_direct_gather",
    "build_inner_trees",
    "chain_slices",
]
