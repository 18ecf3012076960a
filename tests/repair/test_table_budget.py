"""Planned repair traffic fits the multiply-table budget.

The kernel builds a 128 KiB pair table the first time it meets a
coefficient and keeps it in a byte-budgeted LRU.  That is only cheaper
than a table-free multiply if steady-state repair traffic is all cache
hits: every coefficient the single-failure plans of one code use must
stay resident at once.  This runs every such plan and checks that
nothing was evicted.
"""

import pytest

from repro.gf.splittable import TableCache, table_cache
from repro.repair import (
    CARRepair,
    RPRScheme,
    TraditionalRepair,
    execute_plan,
    initial_store_for,
)
from repro.rs import PAPER_SINGLE_FAILURE_CODES

from .conftest import make_context, make_stripe


@pytest.mark.parametrize("n,k", PAPER_SINGLE_FAILURE_CODES)
def test_single_failure_plans_never_evict_a_table(n, k):
    table_cache.clear()
    evictions_before = table_cache.evictions
    for failed in range(n + k):
        ctx = make_context(n, k, failed=[failed])
        stripe = make_stripe(ctx, seed=failed)
        for scheme in (TraditionalRepair(), CARRepair(), RPRScheme()):
            store = initial_store_for(stripe, ctx.placement, ctx.failed_blocks)
            result = execute_plan(scheme.plan(ctx), ctx.cluster, store)
            assert (result.recovered[failed] == stripe.get_payload(failed)).all()
    stats = table_cache.stats()
    assert stats["evictions"] == evictions_before, stats
    assert 0 < stats["retained_bytes"] <= stats["max_bytes"]


def test_table_cache_counts_evictions_past_its_budget():
    """The counter the check above reads does move when tables do not fit."""
    small = TableCache(max_bytes=2 * 128 * 1024)
    for coeff in (2, 3, 4):
        small.put(("poly", "split16", coeff), object(), 128 * 1024)
    assert small.stats()["evictions"] == 1
