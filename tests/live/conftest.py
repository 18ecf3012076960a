"""Shared helpers for live-runtime tests: small scenarios, plans, stores."""

import numpy as np
import pytest

from repro.experiments import build_simics_environment, context_for
from repro.repair import SCHEMES, initial_store_for
from repro.workloads import encoded_stripe

#: Small blocks keep unshaped live runs near-instant.
LIVE_BLOCK = 4 * 1024


def live_scenario(n, k, failed, scheme_name, block_size=LIVE_BLOCK, seed=7):
    """Build (plan, env, stripe, store) for one scheme on one failure set."""
    env = build_simics_environment(n, k, block_size=block_size)
    ctx = context_for(env, failed)
    plan = SCHEMES[scheme_name]().plan(ctx)
    stripe = encoded_stripe(env.code, block_size, seed=seed)
    store = initial_store_for(stripe, env.placement, failed)
    return plan, env, stripe, store


def lost_payloads(stripe, failed):
    return {bid: np.asarray(stripe.get_payload(bid)) for bid in failed}


@pytest.fixture
def scenario63():
    return live_scenario(6, 3, [1], "rpr")
