"""Tests for the durability models (Markov + Monte Carlo)."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments import build_simics_environment, context_for
from repro.reliability import (
    mttdl,
    mttdl_from_repair_times,
    simulate_stripe_lifetimes,
)
from repro.repair import RPRScheme, TraditionalRepair, simulate_repair


class TestMarkovModel:
    def test_no_tolerance_is_pure_exponential(self):
        """k=0: MTTDL = 1 / (width * lam) — first failure is loss."""
        assert mttdl(4, 0, lam=0.5, repair_rates=[]) == pytest.approx(0.5)

    def test_single_tolerance_closed_form(self):
        """k=1 closed form: T0 + T1 with T1 = 1/f1 + (mu/f1) T0."""
        width, lam, mu = 3, 0.1, 2.0
        f0, f1 = width * lam, (width - 1) * lam
        t0 = 1 / f0
        t1 = 1 / f1 + (mu / f1) * t0
        assert mttdl(width, 1, lam, [mu]) == pytest.approx(t0 + t1)

    def test_faster_repair_increases_mttdl(self):
        slow = mttdl(16, 4, 1e-8, [1 / 200.0] * 4)
        fast = mttdl(16, 4, 1e-8, [1 / 50.0] * 4)
        assert fast > slow

    def test_rare_failure_scaling(self):
        """In the rare-failure regime, halving repair time multiplies
        MTTDL by ~2^k."""
        lam = 1e-9
        k = 3
        base = mttdl(10, k, lam, [1 / 100.0] * k)
        doubled = mttdl(10, k, lam, [1 / 50.0] * k)
        assert doubled / base == pytest.approx(2**k, rel=0.01)

    def test_numerically_stable_at_production_rates(self):
        """Production parameters must not produce garbage (the naive
        linear-system formulation returned negative values here)."""
        lam = 1 / (4 * 365.25 * 24 * 3600)  # one failure per block per 4y
        value = mttdl(16, 4, lam, [1 / 200.0] * 4)
        assert value > 0
        assert math.isfinite(value)
        # Order of magnitude sanity: ~ mu^4 / (lambda^5 * width combos).
        assert value > 1e20

    @given(
        st.integers(2, 20),
        st.integers(1, 4),
        st.floats(1e-9, 1e-3),
        st.floats(1e-4, 1.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_positive_and_decreasing_in_lambda(self, width, k, lam, mu):
        if k >= width:
            return
        value = mttdl(width, k, lam, [mu] * k)
        assert value > 0
        worse = mttdl(width, k, lam * 2, [mu] * k)
        assert worse < value

    def test_from_repair_times(self):
        direct = mttdl(8, 2, 1e-6, [0.01, 0.02])
        via_times = mttdl_from_repair_times(8, 2, 1e-6, [100.0, 50.0])
        assert direct == pytest.approx(via_times)

    def test_validation(self):
        with pytest.raises(ValueError):
            mttdl(4, 2, -1.0, [1, 1])
        with pytest.raises(ValueError):
            mttdl(4, 5, 1.0, [1] * 5)
        with pytest.raises(ValueError):
            mttdl(4, 2, 1.0, [1.0])  # wrong number of rates
        with pytest.raises(ValueError):
            mttdl(4, 2, 1.0, [1.0, 0.0])
        with pytest.raises(ValueError):
            mttdl_from_repair_times(4, 2, 1.0, [1.0, -5.0])


class TestMonteCarlo:
    @pytest.fixture(scope="class")
    def env(self):
        return build_simics_environment(6, 2)

    def test_deterministic_given_seed(self, env):
        a = simulate_stripe_lifetimes(env, RPRScheme(), 1 / 500.0, trials=20, seed=3)
        b = simulate_stripe_lifetimes(env, RPRScheme(), 1 / 500.0, trials=20, seed=3)
        assert a.mttdl_seconds == b.mttdl_seconds

    def test_result_fields(self, env):
        result = simulate_stripe_lifetimes(
            env, RPRScheme(), 1 / 500.0, trials=25, seed=1
        )
        assert result.trials == 25
        assert result.min_lifetime <= result.mttdl_seconds <= result.max_lifetime
        assert result.repair_sets_evaluated > 0

    def test_rpr_outlives_traditional(self, env):
        """The headline: faster repair -> longer stripe lifetime."""
        lam = 1 / 500.0  # accelerated so trials terminate
        tra = simulate_stripe_lifetimes(
            env, TraditionalRepair(), lam, trials=120, seed=7
        )
        rpr = simulate_stripe_lifetimes(env, RPRScheme(), lam, trials=120, seed=7)
        assert rpr.mttdl_seconds > tra.mttdl_seconds

    def test_repair_time_scale_sensitivity(self, env):
        lam = 1 / 500.0
        base = simulate_stripe_lifetimes(env, RPRScheme(), lam, trials=60, seed=5)
        slowed = simulate_stripe_lifetimes(
            env, RPRScheme(), lam, trials=60, seed=5, repair_time_scale=10.0
        )
        assert slowed.mttdl_seconds < base.mttdl_seconds

    def test_mc_matches_markov_with_uniform_times(self, env):
        """With acceleration, MC and the analytic chain agree within
        sampling error when using the same per-state repair times."""
        lam = 1 / 1000.0
        scheme = TraditionalRepair()
        mc = simulate_stripe_lifetimes(env, scheme, lam, trials=400, seed=11)
        times = [
            simulate_repair(
                scheme, context_for(env, list(range(l))), env.bandwidth
            ).total_repair_time
            for l in range(1, env.code.k + 1)
        ]
        analytic = mttdl_from_repair_times(env.code.width, env.code.k, lam, times)
        assert mc.mttdl_seconds == pytest.approx(analytic, rel=0.35)

    def test_rare_rate_raises_instead_of_hanging(self, env):
        with pytest.raises(RuntimeError):
            simulate_stripe_lifetimes(
                env,
                RPRScheme(),
                lam=1e-12,
                trials=1,
                seed=0,
                max_events=5_000,
            )

    def test_validation(self, env):
        with pytest.raises(ValueError):
            simulate_stripe_lifetimes(env, RPRScheme(), lam=0.0)
        with pytest.raises(ValueError):
            simulate_stripe_lifetimes(env, RPRScheme(), lam=1.0, trials=0)
        with pytest.raises(ValueError):
            simulate_stripe_lifetimes(
                env, RPRScheme(), lam=1.0, repair_time_scale=0.0
            )


class TestLossPredicate:
    def test_custom_predicate_changes_outcome(self):
        """A stricter loss rule (any 2 concurrent failures) must shorten
        lifetimes relative to the default k-tolerance rule."""
        env = build_simics_environment(6, 2)
        lam = 1 / 500.0
        default = simulate_stripe_lifetimes(
            env, RPRScheme(), lam, trials=60, seed=9
        )
        strict = simulate_stripe_lifetimes(
            env,
            RPRScheme(),
            lam,
            trials=60,
            seed=9,
            loss_predicate=lambda failed: len(failed) >= 2,
        )
        assert strict.mttdl_seconds < default.mttdl_seconds

    def test_lrc_pattern_aware_durability(self):
        """Non-MDS durability: LRC loses on patterns within k, but its
        faster local repair shrinks the exposure window — at accelerated
        failure rates it out-survives RS(12,4)+RPR (deterministic seed)."""
        from repro.cluster import ContiguousPlacement
        from repro.experiments.common import ExperimentEnv
        from repro.lrc import LRCCode, LRCLocalRepair, is_recoverable
        from repro.rs import MB, SIMICS_DECODE, get_code
        from repro.cluster import Cluster, SIMICS_BANDWIDTH

        def env_for(code):
            cluster = Cluster.homogeneous(9, 4)
            placement = ContiguousPlacement(per_rack=2).place(
                cluster, code.n, code.k
            )
            return ExperimentEnv(
                code=code,
                cluster=cluster,
                placement=placement,
                bandwidth=SIMICS_BANDWIDTH,
                cost_model=SIMICS_DECODE,
                block_size=256 * MB,
            )

        lam = 1 / 2000.0
        lrc_code = LRCCode(12, 2, 2)
        lrc = simulate_stripe_lifetimes(
            env_for(lrc_code),
            LRCLocalRepair(),
            lam,
            trials=60,
            seed=3,
            loss_predicate=lambda failed: not is_recoverable(lrc_code, failed),
        )
        rs = simulate_stripe_lifetimes(
            env_for(get_code(12, 4)), RPRScheme(), lam, trials=60, seed=3
        )
        assert lrc.mttdl_seconds > rs.mttdl_seconds
