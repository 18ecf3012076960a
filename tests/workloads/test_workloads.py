"""Tests for failure-scenario and payload generators."""

import itertools
import math

import numpy as np
import pytest

from repro.rs import get_code
from repro.workloads import (
    FailureScenario,
    encoded_stripe,
    multi_failure_scenarios,
    patterned_blocks,
    random_blocks,
    sample_scenarios,
    scenario_count,
    single_failure_scenarios,
    validate_scenario,
)

from ..codewords import is_codeword


class TestFailureScenario:
    def test_validation(self):
        with pytest.raises(ValueError):
            FailureScenario(())
        with pytest.raises(ValueError):
            FailureScenario((2, 1))
        with pytest.raises(ValueError):
            FailureScenario((1, 1))

    def test_size(self):
        assert FailureScenario((0, 3)).size == 2

    def test_validate_against_code(self):
        code = get_code(4, 2)
        scenario = FailureScenario((0, 5))
        assert validate_scenario(code, scenario) is scenario

    def test_validate_rejects_out_of_range(self):
        # Regression: out-of-range block ids used to surface only deep
        # inside decode; now they fail at the generator boundary.
        code = get_code(4, 2)
        with pytest.raises(ValueError, match="outside the RS"):
            validate_scenario(code, FailureScenario((6,)))
        with pytest.raises(ValueError, match="outside the RS"):
            validate_scenario(code, FailureScenario((-1, 2)))

    def test_validate_rejects_too_many_failures(self):
        code = get_code(4, 2)
        with pytest.raises(ValueError, match="tolerates at most"):
            validate_scenario(code, FailureScenario((0, 1, 2)))


class TestSingle:
    def test_full_width_default(self):
        # All generators share the data_only=False default: failures range
        # over data AND parity blocks unless the caller opts into the
        # paper's data-only sweeps.
        code = get_code(4, 2)
        scenarios = single_failure_scenarios(code)
        assert [s.failed_blocks for s in scenarios] == [
            (0,), (1,), (2,), (3,), (4,), (5,)
        ]

    def test_data_only(self):
        code = get_code(4, 2)
        scenarios = single_failure_scenarios(code, data_only=True)
        assert [s.failed_blocks for s in scenarios] == [(0,), (1,), (2,), (3,)]


class TestMulti:
    def test_exhaustive_count(self):
        code = get_code(8, 4)
        scenarios = multi_failure_scenarios(code, 2)
        assert len(scenarios) == math.comb(12, 2)
        assert len(set(s.failed_blocks for s in scenarios)) == len(scenarios)

    def test_worst_case_is_k(self):
        """§4.3's worst case: every choice of ``k`` failed blocks."""
        code = get_code(6, 2)
        scenarios = multi_failure_scenarios(code, code.k)
        assert all(s.size == 2 for s in scenarios)
        assert len(scenarios) == math.comb(8, 2)

    def test_scenario_count_matches(self):
        code = get_code(8, 4)
        assert scenario_count(code, 3) == math.comb(12, 3)
        assert scenario_count(code, 3, data_only=True) == math.comb(8, 3)

    def test_too_many_failures_rejected(self):
        with pytest.raises(ValueError):
            multi_failure_scenarios(get_code(4, 2), 3)

    def test_all_scenarios_within_width(self):
        code = get_code(6, 3)
        for s in multi_failure_scenarios(code, 3):
            assert all(0 <= b < code.width for b in s.failed_blocks)


class TestSampling:
    def test_deterministic(self):
        code = get_code(12, 4)
        a = list(sample_scenarios(code, 3, 20, seed=7))
        b = list(sample_scenarios(code, 3, 20, seed=7))
        assert a == b

    def test_different_seeds_differ(self):
        code = get_code(12, 4)
        a = list(sample_scenarios(code, 3, 20, seed=1))
        b = list(sample_scenarios(code, 3, 20, seed=2))
        assert a != b

    def test_sizes_valid(self):
        code = get_code(8, 4)
        for s in sample_scenarios(code, 4, 10):
            assert s.size == 4

    def test_invalid_count(self):
        with pytest.raises(ValueError):
            list(sample_scenarios(get_code(4, 2), 1, 0))

    def test_unique_no_duplicates(self):
        code = get_code(4, 2)  # only comb(6, 2) = 15 scenarios
        scenarios = list(sample_scenarios(code, 2, 12, seed=3, unique=True))
        assert len(scenarios) == 12
        assert len({s.failed_blocks for s in scenarios}) == 12

    def test_unique_falls_back_to_enumeration(self):
        # Asking for at least the whole space enumerates it exactly once.
        code = get_code(4, 2)
        scenarios = list(sample_scenarios(code, 2, 100, seed=0, unique=True))
        assert len(scenarios) == math.comb(6, 2)
        assert {s.failed_blocks for s in scenarios} == set(
            itertools.combinations(range(6), 2)
        )

    def test_unique_deterministic(self):
        code = get_code(8, 3)
        a = list(sample_scenarios(code, 2, 10, seed=5, unique=True))
        b = list(sample_scenarios(code, 2, 10, seed=5, unique=True))
        assert a == b


class TestDataGen:
    def test_random_blocks_shape_and_determinism(self):
        a = random_blocks(3, 64, seed=5)
        b = random_blocks(3, 64, seed=5)
        assert len(a) == 3
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)
            assert x.dtype == np.uint8 and x.shape == (64,)

    def test_invalid_shape(self):
        with pytest.raises(ValueError):
            random_blocks(0, 10)
        with pytest.raises(ValueError):
            patterned_blocks(1, 0)

    def test_text_pattern_ascii(self):
        [block] = patterned_blocks(1, 256, pattern="text")
        assert block.min() >= 32 and block.max() < 127

    def test_zeros_pattern_sparse(self):
        [block] = patterned_blocks(1, 1024, pattern="zeros")
        assert (block == 0).sum() > 900

    def test_ramp_deterministic(self):
        a = patterned_blocks(2, 64, pattern="ramp")
        b = patterned_blocks(2, 64, pattern="ramp")
        np.testing.assert_array_equal(a[1], b[1])

    def test_unknown_pattern(self):
        with pytest.raises(ValueError):
            patterned_blocks(1, 8, pattern="nope")

    def test_encoded_stripe_valid(self):
        code = get_code(6, 3)
        stripe = encoded_stripe(code, 128, seed=3)
        assert is_codeword(code, stripe)

    def test_encoded_stripe_with_pattern(self):
        code = get_code(4, 2)
        stripe = encoded_stripe(code, 64, pattern="zeros")
        assert is_codeword(code, stripe)
