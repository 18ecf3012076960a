"""Tests for partial decoding (eq. (4) / eq. (9))."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gf import linear_combine
from repro.rs import (
    PAPER_SINGLE_FAILURE_CODES,
    get_code,
    recovery_equations,
    slice_equation_by_group,
)

from .test_decode import xor_equation


def encoded_payloads(code, rng, size=16):
    data = [rng.integers(0, 256, size, dtype=np.uint8) for _ in range(code.n)]
    return {i: b for i, b in enumerate(code.encode(data))}


def round_robin_groups(block_ids, q):
    return {b: b % q for b in block_ids}


def materialise(sl, payloads):
    """A slice's intermediate block: its terms combined over the payloads."""
    return linear_combine([c for _, c in sl.terms], [payloads[h] for h, _ in sl.terms])


def xor_all(blocks):
    return linear_combine([1] * len(blocks), blocks)


class TestSliceEquation:
    def test_paper_eq4_example(self):
        """RS(4,2), D2 failed, helpers D0 D1 D3 P0 split into two pairs."""
        rng = np.random.default_rng(0)
        code = get_code(4, 2)
        payloads = encoded_payloads(code, rng)
        eq = xor_equation(code, 2)  # helpers 0, 1, 3, 4
        groups = {0: "g0", 1: "g0", 3: "g1", 4: "g1"}
        slices = slice_equation_by_group(eq, groups)
        assert set(slices) == {"g0", "g1"}
        i0 = materialise(slices["g0"], payloads)
        i1 = materialise(slices["g1"], payloads)
        np.testing.assert_array_equal(i0, payloads[0] ^ payloads[1])
        np.testing.assert_array_equal(i1, payloads[3] ^ payloads[4])
        np.testing.assert_array_equal(i0 ^ i1, payloads[2])

    def test_groups_without_helpers_absent(self):
        code = get_code(4, 2)
        eq = xor_equation(code, 0)
        groups = {b: 0 for b in eq.helper_ids}
        slices = slice_equation_by_group(eq, groups)
        assert set(slices) == {0}

    def test_missing_group_assignment_raises(self):
        code = get_code(4, 2)
        eq = xor_equation(code, 0)
        with pytest.raises(KeyError):
            slice_equation_by_group(eq, {})

    def test_slice_metadata(self):
        code = get_code(6, 3)
        eq = xor_equation(code, 1)
        slices = slice_equation_by_group(eq, round_robin_groups(eq.helper_ids, 3))
        for group, sl in slices.items():
            assert sl.group == group
            assert sl.target == 1
            assert sl.is_xor_only

    @given(
        st.sampled_from(PAPER_SINGLE_FAILURE_CODES),
        st.integers(0, 2**32 - 1),
        st.integers(1, 5),
        st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_slices_xor_to_target(self, nk, seed, q, data):
        """Property: for any grouping, intermediates XOR to the lost block."""
        n, k = nk
        rng = np.random.default_rng(seed)
        code = get_code(n, k)
        payloads = encoded_payloads(code, rng, size=8)
        failed = data.draw(st.integers(0, code.width - 1))
        survivors = [b for b in range(code.width) if b != failed]
        helpers = sorted(data.draw(st.permutations(survivors)))[:n]
        [eq] = recovery_equations(code, [failed], helpers)
        groups = {h: rng.integers(0, q) for h in eq.helper_ids}
        slices = slice_equation_by_group(eq, groups)
        intermediates = [materialise(sl, payloads) for sl in slices.values()]
        np.testing.assert_array_equal(
            xor_all(intermediates), payloads[failed]
        )

    def test_multi_failure_slices(self):
        """Eq. (9): per sub-equation, per-rack intermediates XOR to the target."""
        rng = np.random.default_rng(1)
        code = get_code(8, 4)
        payloads = encoded_payloads(code, rng)
        failed = [0, 5]
        helpers = [1, 2, 3, 4, 6, 7, 8, 9]
        groups = round_robin_groups(range(code.width), 3)
        for eq in recovery_equations(code, failed, helpers):
            slices = slice_equation_by_group(eq, groups)
            intermediates = [materialise(sl, payloads) for sl in slices.values()]
            np.testing.assert_array_equal(
                xor_all(intermediates), payloads[eq.target]
            )
