"""Tests for recovery-equation derivation and reference decoding."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gf import linear_combine
from repro.rs import (
    InsufficientHelpersError,
    PAPER_SINGLE_FAILURE_CODES,
    RecoveryEquation,
    RSCode,
    decode_blocks,
    get_code,
    recovery_equations,
)


def xor_equation(code, failed):
    """The eq. (6) equation for a data block: every other data block and P0."""
    helpers = [b for b in range(code.n) if b != failed] + [code.n]
    [eq] = recovery_equations(code, [failed], helpers)
    return eq


def encoded_payloads(code, rng, size=24):
    data = [rng.integers(0, 256, size, dtype=np.uint8) for _ in range(code.n)]
    return {i: b for i, b in enumerate(code.encode(data))}


class TestRecoveryEquationObject:
    def test_duplicate_helpers_rejected(self):
        with pytest.raises(ValueError):
            RecoveryEquation(target=0, terms=((1, 1), (1, 2)))

    def test_zero_coefficient_rejected(self):
        with pytest.raises(ValueError):
            RecoveryEquation(target=0, terms=((1, 0),))

    def test_self_reference_rejected(self):
        with pytest.raises(ValueError):
            RecoveryEquation(target=1, terms=((1, 1),))

    def test_is_xor_only(self):
        assert RecoveryEquation(target=0, terms=((1, 1), (2, 1))).is_xor_only
        assert not RecoveryEquation(target=0, terms=((1, 1), (2, 3))).is_xor_only


class TestXorEquation:
    """Eq. (6): other data + P0 repairs a data block with XOR alone, and the
    derivation sees that it needs no decoding matrix."""

    def test_matches_eq6(self):
        code = RSCode(4, 2)
        eq = xor_equation(code, 2)
        assert eq.target == 2
        assert eq.helper_ids == (0, 1, 3, 4)  # other data + P0 (block 4)
        assert eq.is_xor_only
        assert not eq.requires_matrix_build

    def test_reconstructs_data(self):
        rng = np.random.default_rng(0)
        code = RSCode(6, 3)
        payloads = encoded_payloads(code, rng)
        for f in range(code.n):
            eq = xor_equation(code, f)
            got = linear_combine(
                [c for _, c in eq.terms], [payloads[h] for h, _ in eq.terms]
            )
            np.testing.assert_array_equal(got, payloads[f])


class TestRecoveryEquations:
    def test_single_data_failure(self):
        rng = np.random.default_rng(1)
        code = RSCode(4, 2)
        payloads = encoded_payloads(code, rng)
        [eq] = recovery_equations(code, [1], [0, 2, 3, 4])
        got = linear_combine(
            [c for _, c in eq.terms], [payloads[h] for h, _ in eq.terms]
        )
        np.testing.assert_array_equal(got, payloads[1])

    def test_eq6_helper_set_detected_as_xor_only(self):
        """With helpers = other data + P0, the derived equation is eq. (6)."""
        code = RSCode(6, 2)
        helpers = [0, 1, 3, 4, 5, 6]  # data minus block 2, plus P0 (block 6)
        [eq] = recovery_equations(code, [2], helpers)
        assert eq.is_xor_only
        assert not eq.requires_matrix_build
        assert eq.terms == tuple((h, 1) for h in helpers)

    def test_parity_failure(self):
        rng = np.random.default_rng(2)
        code = RSCode(4, 2)
        payloads = encoded_payloads(code, rng)
        [eq] = recovery_equations(code, [5], [0, 1, 2, 3])
        got = linear_combine(
            [c for _, c in eq.terms], [payloads[h] for h, _ in eq.terms]
        )
        np.testing.assert_array_equal(got, payloads[5])

    @pytest.mark.parametrize("n,k", [(4, 2), (6, 3), (8, 4)])
    def test_all_single_failures_all_helper_sets(self, n, k):
        """Exhaustive: every single failure, every helper set, reconstructs."""
        rng = np.random.default_rng(3)
        code = get_code(n, k)
        payloads = encoded_payloads(code, rng, size=8)
        for f in range(code.width):
            survivors = [b for b in range(code.width) if b != f]
            for helpers in itertools.combinations(survivors, n):
                [eq] = recovery_equations(code, [f], list(helpers))
                got = linear_combine(
                    [c for _, c in eq.terms], [payloads[h] for h, _ in eq.terms]
                )
                np.testing.assert_array_equal(got, payloads[f])

    def test_multi_failure_equations(self):
        rng = np.random.default_rng(4)
        code = RSCode(8, 4)
        payloads = encoded_payloads(code, rng)
        failed = [1, 3, 6]
        helpers = [0, 2, 4, 5, 7, 8, 9, 10]
        eqs = recovery_equations(code, failed, helpers)
        assert [e.target for e in eqs] == failed
        for eq in eqs:
            got = linear_combine(
                [c for _, c in eq.terms], [payloads[h] for h, _ in eq.terms]
            )
            np.testing.assert_array_equal(got, payloads[eq.target])
            assert eq.requires_matrix_build

    def test_equation_excludes_failed_blocks(self):
        """Eq. (8) note: helper side never contains a failed block."""
        code = RSCode(8, 4)
        failed = [0, 1, 2, 3]
        helpers = [4, 5, 6, 7, 8, 9, 10, 11]
        for eq in recovery_equations(code, failed, helpers):
            assert not set(eq.helper_ids) & set(failed)

    def test_too_many_failures_rejected(self):
        code = RSCode(4, 2)
        with pytest.raises(ValueError):
            recovery_equations(code, [0, 1, 2], [3, 4, 5])

    def test_wrong_helper_count_rejected(self):
        code = RSCode(4, 2)
        with pytest.raises(InsufficientHelpersError):
            recovery_equations(code, [0], [1, 2, 3])

    def test_overlapping_failed_and_helpers_rejected(self):
        code = RSCode(4, 2)
        with pytest.raises(ValueError):
            recovery_equations(code, [0], [0, 1, 2, 3])

    def test_out_of_range_ids_rejected(self):
        code = RSCode(4, 2)
        with pytest.raises(ValueError):
            recovery_equations(code, [9], [0, 1, 2, 3])

    def test_duplicate_failed_rejected(self):
        code = RSCode(4, 2)
        with pytest.raises(ValueError):
            recovery_equations(code, [0, 0], [1, 2, 3, 4])


class TestDecodeBlocks:
    @given(
        st.sampled_from(PAPER_SINGLE_FAILURE_CODES),
        st.integers(0, 2**32 - 1),
        st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_random_failures(self, nk, seed, data):
        n, k = nk
        rng = np.random.default_rng(seed)
        code = get_code(n, k)
        payloads = encoded_payloads(code, rng, size=8)
        l = data.draw(st.integers(1, k))
        failed = sorted(
            data.draw(
                st.sets(st.integers(0, code.width - 1), min_size=l, max_size=l)
            )
        )
        available = {b: p for b, p in payloads.items() if b not in failed}
        recovered = decode_blocks(code, available, failed)
        for f in failed:
            np.testing.assert_array_equal(recovered[f], payloads[f])

    def test_insufficient_survivors(self):
        rng = np.random.default_rng(5)
        code = RSCode(4, 2)
        payloads = encoded_payloads(code, rng)
        available = {b: payloads[b] for b in [0, 1, 2]}
        with pytest.raises(InsufficientHelpersError):
            decode_blocks(code, available, [3])
