"""Tests for RSCode construction and encoding."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rs import PAPER_SINGLE_FAILURE_CODES, RSCode, Stripe, get_code

from ..codewords import is_codeword


def random_data(rng, n, size=32):
    return [rng.integers(0, 256, size, dtype=np.uint8) for _ in range(n)]


class TestConstruction:
    @pytest.mark.parametrize("n,k", PAPER_SINGLE_FAILURE_CODES)
    def test_paper_codes_construct(self, n, k):
        code = RSCode(n, k)
        assert code.width == n + k

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            RSCode(0, 2)

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            RSCode(4, -1)

    def test_too_wide(self):
        with pytest.raises(ValueError):
            RSCode(200, 100)

    def test_storage_overhead(self):
        assert RSCode(4, 2).storage_overhead == pytest.approx(0.5)
        assert RSCode(12, 4).storage_overhead == pytest.approx(1 / 3)

    def test_generator_immutable(self):
        code = RSCode(4, 2)
        with pytest.raises(ValueError):
            code.generator[0, 0] = 5

    def test_first_parity_row_all_ones(self):
        code = RSCode(8, 4)
        assert np.all(code.generator_row(8) == 1)

    def test_generator_row_bounds(self):
        code = RSCode(4, 2)
        with pytest.raises(ValueError):
            code.generator_row(6)

    def test_equality_and_hash(self):
        assert RSCode(4, 2) == RSCode(4, 2)
        assert RSCode(4, 2) != RSCode(4, 3)
        assert hash(RSCode(4, 2)) == hash(RSCode(4, 2))

    def test_get_code_cached(self):
        assert get_code(6, 3) is get_code(6, 3)


class TestEncode:
    def test_systematic(self):
        rng = np.random.default_rng(0)
        code = RSCode(4, 2)
        data = random_data(rng, 4)
        blocks = code.encode(data)
        assert len(blocks) == code.width
        for i in range(4):
            np.testing.assert_array_equal(blocks[i], data[i])

    def test_p0_is_xor_of_data(self):
        """Paper eq. (2): the first parity is the plain XOR of the data."""
        rng = np.random.default_rng(1)
        for n, k in PAPER_SINGLE_FAILURE_CODES:
            code = RSCode(n, k)
            data = random_data(rng, n)
            blocks = code.encode(data)
            expected = data[0].copy()
            for d in data[1:]:
                expected ^= d
            np.testing.assert_array_equal(blocks[n], expected)

    def test_returned_blocks_never_alias_the_inputs(self):
        """Rows of one fresh arena: writing to them leaves the caller's data alone."""
        rng = np.random.default_rng(6)
        code = RSCode(4, 2)
        data = random_data(rng, 4)
        before = [d.copy() for d in data]
        blocks = code.encode(data)
        for block in blocks:
            assert all(not np.shares_memory(block, d) for d in data)
            assert block.flags.writeable and block.flags.c_contiguous
            block[...] ^= 0xFF
        for d, was in zip(data, before):
            np.testing.assert_array_equal(d, was)
        assert all(b.base is blocks[0].base for b in blocks)

    def test_wrong_block_count_rejected(self):
        code = RSCode(4, 2)
        with pytest.raises(ValueError):
            code.encode([np.zeros(8, dtype=np.uint8)] * 3)

    def test_mismatched_block_shapes_rejected(self):
        code = RSCode(4, 2)
        blocks = [np.zeros(8, dtype=np.uint8)] * 3 + [np.zeros(1, dtype=np.uint8)]
        with pytest.raises(ValueError, match="share one shape"):
            code.encode(blocks)

    def test_encode_stripe(self):
        rng = np.random.default_rng(2)
        code = RSCode(4, 2)
        stripe = code.encode_stripe(random_data(rng, 4, size=16))
        assert isinstance(stripe, Stripe)
        assert stripe.block_size == 16
        assert all(b in stripe.payloads for b in stripe.block_ids())

    def test_verify_stripe_accepts_valid(self):
        rng = np.random.default_rng(3)
        code = RSCode(6, 3)
        stripe = code.encode_stripe(random_data(rng, 6))
        assert is_codeword(code, stripe)

    def test_verify_stripe_rejects_corruption(self):
        rng = np.random.default_rng(4)
        code = RSCode(6, 3)
        stripe = code.encode_stripe(random_data(rng, 6))
        payload = stripe.get_payload(7).copy()
        payload[0] ^= 0xFF
        stripe.set_payload(7, payload)
        assert not is_codeword(code, stripe)

    @given(st.integers(0, 2**32 - 1), st.sampled_from(PAPER_SINGLE_FAILURE_CODES))
    @settings(max_examples=30, deadline=None)
    def test_encoding_is_linear(self, seed, nk):
        """encode(a ^ b) == encode(a) ^ encode(b): the partial-decoding basis."""
        n, k = nk
        rng = np.random.default_rng(seed)
        code = get_code(n, k)
        a = random_data(rng, n, size=8)
        b = random_data(rng, n, size=8)
        summed = [x ^ y for x, y in zip(a, b)]
        enc_sum = code.encode(summed)
        enc_a = code.encode(a)
        enc_b = code.encode(b)
        for i in range(code.width):
            np.testing.assert_array_equal(enc_sum[i], enc_a[i] ^ enc_b[i])
