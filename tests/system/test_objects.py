"""Tests for the object-to-stripe mapping."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.store.objects import ObjectInfo, reassemble, split_into_stripes


class TestSplit:
    def test_exact_fit(self):
        data = np.arange(12, dtype=np.uint8)
        stripes = split_into_stripes(data, n=3, block_size=4)
        assert len(stripes) == 1
        assert len(stripes[0]) == 3
        np.testing.assert_array_equal(stripes[0][0], data[:4])

    def test_padding(self):
        data = np.arange(5, dtype=np.uint8)
        stripes = split_into_stripes(data, n=2, block_size=4)
        assert len(stripes) == 1
        np.testing.assert_array_equal(
            stripes[0][1], np.array([4, 0, 0, 0], dtype=np.uint8)
        )

    def test_multiple_stripes(self):
        data = np.arange(20, dtype=np.uint8)
        stripes = split_into_stripes(data, n=2, block_size=4)
        assert len(stripes) == 3  # 20 bytes / 8 per stripe -> 3 stripes

    def test_empty_object_occupies_one_stripe(self):
        stripes = split_into_stripes(np.array([], dtype=np.uint8), 2, 4)
        assert len(stripes) == 1
        assert all(np.all(b == 0) for b in stripes[0])

    def test_blocks_are_views_of_contiguous_buffer(self):
        data = np.arange(8, dtype=np.uint8)
        stripes = split_into_stripes(data, 2, 4)
        for block in stripes[0]:
            assert block.dtype == np.uint8 and block.shape == (4,)


class TestReassemble:
    @given(st.integers(0, 200), st.integers(1, 4), st.integers(1, 16))
    @settings(max_examples=50, deadline=None)
    def test_roundtrip(self, size, n, block_size):
        rng = np.random.default_rng(size)
        data = rng.integers(0, 256, size, dtype=np.uint8)
        stripes = split_into_stripes(data, n, block_size)
        info = ObjectInfo(
            name="x",
            size=size,
            stripe_ids=tuple(range(len(stripes))),
            block_size=block_size,
            n=n,
        )
        np.testing.assert_array_equal(reassemble(info, stripes), data)

    def test_stripe_count_mismatch(self):
        info = ObjectInfo(name="x", size=4, stripe_ids=(0, 1), block_size=4, n=1)
        with pytest.raises(ValueError):
            reassemble(info, [[np.zeros(4, dtype=np.uint8)]])

    def test_stripe_capacity(self):
        info = ObjectInfo(name="x", size=4, stripe_ids=(0,), block_size=8, n=3)
        assert info.stripe_capacity == 24
