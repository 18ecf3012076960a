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

    @given(st.integers(1, 4), st.integers(1, 16))
    @settings(max_examples=40, deadline=None)
    def test_stripes_match_padding_the_whole_object(self, n, block_size):
        """Full stripes are views of the input and the tail a padded copy:
        byte for byte what zero-filling the whole object gives."""
        b, s = block_size, n * block_size
        for size in sorted({0, 1, b - 1, b + 1, s - 1, s, s + 1, 2 * s + 1}):
            data = np.random.default_rng(size).integers(0, 256, size, dtype=np.uint8)
            stripes = split_into_stripes(data, n, block_size)
            assert _as_bytes(stripes) == _as_bytes(_padded_reference(data, n, block_size))
            for row in stripes[: size // s]:
                assert all(np.shares_memory(block, data) for block in row)


def _padded_reference(data, n, block_size):
    """The split by zero-filling a copy of the whole object."""
    capacity = n * block_size
    padded = np.zeros(max(1, -(-len(data) // capacity)) * capacity, dtype=np.uint8)
    padded[: len(data)] = data
    return [
        [padded[base + b * block_size : base + (b + 1) * block_size] for b in range(n)]
        for base in range(0, len(padded), capacity)
    ]


def _as_bytes(stripes):
    return [[block.tobytes() for block in row] for row in stripes]


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
        assert reassemble(info, stripes) == data.tobytes()

    def test_stripe_count_mismatch(self):
        info = ObjectInfo(name="x", size=4, stripe_ids=(0, 1), block_size=4, n=1)
        with pytest.raises(ValueError):
            reassemble(info, [[np.zeros(4, dtype=np.uint8)]])
