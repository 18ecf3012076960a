"""Unit tests for the batched matmul kernel and the scratch buffer pool."""

import numpy as np
import pytest

from repro.gf import BufferPool, gf_matmul_blocks, scale
from repro.gf.tables import get_tables


class TestGfMatmulBlocks:
    def test_identity_matrix_copies_blocks(self):
        rng = np.random.default_rng(0)
        blocks = [rng.integers(0, 256, 50, dtype=np.uint8) for _ in range(3)]
        got = gf_matmul_blocks(np.eye(3, dtype=np.uint8), blocks)
        for i in range(3):
            assert np.array_equal(got[i], blocks[i])
        # Outputs are fresh arrays, not aliases of the inputs.
        got[0][0] ^= 0xFF
        assert got[0][0] != blocks[0][0]

    def test_all_zero_row_yields_zeros(self):
        blocks = [np.full(10, 7, dtype=np.uint8)]
        got = gf_matmul_blocks(np.array([[0]], dtype=np.uint8), blocks)
        assert not got.any()

    def test_stacked_ndarray_input(self):
        rng = np.random.default_rng(1)
        stack = rng.integers(0, 256, (4, 6, 33), dtype=np.uint8)
        m = rng.integers(0, 256, (2, 4), dtype=np.uint8)
        from_stack = gf_matmul_blocks(m, stack)
        from_list = gf_matmul_blocks(m, [stack[j] for j in range(4)])
        assert np.array_equal(from_stack, from_list)

    def test_strided_block_views_match_contiguous(self):
        """Stripe-major slices (non-contiguous) must give identical bytes."""
        rng = np.random.default_rng(2)
        data = rng.integers(0, 256, (5, 3, 40), dtype=np.uint8)
        m = np.array([[1, 2, 3], [0, 1, 0]], dtype=np.uint8)
        strided = gf_matmul_blocks(m, [data[:, j, :] for j in range(3)])
        contiguous = gf_matmul_blocks(
            m, [np.ascontiguousarray(data[:, j, :]) for j in range(3)]
        )
        assert np.array_equal(strided, contiguous)

    def test_out_buffer_reused(self):
        rng = np.random.default_rng(3)
        blocks = [rng.integers(0, 256, 64, dtype=np.uint8) for _ in range(2)]
        out = np.empty((2, 64), dtype=np.uint8)
        got = gf_matmul_blocks(np.eye(2, dtype=np.uint8), blocks, out=out)
        assert got is out

    def test_out_buffer_validated(self):
        blocks = [np.zeros(8, dtype=np.uint8)]
        with pytest.raises(ValueError, match="out buffer"):
            gf_matmul_blocks(
                np.array([[1]], dtype=np.uint8),
                blocks,
                out=np.empty((2, 8), dtype=np.uint8),
            )
        with pytest.raises(ValueError, match="out buffer"):
            gf_matmul_blocks(
                np.array([[1]], dtype=np.uint8),
                blocks,
                out=np.empty((1, 8), dtype=np.uint16),
            )

    def test_shape_mismatches_rejected(self):
        with pytest.raises(ValueError, match="matrix must be 2-D"):
            gf_matmul_blocks(np.zeros(3, dtype=np.uint8), [np.zeros(4, np.uint8)])
        with pytest.raises(ValueError, match="incompatible"):
            gf_matmul_blocks(
                np.zeros((2, 3), dtype=np.uint8), [np.zeros(4, np.uint8)]
            )
        with pytest.raises(ValueError, match="share one shape"):
            gf_matmul_blocks(
                np.zeros((1, 2), dtype=np.uint8),
                [np.zeros(4, np.uint8), np.zeros(5, np.uint8)],
            )
        with pytest.raises(ValueError, match="at least one block"):
            gf_matmul_blocks(np.zeros((1, 0), dtype=np.uint8), [])

    def test_spans_multiple_tiles(self):
        """Inputs larger than one cache tile must still be exact."""
        from repro.gf.batch import adaptive_tile

        rng = np.random.default_rng(4)
        size = adaptive_tile(2, 1, 1 << 62) * 2 + 777
        blocks = [rng.integers(0, 256, size, dtype=np.uint8) for _ in range(2)]
        m = np.array([[37, 91]], dtype=np.uint8)
        got = gf_matmul_blocks(m, blocks)
        expect = scale(37, blocks[0]) ^ scale(91, blocks[1])
        assert np.array_equal(got[0], expect)


class TestGatherInto:
    """The bulk multiply is a table gather into the output: pin it to the table."""

    def test_matches_table_row_lookup(self):
        t = get_tables()
        rng = np.random.default_rng(5)
        # Past one gather chunk, and odd: chunk loop, remainder, scalar tail.
        src = rng.integers(0, 256, 200_001, dtype=np.uint8)
        assert np.array_equal(scale(91, src), t.mul_table[91][src.astype(np.intp)])
        out = np.empty((1, src.size), dtype=np.uint8)
        gf_matmul_blocks([[91]], [src], out=out)
        assert np.array_equal(out[0], t.mul_table[91][src.astype(np.intp)])


class TestBufferPool:
    def test_take_then_give_reuses(self):
        pool = BufferPool()
        a = pool.take(64)
        pool.give(a)
        b = pool.take(64)
        assert b is a
        assert pool.stats()["hits"] == 1
        assert pool.stats()["misses"] == 1

    def test_distinct_sizes_do_not_mix(self):
        pool = BufferPool()
        a = pool.take(64)
        pool.give(a)
        b = pool.take(65)
        assert b is not a
        assert b.shape == (65,)

    def test_retention_bounded(self):
        pool = BufferPool(max_per_size=2)
        bufs = [pool.take(16) for _ in range(4)]
        for b in bufs:
            pool.give(b)
        assert pool.stats()["retained_bytes"] == 32

    def test_clear_drops_buffers(self):
        pool = BufferPool()
        pool.give(pool.take(128))
        pool.clear()
        assert pool.stats()["retained_bytes"] == 0

    def test_invalid_inputs_rejected(self):
        pool = BufferPool()
        with pytest.raises(ValueError):
            pool.take(0)
        with pytest.raises(ValueError):
            pool.give(np.zeros((2, 2), dtype=np.uint8))
        with pytest.raises(ValueError):
            pool.give(np.zeros(4, dtype=np.uint16))
        with pytest.raises(ValueError):
            BufferPool(max_per_size=0)
