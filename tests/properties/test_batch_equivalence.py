"""Batched kernels must agree byte-for-byte with the per-stripe paths.

For random matrices, shapes, and coefficient patterns — including the
degenerate ones the fast paths special-case (all-XOR rows, zero rows,
zero coefficients, unit coefficients) — ``gf_matmul_blocks``,
``encode_many`` and ``decode_many`` over a stripe stack must produce
exactly the bytes ``linear_combine`` / ``encode`` / the reference
decoder ``decode_blocks`` produce one stripe, one row at a time.  Both
sides run the one kernel, so this pins stacking, tiling across stripe
boundaries and the systematic copy; the kernel itself is held against
independent oracles in ``test_kernel_equivalence.py``.  Equality is
exact: GF arithmetic has no rounding, so any mismatch is a real bug.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gf import gf_matmul_blocks, linear_combine
from repro.rs import get_code
from repro.rs.decode import decode_blocks


@st.composite
def matmul_cases(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    r = draw(st.integers(1, 5))
    c = draw(st.integers(1, 6))
    stripes = draw(st.integers(1, 7))
    block = draw(st.integers(1, 300))
    # Bias coefficients toward the special-cased values 0 and 1 so the
    # XOR-only and skip paths are exercised constantly, and force some
    # all-zero / all-ones rows outright.
    matrix = rng.choice(
        np.array([0, 0, 1, 1, 2, 3, 91, 250], dtype=np.uint8), size=(r, c)
    )
    if r >= 2:
        matrix[0] = 0  # all-zero row
        matrix[1] = 1  # pure-XOR row (the eq. (2) parity shape)
    blocks = [
        rng.integers(0, 256, (stripes, block), dtype=np.uint8) for _ in range(c)
    ]
    return matrix, blocks


@given(matmul_cases())
@settings(max_examples=40, deadline=None)
def test_gf_matmul_blocks_matches_linear_combine(case):
    matrix, blocks = case
    got = gf_matmul_blocks(matrix, blocks)
    for i, row in enumerate(matrix):
        for s in range(blocks[0].shape[0]):
            expect = linear_combine(
                [int(x) for x in row], [b[s] for b in blocks]
            )
            assert np.array_equal(got[i, s], expect), (i, s)


@given(
    seed=st.integers(0, 2**31 - 1),
    stripes=st.integers(1, 9),
    block=st.integers(1, 257),
)
@settings(max_examples=25, deadline=None)
def test_encode_many_matches_per_stripe(seed, stripes, block):
    code = get_code(6, 2)
    rng = np.random.default_rng(seed)
    data = rng.integers(0, 256, (stripes, code.n, block), dtype=np.uint8)
    batched = code.encode_many(data)
    assert batched.shape == (stripes, code.width, block)
    for s in range(stripes):
        expect = code.encode([data[s, j] for j in range(code.n)])
        for bid in range(code.width):
            assert np.array_equal(batched[s, bid], expect[bid]), (s, bid)


@given(
    seed=st.integers(0, 2**31 - 1),
    stripes=st.integers(1, 6),
    block=st.integers(1, 130),
    n=st.sampled_from([4, 6]),
    k=st.sampled_from([2, 3]),
)
@settings(max_examples=20, deadline=None)
def test_decode_many_matches_per_stripe(seed, stripes, block, n, k):
    code = get_code(n, k)
    rng = np.random.default_rng(seed)
    data = rng.integers(0, 256, (stripes, code.n, block), dtype=np.uint8)
    encoded = code.encode_many(data)
    failed = sorted(
        rng.choice(code.width, size=rng.integers(1, k + 1), replace=False).tolist()
    )
    available = {
        b: np.ascontiguousarray(encoded[:, b, :])
        for b in range(code.width)
        if b not in failed
    }
    batched = code.decode_many(available, failed)
    assert sorted(batched) == failed
    for s in range(stripes):
        expect = decode_blocks(
            code, {b: available[b][s] for b in available}, failed
        )
        for bid in failed:
            assert np.array_equal(batched[bid][s], expect[bid]), (s, bid)
            assert np.array_equal(batched[bid][s], data[s, bid] if bid < n else encoded[s, bid])
