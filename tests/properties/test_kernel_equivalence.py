"""The one GF multiply must match its reference and the field tables.

Three independent computations of ``out[i] = xor_j m[i][j] * blocks[j]``
are held against each other byte for byte:

* the **production** path — :func:`repro.gf.batch.gf_matmul_blocks` and
  everything rerouted onto it (``linear_combine``, ``scale``,
  ``scale_accumulate``, ``apply_matrix_to_blocks``, ``RSCode.encode``);
* the **reference** combiner — ``combine_tile_reference``, the
  ``bytes.translate`` implementation kept only for these tests;
* the **oracle** — ``tables.mul_table[c][src]`` element by element.

Inputs are chosen to miss every alignment the kernel cares about: the
uint16 pair split (odd lengths hit the scalar tail), the 64 Ki-pair
gather chunks, the adaptive tile edges; and every form a caller hands
over: strided views, read-only ``np.frombuffer`` blocks, 2-D
``(stripes, B)`` stacks, a caller-supplied ``out=``.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.gf import (
    apply_matrix_to_blocks,
    get_tables,
    gf_matmul_blocks,
    linear_combine,
    scale,
    scale_accumulate,
)
from repro.gf.batch import adaptive_tile
from repro.gf.splittable import combine_tile_reference
from repro.rs import get_code

#: Sizes chosen to straddle the alignment boundaries the kernel cares
#: about: the uint16 pair split (odd), the 64 Ki gather chunks, and the
#: adaptive tile edges.
_AWKWARD_SIZES = [1, 2, 3, 255, 4096, 4097, 65535, 65536 * 2 + 1]


def oracle_matmul(matrix, blocks) -> np.ndarray:
    """Element-by-element product-table lookups, XOR-summed."""
    mul = get_tables().mul_table
    out = np.zeros((len(matrix),) + np.shape(blocks[0]), dtype=np.uint8)
    for i, row in enumerate(matrix):
        for coeff, block in zip(row, blocks):
            out[i] ^= mul[int(coeff)][np.asarray(block).astype(np.intp)]
    return out


def reference_matmul(matrix, blocks) -> np.ndarray:
    """The same product through the ``bytes.translate`` combiner, untiled."""
    flat = [np.ascontiguousarray(b).reshape(-1) for b in blocks]
    out = np.empty((len(matrix), flat[0].size), dtype=np.uint8)
    combine_tile_reference(np.asarray(matrix).tolist(), flat, list(out))
    return out.reshape((len(matrix),) + np.shape(blocks[0]))


@st.composite
def kernel_cases(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    r = draw(st.integers(1, 4))
    c = draw(st.integers(1, 5))
    size = draw(
        st.one_of(st.sampled_from(_AWKWARD_SIZES), st.integers(1, 70000))
    )
    matrix = rng.choice(
        np.array([0, 0, 1, 1, 2, 37, 91, 250], dtype=np.uint8), size=(r, c)
    )
    blocks = [rng.integers(0, 256, size, dtype=np.uint8) for _ in range(c)]
    return matrix, blocks


@given(kernel_cases())
@settings(max_examples=30, deadline=None)
def test_all_kernels_byte_identical(case):
    matrix, blocks = case
    oracle = oracle_matmul(matrix, blocks)
    assert np.array_equal(reference_matmul(matrix, blocks), oracle)
    assert np.array_equal(gf_matmul_blocks(matrix, blocks), oracle)
    assert np.array_equal(apply_matrix_to_blocks(matrix, blocks), oracle)
    for i, row in enumerate(matrix):
        assert np.array_equal(linear_combine(row, blocks), oracle[i])


@given(
    seed=st.integers(0, 2**31 - 1),
    coeff=st.integers(0, 255),
    size=st.sampled_from(_AWKWARD_SIZES),
)
@example(seed=0, coeff=0, size=4097)
@example(seed=0, coeff=1, size=4097)
@settings(max_examples=25, deadline=None)
def test_scalar_primitives_agree_across_kernels(seed, coeff, size):
    rng = np.random.default_rng(seed)
    src = rng.integers(0, 256, size, dtype=np.uint8)
    acc0 = rng.integers(0, 256, size, dtype=np.uint8)
    product = oracle_matmul([[coeff]], [src])[0]
    assert np.array_equal(reference_matmul([[coeff]], [src])[0], product)
    assert np.array_equal(
        reference_matmul([[1, coeff]], [acc0, src])[0], acc0 ^ product
    )
    assert np.array_equal(scale(coeff, src), product)
    acc = acc0.copy()
    assert scale_accumulate(acc, coeff, src) is acc
    assert np.array_equal(acc, acc0 ^ product)


def test_adaptive_tile_shrinks_with_working_set():
    huge = 1 << 40
    skinny = adaptive_tile(2, 1, huge)
    wide = adaptive_tile(30, 10, huge)
    assert wide <= skinny
    for tile in (skinny, wide):
        assert tile % 4096 == 0
    # Small inputs run untiled.
    assert adaptive_tile(6, 2, 1000) == 1000


def test_matmul_accepts_row_contiguous_out_slices():
    """A stripe-range slice of an arena: rows contiguous, stack not."""
    code = get_code(6, 2)
    rng = np.random.default_rng(14)
    blocks = [rng.integers(0, 256, (9, 515), dtype=np.uint8) for _ in range(6)]
    matrix = code.generator[code.n :]
    whole = gf_matmul_blocks(matrix, blocks)
    arena = np.empty((code.k, 9, 515), dtype=np.uint8)
    for lo, hi in ((0, 4), (4, 9)):
        gf_matmul_blocks(matrix, [b[lo:hi] for b in blocks], out=arena[:, lo:hi])
    assert np.array_equal(arena, whole)


# -- every entry point, every input form -----------------------------------

_CODE = get_code(4, 2)
_TILE = adaptive_tile(_CODE.n, 1, 1 << 40)


def _random(rng, shape):
    return rng.integers(0, 256, shape, dtype=np.uint8)


def _strided_1d(rng):
    return [_random(rng, 2 * 1025)[::2] for _ in range(_CODE.n)]


def _stripe_major(rng):
    stack = _random(rng, (5, _CODE.n, 333))
    return [stack[:, j, :] for j in range(_CODE.n)]


def _read_only(rng):
    return [
        np.frombuffer(_random(rng, 4097).tobytes(), dtype=np.uint8)
        for _ in range(_CODE.n)
    ]


_FORMS = {
    "odd": lambda rng: [_random(rng, 4097) for _ in range(_CODE.n)],
    "chunk_edge": lambda rng: [_random(rng, 128 * 1024 + 2) for _ in range(_CODE.n)],
    "tile_edge": lambda rng: [_random(rng, _TILE + 1) for _ in range(_CODE.n)],
    "strided_1d": _strided_1d,
    "stripe_major_2d": _stripe_major,
    "contiguous_2d": lambda rng: [_random(rng, (5, 333)) for _ in range(_CODE.n)],
    "read_only_frombuffer": _read_only,
}


@pytest.fixture(params=sorted(_FORMS))
def blocks(request):
    return _FORMS[request.param](np.random.default_rng(99))


class TestReroutedEntryPoints:
    """Each public primitive lands on the kernel with the caller's bytes intact."""

    #: A zero, a unit and two table coefficients in one row.
    ROW = [0, 1, 91, 250]

    def test_linear_combine(self, blocks):
        expect = oracle_matmul([self.ROW], blocks)[0]
        got = linear_combine(self.ROW, blocks)
        assert got.shape == blocks[0].shape
        assert np.array_equal(got, expect)
        assert np.array_equal(reference_matmul([self.ROW], blocks)[0], expect)

    def test_linear_combine_into_out(self, blocks):
        out = np.full(blocks[0].shape, 0xAA, dtype=np.uint8)
        assert linear_combine(self.ROW, blocks, out=out) is out
        assert np.array_equal(out, oracle_matmul([self.ROW], blocks)[0])

    @pytest.mark.parametrize("coeff", [0, 1, 37])
    def test_scale(self, blocks, coeff):
        got = scale(coeff, blocks[0])
        assert got.shape == blocks[0].shape
        assert not np.shares_memory(got, blocks[0])
        assert np.array_equal(got, oracle_matmul([[coeff]], blocks[:1])[0])

    @pytest.mark.parametrize("coeff", [0, 1, 37])
    def test_scale_accumulate(self, blocks, coeff):
        acc0 = np.array(blocks[1])
        acc = acc0.copy()
        scale_accumulate(acc, coeff, blocks[0])
        assert np.array_equal(
            acc, acc0 ^ oracle_matmul([[coeff]], blocks[:1])[0]
        )

    def test_scale_accumulate_into_strided_accumulator(self, blocks):
        wide = np.zeros(blocks[0].shape + (2,), dtype=np.uint8)
        acc = wide[..., 0]
        scale_accumulate(acc, 91, blocks[0])
        assert np.array_equal(acc, oracle_matmul([[91]], blocks[:1])[0])
        assert not wide[..., 1].any()

    def test_apply_matrix_to_blocks(self, blocks):
        got = apply_matrix_to_blocks(_CODE.generator, blocks)
        assert len(got) == _CODE.width
        assert np.array_equal(got, oracle_matmul(_CODE.generator, blocks))

    def test_matmul_into_out(self, blocks):
        out = np.empty((_CODE.k,) + blocks[0].shape, dtype=np.uint8)
        coding = _CODE.generator[_CODE.n :]
        assert gf_matmul_blocks(coding, blocks, out=out) is out
        assert np.array_equal(out, oracle_matmul(coding, blocks))

    def test_rs_encode(self, blocks):
        before = [np.array(b) for b in blocks]
        got = _CODE.encode(blocks)
        assert np.array_equal(got, oracle_matmul(_CODE.generator, blocks))
        assert np.array_equal(got, reference_matmul(_CODE.generator, blocks))
        for block, was in zip(blocks, before):
            assert np.array_equal(block, was)
