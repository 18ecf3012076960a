"""Tests for the Stripe container and decode cost models."""

import numpy as np
import pytest

from repro.rs import (
    EC2_DECODE,
    MB,
    SIMICS_DECODE,
    BlockKind,
    DecodeCostModel,
    Stripe,
    block_kind,
)


class TestBlockHelpers:
    def test_block_kind(self):
        assert block_kind(0, 4) == BlockKind.DATA
        assert block_kind(3, 4) == BlockKind.DATA
        assert block_kind(4, 4) == BlockKind.PARITY

    def test_block_kind_negative(self):
        with pytest.raises(ValueError):
            block_kind(-1, 4)


class TestStripe:
    def test_shape_properties(self):
        s = Stripe(6, 3, 128)
        assert s.width == 9
        assert list(s.block_ids()) == list(range(9))

    def test_kind(self):
        s = Stripe(4, 2, 8)
        assert s.kind(0) == BlockKind.DATA
        assert s.kind(5) == BlockKind.PARITY

    def test_invalid_shape(self):
        with pytest.raises(ValueError):
            Stripe(0, 2, 8)
        with pytest.raises(ValueError):
            Stripe(4, 2, 0)

    def test_payload_lifecycle(self):
        s = Stripe(4, 2, 4)
        payload = np.array([1, 2, 3, 4], dtype=np.uint8)
        with pytest.raises(KeyError):
            s.get_payload(0)
        s.set_payload(0, payload)
        np.testing.assert_array_equal(s.get_payload(0), payload)

    def test_wrong_payload_size_rejected(self):
        s = Stripe(4, 2, 4)
        with pytest.raises(ValueError):
            s.set_payload(0, np.zeros(5, dtype=np.uint8))

    def test_wrong_payload_dtype_rejected(self):
        s = Stripe(4, 2, 4)
        with pytest.raises(ValueError):
            s.set_payload(0, np.zeros(4, dtype=np.float64))

    def test_out_of_range_block_id(self):
        s = Stripe(4, 2, 4)
        with pytest.raises(ValueError):
            s.get_payload(6)

    def test_constructor_validates_payloads(self):
        with pytest.raises(ValueError):
            Stripe(2, 1, 4, payloads={0: np.zeros(3, dtype=np.uint8)})


class TestDecodeCostModel:
    def test_factor_applies_only_with_build(self):
        m = DecodeCostModel(xor_speed=100.0, matrix_build_factor=4.0)
        assert m.decode_time(100, with_matrix_build=False) == pytest.approx(1.0)
        assert m.decode_time(100, with_matrix_build=True) == pytest.approx(4.0)
        assert m.time_without_build(100) == pytest.approx(1.0)
        assert m.time_with_build(100) == pytest.approx(4.0)

    def test_zero_bytes(self):
        m = DecodeCostModel(xor_speed=10.0)
        assert m.decode_time(0, with_matrix_build=True) == 0.0

    def test_negative_bytes_rejected(self):
        with pytest.raises(ValueError):
            DecodeCostModel(xor_speed=10.0).decode_time(-1, with_matrix_build=False)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            DecodeCostModel(xor_speed=0)
        with pytest.raises(ValueError):
            DecodeCostModel(xor_speed=1, matrix_build_factor=0.5)

    def test_simics_calibration(self):
        """~1000 MB/s decode; a 256 MB block takes ~0.26 s without build."""
        t = SIMICS_DECODE.time_without_build(256 * MB)
        assert t == pytest.approx(0.256)
        assert SIMICS_DECODE.time_with_build(256 * MB) == pytest.approx(4 * t)

    def test_ec2_calibration(self):
        """Paper §5.2.1: 256 MB decodes in ~2.5 s optimised, ~20 s traditional."""
        assert EC2_DECODE.time_without_build(256 * MB) == pytest.approx(2.5)
        assert EC2_DECODE.time_with_build(256 * MB) == pytest.approx(20.0)
