import numpy as np
import pytest
from hypothesis import given, settings

from tlxs.errors import BitstreamError, CodecError
from tlxs.image import PlanarImage
from tlxs.residual import (
    LosslessCoderId,
    ResidualPlane,
    compute_residual,
    dc_shift,
    dc_unshift,
    decode_extension,
    decode_predictive,
    decode_wavelet_lossless,
    encode_extension,
    encode_predictive,
    encode_wavelet_lossless,
    med_predict,
)
from tlxs.synthetic import natural_image

from conftest import images, plane_arrays


def _img(plane, depth):
    return PlanarImage.from_planes([np.asarray(plane)], depth)


def med_oracle(a, b, c):
    """Literal three-branch definition, kept independent of the implementation."""
    if c >= max(a, b):
        return min(a, b)
    if c <= min(a, b):
        return max(a, b)
    return a + b - c


class TestResidualAlgebra:
    def test_identical_images_zero_residual(self):
        img = _img(np.arange(12).reshape(3, 4), 8)
        residuals = compute_residual(img, img)
        assert not residuals[0].samples.any()
        assert residuals[0].depth == 9

    def test_extreme_bounds(self):
        p = _img([[255, 0]], 8)
        q = _img([[0, 255]], 8)
        r = compute_residual(p, q)[0]
        assert r.samples.tolist() == [[255, -255]]

    def test_shift_of_zero_is_offset(self):
        r = ResidualPlane.from_samples(np.zeros((2, 2), dtype=np.int64), 9, False)
        assert np.all(dc_shift(r).samples == 255)

    def test_shift_endpoints(self):
        r = ResidualPlane.from_samples(np.array([[-255, 255]]), 9, False)
        shifted = dc_shift(r)
        assert shifted.samples.tolist() == [[0, 510]]

    def test_shift_rejects_already_shifted(self):
        r = ResidualPlane.from_samples(np.zeros((1, 1), dtype=np.int64), 9, True)
        with pytest.raises(CodecError):
            dc_shift(r)

    def test_unshift_rejects_unshifted(self):
        r = ResidualPlane.from_samples(np.zeros((1, 1), dtype=np.int64), 9, False)
        with pytest.raises(CodecError):
            dc_unshift(r)

    def test_range_invariants_enforced(self):
        with pytest.raises(CodecError):
            ResidualPlane.from_samples(np.array([[256]]), 9, False)
        with pytest.raises(CodecError):
            ResidualPlane.from_samples(np.array([[511]]), 9, True)
        with pytest.raises(CodecError):
            ResidualPlane.from_samples(np.array([[-1]]), 9, True)

    @given(images(max_dim=10))
    @settings(max_examples=30)
    def test_residual_identity(self, img):
        rng = np.random.default_rng(17)
        other = PlanarImage.from_planes(
            [
                rng.integers(0, img.max_sample, size=(img.height, img.width), endpoint=True)
                for _ in range(img.components)
            ],
            img.bit_depth,
        )
        for comp, residual in enumerate(compute_residual(img, other)):
            unshifted = dc_unshift(dc_shift(residual))
            assert unshifted == residual
            restored = other.planes[comp] + unshifted.samples
            assert np.array_equal(restored, img.planes[comp])

    def test_shape_mismatch_rejected(self):
        a = _img(np.zeros((2, 2), dtype=np.int64), 8)
        b = _img(np.zeros((2, 3), dtype=np.int64), 8)
        with pytest.raises(CodecError):
            compute_residual(a, b)


class TestMedPredict:
    def test_all_equal(self):
        assert med_predict(5, 5, 5) == 5

    def test_high_corner_picks_min(self):
        assert med_predict(10, 2, 12) == 2

    def test_low_corner_picks_max(self):
        assert med_predict(10, 2, 1) == 10

    def test_gradient_branch(self):
        assert med_predict(10, 8, 9) == 9

    def test_exhaustive_cube_matches_oracle(self):
        for a in range(16):
            for b in range(16):
                for c in range(16):
                    assert med_predict(a, b, c) == med_oracle(a, b, c), (a, b, c)


class TestPredictiveCoder:
    def test_zero_residual_is_one_bit_per_sample(self):
        # a constant plane at the DC offset codes every prediction error as 0
        plane = np.full((64, 64), 255, dtype=np.int64)
        payload = encode_predictive(plane, 9)
        assert len(payload) == 64 * 64 // 8
        assert len(payload) < 600

    @pytest.mark.parametrize("depth", [9, 11, 13])
    def test_roundtrip_random_planes(self, depth):
        rng = np.random.default_rng(depth)
        for shape in ((1, 1), (1, 17), (17, 1), (8, 8), (5, 31)):
            plane = rng.integers(0, (1 << depth) - 1, size=shape, endpoint=True)
            payload = encode_predictive(plane, depth)
            out = decode_predictive(payload, shape[1], shape[0], depth)
            assert np.array_equal(out, plane)

    def test_rejects_unshifted_residual(self):
        r = ResidualPlane.from_samples(np.zeros((2, 2), dtype=np.int64), 9, False)
        with pytest.raises(CodecError):
            encode_predictive(r, 9)

    def test_accepts_shifted_residual(self):
        r = ResidualPlane.from_samples(np.full((2, 2), 255, dtype=np.int64), 9, True)
        payload = encode_predictive(r, 9)
        assert np.array_equal(
            decode_predictive(payload, 2, 2, 9), r.samples
        )

    def test_out_of_depth_samples_rejected(self):
        with pytest.raises(CodecError):
            encode_predictive(np.array([[512]]), 9)

    def test_deterministic(self):
        rng = np.random.default_rng(77)
        plane = rng.integers(0, 511, size=(20, 20))
        assert encode_predictive(plane, 9) == encode_predictive(plane, 9)

    def test_truncated_payload_rejected(self):
        plane = np.arange(64).reshape(8, 8) * 7 % 512
        payload = encode_predictive(plane, 9)
        with pytest.raises(BitstreamError):
            decode_predictive(payload[: len(payload) // 2], 8, 8, 9)

    @given(plane_arrays(9, 7, 0, 510))
    @settings(max_examples=40)
    def test_roundtrip_property(self, plane):
        payload = encode_predictive(plane, 9)
        assert np.array_equal(decode_predictive(payload, 9, 7, 9), plane)


class TestWaveletCoder:
    def test_constant_plane_cost_counted_from_definition(self):
        # 64x64 constant 255 at depth 9: detail bands are all-zero (1 bit per
        # sample at k=0), the 8x8 L band holds the constant. Counting bits of
        # the defined code gives the exact ceiling below.
        plane = np.full((64, 64), 255, dtype=np.int64)
        payload = encode_wavelet_lossless(plane, 9)
        detail_samples = 64 * 64 - 8 * 8
        l_band_bits = 640  # 64 samples, zigzag(255)=510, best k=8: 64*(1+1+8)
        records = 10 * 5 * 8
        padding = 10 * 7
        upper = (detail_samples + l_band_bits + records + padding + 7) // 8
        assert detail_samples // 8 < len(payload) <= upper

    @pytest.mark.parametrize("depth", [9, 11, 13])
    def test_roundtrip_random_planes(self, depth):
        rng = np.random.default_rng(100 + depth)
        for shape in ((1, 1), (2, 3), (16, 16), (5, 31)):
            plane = rng.integers(0, (1 << depth) - 1, size=shape, endpoint=True)
            payload = encode_wavelet_lossless(plane, depth)
            out = decode_wavelet_lossless(payload, shape[1], shape[0], depth)
            assert np.array_equal(out, plane)

    def test_deterministic(self):
        rng = np.random.default_rng(8)
        plane = rng.integers(0, 511, size=(20, 20))
        assert encode_wavelet_lossless(plane, 9) == encode_wavelet_lossless(plane, 9)

    def test_truncated_payload_rejected(self):
        plane = np.arange(64).reshape(8, 8) * 5 % 512
        payload = encode_wavelet_lossless(plane, 9)
        with pytest.raises(BitstreamError):
            decode_wavelet_lossless(payload[:-3], 8, 8, 9)

    @given(plane_arrays(9, 7, 0, 510))
    @settings(max_examples=40)
    def test_roundtrip_property(self, plane):
        payload = encode_wavelet_lossless(plane, 9)
        assert np.array_equal(decode_wavelet_lossless(payload, 9, 7, 9), plane)


class TestExtensionPayload:
    def test_roundtrip_multi_component(self):
        rng = np.random.default_rng(3)
        planes = [rng.integers(0, 510, size=(6, 11), endpoint=True) for _ in range(3)]
        for coder in LosslessCoderId:
            payload = encode_extension(planes, 9, coder)
            out, got_coder, depth = decode_extension(payload, 11, 6, 3)
            assert got_coder == coder and depth == 9
            for a, b in zip(out, planes):
                assert np.array_equal(a, b)

    def test_bad_magic_rejected(self):
        payload = bytearray(
            encode_extension([np.zeros((2, 2), dtype=np.int64)], 9, LosslessCoderId.PREDICTIVE)
        )
        payload[0] ^= 0xFF
        with pytest.raises(BitstreamError):
            decode_extension(bytes(payload), 2, 2, 1)

    def test_unknown_coder_rejected(self):
        payload = bytearray(
            encode_extension([np.zeros((2, 2), dtype=np.int64)], 9, LosslessCoderId.PREDICTIVE)
        )
        payload[4] = 99
        with pytest.raises(BitstreamError):
            decode_extension(bytes(payload), 2, 2, 1)

    def test_component_count_must_match(self):
        payload = encode_extension(
            [np.zeros((2, 2), dtype=np.int64)], 9, LosslessCoderId.PREDICTIVE
        )
        with pytest.raises(BitstreamError):
            decode_extension(payload, 2, 2, 3)


@pytest.mark.parametrize("coder", list(LosslessCoderId), ids=lambda c: c.name.lower())
def test_extension_byte_flips_never_crash(coder):
    plane = natural_image(32, 32, 8).planes[0]
    payload = encode_extension([plane], 8, coder)
    for pos in range(len(payload)):
        for flip in (0x01, 0xFF):
            corrupted = bytearray(payload)
            corrupted[pos] ^= flip
            try:
                planes, _, depth = decode_extension(bytes(corrupted), 32, 32, 1)
            except CodecError:
                continue
            # silent differences are tolerable only for in-range planes
            (out,) = planes
            assert out.shape == (32, 32)
            assert 0 <= int(out.min()) and int(out.max()) < (1 << depth)
