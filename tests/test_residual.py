import tracemalloc

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from tlxs import dwt, rice
from tlxs.errors import BitstreamError, CodecError
from tlxs.image import PlanarImage
from tlxs.residual import (
    LosslessCoderId,
    ResidualPlane,
    _WAVELET_RECORD,
    _med_array,
    _rice_ks,
    _unpredict,
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


def scalar_prediction(rows, y, x, depth):
    """Prediction of sample (y, x) from ``rows``, by the predictive coder's convention."""
    if y == 0 and x == 0:
        return (1 << (depth - 1)) - 1
    if y == 0:
        return rows[0][x - 1]
    if x == 0:
        return rows[y - 1][0]
    return med_oracle(rows[y][x - 1], rows[y - 1][x], rows[y - 1][x - 1])


class RiceAdapterOracle:
    """Per-sample running-mean Rice parameter: the reference k schedule."""

    def __init__(self):
        self.acc = 0
        self.count = 0

    def k(self):
        mean = self.acc // self.count if self.count else 0
        return min(mean.bit_length() - 1, rice.MAX_RICE_K) if mean > 0 else 0

    def update(self, mapped):
        self.acc += mapped
        self.count += 1
        if self.count == 64:
            self.acc >>= 1
            self.count >>= 1


def oracle_ks(mapped):
    adapter = RiceAdapterOracle()
    ks = []
    for m in mapped:
        ks.append(adapter.k())
        adapter.update(m)
    return np.asarray(ks, dtype=np.int64)


# sample counts on both sides of the running mean's halvings (after 64, 96, 128)
_BLOCK_EDGES = (1, 63, 64, 65, 96, 97, 128)


@st.composite
def predictive_planes(draw):
    depth = draw(st.integers(2, 17))
    n = draw(st.sampled_from(_BLOCK_EDGES))
    height, width = draw(st.sampled_from([(1, n), (n, 1)]))
    return draw(plane_arrays(width, height, 0, (1 << depth) - 1)), depth


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

    def test_array_form_matches_oracle_on_cube(self):
        a, b, c = (v.ravel() for v in np.indices((16, 16, 16)))
        expected = [med_oracle(*abc) for abc in zip(a.tolist(), b.tolist(), c.tolist())]
        assert _med_array(a, b, c).tolist() == expected


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


    @given(predictive_planes())
    @settings(max_examples=60)
    def test_stream_matches_per_sample_rice_schedule(self, case):
        plane, depth = case
        rows = plane.tolist()
        errors = [
            rows[y][x] - scalar_prediction(rows, y, x, depth)
            for y in range(plane.shape[0])
            for x in range(plane.shape[1])
        ]
        mapped = rice.zigzag_map(np.asarray(errors, dtype=np.int64))
        expected = np.packbits(rice.pack_codes(mapped, oracle_ks(mapped.tolist())))
        assert encode_predictive(plane, depth) == expected.tobytes()
        assert np.array_equal(
            decode_predictive(expected.tobytes(), plane.shape[1], plane.shape[0], depth),
            plane,
        )

    @given(st.lists(st.integers(0, 2**30), min_size=1, max_size=200))
    def test_rice_schedule_matches_oracle_up_to_clamp(self, values):
        # values far above any residual's reach drive the mean past k = MAX_RICE_K
        mapped = np.asarray(values, dtype=np.int64)
        assert np.array_equal(_rice_ks(mapped), oracle_ks(values))

    @pytest.mark.parametrize("shape", [(1, 1), (1, 9), (9, 1), (2, 2), (3, 11), (10, 4)])
    @given(data=st.data())
    @settings(max_examples=25)
    def test_wavefront_unpredict_matches_scalar_med(self, shape, data):
        depth = data.draw(st.integers(2, 17))
        lim = (1 << depth) - 1
        errors = data.draw(plane_arrays(shape[1], shape[0], -lim, lim))
        out = [[0] * shape[1] for _ in range(shape[0])]
        for y in range(shape[0]):
            for x in range(shape[1]):
                out[y][x] = scalar_prediction(out, y, x, depth) + int(errors[y, x])
        assert _unpredict(errors, depth).tolist() == out

    @pytest.mark.parametrize(
        "shape", [(200000, 1), (1, 200000), (3000, 20), (20, 3000), (256, 256)]
    )
    def test_unpredict_memory_follows_plane_size(self, shape):
        # the skewed copy runs along the shorter side, so a tall narrow plane
        # needs no height x height buffer
        errors = np.random.default_rng(7).integers(-3, 4, size=shape)
        tracemalloc.start()
        try:
            out = _unpredict(errors, 9)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 6 * errors.nbytes
        assert out.shape == shape and out.flags.c_contiguous
        assert np.array_equal(out, _unpredict(errors.T, 9).T)

    def test_tall_single_column_roundtrips(self):
        steps = np.random.default_rng(8).integers(-2, 3, size=(100000, 1))
        plane = np.clip(255 + np.cumsum(steps, axis=0), 0, 511)
        payload = encode_predictive(plane, 9)
        assert np.array_equal(decode_predictive(payload, 1, 100000, 9), plane)

    @pytest.mark.parametrize("shape", [(1, 300), (24, 24)])
    def test_unary_run_longer_than_window_roundtrips(self, shape):
        # a flat run at the first prediction codes at k = 0, so a full-scale
        # spike after it is a unary run of 2**17 ones, far past one window
        plane = np.full(shape, (1 << 16) - 1, dtype=np.int64)
        plane.flat[200] = (1 << 17) - 1
        payload = encode_predictive(plane, 17)
        assert len(payload) * 8 > 1 << 17
        assert np.array_equal(decode_predictive(payload, shape[1], shape[0], 17), plane)

    @pytest.mark.parametrize("lead", range(8))
    def test_unary_runs_across_window_end_roundtrip(self, lead):
        # `lead` zero errors, one bit each at k = 0, set the bit alignment of
        # a following k = 0 run whose length straddles what one window holds
        for run in range(48, 72):
            mapped = np.array([0] * lead + [run, 0, 0])
            plane = (1 << 16) - 1 + np.cumsum(rice.zigzag_unmap(mapped))[None, :]
            payload = encode_predictive(plane, 17)
            assert np.array_equal(decode_predictive(payload, plane.shape[1], 1, 17), plane)

    @pytest.mark.parametrize("size", [1, 7, 8, 9, 64, 300])
    def test_all_ones_payload_rejected(self, size):
        with pytest.raises(BitstreamError):
            decode_predictive(b"\xff" * size, 1, 1, 9)
        with pytest.raises(BitstreamError):
            decode_predictive(b"\xff" * size, size, 8, 17)

    def test_trailing_zero_byte_rejected(self):
        plane = np.arange(64).reshape(8, 8) * 7 % 512
        payload = encode_predictive(plane, 9)
        with pytest.raises(BitstreamError):
            decode_predictive(payload + b"\x00", 8, 8, 9)

    def test_set_padding_bit_rejected(self):
        # five zero errors at k = 0 take five bits, then three padding bits
        plane = np.full((1, 5), 255, dtype=np.int64)
        payload = encode_predictive(plane, 9)
        assert payload == b"\x00"
        assert np.array_equal(decode_predictive(payload, 5, 1, 9), plane)
        with pytest.raises(BitstreamError):
            decode_predictive(b"\x01", 5, 1, 9)

    def test_more_samples_than_bits_rejected_before_allocation(self):
        tracemalloc.start()
        try:
            with pytest.raises(BitstreamError):
                decode_predictive(b"\x00", 4096, 4096, 9)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


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


def test_wavelet_band_error_names_its_location():
    planes = [natural_image(32, 32, 8, seed=seed).planes[0] for seed in (1, 2)]
    payload = bytearray(encode_extension(planes, 8, LosslessCoderId.WAVELET))
    layout = dwt.band_dimensions(32, 32, 3, 3)
    records, _ = rice.encode_bands(dwt.decompose(planes[1], 3, 3))
    assert layout[-1][0] == "HH1"
    # the last component's payload ends the extension payload, and its band
    # records precede its bands
    component_start = len(payload) - len(encode_wavelet_lossless(planes[1], 8))
    offset = _WAVELET_RECORD.size * len(layout)
    offset += sum((bits + 7) // 8 for _, bits in records[:-1])
    nbytes = (records[-1][1] + 7) // 8
    start = component_start + offset
    payload[start : start + nbytes - 1] = b"\xff" * (nbytes - 1)
    where = f"extension component 1: band HH1 at bit {8 * offset}: "
    with pytest.raises(BitstreamError, match=f"^{where}bitstream truncated inside band"):
        decode_extension(bytes(payload), 32, 32, 2)
