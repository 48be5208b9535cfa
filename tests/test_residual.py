import re
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from tlxs import dwt, rice
from tlxs.base import BaseConfig
from tlxs.errors import BitstreamError, CodecError
from tlxs.image import PlanarImage
from tlxs.pipeline import decode_two_layer, encode_two_layer
from tlxs.residual import (
    PREFIX_BITS,
    LosslessCoderId,
    ResidualPlane,
    _WAVELET_RECORD,
    _med_array,
    _rice_ks,
    _unpredict,
    compute_residual,
    dc_shift,
    decode_extension,
    decode_predictive,
    decode_wavelet_lossless,
    encode_extension,
    encode_predictive,
    encode_wavelet_lossless,
    fill_prefix,
    med_predict,
    parse_extension_header,
    prefix_codes,
)
from tlxs.synthetic import natural_image

from conftest import images, plane_arrays
from reference import (
    dc_unshift,
    decode_predictive_oracle,
    med_oracle,
    oracle_ks,
    scalar_prediction,
)


def _img(plane, depth):
    return PlanarImage.from_planes([np.asarray(plane)], depth)


def assert_decodes_like_oracle(data, width, height, depth):
    """Both decoders return the same samples, or both raise the same BitstreamError."""
    try:
        expected = decode_predictive_oracle(data, width, height, depth)
    except BitstreamError as err:
        with pytest.raises(BitstreamError) as raised:
            decode_predictive(data, width, height, depth)
        assert str(raised.value) == str(err)
        return None
    out = decode_predictive(data, width, height, depth)
    assert np.array_equal(out, expected)
    return out


def stream_of_mapped(mapped):
    """A 1xN depth-17 plane whose predictive stream codes exactly ``mapped``."""
    mapped = np.asarray(mapped, dtype=np.int64)
    plane = (1 << 16) - 1 + np.cumsum(rice.zigzag_unmap(mapped))[None, :]
    payload = encode_predictive(plane, 17)
    packed = np.packbits(rice.pack_codes(mapped, oracle_ks(mapped.tolist())))
    assert payload == packed.tobytes()
    return plane, payload


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

    @pytest.mark.parametrize("value", [2**32 + 5, 2**32 - 1, -(2**32) + 5])
    def test_values_that_would_wrap_in_int32_rejected(self, value):
        for shifted in (False, True):
            with pytest.raises(CodecError):
                ResidualPlane.from_samples(np.array([[3, value]]), 9, shifted)

    def test_residual_planes_are_int32(self):
        rng = np.random.default_rng(3)
        a, b = (_img(rng.integers(0, 4096, (5, 7)), 12) for _ in range(2))
        [residual] = compute_residual(a, b)
        shifted = dc_shift(residual)
        for plane in (residual, shifted):
            assert plane.samples.dtype == np.int32
        samples = shifted.samples
        payloads = (encode_predictive(samples, 13), encode_wavelet_lossless(samples, 13))
        for payload, decode in zip(payloads, (decode_predictive, decode_wavelet_lossless)):
            out = decode(payload, 7, 5, 13)
            assert out.dtype == np.int32 and np.array_equal(out, shifted.samples)

    @pytest.mark.parametrize("step", ["residual", "shift"])
    def test_fresh_residual_planes_are_adopted_not_copied(self, step):
        original = natural_image(512, 512, 8)
        base = natural_image(512, 512, 8, seed=9)
        [residual] = compute_residual(original, base)
        call = {
            "residual": lambda: compute_residual(original, base),
            "shift": lambda: dc_shift(residual),
        }[step]
        tracemalloc.start()
        try:
            call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * residual.samples.nbytes

    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    def test_caller_buffer_stays_writeable_and_unshared(self, dtype):
        buf = np.zeros((2, 2), dtype=dtype)
        plane = ResidualPlane.from_samples(buf, 9, True)
        assert buf.flags.writeable
        assert not plane.samples.flags.writeable
        assert not np.shares_memory(plane.samples, buf)
        buf[0, 0] = 7
        assert plane.samples[0, 0] == 0

    @pytest.mark.parametrize("shape", [(), (4,), (2, 2, 1)])
    def test_samples_that_are_not_2d_rejected(self, shape):
        with pytest.raises(CodecError, match="2-D"):
            ResidualPlane.from_samples(np.zeros(shape, dtype=np.int32), 9, True)

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
            shifted = dc_shift(residual)
            fields = (shifted.width, shifted.height, shifted.depth, shifted.shifted)
            assert fields == (residual.width, residual.height, residual.depth, True)
            assert residual.depth == img.bit_depth + 1 and not residual.shifted
            unshifted = dc_unshift(shifted.samples, shifted.depth)
            assert np.array_equal(unshifted, residual.samples)
            assert np.array_equal(other.planes[comp] + unshifted, img.planes[comp])

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
        payload = encode_predictive(r.samples, 9)
        assert np.array_equal(
            decode_predictive(payload, 2, 2, 9), r.samples
        )

    def test_out_of_depth_samples_rejected(self):
        with pytest.raises(CodecError):
            encode_predictive(np.array([[512]]), 9)

    @pytest.mark.parametrize("value", [2**32 + 5, 2**32 - 1, -1])
    def test_samples_that_would_wrap_in_int32_rejected(self, value):
        # narrowed without a check, 2**32 + 5 would code as the valid sample 5
        plane = np.full((2, 3), 7, dtype=np.int64)
        plane[1, 1] = value
        for encode in (encode_predictive, encode_wavelet_lossless):
            with pytest.raises(CodecError):
                encode(plane, 9)

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

    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    @pytest.mark.parametrize(
        "size", [1, 63, 64, 65, 95, 96, 97, 32831, 32832, 32833, 65601, 100000]
    )
    def test_rice_schedule_matches_oracle_across_blocks(self, size, dtype):
        # the 64-sample head, then blocks of 32,768 ending at 32,832, 65,600, ...;
        # magnitudes from 0 to 2**30 move k over its whole range
        rng = np.random.default_rng(size)
        mapped = (rng.integers(0, 2**30 + 1, size) >> rng.integers(0, 31, size)).astype(dtype)
        ks = _rice_ks(mapped)
        assert ks.dtype == np.int8
        assert np.array_equal(ks, oracle_ks(mapped.tolist()))

    @pytest.mark.parametrize(
        "shape", [(1, 1), (1, 9), (9, 1), (2, 2), (3, 11), (10, 4), (11, 2), (2, 11), (12, 3)]
    )
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
        # anti-diagonals are rebuilt in place in the output plane, so beside
        # it there is one anti-diagonal and the first row's or column's sums
        errors = np.random.default_rng(7).integers(-3, 4, size=shape)
        tracemalloc.start()
        try:
            out = _unpredict(errors, 9)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * errors.nbytes
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


def laplace_plane(shape, scale, depth, seed):
    """Plane around mid-range whose MED residuals run at about ``2**scale``."""
    rng = np.random.default_rng(seed)
    top = (1 << depth) - 1
    noise = np.rint(rng.laplace(0.0, float(1 << scale), size=shape)).astype(np.int64)
    return np.clip(top // 2 + noise, 0, top)


@st.composite
def coder_planes(draw):
    depth = draw(st.integers(2, 17))
    shape = draw(
        st.sampled_from(
            [(1, n) for n in (1, 2, 13, 70, 130)]
            + [(n, 1) for n in (2, 13, 70, 130)]
            + [(9, 11), (16, 16)]
        )
    )
    scale = draw(st.integers(0, depth - 1))
    return laplace_plane(shape, scale, depth, draw(st.integers(0, 2**32 - 1))), depth


def _filled_rows(rows):
    return [k for k, row in enumerate(rows) if any(row)]


class TestPrefixTableDecoder:
    """The prefix table, and the table-driven decoder against the one-code-per-pass oracle."""

    @pytest.mark.parametrize(
        "k, prefix, codes",
        [
            (0, 0b001111111110, ((0, 1), (0, 2), (9, 12))),  # last code ends at bit 12
            (0, 0b001111111111, ((0, 1), (0, 2))),  # ... and at bit 13: not held
            (0, 0b111111111110, ((11, 12),)),
            (0, 0b111111111111, ()),
            (2, 0b000110111011, ((0, 3), (11, 8), (7, 12))),
            (11, 0b000000000001, ((1, 12),)),
            (12, 0, ()),
            (rice.MAX_RICE_K, 0, ()),
        ],
    )
    def test_prefix_codes_examples(self, k, prefix, codes):
        assert prefix_codes(k, prefix) == codes

    @pytest.mark.parametrize("k", range(PREFIX_BITS + 1))
    def test_prefix_codes_are_every_complete_code(self, k):
        for prefix in range(1 << PREFIX_BITS):
            bits = [(prefix >> (PREFIX_BITS - 1 - i)) & 1 for i in range(PREFIX_BITS)]
            codes = prefix_codes(k, prefix)
            end = codes[-1][1] if codes else 0
            packed = rice.pack_codes(np.array([m for m, _ in codes], dtype=np.int64), k)
            assert packed.tolist() == bits[:end]
            lengths = [(m >> k) + 1 + k for m, _ in codes]
            assert [e for _, e in codes] == np.cumsum(lengths, dtype=np.int64).tolist()
            # no further code fits: no zero before the last k bits of the rest
            assert all(bits[end : PREFIX_BITS - k])

    def test_fill_prefix_shares_only_equal_entries(self, cold_prefix_tables):
        rows = cold_prefix_tables
        rng = np.random.default_rng(5)
        for k in (0, 1, 3, 8, 11, 12, rice.MAX_RICE_K):
            for prefix in rng.permutation(1 << PREFIX_BITS).tolist():
                if rows[k][prefix] is None:
                    assert fill_prefix(k, prefix) == prefix_codes(k, prefix)
            assert rows[k] == [prefix_codes(k, p) for p in range(1 << PREFIX_BITS)]
        # equal pairs are one object
        pairs = [pair for k in (0, 1, 3) for entry in rows[k] for pair in entry]
        assert len({id(pair) for pair in pairs}) == len(set(pairs))

    @given(coder_planes(), st.data())
    @settings(max_examples=200)
    def test_matches_oracle_on_streams_and_corruptions(self, case, data):
        plane, depth = case
        height, width = plane.shape
        payload = encode_predictive(plane, depth)
        assert np.array_equal(assert_decodes_like_oracle(payload, width, height, depth), plane)
        bit = data.draw(st.integers(0, 8 * len(payload) - 1))
        flipped = bytearray(payload)
        flipped[bit >> 3] ^= 0x80 >> (bit & 7)
        cut = payload[: data.draw(st.integers(0, len(payload) - 1))]
        appended = payload + bytes([data.draw(st.integers(0, 255))])
        noise = data.draw(st.binary(min_size=1, max_size=len(payload) + 8))
        for variant in (bytes(flipped), cut, appended, noise):
            assert_decodes_like_oracle(variant, width, height, depth)

    @pytest.mark.parametrize("last, codes", [(8, 4), (9, 3)])
    def test_code_ending_at_prefix_bit_12_or_13(self, last, codes):
        # three 1-bit zeros, then a code of last + 1 bits ends at bit 12 or 13
        plane, payload = stream_of_mapped([0, 0, 0, last] + [0] * 20)
        top = int.from_bytes(payload[:2], "big") >> 4
        assert len(prefix_codes(0, top)) == codes
        assert np.array_equal(assert_decodes_like_oracle(payload, plane.shape[1], 1, 17), plane)

    @pytest.mark.parametrize("j", range(4))
    def test_k_rises_after_each_position_of_a_k0_group(self, j):
        # the stream's first group: j zeros, then a value that lifts the mean to 2
        mapped = [0] * j + [2 * (j + 1)] + [0] * 20
        assert oracle_ks(mapped)[j : j + 2].tolist() == [0, 1]
        assert 3 * j + 3 <= PREFIX_BITS
        plane, payload = stream_of_mapped(mapped)
        assert np.array_equal(assert_decodes_like_oracle(payload, plane.shape[1], 1, 17), plane)

    @pytest.mark.parametrize("j", range(6))
    def test_k_drops_after_each_position_of_a_k1_group(self, j):
        # a code longer than the prefix ends its group, so the next group
        # starts after it: six 2-bit zeros at k = 1, the mean falling under 2
        # after the (j + 1)-th
        mapped = [0] * 10 + [22 + 2 * j] + [0] * (j + 1) + [0] * 20
        ks = oracle_ks(mapped)
        assert ks[10] == 0 and ks[11 : 12 + j].tolist() == [1] * (j + 1)
        assert ks[12 + j] == 0
        plane, payload = stream_of_mapped(mapped)
        assert np.array_equal(assert_decodes_like_oracle(payload, plane.shape[1], 1, 17), plane)

    @pytest.mark.parametrize("zeros", [0, 400])
    def test_plane_at_k_12_and_above_takes_the_long_path(self, zeros):
        # errors alternating +8192 / -8193 hold the mean near 2**14; zeros
        # after them bring k back under the prefix width
        mapped = [1 << 14, (1 << 14) + 1] * 100 + [0] * zeros
        ks = oracle_ks(mapped)
        assert min(ks[1:200]) >= PREFIX_BITS
        assert zeros == 0 or ks[-1] < PREFIX_BITS
        plane, payload = stream_of_mapped(mapped)
        width = plane.shape[1]
        assert np.array_equal(assert_decodes_like_oracle(payload, width, 1, 17), plane)
        assert_decodes_like_oracle(payload[:-5], width, 1, 17)

    def test_cold_and_warm_tables_decode_alike(self, cold_prefix_tables):
        plane = laplace_plane((64, 64), 3, 13, seed=4)
        payload = encode_predictive(plane, 13)
        cold = decode_predictive(payload, 64, 64, 13)
        assert _filled_rows(cold_prefix_tables)
        warm = decode_predictive(payload, 64, 64, 13)
        assert np.array_equal(cold, plane) and np.array_equal(warm, plane)

    def test_tables_retain_at_most_1_5_mb(self, cold_prefix_tables):
        # natural planes at depths 8..14 run at k = 1..9 and a flattened one at k = 0
        cases = [(natural_image(256, 256, 8, seed=8).planes[0] >> 2, 8)]
        cases += [(natural_image(256, 256, d, seed=d).planes[0], d) for d in range(8, 15)]
        cases = [(plane, depth, encode_predictive(plane, depth)) for plane, depth in cases]
        tracemalloc.start()
        try:
            for plane, depth, payload in cases:
                assert np.array_equal(decode_predictive(payload, 256, 256, depth), plane)
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert set(_filled_rows(cold_prefix_tables)) >= set(range(10))
        assert retained <= 1.5 * 2**20

    def test_concurrent_decodes_share_the_tables(self, cold_prefix_tables, natural_256):
        # 8 threads race to fill the empty rows, switching every 10 us so that
        # fills interleave; a repeated fill writes equal entries
        planes = [natural_image(256, 256, 8, seed=seed).planes[0] for seed in (4, 5, 6)]
        images = (natural_256, PlanarImage.from_planes(planes, 8))
        config = BaseConfig(target_bpp=2.0)
        blobs = [encode_two_layer(image, config, LosslessCoderId.PREDICTIVE) for image in images]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                results = list(pool.map(decode_two_layer, blobs * 8, timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert _filled_rows(cold_prefix_tables)
        single = [decode_two_layer(blob) for blob in blobs]
        assert [result.image for result in single] == list(images)
        assert results == single * 8



class TestPredictiveErrorLocation:
    def test_truncation_inside_a_group(self):
        # 40 two-bit codes cut to 56 bits: codes 24-29 share a prefix
        _, payload = stream_of_mapped([1] * 40)
        with pytest.raises(
            BitstreamError, match=r"^sample \(0, 28\) at bit 56: predictive stream truncated$"
        ):
            decode_predictive(payload[:7], 40, 1, 17)

    @pytest.mark.parametrize("value", [40, 200])
    def test_truncation_inside_a_long_code(self, value):
        # the third code, value + 1 bits from bit 2 (200 takes the 32-ones
        # skips), outruns a 24-bit stream
        _, payload = stream_of_mapped([0, 0, value])
        with pytest.raises(
            BitstreamError, match=r"^sample \(0, 2\) at bit 2: predictive stream truncated$"
        ):
            decode_predictive(payload[:3], 3, 1, 17)

    def test_trailing_data(self):
        _, payload = stream_of_mapped([0] * 8)
        with pytest.raises(
            BitstreamError, match="^at bit 8: trailing data after predictive stream$"
        ):
            decode_predictive(payload + b"\x00", 8, 1, 17)

    def test_error_too_large_for_int32_is_out_of_range_not_wrapped(self):
        # 41 full-swing errors, ending on sample 0, raise k to 17, so an
        # error of 2**31 + 2 takes only 2**15 ones; wrapped to int32 it would
        # be 2, and sample 41, predicted 0, would land in range
        swing = [131069] + [262142, 262141] * 20
        mapped = np.array(swing + [(1 << 32) + 4, 0], dtype=np.int64)
        ks = oracle_ks(mapped.tolist())
        assert ks[41] == 17
        payload = np.packbits(rice.pack_codes(mapped, ks)).tobytes()
        bit = int(((mapped >> ks) + ks + 1)[:41].sum())
        with pytest.raises(
            BitstreamError,
            match=rf"^sample \(0, 41\) at bit {bit}: decoded samples out of range$",
        ):
            decode_predictive(payload, 43, 1, 17)

    def test_out_of_range_sample(self):
        # 255 predicts the first sample at depth 9; +300 on it leaves 0..511
        mapped = np.array([0, 0, 600, 0])
        payload = np.packbits(rice.pack_codes(mapped, oracle_ks(mapped.tolist())))
        with pytest.raises(
            BitstreamError,
            match=r"^sample \(1, 0\) at bit 2: decoded samples out of range$",
        ):
            decode_predictive(payload.tobytes(), 2, 2, 9)


def test_rgb_predictive_file_truncated_in_component_1_names_sample_and_bit():
    from tlxs.base import BaseConfig
    from tlxs.container import demux, mux
    from tlxs.pipeline import decode_two_layer, encode_two_layer

    image = PlanarImage.from_planes(
        [natural_image(32, 32, 8, seed=s).planes[0] for s in (4, 5, 6)], 8
    )
    base, ext, meta = demux(encode_two_layer(image, BaseConfig(target_bpp=2.0)))
    info = parse_extension_header(ext, 32, 32, 3)
    part = info.components[1]
    payload = ext[part.offset : part.offset + part.length]
    cut = len(payload) // 2
    # component 1's length field precedes its payload
    truncated = (
        ext[: part.offset - 4]
        + cut.to_bytes(4, "big")
        + payload[:cut]
        + ext[part.offset + part.length :]
    )
    # the first sample whose code ends past the cut, from the full stream
    rows = decode_predictive(payload, 32, 32, info.depth).tolist()
    errors = [
        rows[y][x] - scalar_prediction(rows, y, x, info.depth)
        for y in range(32)
        for x in range(32)
    ]
    mapped = rice.zigzag_map(np.asarray(errors))
    ks = oracle_ks(mapped.tolist())
    ends = np.cumsum((mapped >> ks) + ks + 1)
    index = int(np.argmax(ends > 8 * cut))
    bit = int(ends[index - 1])
    where = f"extension component 1: sample ({index // 32}, {index % 32}) at bit {bit}: "
    with pytest.raises(BitstreamError, match=rf"^{re.escape(where)}predictive stream truncated$"):
        decode_two_layer(mux(base, truncated, meta))


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
        with pytest.raises(
            BitstreamError, match="^extension component 1: truncated in component table$"
        ):
            decode_extension(payload, 2, 2, 3)

    def test_shorter_than_its_header_rejected(self):
        payload = encode_extension(
            [np.zeros((2, 2), dtype=np.int64)], 9, LosslessCoderId.PREDICTIVE
        )
        with pytest.raises(BitstreamError, match="^extension payload: shorter than its header$"):
            decode_extension(payload[:5], 2, 2, 1)

    def test_component_past_the_payload_rejected(self):
        payload = encode_extension(
            [np.zeros((2, 2), dtype=np.int64)], 9, LosslessCoderId.PREDICTIVE
        )
        with pytest.raises(BitstreamError, match="^extension component 0: payload truncated$"):
            decode_extension(payload[:-1], 2, 2, 1)

    def test_wavelet_band_records_cut_short_rejected(self):
        # a 5-byte component holds one of its ten band records
        payload = encode_extension(
            [np.zeros((2, 2), dtype=np.int64)], 9, LosslessCoderId.WAVELET
        )
        cut = payload[:6] + (5).to_bytes(4, "big") + payload[10:15]
        with pytest.raises(BitstreamError):
            decode_extension(cut, 2, 2, 1)

    def test_wavelet_coefficient_past_the_limit_rejected(self):
        # a 16-bit constant plane's L band holds 65535, past the 1 << 15 an
        # 8-bit plane's coefficients can reach
        payload = encode_wavelet_lossless(np.full((8, 8), 65535, dtype=np.int64), 16)
        with pytest.raises(BitstreamError):
            decode_wavelet_lossless(payload, 8, 8, 8)


@pytest.mark.parametrize("depth", [8, 17])
@pytest.mark.parametrize("excess", [-1, 0, 1, 2])
def test_wavelet_coefficient_bound_edges(depth, excess):
    # A 1x1 plane's one coded band is L, its coefficient the sample itself.
    # Mapped 2 * limit + excess is -limit, limit, -(limit + 1), limit + 1: the
    # first two pass the coefficient check and then fail the sample range.
    limit = 1 << (depth + 2 * 3 + 1)
    value = int(rice.zigzag_unmap(np.array([2 * limit + excess]))[0])
    layout = dwt.band_dimensions(1, 1, 3, 3)
    empty = [np.zeros(0, dtype=np.int64)] * (len(layout) - 1)
    records, section = rice.encode_bands([np.array([value])] + empty)
    payload = b"".join(_WAVELET_RECORD.pack(k, bits) for k, bits in records) + section
    message = "band L: coefficient" if excess > 0 else r"sample \(0, 0\): decoded samples"
    with pytest.raises(BitstreamError, match=f"^{message} out of range$"):
        decode_wavelet_lossless(payload, 1, 1, depth)


def test_wavelet_sample_out_of_range_is_located():
    # a 9-bit plane read as 8-bit: its coefficients fit the 8-bit limit, and
    # the first sample past 255 in raster order is (2, 3)
    plane = np.zeros((5, 6), dtype=np.int64)
    plane[2, 3], plane[4, 0] = 300, 400
    payload = encode_wavelet_lossless(plane, 9)
    with pytest.raises(BitstreamError, match=r"^sample \(2, 3\): decoded samples out of range$"):
        decode_wavelet_lossless(payload, 6, 5, 8)


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
