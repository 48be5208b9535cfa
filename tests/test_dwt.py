import numpy as np
import pytest
from hypothesis import given
import hypothesis.strategies as st

from tlxs.base import MAX_STEP, dequantize_deadzone, quantize_deadzone
from tlxs.dwt import (
    _MERGE_ROWS,
    MAX_MAGNITUDE,
    band_dimensions,
    decompose,
    dwt_forward_53,
    dwt_inverse_53,
    recompose,
)
from tlxs.errors import CodecError

from conftest import plane_arrays
from reference import _merge_rows_oracle, decompose_oracle, recompose_oracle


def _reflect(i, n):
    if n == 1:
        return 0
    period = 2 * (n - 1)
    i %= period
    return i if i < n else period - i


def oracle_forward(x):
    """Direct evaluation of the lifting recurrences on the extended signal."""
    n = len(x)
    if n == 1:
        return [x[0]], []

    def xe(i):
        return x[_reflect(i, n)]

    def d(j):
        return xe(2 * j + 1) - (xe(2 * j) + xe(2 * j + 2)) // 2

    nh = n // 2
    nl = n - nh
    high = [d(j) for j in range(nh)]
    low = [xe(2 * i) + (d(i - 1) + d(i) + 2) // 4 for i in range(nl)]
    return low, high


def test_constant_line_has_zero_detail():
    low, high = dwt_forward_53([7, 7, 7, 7])
    assert low.tolist() == [7, 7]
    assert high.tolist() == [0, 0]


def test_ramp_values_match_oracle():
    # interior detail of a linear signal is annihilated; the last detail
    # coefficient sees the reflected boundary instead of the ramp continuing
    want_low, want_high = oracle_forward([0, 1, 2, 3])
    assert (want_low, want_high) == ([0, 2], [0, 1])
    low, high = dwt_forward_53([0, 1, 2, 3])
    assert low.tolist() == want_low
    assert high.tolist() == want_high


@pytest.mark.parametrize("n", list(range(1, 20)) + [33, 64])
def test_forward_matches_oracle_all_lengths(n):
    rng = np.random.default_rng(n)
    x = rng.integers(-1000, 1000, size=n).tolist()
    low, high = dwt_forward_53(x)
    want_low, want_high = oracle_forward(x)
    assert low.tolist() == want_low
    assert high.tolist() == want_high


def test_inverse_of_constant():
    assert dwt_inverse_53([7, 7], [0, 0]).tolist() == [7, 7, 7, 7]


def test_odd_length_roundtrip():
    x = [5, -3, 8, 100, -40]
    low, high = dwt_forward_53(x)
    assert dwt_inverse_53(low, high).tolist() == x


@given(st.lists(st.integers(-(2**20), 2**20), min_size=1, max_size=64))
def test_roundtrip_property(x):
    low, high = dwt_forward_53(x)
    assert dwt_inverse_53(low, high).tolist() == x


def test_empty_line_rejected():
    with pytest.raises(CodecError):
        dwt_forward_53([])


def test_inconsistent_band_lengths_rejected():
    with pytest.raises(CodecError):
        dwt_inverse_53([1, 2, 3], [0])
    with pytest.raises(CodecError):
        dwt_inverse_53([], [1])


def test_single_horizontal_split_dims():
    layout = band_dimensions(4, 2, 1, 0)
    assert layout == [("L", 2, 2), ("H1", 2, 2)]


def test_constant_plane_detail_is_zero():
    plane = np.full((8, 8), 9, dtype=np.int64)
    bands = decompose(plane, 2, 1)
    layout = band_dimensions(8, 8, 2, 1)
    assert len(bands) == len(layout)
    for (name, bw, bh), band in zip(layout, bands):
        assert band.shape == (bh, bw)
        if name != "L":
            assert not band.any(), name
        else:
            assert np.all(band == 9)


def test_band_dims_tile_image_exactly():
    for w, h, lh, lv in [(17, 5, 5, 2), (1, 1, 6, 2), (256, 256, 5, 2), (9, 3, 3, 1)]:
        layout = band_dimensions(w, h, lh, lv)
        assert sum(bw * bh for _, bw, bh in layout) == w * h


@given(
    plane_arrays(17, 5, -(2**17), 2**17),
    st.integers(1, 6),
    st.integers(0, 2),
)
def test_decompose_recompose_identity(plane, levels_h, levels_v):
    levels_v = min(levels_v, levels_h)
    bands = decompose(plane, levels_h, levels_v)
    assert np.array_equal(recompose(bands, 17, 5, levels_h, levels_v), plane)


def test_recompose_rejects_wrong_layout():
    plane = np.zeros((5, 17), dtype=np.int64)
    bands = decompose(plane, 2, 1)
    with pytest.raises(CodecError):
        recompose(bands[:-1], 17, 5, 2, 1)
    bad = [b.copy() for b in bands]
    bad[0] = np.zeros((1, 1), dtype=np.int64)
    with pytest.raises(CodecError):
        recompose(bad, 17, 5, 2, 1)


@given(
    st.integers(1, 40),
    st.integers(1, 40),
    st.integers(1, 6),
    st.integers(0, 3),
    st.integers(0, 2**32 - 1),
)
def test_decompose_and_recompose_match_oracle(width, height, levels_h, levels_v, seed):
    levels_v = min(levels_v, levels_h)
    plane = np.random.default_rng(seed).integers(-(2**20), 2**20, (height, width))
    bands = decompose(plane, levels_h, levels_v)
    want = decompose_oracle(plane, levels_h, levels_v)
    assert all(np.array_equal(got, band) for got, band in zip(bands, want))
    assert all(band.flags.c_contiguous for band in bands)
    out = recompose(bands, width, height, levels_h, levels_v)
    assert out.flags.c_contiguous
    assert np.array_equal(out, recompose_oracle(bands, levels_h, levels_v))
    assert np.array_equal(out, plane)


@pytest.mark.parametrize(
    "width, height",
    [
        (512, 512),
        (37, 21),
        (2, 64),
        (64, 1),
        # heights about the horizontal merge's row blocks
        (37, _MERGE_ROWS - 1),
        (1, _MERGE_ROWS),
        (2, _MERGE_ROWS + 1),
        (35, 2 * _MERGE_ROWS + 1),
        (2, 2 * _MERGE_ROWS + 1),
    ],
)
def test_recompose_reads_broadcast_zero_and_strided_bands(width, height):
    # what decode_base passes: read-only zero views for empty bands, and
    # bands that are views into larger arrays
    rng = np.random.default_rng(width * height)
    layout = band_dimensions(width, height, 5, 2)
    bands = []
    for index, (name, bw, bh) in enumerate(layout):
        if index % 3 == 1 or name.endswith("1"):
            band = np.broadcast_to(np.int64(0), (bh, bw))
        elif index % 3 == 2:
            band = rng.integers(-500, 500, (2 * bh, 3 * bw))[::2, ::3]
        else:
            band = rng.integers(-500, 500, (bw, bh)).T
        bands.append(band)
    assert any(not band.flags.writeable for band in bands)
    out = recompose(bands, width, height, 5, 2)
    assert out.flags.c_contiguous and out.flags.writeable
    assert np.array_equal(out, recompose_oracle(bands, 5, 2))


@pytest.mark.parametrize("value", [2**32 + 5, 2**32 - 1, -(2**32) - 5])
def test_samples_that_would_wrap_in_int32_are_rejected(value):
    # astype(np.int32) would turn 2**32 + 5 into 5 and 2**32 - 1 into -1
    plane = np.zeros((4, 6), dtype=np.int64)
    plane[1, 3] = value
    with pytest.raises(CodecError):
        decompose(plane, 2, 1)
    with pytest.raises(CodecError):
        dwt_forward_53(plane[1])


def test_transform_input_is_bounded_by_max_magnitude():
    plane = np.full((5, 9), MAX_MAGNITUDE, dtype=np.int64)
    plane[::2, ::3] = -MAX_MAGNITUDE
    assert np.array_equal(recompose(decompose(plane, 3, 2), 9, 5, 3, 2), plane)
    for value in (MAX_MAGNITUDE + 1, -MAX_MAGNITUDE - 1):
        plane[2, 4] = value
        with pytest.raises(CodecError):
            decompose(plane, 3, 2)


def test_bands_and_planes_are_int32():
    plane = np.arange(35 * 21).reshape(21, 35) % 4096
    bands = decompose(plane, 5, 2)
    assert all(band.dtype == np.int32 for band in bands)
    out = recompose(bands, 35, 21, 5, 2)
    assert out.dtype == np.int32 and np.array_equal(out, plane)
    low, high = dwt_forward_53(plane[0])
    assert low.dtype == high.dtype == np.int32
    assert dwt_inverse_53(low, high).dtype == np.int32


def _checkerboard(width, height, high):
    return np.add.outer(np.arange(height), np.arange(width)) % 2 * high


def _vertical_edge(width, height, high):
    return np.where(np.arange(width) >= width // 2, high, 0)[None, :].repeat(height, 0)


def _horizontal_edge(width, height, high):
    return _vertical_edge(height, width, high).T


def _dequantize_int64(coeff, step):
    index = np.sign(coeff) * (np.abs(coeff) // step)
    return np.sign(index) * (np.abs(index) * step + step // 2)


@pytest.mark.parametrize("make", [_checkerboard, _vertical_edge, _horizontal_edge])
@pytest.mark.parametrize("step", [1, MAX_STEP])
@pytest.mark.parametrize("width, height", [(67, 45), (128, 8)])
def test_16_bit_extremes_at_6_2_levels_match_int64_oracle(make, step, width, height):
    # full-scale 0/65535 patterns at the base layer's deepest levels, then
    # the quantization error of the coarsest step amplified by synthesis
    plane = make(width, height, (1 << 16) - 1)
    bands = decompose(plane, 6, 2)
    want = decompose_oracle(plane, 6, 2)
    assert all(np.array_equal(got, band) for got, band in zip(bands, want))
    coeffs = [dequantize_deadzone(quantize_deadzone(band, step), step) for band in bands]
    want_coeffs = [_dequantize_int64(band, step) for band in want]
    assert all(np.array_equal(got, c) for got, c in zip(coeffs, want_coeffs))
    out = recompose(coeffs, width, height, 6, 2)
    assert out.dtype == np.int32
    assert np.array_equal(out, recompose_oracle(want_coeffs, 6, 2))


@pytest.mark.parametrize("make", [_checkerboard, _vertical_edge, _horizontal_edge])
def test_17_bit_residual_extremes_at_3_3_levels_match_int64_oracle(make):
    # shifted residuals of a 16-bit image span 0 .. 2**17 - 2
    plane = make(45, 37, (1 << 17) - 2)
    bands = decompose(plane, 3, 3)
    assert all(np.array_equal(b, w) for b, w in zip(bands, decompose_oracle(plane, 3, 3)))
    assert np.array_equal(recompose(bands, 45, 37, 3, 3), plane)


def _synthesis_columns(n, levels):
    """Columns of the 1-D synthesis from each band of an n-sample line.

    Returns ``{("L", s) or ("H", s): n x size matrix}`` for the low and high
    halves at level ``s``, measured on scaled impulses through the int64 row
    oracle (the floors make it linear only up to 2**-20).
    """
    scale = 1 << 20
    columns = {("L", 0): np.eye(n)}
    size = n
    for s in range(1, levels + 1):
        nl, nh = (size + 1) // 2, size // 2
        low = _merge_rows_oracle(scale * np.eye(nl, dtype=np.int64), np.zeros((nl, nh), np.int64))
        high = _merge_rows_oracle(np.zeros((nh, nl), np.int64), scale * np.eye(nh, dtype=np.int64))
        columns[("H", s)] = columns[("L", s - 1)] @ (high.T / scale)
        columns[("L", s)] = columns[("L", s - 1)] @ (low.T / scale)
        size = nl
    return columns


def _worst_case_bands(width, height, levels_h, levels_v, limit):
    """Bands at +-``limit`` signed to push one output sample as far as synthesis can.

    A band's synthesis is the outer product of a vertical and a horizontal
    1-D synthesis, so its weight on sample (y, x) is the product of their
    absolute row sums, and the signs that push (y, x) hardest are the outer
    product of their row signs. The sample pushed is the one of largest total.
    """
    h = _synthesis_columns(width, levels_h)
    v = _synthesis_columns(height, levels_v)
    factors = []  # (vertical, horizontal) per band, in canonical order
    for name, _, _ in band_dimensions(width, height, levels_h, levels_v):
        kind, s = name.rstrip("0123456789"), int(name.lstrip("LH") or 0)
        if kind == "L":
            factors.append((v["L", levels_v], h["L", levels_h]))
        elif kind == "H":
            factors.append((v["L", levels_v], h["H", s]))
        else:  # HL, LH, HH: horizontal half first, vertical half second
            factors.append((v[kind[1], s], h[kind[0], s]))
    gain = sum(np.outer(np.abs(fv).sum(1), np.abs(fh).sum(1)) for fv, fh in factors)
    y, x = np.unravel_index(np.argmax(gain), gain.shape)
    return [
        limit * np.outer(np.where(fv[y] < 0, -1, 1), np.where(fh[x] < 0, -1, 1))
        for fv, fh in factors
    ]


@pytest.mark.parametrize(
    "width, height, levels_h, levels_v, limit",
    [
        (64, 64, 6, 2, (1 << 25) + MAX_STEP),  # decode_base's limit at 16 bits
        (100, 100, 3, 3, 1 << 24),  # the wavelet extension's limit at 17 bits
    ],
)
def test_hostile_bands_at_the_decoder_limits_do_not_wrap(
    width, height, levels_h, levels_v, limit
):
    bands = _worst_case_bands(width, height, levels_h, levels_v, limit)
    want = recompose_oracle(bands, levels_h, levels_v)
    # the push reaches past 8 times the limit (the bound is 11 at 6/2 and 10
    # at 3/3), yet int32 synthesis agrees exactly
    assert int(np.abs(want).max()) > 8 * limit
    assert np.array_equal(recompose(bands, width, height, levels_h, levels_v), want)
