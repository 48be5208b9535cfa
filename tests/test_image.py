import math

import numpy as np
import pytest
from hypothesis import given
import hypothesis.strategies as st

from tlxs.errors import CodecError
from tlxs.image import INFINITE, PlanarImage, bits_per_pixel, measure, psnr
from tlxs.residual import ResidualPlane

from conftest import images


def _psnr_oracle(a: PlanarImage, b: PlanarImage) -> float:
    """Independent scalar-loop PSNR in double precision."""
    total = 0.0
    count = 0
    for pa, pb in zip(a.planes, b.planes):
        for row_a, row_b in zip(pa.tolist(), pb.tolist()):
            for va, vb in zip(row_a, row_b):
                total += (va - vb) ** 2
                count += 1
    mse = total / count
    if mse == 0:
        return INFINITE
    peak = (1 << a.bit_depth) - 1
    return 10.0 * math.log10(peak * peak / mse)


def test_identical_images_are_infinite():
    img = PlanarImage.from_planes([np.arange(12).reshape(3, 4)], 8)
    assert psnr(img, img) == INFINITE


def test_maximal_error_is_zero_db():
    a = PlanarImage.from_planes([np.zeros((2, 2), dtype=np.int64)], 8)
    b = PlanarImage.from_planes([np.full((2, 2), 255, dtype=np.int64)], 8)
    assert psnr(a, b) == pytest.approx(0.0, abs=1e-12)


def test_psnr_matches_scalar_oracle():
    rng = np.random.default_rng(42)
    a = PlanarImage.from_planes([rng.integers(0, 256, size=(8, 8))], 8)
    b = PlanarImage.from_planes([rng.integers(0, 256, size=(8, 8))], 8)
    assert psnr(a, b) == pytest.approx(_psnr_oracle(a, b), abs=1e-9)


def test_psnr_pools_mse_over_components():
    rng = np.random.default_rng(1)
    a = PlanarImage.from_planes([rng.integers(0, 256, size=(4, 4)) for _ in range(3)], 8)
    b = PlanarImage.from_planes([rng.integers(0, 256, size=(4, 4)) for _ in range(3)], 8)
    assert psnr(a, b) == pytest.approx(_psnr_oracle(a, b), abs=1e-9)


def test_psnr_shape_mismatch():
    a = PlanarImage.from_planes([np.zeros((2, 2), dtype=np.int64)], 8)
    b = PlanarImage.from_planes([np.zeros((2, 3), dtype=np.int64)], 8)
    with pytest.raises(CodecError):
        psnr(a, b)


@given(images(max_dim=8))
def test_psnr_symmetric(img):
    rng = np.random.default_rng(img.width * 31 + img.height)
    other = PlanarImage.from_planes(
        [rng.integers(0, img.max_sample, size=(img.height, img.width), endpoint=True)
         for _ in range(img.components)],
        img.bit_depth,
    )
    assert psnr(img, other) == psnr(other, img)


@given(st.integers(0, 255), st.integers(0, 255), st.integers(0, 255))
def test_growing_single_sample_error_never_raises_psnr(base, near, far):
    # order the two candidate values by distance from the reference sample
    if abs(near - base) > abs(far - base):
        near, far = far, near
    ref = PlanarImage.from_planes([np.full((3, 3), base, dtype=np.int64)], 8)

    def with_corner(v):
        plane = np.full((3, 3), base, dtype=np.int64)
        plane[0, 0] = v
        return PlanarImage.from_planes([plane], 8)

    assert psnr(ref, with_corner(far)) <= psnr(ref, with_corner(near))


def test_bits_per_pixel():
    assert bits_per_pixel(100, 10, 10) == 8.0
    assert bits_per_pixel(0, 5, 5) == 0.0
    assert bits_per_pixel(3000, 100, 60) == 4.0


def test_bits_per_pixel_zero_area():
    with pytest.raises(CodecError):
        bits_per_pixel(10, 0, 5)


def test_measure_bundles_quality_and_size():
    img = PlanarImage.from_planes([np.arange(12).reshape(3, 4)], 8)
    metrics = measure(img, img, 60)
    assert metrics.psnr_db == INFINITE  # exactly zero MSE, nothing else
    assert metrics.bpp == 40.0
    assert metrics.byte_count == 60
    other = PlanarImage.from_planes([np.zeros((3, 4), dtype=np.int64)], 8)
    assert measure(img, other, 0).bpp == 0.0
    assert measure(img, other, 0).psnr_db != INFINITE


def test_planar_image_validates_range():
    with pytest.raises(CodecError):
        PlanarImage.from_planes([np.array([[256]])], 8)
    with pytest.raises(CodecError):
        PlanarImage.from_planes([np.array([[-1]])], 8)


def test_planar_image_validates_components():
    planes = [np.zeros((1, 1), dtype=np.int64)] * 2
    with pytest.raises(CodecError):
        PlanarImage.from_planes(planes, 8)


def test_planes_are_read_only():
    img = PlanarImage.from_planes([np.zeros((2, 2), dtype=np.int64)], 8)
    with pytest.raises(ValueError):
        img.planes[0][0, 0] = 1


@pytest.mark.parametrize("value", [2**32 + 5, 2**32 - 1, -1, 2**63 + 5])
def test_samples_that_would_wrap_or_lie_below_zero_are_rejected(value):
    # int32 narrowing would turn 2**32 + 5 into the valid sample 5
    plane = np.zeros((2, 3), dtype=np.uint64 if value > 2**63 else np.int64)
    plane[1, 2] = value
    with pytest.raises(CodecError):
        PlanarImage.from_planes([plane], 16)


def test_python_ints_beyond_int64_are_rejected_as_codec_errors():
    with pytest.raises(CodecError):
        PlanarImage.from_planes([[[1, 2**70]]], 16)


@pytest.mark.parametrize("view", [False, True], ids=["array", "view"])
def test_caller_int32_buffer_stays_writeable_and_unshared(view):
    buf = np.zeros((2, 4), dtype=np.int32)
    plane = buf[:1] if view else buf  # both C-contiguous int32, as kept planes are
    img = PlanarImage.from_planes([plane], 8)
    assert buf.flags.writeable and plane.flags.writeable
    plane[0, 0] = 7  # the caller keeps writing into its buffer
    assert img.planes[0][0, 0] == 0
    assert not np.shares_memory(img.planes[0], buf)


def test_read_only_int32_plane_is_kept_as_is():
    img = PlanarImage.from_planes([np.ones((2, 3), dtype=np.int32)], 8)
    again = PlanarImage.from_planes(img.planes, 8)
    assert again.planes[0] is img.planes[0]


@pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.int64, np.float64, bool])
def test_planes_are_read_only_int32(dtype):
    img = PlanarImage.from_planes([np.ones((2, 3), dtype=dtype)], 8)
    assert img.planes[0].dtype == np.int32
    assert not img.planes[0].flags.writeable
    assert img.planes[0].tolist() == [[1, 1, 1], [1, 1, 1]]


@pytest.mark.parametrize(
    "plane",
    [
        np.array([[1.7, 2.2]]),
        np.array([[1 + 2j, 3]]),
        np.array([["12", "3"]]),
        np.array([[np.nan, 1.0]]),
        np.array([[np.inf, 1.0]]),
        np.array([[1.5, 2]], dtype=object),
        np.array([["12", 3]], dtype=object),
        np.array([["2020-01-01"]], dtype="datetime64[D]"),
    ],
    ids=["fraction", "complex", "string", "nan", "inf", "object-float", "object-str", "date"],
)
@pytest.mark.filterwarnings("error")
def test_non_integer_samples_are_rejected_not_altered(plane):
    with pytest.raises(CodecError, match="integers"):
        PlanarImage.from_planes([plane], 8)
    with pytest.raises(CodecError, match="integers"):
        ResidualPlane.from_samples(plane, 9, True)
