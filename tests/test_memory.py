"""Peak traced memory of a two-layer encode or decode, per coder, of the
stages whose scratch should not follow the plane size, and of hostile
payloads, which must be refused within a small multiple of their size.

512x512 natural images at 2 bpp, measured with tracemalloc after one
untraced decode has filled the Rice prefix tables. The bounds sit about 10%
above the peaks measured on CPython 3.11 with numpy 2.4 (6.8, 8.8, 6.1, 9.5,
4.4, 4.6 and 11.7 MiB in the order listed below; 10.5 MiB for the rgb8
predictive encode and 4.9 MiB for its base decode). The two predictive
decodes are 27x and 35x the 256 KiB 8-bit raster. A 16-bit encode at
``LOSSLESS_BASE`` peaked at 6.3 MiB with the predictive coder and 4.7 MiB
with the wavelet coder. While the encoder decoded its own base payload back
to get its base image, it peaked at 11.5 MiB with either coder, as high as
a decode.
"""

import tracemalloc

import numpy as np
import pytest

from tlxs import rice
from tlxs.base import LOSSLESS_BASE, BaseConfig, decode_base
from tlxs.container import demux
from tlxs.dwt import decompose, recompose
from tlxs.errors import BitstreamError
from tlxs.image import PlanarImage
from tlxs.pipeline import decode_two_layer, encode_two_layer
from tlxs.residual import LosslessCoderId, _rice_ks, decode_predictive
from tlxs.synthetic import natural_image

from conftest import zero_band_container

MIB = 1 << 20


def _peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "depth, coder, operation, bound_mib",
    [
        (8, LosslessCoderId.PREDICTIVE, "decode", 7.5),
        (16, LosslessCoderId.PREDICTIVE, "decode", 10.0),
        (8, LosslessCoderId.PREDICTIVE, "encode", 6.7),
        (16, LosslessCoderId.PREDICTIVE, "encode", 10.5),
        (8, LosslessCoderId.WAVELET, "encode", 4.9),
        (8, LosslessCoderId.WAVELET, "decode", 5.9),
        (16, LosslessCoderId.WAVELET, "decode", 13.3),
    ],
)
def test_peak_memory_per_coder(depth, coder, operation, bound_mib):
    image = natural_image(512, 512, depth)
    config = BaseConfig(target_bpp=2.0)
    data = encode_two_layer(image, config, coder)
    assert decode_two_layer(data).image == image  # warms the prefix tables
    if operation == "encode":
        peak = _peak(lambda: encode_two_layer(image, config, coder))
    else:
        peak = _peak(lambda: decode_two_layer(data))
    assert peak <= bound_mib * MIB, peak / MIB


@pytest.mark.parametrize("coder", list(LosslessCoderId))
def test_peak_memory_lossless_base_encode(coder):
    # the encoder rebuilds its base from its own step-1 indices in place,
    # rather than decoding its payload back at a decode's peak
    image = natural_image(512, 512, 16)
    config = BaseConfig(target_bpp=LOSSLESS_BASE)
    encode_two_layer(image, config, coder)
    peak = _peak(lambda: encode_two_layer(image, config, coder))
    assert peak <= 7.0 * MIB, peak / MIB


def _rgb8():
    planes = [natural_image(512, 512, 8, seed=seed).planes[0] for seed in (4, 5, 6)]
    return PlanarImage.from_planes(planes, 8)


def test_peak_memory_rgb8_predictive_encode():
    image = _rgb8()
    config = BaseConfig(target_bpp=2.0)
    encode_two_layer(image, config, LosslessCoderId.PREDICTIVE)
    peak = _peak(lambda: encode_two_layer(image, config, LosslessCoderId.PREDICTIVE))
    assert peak <= 11.6 * MIB, peak / MIB


def test_peak_memory_rgb8_decode_base():
    # the clipped recomposed planes are adopted by the image, not copied,
    # and the two-layer restore runs in place in the extension's planes
    image = _rgb8()
    data = encode_two_layer(image, BaseConfig(target_bpp=2.0), LosslessCoderId.PREDICTIVE)
    payload, _, _ = demux(data)
    decode_base(payload)
    peak = _peak(lambda: decode_base(payload))
    assert peak <= 5.3 * MIB, peak / MIB
    restored = decode_two_layer(data).image
    assert restored == image
    for decoded in (decode_base(payload), restored):
        assert not any(plane.flags.writeable for plane in decoded.planes)


def test_rice_schedule_scratch_does_not_follow_plane_size():
    # beside its int8 output the schedule keeps one block's scratch; a
    # plane-sized schedule grows by about 52 B per sample
    rng = np.random.default_rng(5)
    extra = []
    for size in (1 << 18, 1 << 20):
        mapped = (rng.integers(0, 1 << 12, size) >> rng.integers(0, 12, size)).astype(np.int32)
        extra.append(_peak(lambda: _rice_ks(mapped)) - size)
    assert extra[1] <= extra[0] + 64 * 1024, extra


def test_horizontal_merge_scratch_does_not_follow_plane_height():
    # beside its output a horizontal merge keeps one block of rows of
    # scratch; whole-height scratch would grow by 4 B per sample
    rng = np.random.default_rng(7)
    extra = []
    for height in (256, 2048):
        bands = decompose(rng.integers(0, 256, (height, 512)), 1, 0)
        extra.append(_peak(lambda: recompose(bands, 512, height, 1, 0)) - 4 * 512 * height)
    assert extra[1] <= extra[0] + 64 * 1024, extra


def test_byte_windows_peak_per_input_byte():
    # the uint64 windows and one zero-padded copy of the data: 9 B per byte
    data = np.random.default_rng(6).integers(0, 256, 100_000, dtype=np.uint8).tobytes()
    peak = _peak(lambda: rice.byte_windows(data))
    assert peak <= 10 * len(data), peak / len(data)


def _refusal_peak(call):
    """The message of the ``BitstreamError`` that ``call`` raises, and its peak."""
    tracemalloc.start()
    try:
        with pytest.raises(BitstreamError) as refusal:
            call()
        return str(refusal.value), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("k", [0, 1])
def test_hostile_zero_band_is_refused_before_its_zeros_are_located(k):
    # 8 Mi bits where the band's 64 codes, each at most (2**16 >> k) + k + 1
    # bits, hold at most 4 Mi: refused from the record, before the bits are
    # unpacked at 1 B each or their zeros located at 8 B each
    blob = zero_band_container(MIB, k)
    message, peak = _refusal_peak(lambda: decode_two_layer(blob))
    assert message == (
        "extension component 0: band L at bit 400: 8388608 bits exceed any band of 64 samples"
    )
    assert peak <= 2 * len(blob), peak / len(blob)


def test_overlong_predictive_payload_is_refused_before_it_is_read():
    # a 1x1 9-bit plane holds one code of at most 2**10 - 1 bits, so this MiB
    # of ones is refused before it is read into 9 B per byte of windows
    data = b"\xff" * MIB + b"\x00"
    message, peak = _refusal_peak(lambda: decode_predictive(data, 1, 1, 9))
    assert message == f"{len(data)} bytes exceed any stream of 1 samples"
    assert peak <= 64 * 1024, peak
