"""Peak traced memory of a two-layer encode or decode, per coder.

512x512 natural images at 2 bpp, measured with tracemalloc after one
untraced decode has filled the Rice prefix tables. The bounds sit about 10%
above the peaks measured on CPython 3.11 with numpy 2.4 (11.9, 17.3, 4.4,
5.3 and 12.1 MiB in the order listed below).
"""

import tracemalloc

import pytest

from tlxs.base import BaseConfig
from tlxs.pipeline import decode_two_layer, encode_two_layer
from tlxs.residual import LosslessCoderId
from tlxs.synthetic import natural_image

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
        (8, LosslessCoderId.PREDICTIVE, "decode", 13.1),
        (8, LosslessCoderId.PREDICTIVE, "encode", 19.0),
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
