import struct
import zlib

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis.extra import numpy as hnp

from tlxs.container import CODER_NONE, HEADER_SIZE, ContainerMeta, mux
from tlxs.image import PlanarImage

settings.register_profile(
    "tlxs",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
# deeper fuzzing: python -m pytest tests/test_fuzz.py --hypothesis-profile=fuzz
settings.register_profile("fuzz", parent=settings.get_profile("tlxs"), max_examples=20000)
settings.load_profile("tlxs")


def plane_arrays(width, height, low, high):
    return hnp.arrays(
        dtype=np.int64, shape=(height, width), elements=st.integers(low, high)
    )


@st.composite
def images(draw, max_dim=24, depths=(8, 10, 12, 16), color=True):
    width = draw(st.integers(1, max_dim))
    height = draw(st.integers(1, max_dim))
    depth = draw(st.sampled_from(depths))
    components = draw(st.sampled_from([1, 3])) if color else 1
    maxv = (1 << depth) - 1
    planes = [
        draw(plane_arrays(width, height, 0, maxv)) for _ in range(components)
    ]
    return PlanarImage.from_planes(planes, depth)


def reseal(blob, pos, value):
    """Container ``blob`` with header byte ``pos`` set to ``value`` and a valid CRC."""
    header = bytearray(blob[:HEADER_SIZE])
    header[pos] = value
    header[24:28] = bytes(4)  # the CRC covers the header with its field zeroed
    header[24:28] = struct.pack(">I", zlib.crc32(header))
    return bytes(header) + blob[HEADER_SIZE:]


def base_larger_than_its_container():
    """119 bytes: a 64x64 container around a base payload that declares
    2000x2000, one 8-bit component at 5/2 levels, and ten zero-length bands."""
    base = struct.pack(">4sIIBBB", b"XSB1", 2000, 2000, 1, 8, 0x52)
    base += struct.pack(">HBI", 1, 0, 0) * 10
    return mux(base, b"", ContainerMeta(64, 64, 1, 8, CODER_NONE))


def overlong_band_container():
    """A 16x16 two-layer wavelet container whose extension's first band record
    declares 8 more bits than the band section holds."""
    from tlxs.base import BaseConfig
    from tlxs.container import demux
    from tlxs.pipeline import encode_two_layer
    from tlxs.residual import _EXT_FIXED, _EXT_LEN, LosslessCoderId
    from tlxs.synthetic import natural_image

    image = natural_image(16, 16, 8)
    blob = encode_two_layer(image, BaseConfig(target_bpp=2.0), LosslessCoderId.WAVELET)
    base, ext, meta = demux(blob)
    ext = bytearray(ext)
    pos = _EXT_FIXED.size + _EXT_LEN.size + 1  # component 0's first record, after k u8
    bits = int.from_bytes(ext[pos : pos + 4], "big")
    ext[pos : pos + 4] = (bits + 8).to_bytes(4, "big")
    return mux(base, bytes(ext), meta)


def zero_band_container(nbytes, k):
    """A 64x64 no-base wavelet container whose band L is ``nbytes`` zero bytes at ``k``."""
    from tlxs.container import demux
    from tlxs.pipeline import encode_two_layer
    from tlxs.residual import (
        _EXT_FIXED,
        _EXT_LEN,
        _WAVELET_RECORD,
        LosslessCoderId,
        parse_extension_header,
    )
    from tlxs.synthetic import natural_image

    _, ext, meta = demux(encode_two_layer(natural_image(64, 64, 8), None, LosslessCoderId.WAVELET))
    part = parse_extension_header(ext, 64, 64, 1).components[0]  # the only one
    start = part.offset + len(part.bands) * _WAVELET_RECORD.size  # band L's bits
    end = start + (part.bands[0].bits + 7) // 8
    comp = _WAVELET_RECORD.pack(k, 8 * nbytes) + ext[part.offset + _WAVELET_RECORD.size : start]
    comp += bytes(nbytes) + ext[end:]
    return mux(b"", ext[: _EXT_FIXED.size] + _EXT_LEN.pack(len(comp)) + comp, meta)


@pytest.fixture(scope="session")
def natural_256():
    from tlxs.synthetic import natural_image

    return natural_image(256, 256, 8)


@pytest.fixture()
def cold_prefix_tables(monkeypatch):
    """Empty Rice prefix tables for one test; the filled ones return after it."""
    from tlxs import residual, rice

    monkeypatch.setattr(residual, "PREFIX_ROWS", [residual._UNFILLED] * (rice.MAX_RICE_K + 1))
    monkeypatch.setattr(residual, "_PAIRS", {})
    return residual.PREFIX_ROWS
