"""Bit-level I/O of the Rice band section: MSB-first packing, zero padding to
a byte, fixed-width field reads and truncation.

The bits are written by ``rice.encode_band``/``encode_bands`` and read by
``rice.decode_bands`` and through the 64-bit windows of ``rice.byte_windows``.
"""

import numpy as np
import pytest
from hypothesis import given
import hypothesis.strategies as st

from tlxs.errors import BitstreamError
from tlxs.rice import (
    MAX_RICE_K,
    BandRecord,
    byte_windows,
    decode_bands,
    encode_band,
    encode_bands,
    pack_codes,
)


def _field_bits(fields):
    """0/1 array of each ``(value, width)`` field, most significant bit first."""
    bits = [(value >> (width - 1 - i)) & 1 for value, width in fields for i in range(width)]
    return np.asarray(bits, dtype=np.uint8)


def _read_field(windows, pos, width):
    """``width`` bits from bit ``pos``, read the way the predictive decoder does."""
    return ((windows[pos >> 3] << (pos & 7)) & ((1 << 64) - 1)) >> (64 - width)


def test_msb_first_packing():
    # mapped value 0b101 at k=3: no unary ones, the terminator "0", then "101"
    bits = pack_codes(np.array([0b101]), np.array([3]))
    assert bits.tolist() == [0, 1, 0, 1]
    assert np.packbits(bits).tobytes() == bytes([0b01010000])


def test_align_pads_zeros():
    # zigzag(-1) = 1 at k=0 codes as "10"; the section pads it to one byte
    records, payload = encode_bands([np.array([-1])])
    assert records == [(0, 2)]
    assert len(payload) * 8 == 8
    assert payload == bytes([0x80])


def test_reader_roundtrip_fields():
    bits = _field_bits([(0xABC, 12), (5, 3)])
    windows = byte_windows(np.packbits(bits).tobytes())
    assert len(windows) == 3
    assert _read_field(windows, 0, 12) == 0xABC
    assert _read_field(windows, 12, 3) == 5
    # past the end the window reads as zero padding
    assert _read_field(windows, 15, 8) == 0
    assert windows[2] == 0


def test_reader_truncation():
    # nine bits declared, one byte present
    with pytest.raises(BitstreamError):
        list(decode_bands(b"\xff", 0, [BandRecord("0", 0, 1, 1, 1, 0, 9)], 1))
    with pytest.raises(BitstreamError):
        list(decode_bands(b"", 0, [BandRecord("0", 0, 1, 1, 1, 0, 1)], 1))


def test_bit_array_roundtrip():
    band = np.array([-1, 0, 3, -2, 1], dtype=np.int64)
    records, payload = encode_bands([band])
    (k, nbits), = records
    bits = encode_band(band, k)
    assert nbits == bits.size
    unpacked = np.unpackbits(np.frombuffer(payload, dtype=np.uint8))
    assert np.array_equal(unpacked[: bits.size], bits)
    assert np.all(unpacked[bits.size :] == 0)
    (out,) = decode_bands(payload, 0, [BandRecord("0", 0, band.size, 1, 1, k, nbits)], 3)
    assert np.array_equal(out, band.reshape(1, -1))


@given(st.lists(st.tuples(st.integers(0, 2**20), st.integers(0, MAX_RICE_K)), max_size=30))
def test_field_sequences_roundtrip(fields):
    kept = [(value & ((1 << width) - 1), width) for value, width in fields]
    windows = byte_windows(np.packbits(_field_bits(kept)).tobytes())
    pos = 0
    for value, width in kept:
        assert _read_field(windows, pos, width) == value
        pos += width


def _window_oracle(data, pos):
    return int.from_bytes(data[pos : pos + 8].ljust(8, b"\0"), "big")


@pytest.mark.parametrize("size", range(41))
def test_byte_windows_match_big_endian_reads(size):
    data = bytes(range(251, 251 - size, -1))
    windows = byte_windows(data)
    assert windows.tolist() == [_window_oracle(data, p) for p in range(size + 1)]


def test_byte_windows_of_a_long_payload():
    data = np.random.default_rng(8).integers(0, 256, 100_000, dtype=np.uint8).tobytes()
    windows = byte_windows(data)
    assert windows.tolist() == [_window_oracle(data, p) for p in range(len(data) + 1)]
