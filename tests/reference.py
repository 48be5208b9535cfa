"""Reference decoder of a whole v1 container: the format's executable spec.

:func:`decode` and :func:`decode_base_only` read a ``TLXS`` v1 file with its
``XSB1`` base and its ``XSE1`` extension under either coder, as the
docstrings of :mod:`tlxs.container`, :mod:`tlxs.base`, :mod:`tlxs.residual`,
:mod:`tlxs.rice` and :mod:`tlxs.dwt` state the format. Nothing is taken from
the library's code: this module imports only :mod:`tlxs.errors`, reads one
Rice code at a time from a string of ``"0"`` and ``"1"``, and computes in
Python ints or int64 where the library narrows to int32. On any input, both
refuse it with a :class:`CodecError`, or both return the same image and the
same ``lossless`` flag; ``tests/test_fuzz.py`` holds the library to that.
Messages are not part of the contract.

A format change edits this module first. The unit tests' oracles live here
too, beside the part of the format each one checks.
"""

from __future__ import annotations

import struct
import zlib
from typing import NamedTuple

import numpy as np

from tlxs.errors import BitstreamError, CodecError, ContainerError, MissingLayerError

MAX_RICE_K = 24
MAX_STEP = 65535
PREDICTIVE, WAVELET = 1, 2


class Decoded(NamedTuple):
    """Int64 planes of shape ``(height, width)``, one per component."""

    planes: list
    bit_depth: int
    lossless: bool


# --- Golomb-Rice codes (tlxs.rice) -----------------------------------------


def zigzag_map_oracle(values):
    values = np.asarray(values, dtype=np.int64)
    return np.where(values >= 0, 2 * values, -2 * values - 1)


def zigzag_unmap_oracle(mapped):
    mapped = np.asarray(mapped, dtype=np.int64)
    return np.where(mapped % 2 == 0, mapped // 2, -(mapped + 1) // 2)


def _coded_bits(mapped, k):
    return int(np.sum(mapped >> k)) + mapped.size * (1 + k)


def rice_bit_cost(indices, k):
    """Bits of ``indices`` coded at ``k``: per value its quotient's ones, a zero, ``k`` bits."""
    return _coded_bits(zigzag_map_oracle(indices), k)


def choose_rice_k_oracle(indices):
    """The ``k`` of least coded length by an exhaustive scan, ties to the smallest."""
    mapped = zigzag_map_oracle(indices)
    return min(range(MAX_RICE_K + 1), key=lambda k: _coded_bits(mapped, k))


def bit_string(data):
    """The bits of ``data``, most significant first, one character each."""
    return "".join(f"{byte:08b}" for byte in data)


def read_code(bits, pos, k):
    """The mapped value of the Rice code at ``pos`` in ``bits``, and the position after it.

    A code is its quotient in ones, a zero, then ``k`` remainder bits. A code
    that ``bits`` cuts off ends past ``len(bits)``.
    """
    zero = bits.find("0", pos)
    if zero < 0:
        return 0, len(bits) + 1
    end = zero + 1 + k
    return ((zero - pos) << k) | int(bits[zero + 1 : end] or "0", 2), end


def decode_mapped_oracle(bits, count, k):
    """``count`` codes at ``k`` from a 0/1 array, one at a time; returns (values, bits used)."""
    stream = "".join(map(str, np.asarray(bits).tolist()))
    mapped, pos = [], 0
    for _ in range(count):
        m, pos = read_code(stream, pos, k)
        if pos > len(stream):
            raise BitstreamError("bitstream truncated inside band")
        mapped.append(m)
    return np.array(mapped, dtype=np.int64), pos


def decode_band_oracle(bits, count, k):
    mapped, consumed = decode_mapped_oracle(bits, count, k)
    if consumed != len(bits):
        raise BitstreamError("trailing bits after band payload")
    return zigzag_unmap_oracle(mapped)


# --- the 5/3 transform and the band layout (tlxs.dwt) ----------------------


def band_layout(width, height, levels_h, levels_v):
    """``(name, width, height)`` of every band, coarsest first."""
    stages = []
    for s in range(1, levels_h + 1):
        low_w, high_w = (width + 1) // 2, width // 2
        if s <= levels_v:
            low_h, high_h = (height + 1) // 2, height // 2
            stages.append(
                [(f"HL{s}", high_w, low_h), (f"LH{s}", low_w, high_h), (f"HH{s}", high_w, high_h)]
            )
            height = low_h
        else:
            stages.append([(f"H{s}", high_w, height)])
        width = low_w
    return [("L", width, height)] + [band for stage in reversed(stages) for band in stage]


def _split_rows_oracle(a):
    """The concatenating row lifting that in-place axis lifting replaced."""
    n = a.shape[1]
    if n == 1:
        return a.copy(), a[:, :0].copy()
    even, odd = a[:, 0::2], a[:, 1::2]
    nh = odd.shape[1]
    if n % 2 == 0:
        right = np.concatenate([even[:, 1:], even[:, -1:]], axis=1)
    else:
        right = even[:, 1 : nh + 1]
    d = odd - (even[:, :nh] + right) // 2
    if n % 2 == 0:
        cur_d, prev_d = d, np.concatenate([d[:, :1], d[:, :-1]], axis=1)
    else:
        cur_d = np.concatenate([d, d[:, -1:]], axis=1)
        prev_d = np.concatenate([d[:, :1], d], axis=1)
    return even + (prev_d + cur_d + 2) // 4, d


def _merge_rows_oracle(low, high):
    nl, nh = low.shape[1], high.shape[1]
    if nh == 0:
        return low.copy()
    n = nl + nh
    if n % 2 == 0:
        cur_d, prev_d = high, np.concatenate([high[:, :1], high[:, :-1]], axis=1)
    else:
        cur_d = np.concatenate([high, high[:, -1:]], axis=1)
        prev_d = np.concatenate([high[:, :1], high], axis=1)
    even = low - (prev_d + cur_d + 2) // 4
    if n % 2 == 0:
        right = np.concatenate([even[:, 1:], even[:, -1:]], axis=1)
    else:
        right = even[:, 1 : nh + 1]
    out = np.empty((low.shape[0], n), dtype=np.int64)
    out[:, 0::2] = even
    out[:, 1::2] = high + (even[:, :nh] + right) // 2
    return out


def decompose_oracle(plane, levels_h, levels_v):
    """``decompose`` as it was, with transposed copies for vertical passes."""
    current = np.asarray(plane, dtype=np.int64)
    stages = []
    for stage in range(1, levels_h + 1):
        low_h, high_h = _split_rows_oracle(current)
        if stage <= levels_v:
            ll, lh = (b.T for b in _split_rows_oracle(np.ascontiguousarray(low_h.T)))
            hl, hh = (b.T for b in _split_rows_oracle(np.ascontiguousarray(high_h.T)))
            stages.append([hl, lh, hh])
            current = ll
        else:
            stages.append([high_h])
            current = low_h
    return [current] + [band for stage in reversed(stages) for band in stage]


def recompose_oracle(bands, levels_h, levels_v):
    def merge_cols(low, high):
        low, high = (np.ascontiguousarray(b.T) for b in (low, high))
        return _merge_rows_oracle(low, high).T

    bands = [np.asarray(b, dtype=np.int64) for b in bands]
    current, pos = bands[0], 1
    for stage in range(levels_h, 0, -1):
        if stage <= levels_v:
            hl, lh, hh = bands[pos : pos + 3]
            pos += 3
            current = _merge_rows_oracle(merge_cols(current, lh), merge_cols(hl, hh))
        else:
            current = _merge_rows_oracle(current, bands[pos])
            pos += 1
    return current


# --- record tables and band sections (tlxs.rice, tlxs.base) ----------------


def _check_range(plane, depth):
    if plane.size and (int(plane.min()) < 0 or int(plane.max()) >> depth):
        raise BitstreamError(f"decoded samples out of range for {depth} bits")


def read_bands(data, pos, layout, components, limit, base):
    """Each component's coefficient bands, from the record table at ``pos`` to the end of ``data``.

    A base record is step u16, k u8, bits u32; a wavelet record drops the
    step, which is 1. Every index keeps ``|i| * step + step // 2 <= limit``,
    so no band is longer than its samples' codes of the largest index. Only
    the base reads a band of 0 bits as all zeros; a wavelet band of samples
    has codes.
    """
    record = struct.Struct(">HBI" if base else ">BI")
    end = pos + record.size * len(layout) * components
    if end > len(data):
        raise BitstreamError("band records truncated")
    records = []
    for comp in range(components):
        for name, width, height in layout:
            fields = record.unpack_from(data, pos)
            step, k, bits = fields if base else (1, *fields)
            pos += record.size
            if step == 0 or k > MAX_RICE_K:
                raise BitstreamError(f"component {comp}: band {name}: step {step}, rice k {k}")
            bound = (limit - step // 2) // step
            if bits > width * height * ((2 * bound >> k) + k + 1):
                raise BitstreamError(f"component {comp}: band {name}: {bits} bits overrun its codes")
            records.append((comp, name, width, height, step, k, bits, bound))
    if end + sum((r[6] + 7) // 8 for r in records) != len(data):
        raise BitstreamError("band sizes do not add up to the payload")
    bands = []
    for comp, name, width, height, step, k, bits, bound in records:
        nbytes = (bits + 7) // 8
        stream = np.unpackbits(np.frombuffer(data[end : end + nbytes], dtype=np.uint8))
        end += nbytes
        try:
            if stream[bits:].any():
                raise BitstreamError("nonzero padding after band")
            if base and not bits:
                index = np.zeros(width * height, dtype=np.int64)
            else:
                index = decode_band_oracle(stream[:bits], width * height, k)
            if np.abs(index).max(initial=0) > bound:
                raise BitstreamError("coefficient out of range")
        except BitstreamError as err:
            raise BitstreamError(f"component {comp}: band {name}: {err}") from err
        coeff = np.sign(index) * (np.abs(index) * step + step // 2)  # midpoint
        bands.append(coeff.reshape(height, width))
    return [bands[c * len(layout) : (c + 1) * len(layout)] for c in range(components)]


def decode_base_oracle(payload, width, height, components, bit_depth):
    """The planes of a base payload that must declare the container's image."""
    if len(payload) < 15:
        raise BitstreamError("base payload shorter than its fixed header")
    magic, *declared, levels = struct.unpack_from(">4sIIBBB", payload)
    levels_h, levels_v = levels >> 4, levels & 0x0F
    if magic != b"XSB1":
        raise BitstreamError("bad base magic")
    if declared != [width, height, components, bit_depth]:
        raise ContainerError("base header disagrees with the container")
    if not 1 <= levels_h <= 6 or levels_v > min(2, levels_h):
        raise BitstreamError("bad base levels")
    layout = band_layout(width, height, levels_h, levels_v)
    limit = (1 << (bit_depth + levels_h + levels_v + 1)) + MAX_STEP
    return [
        np.clip(recompose_oracle(bands, levels_h, levels_v), 0, (1 << bit_depth) - 1)
        for bands in read_bands(payload, 15, layout, components, limit, base=True)
    ]


# --- the extension (tlxs.residual) -----------------------------------------


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
        return min(mean.bit_length() - 1, MAX_RICE_K) if mean > 0 else 0

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


def decode_predictive_oracle(data, width, height, depth):
    """One predictive component, one code per loop pass, with the library's messages.

    Each failure is located from the code being read: its sample and the bit
    it starts at. Samples are rebuilt one at a time in Python ints, so the
    first out-of-range one is found without narrowing any error.
    """
    if width < 1 or height < 1:
        raise CodecError("empty plane dimensions")
    count = width * height
    nbits = 8 * len(data)
    if count > nbits:  # every code takes at least one bit
        raise BitstreamError(f"{len(data)} bytes cannot hold {count} samples")
    if nbits > count * ((2 << depth) - 1) + 7:  # every code at most its k = 0 length
        raise BitstreamError(f"{len(data)} bytes exceed any stream of {count} samples")
    bits = bit_string(data)
    adapter = RiceAdapterOracle()
    mapped, starts, pos = [], [], 0
    for i in range(count):
        starts.append(pos)
        m, pos = read_code(bits, pos, adapter.k())
        if pos > nbits:
            where = f"sample ({i // width}, {i % width}) at bit {starts[i]}"
            raise BitstreamError(f"{where}: predictive stream truncated")
        mapped.append(m)
        adapter.update(m)
    if nbits - pos >= 8 or "1" in bits[pos:]:
        raise BitstreamError(f"at bit {pos}: trailing data after predictive stream")
    rows = [[0] * width for _ in range(height)]
    for i, m in enumerate(mapped):
        y, x = divmod(i, width)
        sample = scalar_prediction(rows, y, x, depth) + (m >> 1 if m % 2 == 0 else -(m + 1) // 2)
        if not 0 <= sample < 1 << depth:
            raise BitstreamError(
                f"sample ({y}, {x}) at bit {starts[i]}: decoded samples out of range"
            )
        rows[y][x] = sample
    return np.array(rows)


def decode_wavelet_oracle(data, width, height, depth):
    """One wavelet component: 3/3 levels, every band at step 1."""
    layout = band_layout(width, height, 3, 3)
    (bands,) = read_bands(data, 0, layout, 1, 1 << (depth + 7), base=False)
    samples = recompose_oracle(bands, 3, 3)
    _check_range(samples, depth)
    return samples


def read_extension(ext, components):
    """``(coder, depth, component payloads)`` of an extension payload."""
    if len(ext) < 6:
        raise BitstreamError("extension payload shorter than its header")
    magic, coder, depth = struct.unpack_from(">4sBB", ext)
    if magic != b"XSE1" or coder not in (PREDICTIVE, WAVELET) or not 2 <= depth <= 17:
        raise BitstreamError("bad extension header")
    parts, pos = [], 6
    for _ in range(components):
        if pos + 4 > len(ext):
            raise BitstreamError("extension component table truncated")
        (length,) = struct.unpack_from(">I", ext, pos)
        parts.append(ext[pos + 4 : pos + 4 + length])
        pos += 4 + length
    if pos != len(ext):
        raise BitstreamError("extension components do not add up to the payload")
    return coder, depth, parts


def dc_unshift(samples, depth):
    """Inverse of the DC shift: a residual of ``depth`` = N + 1 bits less ``2**N - 1``."""
    return samples - ((1 << (depth - 1)) - 1)


# --- the container (tlxs.container) ----------------------------------------


class Container(NamedTuple):
    width: int
    height: int
    components: int
    bit_depth: int
    coder: int
    base: bytes
    ext: bytes


def read_container(data):
    if len(data) < 34:
        raise ContainerError("shorter than the container header")
    magic, version, components, depth, coder, width, height, base_len, ext_len, crc = (
        struct.unpack_from(">4sBBBBIIIII", data)
    )
    if magic != b"TLXS":
        raise ContainerError("bad container magic")
    if zlib.crc32(data[:24] + bytes(4) + data[28:34]) != crc:
        raise ContainerError("container header checksum mismatch")
    if version != 1 or 34 + base_len + ext_len != len(data):
        raise ContainerError("bad container version or length")
    if (coder != 0) != (ext_len != 0):
        raise ContainerError("coder id set exactly when an extension is present")
    if components not in (1, 3) or not 8 <= depth <= 16 or not width or not height:
        raise ContainerError("bad container image")
    return Container(
        width, height, components, depth, coder, data[34 : 34 + base_len], data[34 + base_len :]
    )


def decode(data):
    """The image a v1 container restores, lossless when it has an extension."""
    c = read_container(data)
    if not c.base and not c.ext:
        raise ContainerError("container has neither layer")
    if c.ext:
        coder, depth, parts = read_extension(c.ext, c.components)
        if coder != c.coder or depth != c.bit_depth + bool(c.base):
            raise ContainerError("extension header disagrees with the container")
    if c.base:
        base = decode_base_oracle(c.base, c.width, c.height, c.components, c.bit_depth)
    if not c.ext:
        return Decoded(base, c.bit_depth, False)
    decode_one = decode_predictive_oracle if coder == PREDICTIVE else decode_wavelet_oracle
    planes = [decode_one(part, c.width, c.height, depth) for part in parts]
    if c.base:
        planes = [b + dc_unshift(p, depth) for p, b in zip(planes, base)]
        for plane in planes:
            _check_range(plane, c.bit_depth)
    return Decoded(planes, c.bit_depth, True)


def decode_base_only(data):
    """The base image alone; the extension is not read."""
    c = read_container(data)
    if not c.base:
        raise MissingLayerError("file has no base layer")
    base = decode_base_oracle(c.base, c.width, c.height, c.components, c.bit_depth)
    return Decoded(base, c.bit_depth, False)
