"""Residual formation, DC shift, and the two lossless residual coders.

The residual between an original image ``P`` and its decoded base layer
``P'`` is ``R = P - P'`` per sample. Lossless image coders generally expect
non-negative samples, so ``R`` is shifted by the DC offset ``2**N - 1``
(``N`` = source bit depth), mapping its full range onto
``[0, 2**(N+1) - 2]``, which fits in ``N + 1`` bits.

Two interchangeable coders handle the shifted planes:

* ``PREDICTIVE``: raster-scan median-edge-detector prediction with
  adaptively parameterized Golomb-Rice coding. Low complexity, strictly
  sequential per plane.
* ``WAVELET``: reversible 5/3 decomposition (three levels in both
  directions), every band at step 1, per-band Golomb-Rice coding at the
  parameter of least coded length: the base layer's band coder.

Both are bijections on their domain, and both are deterministic functions of
the input plane. The predictive coder's fixed conventions (any deterministic
choice works, but streams are only portable if one is pinned):

* first sample predicted by ``2**(depth-1) - 1``; the rest of the first row
  by the west neighbor; the rest of the first column by the north neighbor;
* the Golomb-Rice parameter is the MSB position of the running mean of the
  zigzag-mapped prediction errors, recomputed before every sample, with the
  accumulator and count halved once the count reaches 64.

The encoder knows every mapped value up front, so it computes the whole
parameter schedule at once: the halvings cut the scan into a 64-sample block
and then 32-sample blocks, the accumulator entering each block follows from
the block sums by a short recurrence, and within a block the mean is the
entering accumulator plus a prefix sum over the count. The decoder cannot see
ahead, but the parameter seldom changes: the top 12 bits of its bit window
index a per-``k`` table of the complete codes they begin with
(:data:`tlxs.rice.PREFIX_ROWS`). It commits those codes one at a time,
updating the running mean after each, and ends the run at the first code
after which ``k`` differs from the table's. A code longer than the prefix is
parsed on its own.

Extension payload layout (big-endian)::

    "XSE1" | coder u8 | depth u8 | per component: byte length u32 + payload

A predictive component payload is one Rice-coded raster scan, zero-padded to
a byte. A wavelet component payload is, per band in canonical order (see
:mod:`tlxs.dwt`), rice k u8 and coded length in bits u32, followed by the
band section of every band (see :mod:`tlxs.rice`). :func:`parse_extension_header`
reads all of this layout without decoding samples.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import IntEnum
from itertools import accumulate
from typing import NamedTuple, Sequence, Union

import numpy as np

from . import dwt, rice
from .errors import BitstreamError, CodecError
from .image import PlanarImage, as_int32, as_plane

EXT_MAGIC = b"XSE1"
_EXT_FIXED = struct.Struct(">4sBB")
_EXT_LEN = struct.Struct(">I")

_WAVELET_LEVELS = 3
_WAVELET_RECORD = struct.Struct(">BI")


class LosslessCoderId(IntEnum):
    PREDICTIVE = 1
    WAVELET = 2


def as_coder_id(value) -> LosslessCoderId:
    """``value`` as a :class:`LosslessCoderId`; :class:`CodecError` if it names none."""
    try:
        return LosslessCoderId(value)
    except ValueError:
        raise CodecError(f"unknown lossless coder id {value!r}") from None


@dataclass(frozen=True, eq=False)
class ResidualPlane:
    """Signed residual plane (unshifted) or its non-negative shifted form.

    ``depth`` is ``N + 1`` for residuals of an N-bit image. Unshifted samples
    lie in ``[-(2**N - 1), 2**N - 1]``; shifted samples in
    ``[0, 2**(N+1) - 2]``. Samples are a read-only ``int32`` array.
    """

    width: int
    height: int
    depth: int
    shifted: bool
    samples: np.ndarray

    def __post_init__(self) -> None:
        if self.samples.shape != (self.height, self.width):
            raise CodecError("residual samples do not match declared dimensions")
        if not 2 <= self.depth <= 17:
            raise CodecError(f"bad residual depth {self.depth}")
        if self.samples.size:
            lo = int(self.samples.min())
            hi = int(self.samples.max())
            offset = (1 << (self.depth - 1)) - 1
            if self.shifted:
                if lo < 0 or hi > 2 * offset:
                    raise CodecError("shifted residual out of range")
            else:
                if lo < -offset or hi > offset:
                    raise CodecError("residual out of range")

    @classmethod
    def from_samples(
        cls, samples: np.ndarray, depth: int, shifted: bool
    ) -> "ResidualPlane":
        arr = as_plane(samples)
        height, width = arr.shape
        return cls(width=width, height=height, depth=depth, shifted=shifted, samples=arr)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ResidualPlane):
            return NotImplemented
        return (
            self.width == other.width
            and self.height == other.height
            and self.depth == other.depth
            and self.shifted == other.shifted
            and np.array_equal(self.samples, other.samples)
        )


def _frozen(fresh: np.ndarray) -> np.ndarray:
    """``fresh``, an array no caller holds, made read-only so :func:`as_plane` adopts it."""
    fresh.flags.writeable = False
    return fresh


def compute_residual(original: PlanarImage, base: PlanarImage) -> list[ResidualPlane]:
    """Per-component difference ``original - base``, unshifted."""
    if not original.same_shape(base):
        raise CodecError("residual requires images of identical shape and depth")
    depth = original.bit_depth + 1
    return [
        ResidualPlane.from_samples(_frozen(po - pb), depth, shifted=False)
        for po, pb in zip(original.planes, base.planes)
    ]


def dc_shift(residual: ResidualPlane) -> ResidualPlane:
    """Add the DC offset ``2**N - 1`` so every sample is non-negative."""
    if residual.shifted:
        raise CodecError("residual plane is already shifted")
    offset = (1 << (residual.depth - 1)) - 1
    return ResidualPlane.from_samples(
        _frozen(residual.samples + offset), residual.depth, shifted=True
    )


def dc_unshift(residual: ResidualPlane) -> ResidualPlane:
    """Exact inverse of :func:`dc_shift`."""
    if not residual.shifted:
        raise CodecError("residual plane is not shifted")
    offset = (1 << (residual.depth - 1)) - 1
    return ResidualPlane.from_samples(
        _frozen(residual.samples - offset), residual.depth, shifted=False
    )


def med_predict(a: int, b: int, c: int) -> int:
    """Median edge detector: gradient prediction clamped at detected edges."""
    lo, hi = (a, b) if a <= b else (b, a)
    if c >= hi:
        return lo
    if c <= lo:
        return hi
    return a + b - c


def _med_array(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    # the median of a, b and a + b - c: fewer ufunc calls than branch masks
    return np.minimum(np.maximum(a + b - c, np.minimum(a, b)), np.maximum(a, b))


PlaneLike = Union[ResidualPlane, np.ndarray]


def _plane_samples(plane: PlaneLike, depth: int) -> np.ndarray:
    if isinstance(plane, ResidualPlane):
        if not plane.shifted:
            raise CodecError("lossless coders expect the shifted representation")
        if plane.depth != depth:
            raise CodecError(
                f"plane depth {plane.depth} does not match coder depth {depth}"
            )
        samples = plane.samples
    else:
        samples = as_int32(plane)
    if samples.ndim != 2 or samples.size == 0:
        raise CodecError("coder input must be a non-empty 2-D plane")
    if not 2 <= depth <= 17:
        raise CodecError(f"bad coder depth {depth}")
    if int(samples.min()) < 0 or int(samples.max()) > (1 << depth) - 1:
        raise CodecError(f"samples do not fit in {depth} bits")
    return samples


def _predictions(samples: np.ndarray, depth: int) -> np.ndarray:
    height, width = samples.shape
    pred = np.empty_like(samples)
    pred[0, 0] = (1 << (depth - 1)) - 1
    if width > 1:
        pred[0, 1:] = samples[0, :-1]
    if height > 1:
        pred[1:, 0] = samples[:-1, 0]
    if height > 1 and width > 1:
        pred[1:, 1:] = _med_array(
            samples[1:, :-1], samples[:-1, 1:], samples[:-1, :-1]
        )
    return pred


def _rice_ks(mapped: np.ndarray) -> np.ndarray:
    """The running-mean Rice parameter of every sample, from all mapped values.

    The count before sample ``i`` is ``i`` below 64 and ``32 + i % 32`` from
    then on, so the accumulator halves after sample 63 and every 32 samples
    after it. Samples 0-63 form block 0 and each later 32 samples one more
    block, entered with ``A[j + 1] = (A[j] + sum of block j) >> 1``.
    """
    index = np.arange(mapped.size)
    block = np.maximum((index >> 5) - 1, 0)
    starts = np.concatenate(([0], np.arange(64, mapped.size, 32)))
    sums = np.add.reduceat(mapped, starts)[:-1].tolist()
    acc = np.array(list(accumulate(sums, lambda a, s: (a + s) >> 1, initial=0)))
    before = np.cumsum(mapped) - mapped
    count = np.where(index < 64, index, 32 + (index & 31))
    mean = (acc[block] + before - before[starts][block]) // np.maximum(count, 1)
    # exact: means stay far below 2**53, so frexp's exponent is the MSB + 1
    return np.clip(np.frexp(mean)[1] - 1, 0, rice.MAX_RICE_K).astype(np.int64)


def encode_predictive(plane: PlaneLike, depth: int) -> bytes:
    """MED-predicted, adaptively Rice-coded raster scan of one plane."""
    samples = _plane_samples(plane, depth)
    errors = samples - _predictions(samples, depth)
    mapped = rice.zigzag_map(errors).ravel()
    return np.packbits(rice.pack_codes(mapped, _rice_ks(mapped))).tobytes()


# Rice parameter of every running mean with k < PREFIX_BITS: a list index
# beats bit_length
_K_OF_MEAN = [max(mean.bit_length() - 1, 0) for mean in range(1 << rice.PREFIX_BITS)]


def decode_predictive(data: bytes, width: int, height: int, depth: int) -> np.ndarray:
    """Exact inverse of :func:`encode_predictive`.

    A :class:`BitstreamError` names the sample (row, column) and the bit,
    counted from the start of ``data``, where the stream went wrong.
    """
    if width < 1 or height < 1:
        raise CodecError("empty plane dimensions")
    count = width * height
    nbits = 8 * len(data)
    if count > nbits:  # every code takes at least one bit
        raise BitstreamError(f"{len(data)} bytes cannot hold {count} samples")
    win = rice.byte_windows(data)
    rows = rice.PREFIX_ROWS
    fill = rice.fill_prefix
    k_of_mean = _K_OF_MEAN
    means = len(k_of_mean)
    top_shift = 64 - rice.PREFIX_BITS
    top_mask = (1 << rice.PREFIX_BITS) - 1
    m64 = (1 << 64) - 1
    max_k = rice.MAX_RICE_K
    mapped = [0] * count
    acc = n = pos = i = k = 0
    row = rows[0]
    while i < count:
        top = (win[pos >> 3] >> (top_shift - (pos & 7))) & top_mask
        codes = row[top]
        if codes is None:
            codes = fill(k, top)
            row = rows[k]  # a first fill replaces the shared unfilled row
        if codes:
            # Commit codes while the running-mean k stays the table's. A code
            # in a prefix is below means / 2, so from k < PREFIX_BITS the mean
            # stays below means and k_of_mean covers it.
            for m, end in codes:
                mapped[i] = m
                i += 1
                acc += m
                n += 1
                if n == 64:
                    acc >>= 1
                    n = 32
                new_k = k_of_mean[acc // n]
                if new_k != k:
                    k = new_k
                    row = rows[k]
                    break
                if i == count:
                    break
            pos += end
            if pos > nbits:
                raise _truncated_in_group(codes, end, i, pos - end, nbits, width)
            continue
        # Codes longer than the prefix, one at a time: from k = PREFIX_BITS
        # on, where every code is, without looking at the table.
        while True:
            x = (win[pos >> 3] << (pos & 7)) & m64
            q = 64 - (x ^ m64).bit_length()
            m = 0
            while q + k > 55:  # code may outrun the window's 57 sure bits: skip 32 ones
                m += 32 << k
                pos += 32
                x = (win[pos >> 3] << (pos & 7)) & m64
                q = 64 - (x ^ m64).bit_length()
            used = q + 1 + k
            m += (q << k) | ((x >> (64 - used)) & ((1 << k) - 1))
            pos += used
            if pos > nbits:
                start = pos - (m >> k) - 1 - k
                raise _located(i, width, start, "predictive stream truncated")
            mapped[i] = m
            i += 1
            acc += m
            n += 1
            if n == 64:
                acc >>= 1
                n = 32
            mean = acc // n
            if mean < means:
                k = k_of_mean[mean]
                break
            k = mean.bit_length() - 1
            if k > max_k:
                k = max_k
            if i == count:
                break
        row = rows[k]

    if nbits - pos >= 8 or data[-1] & ((1 << (nbits - pos)) - 1):
        raise BitstreamError(f"at bit {pos}: trailing data after predictive stream")
    mapped = np.fromiter(mapped, dtype=np.int64, count=count)
    # A valid error is below 2**depth in magnitude, its mapped value below
    # 2 << depth. Clamping a larger one keeps the first sample out of range
    # where it was (every sample before it is exact and in range, so this one
    # still lands outside), and it makes every error fit in int32.
    clamped = np.minimum(mapped, 2 << depth).astype(np.int32)
    errors = rice.zigzag_unmap(clamped).reshape(height, width)
    samples = _unpredict(errors, depth)
    high = (1 << depth) - 1
    if int(samples.min()) < 0 or int(samples.max()) > high:
        index = int(np.argmax((samples < 0) | (samples > high)))
        ks = _rice_ks(mapped)
        lengths = (mapped >> ks) + ks + 1
        bit = int(lengths[:index].sum())
        raise _located(index, width, bit, "decoded samples out of range")
    return samples


def _truncated_in_group(
    codes: tuple[tuple[int, int], ...], last: int, i: int, start: int, nbits: int, width: int
) -> BitstreamError:
    """Locate the first code of a group from bit ``start`` that ends past ``nbits``.

    The group committed its codes up to the one ending at ``last``, the last
    of them being sample ``i - 1``.
    """
    ends = [end for _, end in codes]
    first = i - 1 - ends.index(last)
    j = next(j for j, end in enumerate(ends) if start + end > nbits)
    bit = start + ends[j - 1] if j else start
    return _located(first + j, width, bit, "predictive stream truncated")


def _located(index: int, width: int, bit: int, message: str) -> BitstreamError:
    row, col = divmod(index, width)
    return BitstreamError(f"sample ({row}, {col}) at bit {bit}: {message}")


def _unpredict(errors: np.ndarray, depth: int) -> np.ndarray:
    height, width = errors.shape
    first = (1 << (depth - 1)) - 1
    # errors are below 2**depth in magnitude; C order even for a transposed input
    out = errors.astype(np.int32, order="C")
    out[0] = np.cumsum(errors[0]) + first
    out[:, 0] = np.cumsum(errors[:, 0]) + first
    if height == 1 or width == 1:
        return out
    # MED at (y, x) reads only anti-diagonals x+y-1 and x+y-2: rebuild one at a
    # time, in place. In the flat plane anti-diagonal t, rows lo..hi-1, is a
    # slice of stride width - 1; one slice of the views that start width + 1,
    # width, 1 and 0 samples in picks it and its west, north and NW neighbours.
    flat = out.reshape(-1)
    step = width - 1
    here, west, north, nw = flat[width + 1 :], flat[width:], flat[1:], flat
    for t in range(2, height + width - 1):
        lo, hi = max(1, t - step), min(height, t)
        s = slice(t + lo * step - width - 1, t + (hi - 1) * step - width, step)
        here[s] += _med_array(west[s], north[s], nw[s])
    return out


def encode_wavelet_lossless(plane: PlaneLike, depth: int) -> bytes:
    """Reversible 5/3 transform with per-band Golomb-Rice coding, step 1."""
    samples = _plane_samples(plane, depth)
    bands = dwt.decompose(samples, _WAVELET_LEVELS, _WAVELET_LEVELS)
    records, section = rice.encode_bands(bands)
    return b"".join(_WAVELET_RECORD.pack(k, bits) for k, bits in records) + section


class WaveletBandRecord(NamedTuple):
    """One band of a wavelet component payload as its record declares it."""

    name: str
    width: int
    height: int
    k: int
    bits: int


def _wavelet_bands(data: bytes | memoryview, width: int, height: int) -> tuple[WaveletBandRecord, ...]:
    """Read the band records at the start of a wavelet component payload."""
    layout = dwt.band_dimensions(width, height, _WAVELET_LEVELS, _WAVELET_LEVELS)
    if len(data) < _WAVELET_RECORD.size * len(layout):
        raise BitstreamError("wavelet payload truncated in band records")
    bands = []
    for i, (name, bw, bh) in enumerate(layout):
        k, bits = _WAVELET_RECORD.unpack_from(data, i * _WAVELET_RECORD.size)
        if k > rice.MAX_RICE_K:
            raise BitstreamError(f"band declares rice k {k}")
        bands.append(WaveletBandRecord(name, bw, bh, k, bits))
    return tuple(bands)


def decode_wavelet_lossless(
    data: bytes, width: int, height: int, depth: int
) -> np.ndarray:
    """Exact inverse of :func:`encode_wavelet_lossless`."""
    if width < 1 or height < 1:
        raise CodecError("empty plane dimensions")
    records = _wavelet_bands(data, width, height)
    header_size = _WAVELET_RECORD.size * len(records)
    limit = 1 << (depth + 2 * _WAVELET_LEVELS + 1)
    bands = list(
        rice.decode_bands(
            data[header_size:],
            [((r.height, r.width), r.k, r.bits, limit) for r in records],
            [f"band {r.name}" for r in records],
            header_size,
        )
    )
    samples = dwt.recompose(bands, width, height, _WAVELET_LEVELS, _WAVELET_LEVELS)
    if int(samples.min()) < 0 or int(samples.max()) > (1 << depth) - 1:
        raise BitstreamError("decoded samples out of range")
    return samples


_ENCODERS = {
    LosslessCoderId.PREDICTIVE: encode_predictive,
    LosslessCoderId.WAVELET: encode_wavelet_lossless,
}
_DECODERS = {
    LosslessCoderId.PREDICTIVE: decode_predictive,
    LosslessCoderId.WAVELET: decode_wavelet_lossless,
}


def encode_extension(
    planes: Sequence[np.ndarray], depth: int, coder: LosslessCoderId
) -> bytes:
    """Code planes independently and concatenate them in component order."""
    coder = as_coder_id(coder)
    encode = _ENCODERS[coder]
    out = bytearray(_EXT_FIXED.pack(EXT_MAGIC, int(coder), depth))
    for plane in planes:
        payload = encode(plane, depth)
        out += _EXT_LEN.pack(len(payload))
        out += payload
    return bytes(out)


class ExtensionComponent(NamedTuple):
    """Where one component's payload lies in the extension payload."""

    offset: int
    length: int
    bands: tuple[WaveletBandRecord, ...]  # empty for the predictive coder


@dataclass(frozen=True)
class ExtensionInfo:
    """Everything the extension payload declares, without decoding samples."""

    coder: LosslessCoderId
    depth: int
    components: tuple[ExtensionComponent, ...]


def parse_extension_header(
    data: bytes, width: int, height: int, components: int
) -> ExtensionInfo:
    """Read and validate the extension layout: coder, depth, component table, band records."""
    if len(data) < _EXT_FIXED.size:
        raise BitstreamError("extension payload shorter than its header")
    magic, coder_value, depth = _EXT_FIXED.unpack_from(data)
    if magic != EXT_MAGIC:
        raise BitstreamError(f"bad extension magic {magic!r}")
    try:
        coder = LosslessCoderId(coder_value)
    except ValueError:
        raise BitstreamError(f"unknown lossless coder id {coder_value}") from None
    if not 2 <= depth <= 17:
        raise BitstreamError(f"bad extension depth {depth}")
    parts = []
    pos = _EXT_FIXED.size
    for comp in range(components):
        if pos + _EXT_LEN.size > len(data):
            raise BitstreamError("extension payload truncated in component table")
        (length,) = _EXT_LEN.unpack_from(data, pos)
        pos += _EXT_LEN.size
        if pos + length > len(data):
            raise BitstreamError("extension component payload truncated")
        bands: tuple[WaveletBandRecord, ...] = ()
        if coder == LosslessCoderId.WAVELET:
            try:
                payload = memoryview(data)[pos : pos + length]
                bands = _wavelet_bands(payload, width, height)
            except BitstreamError as err:
                raise BitstreamError(f"extension component {comp}: {err}") from err
        parts.append(ExtensionComponent(pos, length, bands))
        pos += length
    if pos != len(data):
        raise BitstreamError("trailing bytes after extension payload")
    return ExtensionInfo(coder, depth, tuple(parts))


def decode_extension(
    data: bytes, width: int, height: int, components: int
) -> tuple[list[np.ndarray], LosslessCoderId, int]:
    """Split and decode an extension payload; returns (planes, coder, depth)."""
    info = parse_extension_header(data, width, height, components)
    decode = _DECODERS[info.coder]
    planes = []
    for comp, part in enumerate(info.components):
        payload = data[part.offset : part.offset + part.length]
        try:
            planes.append(decode(payload, width, height, info.depth))
        except BitstreamError as err:
            raise BitstreamError(f"extension component {comp}: {err}") from err
    return planes, info.coder, info.depth
