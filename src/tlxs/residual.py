"""Residual formation, DC shift, and the two lossless residual coders.

The residual between an original image ``P`` and its decoded base layer
``P'`` is ``R = P - P'`` per sample. Lossless image coders generally expect
non-negative samples, so ``R`` is shifted by the DC offset ``2**N - 1``
(``N`` = source bit depth), mapping its full range onto
``[0, 2**(N+1) - 2]``, which fits in ``N + 1`` bits. Decoding restores
``P' + S - (2**N - 1)`` from each shifted sample ``S`` and refuses a result
outside ``[0, 2**N - 1]``; without a base the extension codes ``P`` at ``N``.

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
* the Golomb-Rice parameter is the MSB position (0 for 0, at most 24) of the
  running mean ``acc // count`` (0 before the first sample) of the
  zigzag-mapped prediction errors, recomputed before every sample, with the
  accumulator and count halved once the count reaches 64.

The encoder knows every mapped value up front, so it computes the parameter
schedule with array passes: the halvings cut the scan into a 64-sample head
and then 32-sample rows, the accumulator entering each row follows from the
row sums by a short recurrence, and within a row the mean is the entering
accumulator plus a prefix sum over the count. It takes 1,024 rows at a time,
carrying the accumulator from one such block to the next, so its scratch
does not grow with the plane. The decoder cannot see ahead. The top
:data:`PREFIX_BITS` bits of a 64-bit window (:func:`tlxs.rice.byte_windows`)
index a per-``k`` table (:data:`PREFIX_ROWS`) whose entry lists every
complete code at that ``k`` the prefix begins with, so one lookup parses a
run of short codes for as long as the running-mean ``k`` stays the table's; a
code longer than the prefix is parsed on its own. A failed decode is located
from the mapped values decoded so far, whose ``k`` schedule gives every
code's length: the error names the first code that ends past the data, or
the first sample out of range, by row, column and starting bit.

Extension payload layout (big-endian)::

    "XSE1" | coder u8 | depth u8 | per component: byte length u32 + payload

The coder is 1 (predictive) or 2 (wavelet), the depth 2..17, and the
components fill the payload. A predictive component payload is one
Rice-coded raster scan, zero-padded by fewer than 8 bits; it holds at least
one bit per sample and at most ``count * (2**(depth+1) - 1) + 7`` bits, as no
valid code outgrows its ``k = 0`` length. A wavelet component payload is a
record table and band section as in the base layer (see :mod:`tlxs.rice`),
but its records, per band in canonical order (see :mod:`tlxs.dwt`), are rice
k u8 and coded length in bits u32 at step 1, its coefficient limit is
``2**(depth + 7)``, and every band is coded: a band of samples may not
declare 0 bits. Both coders refuse a sample outside ``[0, 2**depth - 1]``.
:func:`parse_extension_header` reads all of this without decoding.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import IntEnum
from itertools import accumulate
from typing import NamedTuple, Sequence

import numpy as np

from . import dwt, rice
from .errors import BitstreamError, CodecError
from .image import PlanarImage, as_int32, as_plane, frozen

EXT_MAGIC = b"XSE1"
_EXT_FIXED = struct.Struct(">4sBB")
_EXT_LEN = struct.Struct(">I")

_WAVELET_LEVELS = 3
_WAVELET_RECORD = struct.Struct(">BI")

# samples per block of the encoder's k schedule: 1,024 rows of 32, the block
# size of rice.pack_codes
_KS_BLOCK = 1 << 15


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


def compute_residual(original: PlanarImage, base: PlanarImage) -> list[ResidualPlane]:
    """Per-component difference ``original - base``, unshifted."""
    if not original.same_shape(base):
        raise CodecError("residual requires images of identical shape and depth")
    depth = original.bit_depth + 1
    return [
        ResidualPlane.from_samples(frozen(po - pb), depth, shifted=False)
        for po, pb in zip(original.planes, base.planes)
    ]


def dc_shift(residual: ResidualPlane) -> ResidualPlane:
    """Add the DC offset ``2**N - 1`` so every sample is non-negative."""
    if residual.shifted:
        raise CodecError("residual plane is already shifted")
    offset = (1 << (residual.depth - 1)) - 1
    return ResidualPlane.from_samples(
        frozen(residual.samples + offset), residual.depth, shifted=True
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


def _plane_samples(plane: np.ndarray, depth: int) -> np.ndarray:
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


def _k_of_means(num: np.ndarray, count: np.ndarray) -> np.ndarray:
    """The Rice parameter ``MSB(num // count)``, clipped to ``0..MAX_RICE_K``.

    ``count`` is below 64. The float quotient lies in the same power-of-two
    interval as the true one while ``num < 2**53``, and a larger ``num``
    clips to ``MAX_RICE_K`` either way.
    """
    return np.clip(np.frexp(num / count)[1] - 1, 0, rice.MAX_RICE_K)


def _rice_ks(mapped: np.ndarray) -> np.ndarray:
    """The running-mean Rice parameter of every sample, from all mapped values, as int8.

    The count before sample ``i`` is ``i`` below 64 and ``32 + i % 32`` from
    then on, so the accumulator halves after sample 63 and every 32 samples
    after it. Samples 0-63 form the head and each later 32 samples a row,
    entered with ``A[j + 1] = (A[j] + sum of row j) >> 1``. Rows are taken
    :data:`_KS_BLOCK` samples at a time, the accumulator carried from one
    block to the next, so the scratch is one block's whatever the plane's
    size.
    """
    ks = np.empty(mapped.size, dtype=np.int8)
    head = mapped[:64]
    ks[:64] = _k_of_means(np.cumsum(head) - head, np.maximum(np.arange(head.size), 1))
    enter = int(head.sum()) >> 1
    counts = np.arange(32, 64)
    for start in range(64, mapped.size, _KS_BLOCK):
        chunk = mapped[start : start + _KS_BLOCK]
        rows = np.pad(chunk, (0, -chunk.size % 32)).reshape(-1, 32)
        sums = rows.sum(axis=1).tolist()
        enters = list(accumulate(sums, lambda a, s: (a + s) >> 1, initial=enter))
        enter = enters.pop()
        num = np.cumsum(rows, axis=1) - rows
        num += np.array(enters, dtype=np.int64)[:, None]
        ks[start : start + chunk.size] = _k_of_means(num, counts).ravel()[: chunk.size]
    return ks


def encode_predictive(plane: np.ndarray, depth: int) -> bytes:
    """MED-predicted, adaptively Rice-coded raster scan of one plane."""
    samples = _plane_samples(plane, depth)
    errors = samples - _predictions(samples, depth)
    mapped = rice.zigzag_map(errors).ravel()
    return np.packbits(rice.pack_codes(mapped, _rice_ks(mapped))).tobytes()


PREFIX_BITS = 12

# PREFIX_ROWS[k][prefix] is prefix_codes(k, prefix), or None until
# fill_prefix fills it on first use; it is kept for the process, since
# entries depend on nothing but (k, prefix), so concurrent fills can only
# repeat work. Every row starts as one shared unfilled row, and equal
# (value, end) pairs share one interned tuple.
_UNFILLED = [None] * (1 << PREFIX_BITS)
PREFIX_ROWS = [_UNFILLED] * (rice.MAX_RICE_K + 1)
_PAIRS: dict[tuple[int, int], tuple[int, int]] = {}

# Rice parameter of every running mean with k < PREFIX_BITS: a list index
# beats bit_length
_K_OF_MEAN = [max(mean.bit_length() - 1, 0) for mean in range(1 << PREFIX_BITS)]


def prefix_codes(k: int, prefix: int) -> tuple[tuple[int, int], ...]:
    """Every complete code at parameter ``k`` that a ``PREFIX_BITS``-bit prefix begins with.

    Codes are parsed from the prefix's most significant bit on and listed as
    ``(mapped value, end bit)``, the end counted from the prefix's first bit;
    the parse stops at the first code the prefix does not hold whole.
    """
    mask = (1 << PREFIX_BITS) - 1
    codes = []
    pos = 0
    while True:
        # ones from bit pos on; the bits shifted in past the prefix are zeros
        q = PREFIX_BITS - (((prefix << pos) & mask) ^ mask).bit_length()
        end = pos + q + 1 + k
        if end > PREFIX_BITS:
            return tuple(codes)
        pair = ((q << k) | (prefix >> (PREFIX_BITS - end)) & ((1 << k) - 1), end)
        codes.append(_PAIRS.setdefault(pair, pair))
        pos = end


def fill_prefix(k: int, prefix: int) -> tuple[tuple[int, int], ...]:
    """Fill and return entry ``prefix`` of row ``k`` of :data:`PREFIX_ROWS`.

    The prefixes that share its bits up to its last code's end, and hold no
    further complete code, share the entry: those whose next ``r - k`` bits
    are ones, ``r`` being the bits left after that end.
    """
    rows = PREFIX_ROWS
    if rows[k] is _UNFILLED:
        rows[k] = [None] * (1 << PREFIX_BITS)
    codes = prefix_codes(k, prefix)
    span = 1 << min(k, PREFIX_BITS - (codes[-1][1] if codes else 0))
    first = prefix & -span
    rows[k][first : first + span] = [codes] * span
    return codes


def _check_predictive_length(nbytes: int, count: int, depth: int, where: str = "") -> None:
    """Refuse a predictive payload of ``nbytes`` too short or too long for ``count`` samples."""
    if count > 8 * nbytes:  # every code takes at least one bit
        raise BitstreamError(f"{where}{nbytes} bytes cannot hold {count} samples")
    # A valid mapped error is at most (2 << depth) - 2: no code outgrows its k = 0 length.
    if 8 * nbytes > count * ((2 << depth) - 1) + 7:
        raise BitstreamError(f"{where}{nbytes} bytes exceed any stream of {count} samples")


def decode_predictive(data: bytes, width: int, height: int, depth: int) -> np.ndarray:
    """Exact inverse of :func:`encode_predictive`.

    A :class:`BitstreamError` names the sample (row, column) and the bit,
    counted from the start of ``data``, where the stream went wrong.
    """
    if width < 1 or height < 1:
        raise CodecError("empty plane dimensions")
    count = width * height
    _check_predictive_length(len(data), count, depth)
    nbits = 8 * len(data)
    win = rice.byte_windows(data)
    rows = PREFIX_ROWS
    fill = fill_prefix
    k_of_mean = _K_OF_MEAN
    means = len(k_of_mean)
    top_shift = 64 - PREFIX_BITS
    top_mask = (1 << PREFIX_BITS) - 1
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
                raise _failure(mapped[:i], width, nbits, "predictive stream truncated")
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
            mapped[i] = m
            i += 1
            if pos > nbits:
                raise _failure(mapped[:i], width, nbits, "predictive stream truncated")
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
        raise _failure(mapped[: index + 1], width, nbits, "decoded samples out of range")
    return samples


def _failure(
    mapped: list[int] | np.ndarray, width: int, nbits: int, message: str
) -> BitstreamError:
    """Name the sample and starting bit where a predictive decode failed.

    ``mapped`` holds the values decoded up to the failure, each code's length
    being ``(m >> k) + k + 1`` at its running-mean ``k``. The failure is the
    first code that ends past ``nbits``, else the last one.
    """
    mapped = np.asarray(mapped, dtype=np.int64)
    ks = _rice_ks(mapped)
    ends = np.cumsum((mapped >> ks) + ks + 1)
    index = min(int(np.searchsorted(ends, nbits, side="right")), mapped.size - 1)
    bit = int(ends[index - 1]) if index else 0
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


def encode_wavelet_lossless(plane: np.ndarray, depth: int) -> bytes:
    """Reversible 5/3 transform with per-band Golomb-Rice coding, step 1."""
    samples = _plane_samples(plane, depth)
    bands = dwt.decompose(samples, _WAVELET_LEVELS, _WAVELET_LEVELS)
    records, section = rice.encode_bands(bands)
    return b"".join(_WAVELET_RECORD.pack(k, bits) for k, bits in records) + section


def _wavelet_records(
    data: bytes | memoryview, width: int, height: int, depth: int, comp: int, where: str
) -> tuple[rice.BandRecord, ...]:
    """The record table of one wavelet component payload, judged by :func:`rice.read_records`."""
    layout = dwt.band_dimensions(width, height, _WAVELET_LEVELS, _WAVELET_LEVELS)
    limit = 1 << (depth + 2 * _WAVELET_LEVELS + 1)
    return rice.read_records(data, 0, layout, (comp,), _WAVELET_RECORD, where, limit)


def decode_wavelet_lossless(
    data: bytes, width: int, height: int, depth: int
) -> np.ndarray:
    """Exact inverse of :func:`encode_wavelet_lossless`."""
    if width < 1 or height < 1:
        raise CodecError("empty plane dimensions")
    records = _wavelet_records(data, width, height, depth, 0, "")
    bands = rice.decode_bands(data, _WAVELET_RECORD.size * len(records), records)
    samples = dwt.recompose(list(bands), width, height, _WAVELET_LEVELS, _WAVELET_LEVELS)
    if int(samples.min()) < 0 or int(samples.max()) >> depth:
        # the first in raster order; no bit locates it, as the inverse mixes bands
        row, col = np.argwhere(samples >> depth)[0]
        raise BitstreamError(f"sample ({row}, {col}): decoded samples out of range")
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
    bands: tuple[rice.BandRecord, ...]  # empty for the predictive coder


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
        raise BitstreamError("extension payload: shorter than its header")
    magic, coder_value, depth = _EXT_FIXED.unpack_from(data)
    if magic != EXT_MAGIC:
        raise BitstreamError(f"extension payload: bad extension magic {magic!r}")
    try:
        coder = LosslessCoderId(coder_value)
    except ValueError:
        raise BitstreamError(f"extension payload: unknown lossless coder id {coder_value}") from None
    if not 2 <= depth <= 17:
        raise BitstreamError(f"extension payload: bad extension depth {depth}")
    parts = []
    pos = _EXT_FIXED.size
    for comp in range(components):
        where = f"extension component {comp}: "
        if pos + _EXT_LEN.size > len(data):
            raise BitstreamError(f"{where}truncated in component table")
        (length,) = _EXT_LEN.unpack_from(data, pos)
        pos += _EXT_LEN.size
        if pos + length > len(data):
            raise BitstreamError(f"{where}payload truncated")
        bands: tuple[rice.BandRecord, ...] = ()
        if coder == LosslessCoderId.WAVELET:
            payload = memoryview(data)[pos : pos + length]
            bands = _wavelet_records(payload, width, height, depth, comp, where)
        else:
            _check_predictive_length(length, width * height, depth, where)
        parts.append(ExtensionComponent(pos, length, bands))
        pos += length
    if pos != len(data):
        raise BitstreamError("extension payload: trailing bytes after extension payload")
    return ExtensionInfo(coder, depth, tuple(parts))


def decode_extension(
    data: bytes, width: int, height: int, components: int
) -> tuple[list[np.ndarray], LosslessCoderId, int]:
    """Split and decode an extension payload; returns (planes, coder, depth)."""
    info = parse_extension_header(data, width, height, components)
    decode = _DECODERS[info.coder]
    planes = []
    for comp, part in enumerate(info.components):
        payload = memoryview(data)[part.offset : part.offset + part.length]
        try:
            planes.append(decode(payload, width, height, info.depth))
        except BitstreamError as err:
            raise BitstreamError(f"extension component {comp}: {err}") from err
    return planes, info.coder, info.depth
