"""Self-contained low-latency lossy base codec.

The profile is deliberately simple: a horizontal-dominant 5/3 decomposition
(vertical splitting capped at two levels so only a few lines of context are
ever needed), a dead-zone scalar quantizer with midpoint reconstruction, and
per-band Golomb-Rice coding at the parameter of least coded length (found by a
local search on that convex length). Rate control bisects the integer
quantizer step that all bands share to meet a target bit rate.
With every step at 1 the whole path is lossless because the transform is
reversible.

Payload layout (big-endian)::

    "XSB1" | width u32 | height u32 | components u8 | bit_depth u8 |
    (levels_h << 4 | levels_v) u8 |
    per band: step u16, rice k u8, coded length in bits u32 |
    band section of the bands with a nonzero coded length (see :mod:`tlxs.rice`)

:mod:`tlxs.rice` reads the record table for this layer and the wavelet
extension coder alike; only the step field is the base's own. Bands are
ordered component-major, canonical band order within each component (see
:mod:`tlxs.dwt`). A declared coded length of 0 means every quantized index
in that band is zero and the band is absent from the band section; without
this, coarse streams could never drop below one bit per coefficient and
sub-bpp rate targets would be unreachable. The payload is a pure function of
``(image, config)``.

Coefficients and quantizer indices are ``int32`` (see :mod:`tlxs.dwt` for
the bounds). A band's coded length at a step depends only on its distinct
coefficients and how often each occurs, so rate control takes a histogram of
every band once (``np.unique``) and scores each probe by quantizing only the
distinct values: 507 over the 10 bands of a 512x512 8-bit natural plane at
5/2 levels, 28,725 at 16 bits, against 262,144 coefficients. The encode
then quantizes each band in place and, once the band is coded, turns its
indices into their reconstruction in the same buffer; each component is
recomposed once its last band is coded. The encoder and :func:`decode_base`
build the base image through one helper, :func:`_base_plane`, from the same
indices. The index bound, the largest ``|i|`` whose reconstruction fits the
coefficient limit, is checked by :func:`tlxs.rice.decode_bands` before it
narrows a band to int32, so ``|i| * step`` is never formed for an index
that could wrap.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import dwt, rice
from .errors import BitstreamError, CodecError
from .image import PlanarImage, as_int32, frozen

MAGIC = b"XSB1"
_FIXED = struct.Struct(">4sIIBBB")
_RECORD = struct.Struct(">HBI")

MAX_STEP = 65535
_INT32_MAX = int(np.iinfo(np.int32).max)
RATE_TOLERANCE = 0.02
"""Rate control accepts a stream up to this fraction above the target."""

LOSSLESS_BASE = None
"""Sentinel target meaning quantization step 1 everywhere."""


@dataclass(frozen=True)
class BaseConfig:
    """Base-layer parameters.

    ``target_bpp`` is the rate target in bits per pixel, or
    :data:`LOSSLESS_BASE` for an unquantized (step 1) stream.
    """

    levels_h: int = 5
    levels_v: int = 2
    target_bpp: float | None = 2.0

    def __post_init__(self) -> None:
        if not 1 <= self.levels_h <= 6:
            raise CodecError(f"levels_h must be in 1..6, got {self.levels_h}")
        if not 0 <= self.levels_v <= 2:
            raise CodecError(f"levels_v must be in 0..2, got {self.levels_v}")
        if self.levels_v > self.levels_h:
            raise CodecError("levels_v cannot exceed levels_h")
        if self.target_bpp is not None and not self.target_bpp > 0:
            raise CodecError("target_bpp must be positive or LOSSLESS_BASE")


@dataclass(frozen=True)
class BaseStreamInfo:
    """Everything the payload header declares, without touching sample data."""

    width: int
    height: int
    components: int
    bit_depth: int
    levels_h: int
    levels_v: int
    records: tuple[rice.BandRecord, ...]
    data_offset: int


@dataclass(frozen=True)
class BaseEncodeResult:
    payload: bytes
    steps: tuple[int, ...]
    overshoot: bool
    image: PlanarImage
    """The base image, as :func:`decode_base` rebuilds it from ``payload``."""


def _check_step(step: int) -> None:
    if not 1 <= step <= _INT32_MAX:
        raise CodecError(f"quantizer step must be in 1..{_INT32_MAX}, got {step}")


def quantize_deadzone(coeff, step: int):
    """``sign(c) * floor(|c| / step)``; step 1 is the identity."""
    _check_step(step)
    c = as_int32(coeff, -_INT32_MAX, _INT32_MAX)
    return np.sign(c) * (np.abs(c) // step)


def dequantize_deadzone(index, step: int):
    """Midpoint reconstruction: 0 maps to 0, else ``sign * (|i|*step + step//2)``.

    Raises :class:`CodecError` for an index whose reconstruction does not fit
    in int32.
    """
    _check_step(step)
    bound = (_INT32_MAX - step // 2) // step
    return _dequantize(np.array(as_int32(index, -bound, bound)), step)


def _dequantize(index: np.ndarray, step: int) -> np.ndarray:
    """:func:`dequantize_deadzone` in place, of int32 indices already checked to fit."""
    sign = np.sign(index)
    np.abs(index, out=index)
    index *= step
    index += step // 2
    index *= sign
    return index


def _base_plane(
    indices: Sequence[np.ndarray | None],
    steps: Sequence[int],
    width: int,
    height: int,
    bit_depth: int,
    levels_h: int,
    levels_v: int,
) -> np.ndarray:
    """One component's read-only base plane from its bands' int32 indices.

    The indices are dequantized in place. ``None`` stands for a band whose
    indices are all zero; a read-only view of zeros takes its place.
    """
    layout = dwt.band_dimensions(width, height, levels_h, levels_v)
    bands = [
        np.broadcast_to(np.int32(0), (bh, bw)) if q is None else _dequantize(q, step)
        for q, step, (_, bw, bh) in zip(indices, steps, layout)
    ]
    plane = dwt.recompose(bands, width, height, levels_h, levels_v)
    np.clip(plane, 0, (1 << bit_depth) - 1, out=plane)
    return frozen(plane)


BandSplit = list[tuple[np.ndarray, int, rice.Histogram | None]]


def _split_bands(image: PlanarImage, config: BaseConfig) -> BandSplit:
    """Every band, component-major, as ``(coefficients, peak, histogram)``.

    ``peak`` is the largest ``|c|``, so the band quantizes to all zeros
    exactly when ``peak < step``. The histogram, the band's distinct values
    and their counts, is kept only when rate control will probe it.
    """
    split = []
    for plane in image.planes:
        for band in dwt.decompose(plane, config.levels_h, config.levels_v):
            if config.target_bpp is None:
                histogram, values = None, band
            else:
                histogram = rice.Histogram(*np.unique(band, return_counts=True))
                values = histogram.values
            split.append((band, int(np.abs(values).max(initial=0)), histogram))
    return split


def rate_control(image: PlanarImage, config: BaseConfig) -> tuple[tuple[int, ...], bool]:
    """Per-band quantizer steps meeting the target rate, plus an overshoot flag.

    Bisects the integer step that all bands share for the least one whose
    stream fits; the flag is set when even ``MAX_STEP`` does not. Each probe
    is scored from the bands' histograms, one ``rice.choose_rice_k`` call per
    band that is not all zeros at the probed step.
    """
    if config.target_bpp is None:
        raise CodecError("rate control needs a positive bit rate target")
    return _rate_control_on_split(_split_bands(image, config), image, config)


def _rate_control_on_split(
    split: BandSplit, image: PlanarImage, config: BaseConfig
) -> tuple[tuple[int, ...], bool]:
    n_bands = len(split) // image.components
    header_bytes = _FIXED.size + _RECORD.size * len(split)
    budget = config.target_bpp * (1.0 + RATE_TOLERANCE) * image.pixel_count

    def fits(step: int) -> bool:
        return 8 * (header_bytes + _section_bytes(split, step)) <= budget

    # The size never grows with the step: indices only shrink toward zero and
    # the least Rice length never grows as they do. So the steps that fit form
    # an upper interval, and bisection finds its least member.
    if fits(1):
        return (1,) * n_bands, False
    if not fits(MAX_STEP):
        return (MAX_STEP,) * n_bands, True
    lo, hi = 1, MAX_STEP  # Invariant: lo does not fit, hi does.
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if fits(mid):
            hi = mid
        else:
            lo = mid
    return (hi,) * n_bands, False


def _section_bytes(split: BandSplit, step: int) -> int:
    """Band-section size with every band of the split quantized at ``step``.

    Only each band's distinct values are quantized; their counts weigh them.
    """
    total = 0
    for _, peak, (values, counts) in split:
        if peak >= step:
            indices = np.sign(values) * (np.abs(values) // step)
            _, bits = rice.choose_rice_k(rice.Histogram(indices, counts))
            total += (bits + 7) // 8
    return total


def encode_base_detailed(image: PlanarImage, config: BaseConfig) -> BaseEncodeResult:
    """Encode and also report the chosen steps, the overshoot flag and the base image."""
    split = _split_bands(image, config)
    if config.target_bpp is None:
        steps: tuple[int, ...] = (1,) * (len(split) // image.components)
        overshoot = False
    else:
        steps, overshoot = _rate_control_on_split(split, image, config)
    n_bands = len(steps)
    band_steps = steps * image.components
    coded = [peak >= step for (_, peak, _), step in zip(split, band_steps)]
    planes = []

    def indices():
        # Each band is quantized in place, so its coefficients, indices and
        # reconstruction share one buffer, and only one band's bits are alive
        # at once. A component is recomposed once its last band is coded, and
        # its bands leave the split then.
        for first in range(0, len(coded), n_bands):
            kept: list[np.ndarray | None] = []
            for (band, _, _), step, nonzero in zip(split[:n_bands], steps, coded[first:]):
                if nonzero:
                    sign = np.sign(band)
                    np.abs(band, out=band)
                    band //= step
                    band *= sign
                    yield band
                kept.append(band if nonzero else None)
            del split[:n_bands]
            planes.append(
                _base_plane(
                    kept,
                    steps,
                    image.width,
                    image.height,
                    image.bit_depth,
                    config.levels_h,
                    config.levels_v,
                )
            )

    entries, section = rice.encode_bands(indices())

    header = bytearray(
        _FIXED.pack(
            MAGIC,
            image.width,
            image.height,
            image.components,
            image.bit_depth,
            (config.levels_h << 4) | config.levels_v,
        )
    )
    entries_iter = iter(entries)
    for nonzero, step in zip(coded, band_steps):
        k, nbits = next(entries_iter) if nonzero else (0, 0)
        header += _RECORD.pack(step, k, nbits)
    return BaseEncodeResult(
        bytes(header) + section,
        steps,
        overshoot,
        PlanarImage.from_planes(planes, image.bit_depth),
    )


def encode_base(image: PlanarImage, config: BaseConfig) -> bytes:
    """Serialize the lossy base layer; decodable with no side information."""
    return encode_base_detailed(image, config).payload


def parse_base_header(payload: bytes) -> BaseStreamInfo:
    """Read and validate the payload header without decoding any samples."""
    if len(payload) < _FIXED.size:
        raise BitstreamError("base payload shorter than its fixed header")
    magic, width, height, components, bit_depth, levels = _FIXED.unpack_from(payload)
    if magic != MAGIC:
        raise BitstreamError(f"base payload: bad base payload magic {magic!r}")
    levels_h, levels_v = levels >> 4, levels & 0x0F
    if components not in (1, 3):
        raise BitstreamError(f"base payload: bad component count {components}")
    if not 8 <= bit_depth <= 16:
        raise BitstreamError(f"base payload: bad bit depth {bit_depth}")
    if width < 1 or height < 1:
        raise BitstreamError("base payload: empty image dimensions")
    if not 1 <= levels_h <= 6 or levels_v > min(2, levels_h):
        raise BitstreamError(f"base payload: bad decomposition levels {levels_h}/{levels_v}")
    layout = dwt.band_dimensions(width, height, levels_h, levels_v)
    # |i| * step + step // 2 <= limit for every index the section reader yields
    limit = (1 << (bit_depth + levels_h + levels_v + 1)) + MAX_STEP
    records = rice.read_records(
        payload, _FIXED.size, layout, range(components), _RECORD, "base payload: ", limit
    )
    return BaseStreamInfo(
        width=width,
        height=height,
        components=components,
        bit_depth=bit_depth,
        levels_h=levels_h,
        levels_v=levels_v,
        records=records,
        data_offset=_FIXED.size + _RECORD.size * len(records),
    )


def decode_base(payload: bytes) -> PlanarImage:
    """Reconstruct the base image; bit-exact mirror of the encoder's own view."""
    info = parse_base_header(payload)
    coded = rice.decode_bands(payload, info.data_offset, [r for r in info.records if r.bits])
    planes = []
    for comp in range(info.components):
        records = [r for r in info.records if r.component == comp]
        # zero-length convention: every index, so every coefficient, is zero
        try:
            indices = [next(coded) if r.bits else None for r in records]
        except BitstreamError as err:
            raise BitstreamError(f"base component {comp}: {err}") from err
        planes.append(
            _base_plane(
                indices,
                [r.step for r in records],
                info.width,
                info.height,
                info.bit_depth,
                info.levels_h,
                info.levels_v,
            )
        )
    return PlanarImage.from_planes(planes, info.bit_depth)
