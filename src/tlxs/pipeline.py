"""Two-layer encode/decode composition and the rate sweep behind the bench.

The encoder always reconstructs the base image by decoding its own base
payload, never by reusing transform-domain state, so the encoder-side and
decoder-side reconstructions are identical by construction. That identity is
what makes the residual round trip exact.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .base import BaseConfig, decode_base, encode_base_detailed
from .container import HEADER_SIZE, ContainerMeta, demux, mux, read_headers
from .errors import BitstreamError, CodecError
from .image import INFINITE, PlanarImage, bits_per_pixel, frozen, measure
from .residual import (
    LosslessCoderId,
    as_coder_id,
    compute_residual,
    dc_shift,
    decode_extension,
    encode_extension,
)


@dataclass(frozen=True)
class EncodeDetails:
    """Byproducts of a two-layer encode, for benches and CLI summaries."""

    file_bytes: bytes
    base_bytes: bytes
    ext_bytes: bytes
    base_image: PlanarImage | None
    overshoot: bool


@dataclass(frozen=True)
class DecodeResult:
    """Decoded image plus what the container could promise about it."""

    image: PlanarImage
    lossless: bool
    has_base: bool
    has_extension: bool


def encode_two_layer_detailed(
    image: PlanarImage,
    base_config: BaseConfig | None,
    coder: LosslessCoderId = LosslessCoderId.PREDICTIVE,
) -> EncodeDetails:
    coder = as_coder_id(coder)
    if base_config is None:
        base_payload = b""
        base_image = None
        overshoot = False
        planes: Sequence[np.ndarray] = image.planes
        depth = image.bit_depth
    else:
        result = encode_base_detailed(image, base_config)
        base_payload = result.payload
        overshoot = result.overshoot
        base_image = decode_base(base_payload)
        shifted = [dc_shift(r) for r in compute_residual(image, base_image)]
        planes = [r.samples for r in shifted]
        depth = image.bit_depth + 1
    ext_payload = encode_extension(planes, depth, coder)
    meta = ContainerMeta(
        width=image.width,
        height=image.height,
        components=image.components,
        bit_depth=image.bit_depth,
        coder_id=int(coder),
    )
    return EncodeDetails(
        file_bytes=mux(base_payload, ext_payload, meta),
        base_bytes=base_payload,
        ext_bytes=ext_payload,
        base_image=base_image,
        overshoot=overshoot,
    )


def encode_two_layer(
    image: PlanarImage,
    base_config: BaseConfig | None,
    coder: LosslessCoderId = LosslessCoderId.PREDICTIVE,
) -> bytes:
    """Encode a losslessly reconstructible two-layer file.

    With ``base_config=None`` no base layer is written and the image itself
    goes to the lossless coder at its native depth.
    """
    return encode_two_layer_detailed(image, base_config, coder).file_bytes


def decode_two_layer(data: bytes) -> DecodeResult:
    """Reconstruct the original image (bit-exact when an extension is present)."""
    base_payload, ext_payload, meta = demux(data)
    read_headers(base_payload, ext_payload, meta)
    base_image = decode_base(base_payload) if base_payload else None
    if not ext_payload:
        return DecodeResult(base_image, lossless=False, has_base=True, has_extension=False)

    planes, _, _ = decode_extension(ext_payload, meta.width, meta.height, meta.components)
    if base_image is not None:
        # in place in the decoder's fresh planes; values stay below 2**17
        offset = (1 << meta.bit_depth) - 1
        for s, b in zip(planes, base_image.planes):
            s -= offset
            s += b
    try:
        image = PlanarImage.from_planes([frozen(s) for s in planes], meta.bit_depth)
    except CodecError:
        # only the restore can leave the range: name its first sample outside it
        comp, row, col = np.argwhere(np.stack(planes) >> meta.bit_depth)[0]
        raise BitstreamError(
            f"extension component {comp}: sample ({row}, {col}): "
            f"restored sample out of range for bit depth {meta.bit_depth}"
        ) from None
    return DecodeResult(
        image=image,
        lossless=True,
        has_base=base_image is not None,
        has_extension=True,
    )


@dataclass(frozen=True)
class SweepRow:
    """One (coder, base target) point of the rate sweep."""

    coder: str
    target_bpp: float
    base_bpp: float
    base_psnr: float | None
    ext_bpp: float
    overhead_bpp: float
    total_bpp: float
    lossless: bool


CSV_COLUMNS = tuple(field.name for field in fields(SweepRow))


def bench_sweep(
    image: PlanarImage,
    grid: Sequence[float],
    coders: Sequence[LosslessCoderId] = (
        LosslessCoderId.PREDICTIVE,
        LosslessCoderId.WAVELET,
    ),
) -> list[SweepRow]:
    """Measure every (target bpp, coder) point; target 0 means no base layer.

    The zero grid point is required so every sweep contains the plain
    lossless-coding baseline against which the two-layer totals are read.
    """
    if not grid:
        raise CodecError("bench grid must not be empty")
    if not coders:
        raise CodecError("bench coder list must not be empty")
    if not any(t == 0 for t in grid):
        raise CodecError("bench grid must include the no-base point 0")
    if any(t < 0 for t in grid):
        raise CodecError("bench grid targets cannot be negative")

    rows = []
    for coder in sorted(as_coder_id(c) for c in set(coders)):
        for target in sorted(set(float(t) for t in grid)):
            config = None if target == 0 else BaseConfig(target_bpp=target)
            details = encode_two_layer_detailed(image, config, coder)
            decoded = decode_two_layer(details.file_bytes)
            if details.base_image is not None:
                base = measure(image, details.base_image, len(details.base_bytes))
                base_bpp, base_psnr = base.bpp, base.psnr_db
            else:
                base_bpp, base_psnr = 0.0, None
            rows.append(
                SweepRow(
                    coder=coder.name.lower(),
                    target_bpp=target,
                    base_bpp=base_bpp,
                    base_psnr=base_psnr,
                    ext_bpp=bits_per_pixel(
                        len(details.ext_bytes), image.width, image.height
                    ),
                    overhead_bpp=bits_per_pixel(HEADER_SIZE, image.width, image.height),
                    total_bpp=bits_per_pixel(
                        len(details.file_bytes), image.width, image.height
                    ),
                    lossless=decoded.lossless and decoded.image == image,
                )
            )
    return rows


def _fmt(value: str | float | bool | None) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return ""
    if value == INFINITE:
        return "inf"
    return f"{value:.4f}"


def rows_to_csv(rows: Sequence[SweepRow]) -> str:
    """Render sweep rows as CSV with a header and 4-decimal floats."""
    out = io.StringIO()
    out.write(",".join(CSV_COLUMNS) + "\n")
    for row in rows:
        out.write(",".join(_fmt(getattr(row, name)) for name in CSV_COLUMNS) + "\n")
    return out.getvalue()
