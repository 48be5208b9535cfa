"""Binary PGM (P5) / PPM (P6) reader and writer.

Only maxval values of the form ``2**N - 1`` with ``N`` in 8..16 are accepted,
so the declared bit depth is always exact and any sample above maxval is a
hard error rather than something to mask off. Samples wider than 8 bits are
two bytes each, most significant byte first. ``#`` comments are allowed
between header tokens.
"""

from __future__ import annotations

import re

import numpy as np

from .errors import PnmError
from .image import PlanarImage

_WHITESPACE = b" \t\r\n\x0b\x0c"
_TOKEN = re.compile(b"[^%s#]*" % re.escape(_WHITESPACE))  # up to whitespace or a comment


def _next_token(data: bytes, pos: int) -> tuple[bytes, int]:
    """Return the next header token and the index of the byte just past it."""
    n = len(data)
    while pos < n:
        c = data[pos : pos + 1]
        if c == b"#":
            end = data.find(b"\n", pos)
            if end < 0:
                raise PnmError("unterminated comment in header")
            pos = end + 1
        elif c in _WHITESPACE:
            pos += 1
        else:
            break
    if pos >= n:
        raise PnmError("unexpected end of header")
    end = _TOKEN.match(data, pos).end()
    return data[pos:end], end


def _int_token(data: bytes, pos: int, what: str) -> tuple[int, int]:
    token, pos = _next_token(data, pos)
    digits = token.lstrip(b"0")  # below 10**18: int() refuses thousands of digits
    if not token.isdigit() or len(digits) > 18:  # ASCII [0-9]+ only, not "+16" or "1_6"
        raise PnmError(f"bad {what} in header: {token[:20]!r} of {len(token)} bytes")
    return int(digits or b"0"), pos


def load_pnm(path: str) -> PlanarImage:
    """Read a binary PGM/PPM file into a planar image."""
    with open(path, "rb") as handle:
        data = handle.read()
    return parse_pnm(data)


def parse_pnm(data: bytes) -> PlanarImage:
    magic, pos = _next_token(data, 0)
    if magic == b"P5":
        components = 1
    elif magic == b"P6":
        components = 3
    else:
        raise PnmError(f"unsupported magic {magic[:20]!r} of {len(magic)} bytes (want P5 or P6)")
    width, pos = _int_token(data, pos, "width")
    height, pos = _int_token(data, pos, "height")
    maxval, pos = _int_token(data, pos, "maxval")
    if width < 1 or height < 1:
        raise PnmError(f"bad dimensions {width}x{height}")
    bit_depth = (maxval + 1).bit_length() - 1
    if maxval != (1 << bit_depth) - 1 or not 8 <= bit_depth <= 16:
        raise PnmError(f"maxval {maxval} is not 2**N - 1 for N in 8..16")
    # Exactly one whitespace byte separates the maxval token from the raster.
    if pos >= len(data) or data[pos : pos + 1] not in _WHITESPACE:
        raise PnmError("missing whitespace before raster data")
    pos += 1

    sample_count = width * height * components
    if maxval > 255:
        raw = data[pos : pos + 2 * sample_count]
        if len(raw) != 2 * sample_count:
            raise PnmError("truncated raster data")
        samples = np.frombuffer(raw, dtype=">u2").astype(np.int32)
    else:
        raw = data[pos : pos + sample_count]
        if len(raw) != sample_count:
            raise PnmError("truncated raster data")
        samples = np.frombuffer(raw, dtype=np.uint8).astype(np.int32)
    if samples.size and int(samples.max()) > maxval:
        raise PnmError("sample exceeds maxval")

    if components == 1:
        planes = [samples.reshape(height, width)]
    else:
        interleaved = samples.reshape(height, width, 3)
        planes = [interleaved[:, :, c] for c in range(3)]
    return PlanarImage.from_planes(planes, bit_depth)


def store_pnm(image: PlanarImage, path: str) -> None:
    """Write a planar image as binary PGM/PPM; inverse of :func:`load_pnm`."""
    with open(path, "wb") as handle:
        handle.write(serialize_pnm(image))


def serialize_pnm(image: PlanarImage) -> bytes:
    magic = b"P5" if image.components == 1 else b"P6"
    header = b"%s\n%d %d\n%d\n" % (magic, image.width, image.height, image.max_sample)
    if image.components == 1:
        samples = image.planes[0]
    else:
        samples = np.stack(image.planes, axis=-1)
    if image.bit_depth > 8:
        raster = samples.astype(">u2").tobytes()
    else:
        raster = samples.astype(np.uint8).tobytes()
    return header + raster
