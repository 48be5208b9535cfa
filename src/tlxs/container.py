"""Layered container: one file, two independently decodable substreams.

Layout (big-endian, 34-byte header)::

    "TLXS" | version u8 | components u8 | bit_depth u8 | coder_id u8 |
    width u32 | height u32 | base_len u32 | ext_len u32 | crc32 u32 |
    reserved 6 bytes | base payload | extension payload

The CRC-32 covers the whole header with the checksum field zeroed, so any
flipped header byte is detected; the reserved bytes are zeros, never read.
Payloads are not checksummed; corruption there surfaces as decode errors.
Either layer may be empty: a base-only file is a plain lossy stream, a
base-less file is a pure losslessly coded image. ``coder_id`` is nonzero
exactly when an extension is present (:func:`mux` checks it too), and
:func:`demux` refuses a version but 1, lengths not adding up to the file,
components but 1 or 3, a depth outside 8..16 and an empty dimension.

:func:`read_headers` is the one place where the layer headers are checked
against the container, before any sample is decoded: at least one layer is
present; the extension's coder is ``coder_id`` and its depth is ``bit_depth``,
plus one over a base; the base declares the container's size, components and
depth. Decode, base-only decode and ``tlxs inspect`` all refuse by it.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass

from .base import BaseStreamInfo, decode_base, parse_base_header
from .errors import (
    BadMagicError,
    ChecksumError,
    ContainerError,
    LengthMismatchError,
    MissingLayerError,
)
from .image import PlanarImage
from .residual import ExtensionInfo, parse_extension_header

MAGIC = b"TLXS"
VERSION = 1
_HEADER = struct.Struct(">4sBBBBIIIII6s")
HEADER_SIZE = _HEADER.size
_CRC_OFFSET = 24

CODER_NONE = 0


@dataclass(frozen=True)
class ContainerMeta:
    """Image-level facts the container declares about its payloads."""

    width: int
    height: int
    components: int
    bit_depth: int
    coder_id: int

    def __post_init__(self) -> None:
        if self.components not in (1, 3):
            raise ContainerError(f"container: components must be 1 or 3, got {self.components}")
        if not 8 <= self.bit_depth <= 16:
            raise ContainerError(f"container: bit depth must be in 8..16, got {self.bit_depth}")
        if not 1 <= self.width <= 0xFFFFFFFF or not 1 <= self.height <= 0xFFFFFFFF:
            raise ContainerError(f"container: bad dimensions {self.width}x{self.height}")
        if not 0 <= self.coder_id <= 255:
            raise ContainerError(f"container: bad coder id {self.coder_id}")


def _pack_header(meta: ContainerMeta, base_len: int, ext_len: int) -> bytes:
    header = bytearray(
        _HEADER.pack(
            MAGIC,
            VERSION,
            meta.components,
            meta.bit_depth,
            meta.coder_id,
            meta.width,
            meta.height,
            base_len,
            ext_len,
            0,
            b"\x00" * 6,
        )
    )
    crc = zlib.crc32(bytes(header))
    header[_CRC_OFFSET : _CRC_OFFSET + 4] = struct.pack(">I", crc)
    return bytes(header)


def _check_coder(coder_id: int, ext_len: int) -> None:
    """A coder id is set exactly when an extension payload is present."""
    if not ext_len and coder_id != CODER_NONE:
        raise ContainerError("container: coder id set but no extension payload present")
    if ext_len and coder_id == CODER_NONE:
        raise ContainerError("container: extension payload present but no coder id set")


def mux(base: bytes, ext: bytes, meta: ContainerMeta) -> bytes:
    """Assemble a container; ``demux(mux(b, e, m)) == (b, e, m)`` byte-exactly."""
    if len(base) > 0xFFFFFFFF or len(ext) > 0xFFFFFFFF:
        raise ContainerError("payload too large for a u32 length field")
    _check_coder(meta.coder_id, len(ext))
    return _pack_header(meta, len(base), len(ext)) + base + ext


def demux(data: bytes) -> tuple[bytes, bytes, ContainerMeta]:
    """Split a container into (base, extension, meta), validating the header."""
    if len(data) < HEADER_SIZE:
        raise LengthMismatchError(
            f"container: file of {len(data)} bytes is shorter than the {HEADER_SIZE}-byte header"
        )
    (
        magic,
        version,
        components,
        bit_depth,
        coder_id,
        width,
        height,
        base_len,
        ext_len,
        crc,
        _reserved,
    ) = _HEADER.unpack_from(data)
    if magic != MAGIC:
        raise BadMagicError(f"container: bad container magic {magic!r}")
    zeroed = bytearray(data[:HEADER_SIZE])
    zeroed[_CRC_OFFSET : _CRC_OFFSET + 4] = b"\x00\x00\x00\x00"
    if zlib.crc32(bytes(zeroed)) != crc:
        raise ChecksumError("container header checksum mismatch")
    if version != VERSION:
        raise ContainerError(f"container: unsupported container version {version}")
    if HEADER_SIZE + base_len + ext_len != len(data):
        raise LengthMismatchError(
            f"container: header declares {HEADER_SIZE + base_len + ext_len} bytes, "
            f"file has {len(data)}"
        )
    _check_coder(coder_id, ext_len)
    meta = ContainerMeta(
        width=width,
        height=height,
        components=components,
        bit_depth=bit_depth,
        coder_id=coder_id,
    )
    base = data[HEADER_SIZE : HEADER_SIZE + base_len]
    ext = data[HEADER_SIZE + base_len :]
    return base, ext, meta


def _shape(x: ContainerMeta | PlanarImage | BaseStreamInfo) -> str:
    return f"{x.width}x{x.height}, {x.components} component(s), {x.bit_depth}-bit"


def check_base_matches(meta: ContainerMeta, image: PlanarImage | BaseStreamInfo) -> None:
    """Reject a base payload, decoded or its header, that disagrees with the outer header."""
    found, declared = _shape(image), _shape(meta)
    if found != declared:
        raise ContainerError(
            f"base payload header ({found}) disagrees with container header ({declared})"
        )


def read_headers(
    base: bytes, ext: bytes, meta: ContainerMeta
) -> tuple[BaseStreamInfo | None, ExtensionInfo | None]:
    """Parse each present layer's header and refuse one that disagrees with ``meta``."""
    if not base and not ext:
        raise ContainerError("container has neither base nor extension layer")
    ext_info = None
    if ext:
        ext_info = parse_extension_header(ext, meta.width, meta.height, meta.components)
        if ext_info.coder != meta.coder_id:
            raise ContainerError(
                f"extension coder id {int(ext_info.coder)} disagrees with "
                f"container header coder id {meta.coder_id}"
            )
        # A base adds one bit to the residual, which the extension holds DC-shifted.
        expected = meta.bit_depth + bool(base)
        if ext_info.depth != expected:
            raise ContainerError(
                f"extension depth {ext_info.depth} does not match expected depth {expected}"
            )
    base_info = None
    if base:
        base_info = parse_base_header(base)
        check_base_matches(meta, base_info)
    return base_info, ext_info


def decode_base_only(data: bytes) -> PlanarImage:
    """Decode just the base layer, ignoring the extension entirely."""
    base, _ext, meta = demux(data)
    if not base:
        raise MissingLayerError("container: file has no base layer")
    read_headers(base, b"", meta)
    return decode_base(base)
