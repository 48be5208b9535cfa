"""Planar integer images and the quality/size metrics used by the bench."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import CodecError

INFINITE = math.inf
"""Distinguished PSNR value for a zero-MSE (identical) image pair."""

_INT32 = np.iinfo(np.int32)


def _integral(arr: np.ndarray) -> bool:
    kind = arr.dtype.kind
    if kind == "f":
        return bool(np.isfinite(arr).all() and (np.floor(arr) == arr).all())
    if kind == "O":  # Python ints beyond int64 stay objects
        return all(isinstance(v, (int, np.integer)) for v in arr.flat)
    return kind in "biu"


def as_int32(values, low: int = _INT32.min, high: int = _INT32.max) -> np.ndarray:
    """``values`` as an int32 array; :class:`CodecError` unless all lie in ``[low, high]``.

    The check comes before the narrowing, since ``astype`` wraps silently
    (``2**32 + 5`` would become 5). An int32 array needs no check against the
    default bounds and is returned as it is. Non-integral or non-finite
    floats, objects other than integers, and every other dtype (complex,
    strings, dates) raise :class:`CodecError` rather than being truncated or
    parsed.
    """
    arr = np.asarray(values)
    if arr.dtype == np.int32 and (low, high) == (_INT32.min, _INT32.max):
        return arr
    if not _integral(arr):
        raise CodecError(f"values must be finite integers; this {arr.dtype} array holds others")
    if arr.size and (int(arr.min()) < low or int(arr.max()) > high):
        raise CodecError(f"values must lie in [{low}, {high}]")
    return arr.astype(np.int32, copy=False)


def as_plane(a) -> np.ndarray:
    """``a`` as a read-only C-contiguous 2-D int32 plane.

    A read-only C-contiguous int32 array is kept as it is; a writeable one is
    copied, so the caller's own buffer is never frozen. Anything not 2-D
    raises :class:`CodecError`.
    """
    plane = as_int32(a)
    if plane.ndim != 2:
        raise CodecError(f"plane must be 2-D, got shape {plane.shape}")
    plane = np.ascontiguousarray(plane)
    if plane is a and plane.flags.writeable:
        plane = plane.copy()  # freeze a copy, never the caller's own buffer
    plane.flags.writeable = False
    return plane


@dataclass(frozen=True, eq=False)
class PlanarImage:
    """2-D integer sample planes, one per component, at a shared bit depth.

    Planes are row-major ``int32`` arrays of shape ``(height, width)``, made
    read-only at construction so images can be shared freely. Every sample of
    an N-bit image lies in ``[0, 2**N - 1]``; a value that does not fit in
    int32 is rejected, never wrapped.
    """

    width: int
    height: int
    components: int
    bit_depth: int
    planes: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        if self.components not in (1, 3):
            raise CodecError(f"components must be 1 or 3, got {self.components}")
        if not 8 <= self.bit_depth <= 16:
            raise CodecError(f"bit depth must be in 8..16, got {self.bit_depth}")
        if self.width < 1 or self.height < 1:
            raise CodecError(f"empty image: {self.width}x{self.height}")
        if len(self.planes) != self.components:
            raise CodecError("plane count does not match component count")
        for plane in self.planes:
            if plane.shape != (self.height, self.width):
                raise CodecError(
                    f"plane shape {plane.shape} does not match "
                    f"{self.height}x{self.width}"
                )
            if plane.size and (plane.min() < 0 or plane.max() > self.max_sample):
                raise CodecError(
                    f"sample out of range for bit depth {self.bit_depth}"
                )

    @classmethod
    def from_planes(
        cls, planes: Iterable[np.ndarray], bit_depth: int
    ) -> "PlanarImage":
        """Build an image from 2-D arrays, each normalized by :func:`as_plane`."""
        frozen = tuple(as_plane(p) for p in planes)
        if not frozen:
            raise CodecError("at least one plane required")
        height, width = frozen[0].shape
        return cls(
            width=width,
            height=height,
            components=len(frozen),
            bit_depth=bit_depth,
            planes=frozen,
        )

    @property
    def max_sample(self) -> int:
        return (1 << self.bit_depth) - 1

    @property
    def pixel_count(self) -> int:
        return self.width * self.height

    def same_shape(self, other: "PlanarImage") -> bool:
        return (
            self.width == other.width
            and self.height == other.height
            and self.components == other.components
            and self.bit_depth == other.bit_depth
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PlanarImage):
            return NotImplemented
        return self.same_shape(other) and all(
            np.array_equal(a, b) for a, b in zip(self.planes, other.planes)
        )


@dataclass(frozen=True)
class Metrics:
    """Quality and size of one encoded result.

    ``psnr_db`` is ``INFINITE`` exactly when the MSE is zero. ``bpp`` is
    payload bits divided by ``width * height`` (components do not enter the
    denominator).
    """

    psnr_db: float
    bpp: float
    byte_count: int


def measure(reference: PlanarImage, decoded: PlanarImage, byte_count: int) -> Metrics:
    """Quality/size summary of a ``byte_count``-byte encoding of ``reference``."""
    return Metrics(
        psnr_db=psnr(reference, decoded),
        bpp=bits_per_pixel(byte_count, reference.width, reference.height),
        byte_count=byte_count,
    )


def psnr(a: PlanarImage, b: PlanarImage) -> float:
    """Peak signal-to-noise ratio in dB, with MSE pooled over all components."""
    if not a.same_shape(b):
        raise CodecError("psnr requires images of identical shape and depth")
    total = 0.0
    for pa, pb in zip(a.planes, b.planes):
        diff = (pa - pb).astype(np.float64)
        total += float(np.dot(diff.ravel(), diff.ravel()))
    mse = total / (a.pixel_count * a.components)
    if mse == 0.0:
        return INFINITE
    peak = float(a.max_sample)
    return 10.0 * math.log10(peak * peak / mse)


def bits_per_pixel(byte_count: int, width: int, height: int) -> float:
    """Bits per pixel of a payload of ``byte_count`` bytes."""
    if width * height <= 0:
        raise CodecError("bits_per_pixel needs a non-empty image")
    return 8.0 * byte_count / (width * height)
