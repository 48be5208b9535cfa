"""Deterministic synthetic test images.

The bench and the test suite need a reproducible corpus covering the usual
compression extremes (flat, noisy, hard-edged, smooth). Randomness comes from
a counter-mode SplitMix64 implemented here, so the same image bytes come out
on every platform and numpy version.
"""

from __future__ import annotations

import numpy as np

from .image import PlanarImage

CORPUS_NAMES = ("constant", "gradient", "checkerboard", "noise", "text", "natural")

_CHECKER_BLOCK = 8  # side of each checkerboard square, in pixels
_NATURAL_DECAY = 0.65  # amplitude ratio of successive natural_image octaves


def _splitmix64(counters: np.ndarray) -> np.ndarray:
    """SplitMix64 of each counter value; full 64-bit avalanche per element."""
    z = counters.astype(np.uint64)
    with np.errstate(over="ignore"):
        z = z + np.uint64(0x9E3779B97F4A7C15)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        z = z ^ (z >> np.uint64(31))
    return z


def _rand_u64(seed: int, count: int, stream: int = 0) -> np.ndarray:
    base = (seed * 0x2545F4914F6CDD1D + stream * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    counters = np.arange(count, dtype=np.uint64) + np.uint64(base)
    return _splitmix64(counters)


def _rand_ints(seed: int, count: int, bound: int, stream: int = 0) -> np.ndarray:
    """Uniform-ish integers in [0, bound); bias is irrelevant at these sizes."""
    return (_rand_u64(seed, count, stream) % np.uint64(bound)).astype(np.int64)


def _gray(plane: np.ndarray, bit_depth: int) -> PlanarImage:
    return PlanarImage.from_planes([plane], bit_depth)


def constant_image(width: int, height: int, bit_depth: int) -> PlanarImage:
    mid = (1 << bit_depth) // 2
    return _gray(np.full((height, width), mid, dtype=np.int64), bit_depth)


def gradient_image(width: int, height: int, bit_depth: int) -> PlanarImage:
    maxv = (1 << bit_depth) - 1
    x = np.arange(width, dtype=np.int64)
    y = np.arange(height, dtype=np.int64)
    span = max(width + height - 2, 1)
    plane = (x[np.newaxis, :] + y[:, np.newaxis]) * maxv // span
    return _gray(plane, bit_depth)


def checkerboard_image(width: int, height: int, bit_depth: int) -> PlanarImage:
    maxv = (1 << bit_depth) - 1
    x = np.arange(width) // _CHECKER_BLOCK
    y = np.arange(height) // _CHECKER_BLOCK
    plane = ((x[np.newaxis, :] + y[:, np.newaxis]) % 2) * maxv
    return _gray(plane.astype(np.int64), bit_depth)


def noise_image(width: int, height: int, bit_depth: int, seed: int = 7) -> PlanarImage:
    plane = _rand_ints(seed, width * height, 1 << bit_depth).reshape(height, width)
    return _gray(plane, bit_depth)


def text_image(width: int, height: int, bit_depth: int, seed: int = 11) -> PlanarImage:
    """Bimodal image with glyph-like dark marks on a light background."""
    maxv = (1 << bit_depth) - 1
    ink = maxv // 10
    paper = maxv - ink
    plane = np.full((height, width), paper, dtype=np.int64)
    marks = max(width * height // 256, 8)
    xs = _rand_ints(seed, marks, max(width - 1, 1), stream=1)
    ys = _rand_ints(seed, marks, max(height - 1, 1), stream=2)
    ws = _rand_ints(seed, marks, 6, stream=3) + 1
    hs = _rand_ints(seed, marks, 3, stream=4) + 1
    for x, y, w, h in zip(xs.tolist(), ys.tolist(), ws.tolist(), hs.tolist()):
        plane[y : y + h, x : x + w] = ink
    # ruled lines every 16 rows, like text baselines
    plane[8::16, :] = ink
    return _gray(plane, bit_depth)


def _bilinear_lattice(
    width: int, height: int, cells_x: int, cells_y: int, seed: int, stream: int
) -> np.ndarray:
    """Random lattice values bilinearly interpolated up to (height, width)."""
    lat = _rand_u64(seed, (cells_x + 1) * (cells_y + 1), stream=stream)
    lattice = (lat >> np.uint64(11)).astype(np.float64) / float(1 << 53)
    lattice = lattice.reshape(cells_y + 1, cells_x + 1)
    xs = np.linspace(0.0, cells_x, width)
    ys = np.linspace(0.0, cells_y, height)
    x0 = np.minimum(xs.astype(np.int64), cells_x - 1)
    y0 = np.minimum(ys.astype(np.int64), cells_y - 1)
    fx = xs - x0
    fy = ys - y0
    # along x on the lattice rows first, then between rows y0 and y0 + 1:
    # the same products and sums per pixel as interpolating in 2-D at once
    rows = lattice[:, x0] * (1 - fx) + lattice[:, x0 + 1] * fx
    return rows[y0] * (1 - fy)[:, np.newaxis] + rows[y0 + 1] * fy[:, np.newaxis]


def natural_image(width: int, height: int, bit_depth: int, seed: int = 5) -> PlanarImage:
    """Fractal multi-octave field standing in for natural photographic content.

    Octaves run all the way down to pixel scale so fine-detail energy is
    heavy-tailed like in photographs; purely smooth synthetic fields are
    unrealistically kind to predictive coders and produce stair-step rate
    curves instead of gradual ones.
    """
    maxv = (1 << bit_depth) - 1
    field = np.zeros((height, width), dtype=np.float64)
    amplitude = 1.0
    total = 0.0
    octave = 0
    cells = 4
    while cells <= min(width, height):
        field += amplitude * _bilinear_lattice(
            width, height, cells, cells, seed, stream=10 + octave
        )
        total += amplitude
        amplitude *= _NATURAL_DECAY
        cells *= 2
        octave += 1
    if total:  # no octave fits when a side is under 4: the image stays flat
        field /= total
    lo, hi = field.min(), field.max()
    if hi > lo:
        field = (field - lo) / (hi - lo)
    plane = np.floor(field * maxv + 0.5).astype(np.int32)
    return _gray(plane, bit_depth)


def color_gradient_image(width: int, height: int, bit_depth: int) -> PlanarImage:
    """Three-component variant used to exercise the PPM and color paths."""
    maxv = (1 << bit_depth) - 1
    x = np.arange(width, dtype=np.int64)
    y = np.arange(height, dtype=np.int64)
    r = x[np.newaxis, :] * maxv // max(width - 1, 1) * np.ones((height, 1), np.int64)
    g = y[:, np.newaxis] * maxv // max(height - 1, 1) * np.ones((1, width), np.int64)
    b = (r + g) // 2
    return PlanarImage.from_planes([r, g, b], bit_depth)


def corpus(bit_depth: int, size: int = 256) -> dict[str, PlanarImage]:
    """The six-image synthetic corpus at one bit depth."""
    return {
        "constant": constant_image(size, size, bit_depth),
        "gradient": gradient_image(size, size, bit_depth),
        "checkerboard": checkerboard_image(size, size, bit_depth),
        "noise": noise_image(size, size, bit_depth),
        "text": text_image(size, size, bit_depth),
        "natural": natural_image(size, size, bit_depth),
    }
