"""Reversible LeGall 5/3 lifting transform and the 2-D band decomposition.

One lifting pass over a line ``x`` of length ``n`` produces detail
coefficients ``d[i] = x[2i+1] - floor((x[2i] + x[2i+2]) / 2)`` followed by
smooth coefficients ``s[i] = x[2i] + floor((d[i-1] + d[i] + 2) / 4)``, with
out-of-range indices reflected symmetrically about the ends (whole-sample
extension). The transform is exactly invertible in integers for every length,
including odd and length-1 lines.

The 2-D decomposition is horizontal-dominant: ``levels_h`` horizontal stages
are applied to the running low band, and the first ``levels_v`` of those
stages split vertically as well. Bands are emitted coarsest first:

    L, then per stage from deepest to shallowest:
        2-D stage s:  HL{s}, LH{s}, HH{s}
        1-D stage s:  H{s}

where HL carries horizontal detail, LH vertical detail. A stage splits a
length ``n`` axis into ``ceil(n/2)`` low and ``floor(n/2)`` high samples, so
band dimensions tile the image exactly and nothing is padded.

The forward split writes straight into its fresh bands: the detail half,
then the smooth half, flooring with ``>>`` and reflecting the ends by
slicing. It lifts along axis 0 of a view (``np.moveaxis``), so no transposed
copy is made. The inverse lifts into contiguous scratch halves and
interleaves them into its output once; a horizontal merge does so in blocks
of ``_MERGE_ROWS`` rows, so its scratch does not follow the plane's height.
On the 131k-sample halves of a 512x512 plane, one pass over the interleaved
output halves costs 0.04-0.08 ms vertically and 0.10-0.15 ms horizontally
(an 8-byte stride), where an add over all 262k samples of a contiguous plane
costs 0.027 ms.

Every lifting buffer and band is ``int32``. What keeps the values in range
is the weight one output takes over its inputs, the sum of their absolute
weights, measured over line lengths 1..300:

* Analysis weighs at most 2.85 per axis, so at most 8.2 in 2-D at any
  levels. :func:`decompose` rejects samples beyond ``MAX_MAGNITUDE``
  (2**24), so bands stay below 2**28 and the sums inside a lifting step below
  2**29. The format's samples are at most 17 bits wide, and their bands stay
  below 2**21.
* Synthesis weighs at most 1 per band along each axis, so a sample takes at
  most one unit of weight per band: at most 11 at the base layer's 6/2
  levels and 10 at the wavelet extension's 3/3. The base decoder bounds
  coefficients by ``2**(N + levels_h + levels_v + 1) + MAX_STEP`` (at most
  ``2**25 + 65535``) and the extension decoder by ``2**(N + 7)`` (at most
  2**24) before synthesis. So any band set within those limits, hostile or
  not, reconstructs below ``11 * (2**25 + 65535)``, about 2**28.5, and the
  widest sum inside a lifting step (two outputs) stays below 2**30. A valid
  base stream reconstructs the source plus a quantization error below
  ``MAX_STEP`` per band: below 2**20.
* :func:`recompose` itself takes any band that fits in int32. Bands beyond
  the decoders' limits can wrap during synthesis; such a set is no valid
  stream, decodes to garbage either way, and the decoders' sample range
  checks still run on what comes out.
"""

from __future__ import annotations

import numpy as np

from .errors import CodecError
from .image import as_int32

Band = tuple[str, int, int]

MAX_MAGNITUDE = 1 << 24
"""Largest sample magnitude :func:`decompose` and :func:`dwt_forward_53` accept."""


def _split_axis(a: np.ndarray, axis: int) -> tuple[np.ndarray, np.ndarray]:
    """Forward lifting along ``axis``; returns fresh C-contiguous (low, high)."""
    n = a.shape[axis]
    nh, m = n // 2, (n - 1) // 2  # m: odd samples with an even one on each side
    shapes = [a.shape[:axis] + (h,) + a.shape[axis + 1 :] for h in (n - nh, nh)]
    low, high = (np.empty(shape, dtype=np.int32) for shape in shapes)
    x, lo, hi = (np.moveaxis(arr, axis, 0) for arr in (a, low, high))
    even, odd = x[0::2], x[1::2]
    if nh == 0:
        lo[:] = even
        return low, high
    # hi = odd - (left + right) >> 1; at even n the last right reflects to left
    np.add(even[:m], even[1 : m + 1], out=hi[:m])
    hi[:m] >>= 1
    hi[m:] = even[m:nh]
    np.subtract(odd, hi, out=hi)
    _smooth_update(hi, lo, n)
    lo += even
    return low, high


_MERGE_ROWS = 64
"""Rows per block of a horizontal merge's lifting scratch."""


def _merge_axis(low: np.ndarray, high: np.ndarray, axis: int) -> np.ndarray:
    """Inverse of :func:`_split_axis`; rejects halves of inconsistent length."""
    nl, nh = low.shape[axis], high.shape[axis]
    if nl - nh not in (0, 1) or nl == 0:
        raise CodecError("inconsistent band lengths for inverse transform")
    n = nl + nh
    out = np.empty(low.shape[:axis] + (n,) + low.shape[axis + 1 :], dtype=np.int32)
    if nh == 0:  # a length-1 axis: the low half is the line
        out[...] = low
        return out
    if axis == 0:
        even, odd = (np.empty(half.shape, dtype=np.int32) for half in (low, high))
        _lift(low, high, even, odd, n)
        out[0::2], out[1::2] = even, odd
        return out
    # axis 1 of a plane: lift transposed blocks of rows in one pair of buffers
    height = low.shape[0]
    even_rows, odd_rows = (
        np.empty((min(height, _MERGE_ROWS), h), dtype=np.int32) for h in (nl, nh)
    )
    for top in range(0, height, _MERGE_ROWS):
        rows = slice(top, top + _MERGE_ROWS)
        even, odd = even_rows[: height - top], odd_rows[: height - top]
        _lift(low[rows].T, high[rows].T, even.T, odd.T, n)
        out[rows, 0::2], out[rows, 1::2] = even, odd
    return out


def _lift(lo: np.ndarray, hi: np.ndarray, even: np.ndarray, odd: np.ndarray, n: int) -> None:
    """Inverse lifting along axis 0: fills ``even`` and ``odd`` of a length-``n`` axis."""
    nh, m = n // 2, (n - 1) // 2
    _smooth_update(hi, even, n)
    np.subtract(lo, even, out=even)
    np.add(even[:m], even[1 : m + 1], out=odd[:m])
    odd[:m] >>= 1
    odd[m:] = even[m:nh]
    odd += hi


def _smooth_update(hi: np.ndarray, out: np.ndarray, n: int) -> None:
    """``out[i] = (hi[i-1] + hi[i] + 2) >> 2`` with both ends reflected."""
    nh = n // 2
    np.add(hi[:-1], hi[1:], out=out[1:nh])
    np.left_shift(hi[:1], 1, out=out[:1])
    # at odd n the last smooth sample sees the last detail on both sides
    np.left_shift(hi[nh - 1 : n - nh - 1], 1, out=out[nh:])
    out += 2
    out >>= 2


def dwt_forward_53(line: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Forward one-level 5/3 transform of a 1-D integer line."""
    arr = as_int32(line, -MAX_MAGNITUDE, MAX_MAGNITUDE)
    if arr.ndim != 1 or arr.size == 0:
        raise CodecError("transform input must be a non-empty 1-D line")
    return _split_axis(arr, 0)


def dwt_inverse_53(low: np.ndarray, high: np.ndarray) -> np.ndarray:
    """Exact integer inverse of :func:`dwt_forward_53`."""
    lo, hi = as_int32(low), as_int32(high)
    if lo.ndim != 1 or hi.ndim != 1:
        raise CodecError("band inputs must be 1-D")
    if lo.size == 0:
        raise CodecError("low band cannot be empty")
    return _merge_axis(lo, hi, 0)


def _validate_levels(levels_h: int, levels_v: int) -> None:
    if not 1 <= levels_h <= 6:
        raise CodecError(f"levels_h must be in 1..6, got {levels_h}")
    if not 0 <= levels_v <= levels_h:
        raise CodecError(f"levels_v must be in 0..levels_h, got {levels_v}")


def band_dimensions(
    width: int, height: int, levels_h: int, levels_v: int
) -> list[Band]:
    """Canonical band list ``(name, width, height)`` for a decomposition."""
    _validate_levels(levels_h, levels_v)
    stages: list[list[Band]] = []
    cw, ch = width, height
    for stage in range(1, levels_h + 1):
        lw, hw = (cw + 1) // 2, cw // 2
        if stage <= levels_v:
            lh, hh = (ch + 1) // 2, ch // 2
            stages.append(
                [
                    (f"HL{stage}", hw, lh),
                    (f"LH{stage}", lw, hh),
                    (f"HH{stage}", hw, hh),
                ]
            )
            cw, ch = lw, lh
        else:
            stages.append([(f"H{stage}", hw, ch)])
            cw = lw
    bands: list[Band] = [("L", cw, ch)]
    for stage_bands in reversed(stages):
        bands.extend(stage_bands)
    return bands


def decompose(
    plane: np.ndarray, levels_h: int, levels_v: int
) -> list[np.ndarray]:
    """Split a plane into C-contiguous coefficient bands in canonical order."""
    _validate_levels(levels_h, levels_v)
    current = as_int32(plane, -MAX_MAGNITUDE, MAX_MAGNITUDE)
    if current.ndim != 2 or current.size == 0:
        raise CodecError("plane must be a non-empty 2-D array")
    stages: list[list[np.ndarray]] = []
    for stage in range(1, levels_h + 1):
        low_h, high_h = _split_axis(current, 1)
        if stage <= levels_v:
            current, lh = _split_axis(low_h, 0)
            hl, hh = _split_axis(high_h, 0)
            stages.append([hl, lh, hh])
        else:
            stages.append([high_h])
            current = low_h
    bands = [current]
    for stage_bands in reversed(stages):
        bands.extend(stage_bands)
    return bands


def recompose(
    bands: list[np.ndarray], width: int, height: int, levels_h: int, levels_v: int
) -> np.ndarray:
    """Exact inverse of :func:`decompose`; bands may be any integer views that fit int32."""
    layout = band_dimensions(width, height, levels_h, levels_v)
    if len(bands) != len(layout):
        raise CodecError(f"expected {len(layout)} bands, got {len(bands)}")
    bands = [as_int32(arr) for arr in bands]
    for arr, (name, bw, bh) in zip(bands, layout):
        if arr.shape != (bh, bw):
            raise CodecError(f"band {name} has shape {arr.shape}, expected {(bh, bw)}")
    current, pos = bands[0], 1
    # Stages are stored deepest first; undo them in that order.
    for stage in range(levels_h, 0, -1):
        if stage <= levels_v:
            hl, lh, hh = bands[pos : pos + 3]
            pos += 3
            low_h = _merge_axis(current, lh, 0)
            current = _merge_axis(low_h, _merge_axis(hl, hh, 0), 1)
        else:
            current = _merge_axis(current, bands[pos], 1)
            pos += 1
    if current.shape != (height, width):
        raise CodecError("recomposed plane does not match requested dimensions")
    return current
