"""Golomb-Rice coding of signed values.

Signed values are first zigzag-mapped onto non-negative integers
(0, -1, 1, -2, 2, ... -> 0, 1, 2, 3, 4, ...). A mapped value ``v`` with
parameter ``k`` is coded as ``v >> k`` one-bits, a terminating zero bit, then
the low ``k`` bits of ``v`` most significant first. ``k`` may range over
0..24.

Encoding assembles whole bands as numpy bit arrays (:func:`pack_codes`), and
band decoding takes them apart with array passes only. Each code ends at a
zero bit, so a band at ``k = 0`` ends its codes at its first ``count`` zero
bits. At ``k > 0`` the code ending at zero bit ``z`` is followed by the one
ending at the first zero at or after ``z + 1 + k``, at most ``k`` zeros on;
:func:`decode_band` tabulates that jump from running sums of the gaps between
zeros, each gap clipped to ``k + 1`` so the sums fit uint16. A zero more
than ``k`` bits after the zero before it, a sync zero, always ends a code,
since no earlier code's remainder reaches it (the self-synchronisation
parallel variable-length decoders use; Klein & Wiseman, The Computer Journal
46(5), 2003). So the decoder follows the jump table from zero 0 and every
sync zero at once, one gather per step, until each walk lands on a zero
already known to end a code; the zeros it marked are the terminators. A walk
takes at most as many steps as zeros lie between two sync zeros, and when
that bound would cost more than pointer doubling from zero 0 in
``ceil(log2(count))`` rounds, as on bands with few or no sync zeros, the
decoder doubles instead. Both give the same terminators. A per-sample
``k`` decoder reads big-endian 64-bit windows (:func:`byte_windows`) instead.

Band section: the base layer and the wavelet extension coder both store a
sequence of bands, each coded at its own cost-minimizing ``k`` (found by a
local search on the convex coded length, see :func:`choose_rice_k`) and
zero-padded to a byte boundary, MSB first, with no separators. A record
table in front of it, which :func:`read_records` reads for both layers,
declares each band's ``k``, coded length in bits and, in the base, step.
:func:`read_records` judges every record against its layer's index limit
(``|i| * step + step // 2 <= limit``, ``top`` the largest mapped index): it
refuses ``k`` above 24, a step of 0, a record longer than ``count * ((top >>
k) + k + 1)`` bits and bands that do not end where the payload does.
:func:`encode_bands` writes the section, and :func:`decode_bands` refuses a
nonzero padding bit, a band whose ``count``-th code does not end on its last
bit, and a mapped index above ``top``, checked while still int64, so no
int32 band is ever wrapped.
"""

from __future__ import annotations

import struct
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import BitstreamError

MAX_RICE_K = 24
_PACK_BLOCK = 1 << 15
# What one step of the sync-zero walk costs, in jump entries read by pointer
# doubling, charged per step of the walk's bound (real walks take a third or
# less of it); summed over the benchmark's bands, decode time is flat for
# values from 256 to 768.
_WALK_STEP_COST = 512


def _int32_or_int64(values) -> np.ndarray:
    values = np.asarray(values)
    return values if values.dtype == np.int32 else np.asarray(values, dtype=np.int64)


def zigzag_map(values: np.ndarray) -> np.ndarray:
    """Map signed integers onto non-negative ones (0,-1,1,-2 -> 0,1,2,3).

    int32 stays int32 when every value lies in ``[-2**30, 2**30)``, where the
    mapped values fit; any other input maps as int64.
    """
    values = _int32_or_int64(values)
    mapped = (values << 1) ^ (values >> (8 * values.itemsize - 1))
    # an int32 value outside that range is exactly one whose mapping wraps,
    # and a wrapped mapping reads negative
    if mapped.dtype == np.int32 and mapped.size and mapped.min() < 0:
        return zigzag_map(values.astype(np.int64))
    return mapped


def zigzag_unmap(mapped: np.ndarray) -> np.ndarray:
    """Inverse of :func:`zigzag_map`, keeping int32 as int32 as well."""
    mapped = _int32_or_int64(mapped)
    return (mapped >> 1) ^ -(mapped & 1)


class Histogram(NamedTuple):
    """Signed values, not necessarily distinct, each occurring ``counts`` times."""

    values: np.ndarray
    counts: np.ndarray


def choose_rice_k(indices: np.ndarray | Histogram) -> tuple[int, int]:
    """Parameter in 0..MAX_RICE_K of least coded length, ties to smallest.

    Returns ``(k, bits)``, ``bits`` being that least length: the size of
    ``encode_band(indices, k)``, without a second pass. A
    :class:`Histogram` is scored as the array holding each value ``count``
    times; a plain array weighs each of its values once.

    The coded length ``f(k) = sum(count * (v >> k)) + n * (1 + k)`` is convex
    in ``k``: ``f(k+1) - f(k) = n - sum(count * ceil((v >> k) / 2))`` never
    decreases. So a local search from ``floor(log2(mean))`` finds the global
    minimum, usually in three or four passes over the values instead of one
    per candidate (Kiely, IPN Progress Report 42-159, 2004). Stepping down on
    ``<=`` and up on ``<`` lands on the smallest minimizer.
    """
    values, counts = indices if isinstance(indices, Histogram) else (indices, None)
    mapped = zigzag_map(values)
    n = mapped.size if counts is None else int(counts.sum())
    if n == 0:
        return 0, 0

    def weighted_sum(a: np.ndarray) -> int:
        return int(np.sum(a) if counts is None else a @ counts)

    total = weighted_sum(mapped)
    costs = {0: total + n}

    def cost(k: int) -> int:
        if k not in costs:
            costs[k] = weighted_sum(mapped >> k) + n * (1 + k)
        return costs[k]

    k = min(max((total // n).bit_length() - 1, 0), MAX_RICE_K)
    while k > 0 and cost(k - 1) <= cost(k):
        k -= 1
    while k < MAX_RICE_K and cost(k + 1) < cost(k):
        k += 1
    return k, cost(k)


def encode_band(indices: np.ndarray, k: int) -> np.ndarray:
    """Encode signed values with fixed parameter ``k``; returns a 0/1 array."""
    if not 0 <= k <= MAX_RICE_K:
        raise ValueError(f"rice parameter {k} out of range")
    mapped = zigzag_map(indices).ravel()
    return pack_codes(mapped, k)


def pack_codes(mapped: np.ndarray, k: np.ndarray | int) -> np.ndarray:
    """Assemble Golomb-Rice codes for ``mapped`` values with per-value (or one) ``k``.

    Blocks of ``_PACK_BLOCK`` codes start as all ones, the unary parts. Code
    ``i`` ends before ``ends[i]``, its remainder bit ``b`` at ``ends[i] - 1 - b``.
    """
    k = np.broadcast_to(k, mapped.shape)
    chunks = [np.zeros(0, dtype=np.uint8)]
    for start in range(0, mapped.size, _PACK_BLOCK):
        m, kb = mapped[start : start + _PACK_BLOCK], k[start : start + _PACK_BLOCK]
        ends = np.cumsum((m >> kb) + kb + 1)
        bits = np.ones(int(ends[-1]), dtype=np.uint8)
        bits[ends - 1 - kb] = 0
        k_min = int(kb.min())
        for b in range(int(kb.max())):
            has = slice(None) if b < k_min else kb > b
            bits[ends[has] - 1 - b] = (m[has] >> b) & 1
        chunks.append(bits)
    return np.concatenate(chunks)


def decode_band(bits: np.ndarray, count: int, k: int) -> np.ndarray:
    """Decode ``count`` signed int64 values; the bit array must be exactly consumed."""
    return zigzag_unmap(_decode_mapped(bits, count, k))


def _decode_mapped(bits: np.ndarray, count: int, k: int) -> np.ndarray:
    """The ``count`` zigzag-mapped int64 values :func:`decode_band` unmaps."""
    if not 0 <= k <= MAX_RICE_K:
        raise ValueError(f"rice parameter {k} out of range")
    # Every code takes at least 1 + k bits; checked before any allocation.
    if count * (1 + k) > bits.size:
        raise BitstreamError(f"band cannot hold {count} samples in {bits.size} bits")
    if count == 0:
        if bits.size:
            raise BitstreamError("trailing bits after band payload")
        return np.zeros(0, dtype=np.int64)
    is_zero = bits == 0
    n = int(np.count_nonzero(is_zero))
    if n < count:
        raise BitstreamError("bitstream truncated inside band")
    if n > count * (1 + k):  # a code holds at most 1 + k zeros: the rest follow the last
        raise BitstreamError("trailing bits after band payload")
    zeros = np.flatnonzero(is_zero)
    if k == 0:
        terms = zeros[:count]
    else:
        # jump[i]: the zero ending the code after zero i's, i + 1 plus how many
        # of the next k zeros lie within k bits of zero i; n is "past the end".
        near = _near_counts(zeros, k)
        jump = np.arange(1, n + 2)
        jump[:n] += near
        jump[n] = n
        # unended[j]: zero j is not yet known to end a code. Zero 0 ends the
        # first code, and so does every sync zero, more than k bits after the
        # zero before it, since no remainder reaches it. Entry n is the end.
        unended = np.empty(n + 1, dtype=bool)
        unended[0] = False
        np.not_equal(near, 0, out=unended[1:])
        if _walk_pays(unended, count):
            # follow every sync zero's codes at once until each walk reaches
            # a zero already known to end a code; those zeros are the ends
            walk = np.flatnonzero(~unended[:n])
            while walk.size:
                walk = jump[walk]
                walk = walk[unended[walk]]
                unended[walk] = False
            chain = np.flatnonzero(~unended[:n])[:count]
            if chain.size < count:
                raise BitstreamError("bitstream truncated inside band")
        else:
            # chain[i] is the zero ending code i; the last round squares no jump
            chain = np.zeros(1, dtype=np.intp)
            while chain.size < count:
                chain = np.concatenate((chain, jump[chain[: count - chain.size]]))
                if chain.size < count:
                    jump = jump[jump]
            if chain[-1] == n:
                raise BitstreamError("bitstream truncated inside band")
        terms = zeros[chain]
    consumed = int(terms[-1]) + 1 + k
    if consumed > bits.size:
        raise BitstreamError("bitstream truncated inside band")
    if consumed < bits.size:
        raise BitstreamError("trailing bits after band payload")
    # quotient: the run of ones from each code's start to its terminator
    mapped = np.empty(count, dtype=np.int64)
    mapped[0] = 0
    mapped[1:] = terms[:-1] + (1 + k)
    np.subtract(terms, mapped, out=mapped)
    for j in range(1, k + 1):
        mapped <<= 1
        mapped |= bits[terms + j]
    return mapped


def _near_counts(zeros: np.ndarray, k: int) -> np.ndarray:
    """``near[i]``: how many of the ``k`` zeros after zero ``i`` lie within ``k`` bits of it.

    Zero ``i + d`` does when the ``d`` gaps from zero ``i`` sum to at most
    ``k``. Gaps clipped to ``k + 1`` keep that test, and ``d <= k`` of them
    sum to at most ``k * (k + 1) <= 600``, so the running sums stay uint16.
    """
    n = zeros.size
    near = np.zeros(n, dtype=np.uint8)
    if min(k, n - 1) < 2:
        np.less_equal(np.diff(zeros), k, out=near[:-1])
        return near
    clipped = np.empty(n - 1, dtype=np.uint16)
    np.minimum(np.diff(zeros), k + 1, out=clipped, casting="unsafe")
    np.less_equal(clipped, k, out=near[:-1])
    run = clipped[:-1] + clipped[1:]  # run[i]: gaps i .. i + d - 1 summed, d = 2
    near[: n - 2] += run <= k
    for d in range(3, min(k, n - 1) + 1):
        run = run[: n - d]
        run += clipped[d - 1 :]
        near[: n - d] += run <= k
    return near


def _walk_pays(unended: np.ndarray, count: int) -> bool:
    """Whether walking from the sync zeros costs less than pointer doubling.

    A walk reaches the next known end within as many steps as zeros lie
    between the two, and doubling reads about ``n * count.bit_length()`` jump
    entries. The ``gaps`` gaps between ends sum to ``n``, so a band with few
    ends is ruled out before its gaps are measured.
    """
    n = unended.size - 1
    doubling = n * int(count).bit_length()
    gaps = n - np.count_nonzero(unended)
    if n * _WALK_STEP_COST > doubling * gaps:
        return False
    return int(np.diff(np.flatnonzero(~unended)).max()) * _WALK_STEP_COST <= doubling


def encode_bands(bands: Iterable[np.ndarray]) -> tuple[list[tuple[int, int]], bytes]:
    """Code each band at its best ``k``; returns ``(k, bits)`` per band and the section.

    Bands are consumed one at a time, so a generator keeps only one band's
    bits alive.
    """
    records = []
    chunks = []
    for band in bands:
        k, _ = choose_rice_k(band)
        bits = encode_band(band, k)
        records.append((k, bits.size))
        chunks.append(np.packbits(bits).tobytes())
    return records, b"".join(chunks)


class BandRecord(NamedTuple):
    """One coded band as its layer's record table declares it."""

    name: str
    component: int
    width: int
    height: int
    step: int
    k: int
    bits: int
    top: int  # the largest zigzag-mapped index the layer allows at step


def decode_bands(
    data: bytes | memoryview, pos: int, records: Sequence[BandRecord]
) -> Iterator[np.ndarray]:
    """Yield each record's band as int32 of shape ``(height, width)``.

    ``data`` from byte ``pos`` on holds the section :func:`encode_bands`
    wrote for ``records``, as :func:`read_records` judged them. A mapped
    index above its record's ``top`` raises ``"band NAME: coefficient out of
    range"`` before the int32 narrowing. Any other :class:`BitstreamError`
    inside a band is prefixed with ``"band NAME at bit N"``, ``N`` counted
    from the start of ``data``.
    """
    for r in records:
        nbytes = (r.bits + 7) // 8
        try:
            band_bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8, count=nbytes, offset=pos))
            if band_bits[r.bits :].any():
                raise BitstreamError("nonzero padding after band")
            mapped = _decode_mapped(band_bits[: r.bits], r.width * r.height, r.k)
        except BitstreamError as err:
            raise BitstreamError(f"band {r.name} at bit {8 * pos}: {err}") from err
        if mapped.size and int(mapped.max()) > r.top:
            raise BitstreamError(f"band {r.name}: coefficient out of range")
        pos += nbytes
        yield zigzag_unmap(mapped.astype(np.int32)).reshape(r.height, r.width)


def read_records(
    data: bytes | memoryview,
    pos: int,
    layout: Sequence[tuple[str, int, int]],
    components: Sequence[int],
    record: struct.Struct,
    where: str,
    limit: int,
    band_where: str | None = None,
) -> tuple[BandRecord, ...]:
    """Read the table at ``pos``: per component, one ``record`` per band of ``layout``.

    A record unpacks to ``(step, k, bits)``, or to ``(k, bits)`` at step 1.
    Every index must keep ``|i| * step + step // 2 <= limit`` (below ``2**30``),
    and a record longer than its samples' longest codes under it is refused.
    The bands, each padded to a byte, must end exactly where ``data`` ends.
    Errors begin with ``where``, which names the payload, or a record's own
    with ``band_where`` formatted with its ``comp`` when that is given.
    """
    end = pos + record.size * len(components) * len(layout)
    if len(data) < end:
        raise BitstreamError(f"{where}truncated inside band records")
    records = []
    for comp in components:
        at = where if band_where is None else band_where.format(comp=comp)
        for name, width, height in layout:
            step, k, bits = (1, *record.unpack_from(data, pos))[-3:]
            pos += record.size
            if step < 1:
                raise BitstreamError(f"{at}band {name} declares step 0")
            if k > MAX_RICE_K:
                raise BitstreamError(f"{at}band {name} declares rice k {k}")
            count = width * height
            top = 2 * ((limit - step // 2) // step)  # the largest mapped index
            if bits > count * ((top >> k) + k + 1):  # no code is longer than top's
                message = f"{bits} bits exceed any band of {count} samples"
                raise BitstreamError(f"{at}band {name} at bit {8 * end}: {message}")
            records.append(BandRecord(name, comp, width, height, step, k, bits, top))
            end += (bits + 7) // 8
    if end != len(data):
        raise BitstreamError(f"{where}declared band sizes do not match payload length")
    return tuple(records)


def byte_windows(data: bytes) -> memoryview:
    """``win[p]`` = bytes ``p..p+7`` of ``data`` as a big-endian 64-bit int.

    One window per byte offset ``0..len(data)``; bytes past the end read as
    zero. The 64 bits from bit position ``pos`` (MSB first) are
    ``(win[pos >> 3] << (pos & 7)) & (2**64 - 1)``, of which at least the top
    57 are stream bits or zero padding. One strided big-endian view of the
    zero-padded copy becomes native uint64: 9 bytes per input byte in all.
    Indexing the view gives Python ints.
    """
    padded = bytes(data) + bytes(8)  # the window at len(data) reads its 8 zeros
    view = np.ndarray(len(data) + 1, dtype=">u8", buffer=padded, strides=(1,))
    return memoryview(view.astype(np.uint64))
