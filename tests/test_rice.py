import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
import hypothesis.strategies as st
from hypothesis.extra import numpy as hnp

from tlxs import rice
from tlxs.errors import BitstreamError
from tlxs.rice import (
    MAX_RICE_K,
    BandRecord,
    byte_windows,
    choose_rice_k,
    decode_band,
    decode_bands,
    encode_band,
    encode_bands,
    pack_codes,
    read_records,
    rice_bit_cost,
    zigzag_map,
    zigzag_unmap,
)


# The forms these functions had before the bit-twiddling and local-search
# versions, kept as oracles.
def zigzag_map_oracle(values):
    values = np.asarray(values, dtype=np.int64)
    return np.where(values >= 0, 2 * values, -2 * values - 1)


def zigzag_unmap_oracle(mapped):
    mapped = np.asarray(mapped, dtype=np.int64)
    return np.where(mapped % 2 == 0, mapped // 2, -(mapped + 1) // 2)


def choose_rice_k_oracle(indices):
    mapped = zigzag_map_oracle(indices)
    if mapped.size == 0:
        return 0
    best_k = 0
    best_cost = int(np.sum(mapped)) + mapped.size
    for k in range(1, 25):
        cost = int(np.sum(mapped >> k)) + mapped.size * (1 + k)
        if cost < best_cost:
            best_cost = cost
            best_k = k
    return best_k


def pack_codes_oracle(mapped, k):
    """The difference-array packer ``pack_codes`` replaced."""
    if mapped.size == 0:
        return np.zeros(0, dtype=np.uint8)
    q = mapped >> k
    lengths = q + 1 + k
    total = int(lengths.sum())
    starts = np.zeros(mapped.size, dtype=np.int64)
    np.cumsum(lengths[:-1], out=starts[1:])
    bits = np.zeros(total, dtype=np.uint8)
    delta = np.zeros(total + 1, dtype=np.int64)
    delta[starts] = 1
    delta[starts + q] -= 1
    bits[np.cumsum(delta[:total]) > 0] = 1
    max_k = int(k.max())
    rem_base = starts + q + 1
    for j in range(max_k):
        sel = k > j
        bits[rem_base[sel] + j] = (mapped[sel] >> (k[sel] - 1 - j)) & 1
    return bits


def decode_mapped_oracle(bits, count, k):
    """The zero-position walker ``decode_band`` replaced; returns (values, bits used)."""
    if count == 0:
        return np.zeros(0, dtype=np.int64), 0
    nbits = bits.size
    zero_positions = np.flatnonzero(bits == 0)
    if k == 0:
        if zero_positions.size < count:
            raise BitstreamError("bitstream truncated inside band")
        terms = zero_positions[:count].astype(np.int64)
        starts = np.empty(count, dtype=np.int64)
        starts[0] = 0
        starts[1:] = terms[:-1] + 1
        q = terms - starts
        return q, int(terms[-1]) + 1
    zeros = zero_positions.tolist()
    nzeros = len(zeros)
    terms = []
    pos = 0
    zi = 0
    for _ in range(count):
        while zi < nzeros and zeros[zi] < pos:
            zi += 1
        if zi >= nzeros:
            raise BitstreamError("bitstream truncated inside band")
        t = zeros[zi]
        zi += 1
        terms.append(t)
        pos = t + 1 + k
    if pos > nbits:
        raise BitstreamError("bitstream truncated inside band")
    term_arr = np.asarray(terms, dtype=np.int64)
    starts = np.empty(count, dtype=np.int64)
    starts[0] = 0
    starts[1:] = term_arr[:-1] + 1 + k
    q = term_arr - starts
    rem = np.zeros(count, dtype=np.int64)
    for j in range(k):
        rem = (rem << 1) | bits[term_arr + 1 + j]
    return (q << k) | rem, pos


def decode_band_oracle(bits, count, k):
    mapped, consumed = decode_mapped_oracle(bits, count, k)
    if consumed != bits.size:
        raise BitstreamError("trailing bits after band payload")
    return zigzag_unmap(mapped)


def int64_arrays(low, high, max_size=64):
    return hnp.arrays(
        np.int64, st.integers(0, max_size), elements=st.integers(low, high)
    )


@st.composite
def scaled_bands(draw):
    """Signed bands whose magnitudes reach 2**e, e in 0..30, so k spans 0..24."""
    e = draw(st.integers(0, 30))
    return draw(int64_arrays(-(2**e), 2**e, max_size=200))


def test_zigzag_small_values():
    values = np.array([0, -1, 1, -2, 2, -3, 3])
    assert zigzag_map(values).tolist() == [0, 1, 2, 3, 4, 5, 6]


@given(st.lists(st.integers(-(2**40), 2**40), max_size=50))
def test_zigzag_bijective(values):
    arr = np.asarray(values, dtype=np.int64)
    assert np.array_equal(zigzag_unmap(zigzag_map(arr)), arr)


@given(int64_arrays(-(2**62), 2**62))
def test_zigzag_map_matches_oracle(values):
    assert np.array_equal(zigzag_map(values), zigzag_map_oracle(values))


@given(int64_arrays(0, 2**63 - 1))
def test_zigzag_unmap_matches_oracle(mapped):
    assert np.array_equal(zigzag_unmap(mapped), zigzag_unmap_oracle(mapped))


@given(int64_arrays(-(2**62), 2**62 - 1))
def test_zigzag_roundtrip_int64(values):
    mapped = zigzag_map(values)
    assert (mapped >= 0).all()
    assert np.array_equal(zigzag_unmap(mapped), values)


@pytest.mark.parametrize(
    "value, stays_int32",
    [
        (2**30 - 1, True),
        (-(2**30), True),
        (2**30, False),
        (2**30 + 5, False),
        (-(2**30) - 1, False),
        (2**31 - 1, False),
        (-(2**31), False),
    ],
)
def test_int32_zigzag_is_exact_over_the_whole_int32_range(value, stays_int32):
    # (v << 1) wraps in int32 beyond +-2**30; such input must map as int64
    narrow = np.array([3, value, -7], dtype=np.int32)
    wide = narrow.astype(np.int64)
    mapped = zigzag_map(narrow)
    assert (mapped.dtype == np.int32) == stays_int32
    assert mapped.tolist() == zigzag_map_oracle(wide).tolist()
    assert choose_rice_k(narrow) == choose_rice_k(wide)
    k = MAX_RICE_K
    assert rice_bit_cost(narrow, k) == rice_bit_cost(wide, k)
    assert np.array_equal(encode_band(narrow, k), encode_band(wide, k))


@given(st.lists(st.integers(-(2**31), 2**31 - 1), max_size=50))
def test_int32_zigzag_matches_int64(values):
    narrow = np.asarray(values, dtype=np.int32)
    assert np.array_equal(zigzag_map(narrow), zigzag_map(narrow.astype(np.int64)))


def test_zero_band_is_one_bit_per_sample():
    bits = encode_band(np.zeros(17, dtype=np.int64), 0)
    assert bits.tolist() == [0] * 17


def test_minus_one_codes_as_10():
    assert encode_band(np.array([-1]), 0).tolist() == [1, 0]


def test_remainder_bits_msb_first():
    # zigzag(3) = 6; with k=2: q=1 -> "10", remainder "10"
    assert encode_band(np.array([3]), 2).tolist() == [1, 0, 1, 0]


@pytest.mark.parametrize("k", range(0, 11))
def test_exhaustive_roundtrip(k):
    values = np.arange(-512, 513, dtype=np.int64)
    bits = encode_band(values, k)
    assert bits.size == rice_bit_cost(values, k)
    assert np.array_equal(decode_band(bits, values.size, k), values)


def test_truncation_detected():
    bits = encode_band(np.arange(-16, 17, dtype=np.int64), 2)
    with pytest.raises(BitstreamError):
        decode_band(bits[:-4], 33, 2)


def test_trailing_bits_detected():
    bits = encode_band(np.array([1, 2, 3]), 1)
    padded = np.concatenate([bits, np.zeros(3, dtype=np.uint8)])
    with pytest.raises(BitstreamError):
        decode_band(padded, 3, 1)


@st.composite
def band_streams(draw):
    """(bits, count, k) for a coded band; unary runs reach 128 bits."""
    k = draw(st.integers(0, 24))
    count = draw(st.sampled_from([0, 1, 2, 63, 64, 65]) | st.integers(0, 2000))
    bound = 2 ** (k + 6)
    values = draw(hnp.arrays(np.int64, count, elements=st.integers(-bound, bound)))
    return encode_band(values, k), count, k


def assert_decodes_like_oracle(bits, count, k):
    try:
        want = decode_band_oracle(bits, count, k)
    except BitstreamError:
        with pytest.raises(BitstreamError):
            decode_band(bits, count, k)
    else:
        assert np.array_equal(decode_band(bits, count, k), want)


@given(band_streams(), st.data())
def test_decode_matches_walker_oracle(stream, data):
    bits, count, k = stream
    assert_decodes_like_oracle(bits, count, k)
    if bits.size:
        flipped = bits.copy()
        flipped[data.draw(st.integers(0, bits.size - 1))] ^= 1
        assert_decodes_like_oracle(flipped, count, k)
        cut = data.draw(st.integers(1, min(k + 1, bits.size)))
        assert_decodes_like_oracle(bits[:-cut], count, k)
    for extra in (0, 1):
        longer = np.append(bits, np.uint8(extra))
        assert_decodes_like_oracle(longer, count, k)


@st.composite
def code_sequences(draw):
    """(mapped, k) with per-sample, fixed or fixed-but-one k in 0..24.

    Quotients are mostly short, but a few unary runs reach 2**17 ones.
    """
    n = draw(st.sampled_from([0, 1]) | st.integers(0, 300))
    shape = draw(st.sampled_from(["per_sample", "fixed", "outlier"]))
    if shape == "per_sample":
        k = draw(hnp.arrays(np.int64, n, elements=st.integers(0, MAX_RICE_K)))
    else:
        k = np.full(n, draw(st.integers(0, MAX_RICE_K)), dtype=np.int64)
        if shape == "outlier" and n:
            k[draw(st.integers(0, n - 1))] = draw(st.integers(0, MAX_RICE_K))
    q = draw(hnp.arrays(np.int64, n, elements=st.integers(0, 4)))
    for _ in range(draw(st.integers(0, min(n, 3)))):
        q[draw(st.integers(0, n - 1))] = draw(st.integers(0, 2**17))
    low = draw(hnp.arrays(np.int64, n, elements=st.integers(0, 2**MAX_RICE_K - 1)))
    return (q << k) | (low & ((1 << k) - 1)), k


@given(code_sequences())
def test_pack_codes_matches_oracle(codes):
    mapped, k = codes
    assert np.array_equal(pack_codes(mapped, k), pack_codes_oracle(mapped, k))
    if k.size and (k == k[0]).all():
        assert np.array_equal(pack_codes(mapped, int(k[0])), pack_codes_oracle(mapped, k))


def _pack_case(name):
    n = 512 * 512
    rng = np.random.default_rng(9)
    if name == "k0_zeros":
        return np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64)
    if name == "k0_geometric":
        return rng.geometric(0.5, n) - 1, np.zeros(n, dtype=np.int64)
    if name == "k3_random":
        return rng.integers(0, 64, n), np.full(n, 3)
    if name == "k24_small":
        return rng.integers(0, 8, n), np.full(n, 24)
    if name == "k_random":
        k = rng.integers(0, 25, n)
        return rng.integers(0, 3 << k), k
    k = np.full(n, 2)
    k[n // 2] = 24
    return rng.integers(0, 12, n), k


@pytest.mark.parametrize(
    "name",
    ["k0_zeros", "k0_geometric", "k3_random", "k24_small", "k_random", "k2_one_k24"],
)
def test_pack_memory_per_coded_bit(name):
    mapped, k = (np.asarray(a, dtype=np.int64) for a in _pack_case(name))
    tracemalloc.start()
    try:
        bits = pack_codes(mapped, k)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the block-wise packer reads 2-4 B/bit here, pack_codes_oracle up to 49
    assert peak <= 8 * bits.size


@pytest.mark.parametrize(
    "values, k",
    [
        ([(3 << 5) | 31], 5),  # count 1; the last zero has no zero after it
        ([0], 7),  # count 1; the code is all zeros
        ([5, 1, (1 << 4) - 1], 4),  # the last code's remainder is all ones
        ([2, 0, 9, (2 << 3) | 6], 3),  # one zero follows the last terminator
        ([0] * 5 + [(1 << 6) - 1], 6),  # all-zero codes, then a remainder of ones
    ],
)
def test_decode_band_edges_match_oracle(values, k):
    bits = pack_codes(np.asarray(values, dtype=np.int64), k)
    count = len(values)
    # the last code ends exactly at bits.size, one bit past it, and one bit before
    assert_decodes_like_oracle(bits, count, k)
    assert_decodes_like_oracle(bits[:-1], count, k)
    for extra in (0, 1):
        assert_decodes_like_oracle(np.append(bits, np.uint8(extra)), count, k)
    assert np.array_equal(decode_band(bits, count, k), zigzag_unmap(np.asarray(values)))


def assert_variants_decode_like_oracle(bits, count, k, flips):
    """The band, the band flipped at each bit in ``flips``, cut by one bit and
    by ``k + 1`` bits, and extended by a zero and by a one."""
    assert_decodes_like_oracle(bits, count, k)
    for pos in flips:
        flipped = bits.copy()
        flipped[pos] ^= 1
        assert_decodes_like_oracle(flipped, count, k)
    for cut in (1, k + 1):
        assert_decodes_like_oracle(bits[:-cut], count, k)
    for extra in (0, 1):
        assert_decodes_like_oracle(np.append(bits, np.uint8(extra)), count, k)


@pytest.fixture()
def walk_choices(monkeypatch):
    """Every sync-walk-or-doubling choice ``decode_band`` makes, in order."""
    choices = []
    original = rice._walk_pays

    def recording(unended, count):
        choices.append(original(unended, count))
        return choices[-1]

    monkeypatch.setattr(rice, "_walk_pays", recording)
    return choices


def _sync_rich(k, count, seed=0):
    """Mapped values whose remainders are all ones, so each next terminator
    is a sync zero, more than k bits after the zero before it."""
    return np.random.default_rng(seed).integers(0, 4 << k, count) | ((1 << k) - 1)


@pytest.mark.parametrize("k", [1, 2, 5, 12])
@pytest.mark.parametrize(
    "where", ["first", "last", "both"], ids=["first_bit", "last_bit", "both_ends"]
)
def test_sync_zero_at_band_ends_matches_oracle(k, where, walk_choices):
    # first: a lone terminator on bit 0 with a sync zero right after its
    # remainder; last: a remainder of ones ends the band, so the zero the
    # extended variant appends is a sync zero on the band's last bit
    ones = (1 << k) - 1
    head = [ones] if where in ("first", "both") else [(2 << k) | 1]
    tail = [ones] if where in ("last", "both") else [2]
    mapped = np.concatenate((head, _sync_rich(k, 1000), tail)).astype(np.int64)
    bits = pack_codes(mapped, k)
    assert np.array_equal(decode_band(bits, mapped.size, k), zigzag_unmap(mapped))
    assert walk_choices == [True]
    flips = [0, 1, k, k + 1, k + 2, bits.size // 2]
    flips += range(bits.size - k - 2, bits.size)
    assert_variants_decode_like_oracle(bits, mapped.size, k, flips)


@pytest.mark.parametrize("k", [1, 3, 8, 24])
def test_sync_free_zero_band_doubles(k, walk_choices):
    # every zero lies within k bits of the one before, so only zero 0 is known
    count = 3000
    bits = np.zeros(count * (1 + k), dtype=np.uint8)
    assert np.array_equal(decode_band(bits, count, k), np.zeros(count))
    assert walk_choices == [False]
    flips = [0, 1, k, k + 1, bits.size // 2, bits.size - 1]
    assert_variants_decode_like_oracle(bits, count, k, flips)
    assert not any(walk_choices)


def _cluster_band(k, cluster):
    """Sync-rich codes around ``cluster`` zero codes, which hold no sync zero."""
    zeros = np.zeros(cluster, dtype=np.int64)
    mapped = np.concatenate((_sync_rich(k, 3000, 1), zeros, _sync_rich(k, 3000, 2)))
    return pack_codes(mapped, k), mapped


@pytest.mark.parametrize("k", range(4, 9))
@pytest.mark.parametrize("cluster, walks", [(16, True), (2000, False)])
def test_long_cluster_band_on_both_sides_of_the_choice(k, cluster, walks, walk_choices):
    bits, mapped = _cluster_band(k, cluster)
    assert np.array_equal(decode_band(bits, mapped.size, k), zigzag_unmap(mapped))
    assert walk_choices == [walks]
    # flips inside the cluster, at its edges and in the sync-rich codes
    start = int(np.flatnonzero(mapped == 0)[0])
    edge = int(np.sum((mapped[:start] >> k) + 1 + k))
    flips = [0, edge - 1, edge, edge + 1, edge + 3 * (1 + k)]
    flips += [bits.size // 2, bits.size - 1]
    assert_variants_decode_like_oracle(bits, mapped.size, k, flips)


@pytest.mark.parametrize("k", range(1, 25))
def test_all_ones_band_rejected(k):
    # no zero bit ends any code, though the size admits 40 codes
    with pytest.raises(BitstreamError, match="truncated"):
        decode_band(np.ones(40 * (1 + k), dtype=np.uint8), 40, k)


def test_all_zero_band_at_largest_k():
    # every code is a lone terminator plus 24 zero remainder bits
    bits = np.zeros(1000 * 25, dtype=np.uint8)
    assert np.array_equal(encode_band(np.zeros(1000, dtype=np.int64), 24), bits)
    assert np.array_equal(decode_band(bits, 1000, 24), np.zeros(1000))


def assert_mapped_like_oracle(bits, count, k):
    """``_decode_mapped`` on a whole band gives the oracle's values."""
    want, consumed = decode_mapped_oracle(bits, count, k)
    assert consumed == bits.size
    assert np.array_equal(rice._decode_mapped(bits, count, k), want)


@pytest.mark.parametrize("k", [1, 2, 3, 12, 24])
@pytest.mark.parametrize(
    "mapped",
    [
        lambda k: [(1 << k) - 1],  # one code, one zero
        lambda k: [(3 << k) | ((1 << k) - 1)] * 2,  # two zeros, far apart
        lambda k: [(1 << k) - 2],  # one code whose last remainder bit is zero
        lambda k: [(1 << k) - 1, 0],  # a sync zero, then k + 1 zeros in a row
    ],
    ids=["one_zero", "two_zeros", "zero_in_remainder", "then_zero_code"],
)
def test_jump_table_with_few_zeros(k, mapped):
    mapped = np.asarray(mapped(k), dtype=np.int64)
    bits = pack_codes(mapped, k)
    assert_mapped_like_oracle(bits, mapped.size, k)
    assert_variants_decode_like_oracle(bits, mapped.size, k, range(bits.size))


def _band_by_gaps(gaps, k):
    """The band of whole codes that a one-bit stream with zeros ``gaps`` apart
    begins with; returns ``(bits, count)``."""
    zeros = np.cumsum(gaps) - gaps[0]
    bits = np.ones(int(zeros[-1]) + 1, dtype=np.uint8)
    bits[zeros] = 0
    count, end = 0, 0
    for z in zeros.tolist():
        if z >= end:
            if z + 1 + k > bits.size:
                break
            count, end = count + 1, z + 1 + k
    return bits[:end], count


@pytest.mark.parametrize(
    "gaps",
    [
        np.full(3000, 24),
        np.random.default_rng(8).integers(1, 25, 3000),
        np.random.default_rng(9).integers(20, 25, 3000),
    ],
    ids=["all_k", "uniform", "near_k"],
)
def test_jump_table_at_largest_k_with_every_gap_within_k(gaps):
    # the running sums of up to k gaps reach k * k = 576, near uint16's
    # bound for the clipped sums; no zero after zero 0 is a sync zero
    bits, count = _band_by_gaps(gaps, 24)
    assert count > 1000
    assert np.diff(np.flatnonzero(bits == 0)).max() <= 24
    assert_mapped_like_oracle(bits, count, 24)


@pytest.mark.parametrize("k", range(1, 25))
def test_all_zero_bits_decode_like_oracle(k):
    for count in (1, 2, 3, 500):
        bits = np.zeros(count * (1 + k), dtype=np.uint8)
        assert_mapped_like_oracle(bits, count, k)
        assert_decodes_like_oracle(bits, count - 1, k)  # trailing zeros


def test_impossible_count_rejected_before_allocating():
    tracemalloc.start()
    try:
        with pytest.raises(BitstreamError, match="cannot hold"):
            decode_band(np.zeros(8, dtype=np.uint8), 10**9, 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def _random_band(nbits, k):
    values = np.random.default_rng(5).integers(-3, 4, size=nbits // 3)
    return encode_band(values, k), values.size


@pytest.mark.parametrize(
    "bits, count, k",
    [
        (np.zeros(2**20, dtype=np.uint8), 2**20, 0),
        (*_random_band(2**20, 1), 1),
        (np.zeros(2**20, dtype=np.uint8), 2**18, 3),
        (np.zeros(25 * (2**20 // 25), dtype=np.uint8), 2**20 // 25, 24),
    ],
    ids=["k0_zeros", "k1_random", "k3_zeros", "k24_zeros"],
)
def test_decode_memory_per_input_bit(bits, count, k):
    tracemalloc.start()
    try:
        out = decode_band(bits, count, k)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.size == count
    assert peak <= 48 * bits.size


def chosen_k(values):
    """The ``k`` of ``choose_rice_k``, whose ``bits`` must be ``rice_bit_cost``'s."""
    k, bits = choose_rice_k(values)
    assert bits == rice_bit_cost(values, k)
    return k


def test_choose_k_all_zero():
    assert chosen_k(np.zeros(100, dtype=np.int64)) == 0


def test_choose_k_singleton_zero_tiebreak():
    assert chosen_k(np.array([0])) == 0


def test_choose_k_matches_measured_argmin():
    band = np.full(50, 4, dtype=np.int64)  # zigzag value 8
    measured = [encode_band(band, k).size for k in range(25)]
    want = measured.index(min(measured))
    assert chosen_k(band) == want


@given(
    st.lists(st.integers(-4000, 4000), min_size=1, max_size=200),
    st.integers(0, 12),
)
def test_roundtrip_property(values, k):
    arr = np.asarray(values, dtype=np.int64)
    assert np.array_equal(decode_band(encode_band(arr, k), arr.size, k), arr)


@given(st.lists(st.integers(-4000, 4000), min_size=1, max_size=200))
def test_chosen_k_is_globally_minimal(values):
    arr = np.asarray(values, dtype=np.int64)
    k = chosen_k(arr)
    costs = [rice_bit_cost(arr, j) for j in range(25)]
    assert costs[k] == min(costs)
    assert all(costs[j] > costs[k] for j in range(k))


@given(scaled_bands())
def test_chosen_k_matches_exhaustive_scan(values):
    assert chosen_k(values) == choose_rice_k_oracle(values)


@pytest.mark.parametrize(
    "values",
    [
        [],
        [0] * 9,
        [7],
        [-(2**30)],
        [2**30] * 5,  # optimum lies past the clamp: k = 24
        [1] * 3 + [-(2**29)],
    ],
    ids=["empty", "all_zero", "one_value", "one_huge", "clamped", "skewed"],
)
def test_chosen_k_matches_exhaustive_scan_on_edges(values):
    arr = np.asarray(values, dtype=np.int64)
    assert chosen_k(arr) == choose_rice_k_oracle(arr)


@pytest.mark.parametrize(
    "values",
    [[-1], [1], [3], [-3, 3], [1, -1, 1, -1], [6] * 4, [1] * 3 + [-2] * 5],
)
def test_chosen_k_ties_go_to_smallest(values):
    arr = np.asarray(values, dtype=np.int64)
    costs = [rice_bit_cost(arr, k) for k in range(25)]
    k = chosen_k(arr)
    assert k == choose_rice_k_oracle(arr)
    assert costs[k] == min(costs)
    # each case has a second minimizer above the chosen one
    assert costs[k + 1] == costs[k]


@given(st.integers(1, 24), st.integers(1, 40))
def test_chosen_k_at_every_start_point(k_mean, n):
    # a flat band of mapped value 2**k_mean starts the search at k_mean
    arr = np.full(n, 2 ** (k_mean - 1), dtype=np.int64)
    assert chosen_k(arr) == choose_rice_k_oracle(arr)


def histogram(values):
    return rice.Histogram(*np.unique(values, return_counts=True))


_INT32 = np.iinfo(np.int32)


@given(
    st.one_of(
        scaled_bands(),
        hnp.arrays(np.int32, st.integers(0, 64), elements=st.integers(-40, 40)),
        hnp.arrays(np.int32, st.integers(0, 64), elements=st.integers(_INT32.min, _INT32.max)),
    )
)
def test_histogram_scores_like_its_array(values):
    assert choose_rice_k(histogram(values)) == choose_rice_k(values)


@pytest.mark.parametrize(
    "values",
    [
        [],
        [_INT32.min],
        [_INT32.max] * 3,
        [_INT32.min, _INT32.max, 0, -1, _INT32.min],
        [_INT32.min + 1] * 2 + [1] * 5,
    ],
    ids=["empty", "int32_min", "int32_max", "both_extremes", "skewed"],
)
def test_histogram_scores_like_its_array_on_edges(values):
    arr = np.asarray(values, dtype=np.int32)
    assert choose_rice_k(histogram(arr)) == choose_rice_k(arr)
    assert choose_rice_k(histogram(arr))[0] == choose_rice_k_oracle(arr)


@given(
    hnp.arrays(np.int64, st.integers(0, 32), elements=st.integers(-(2**20), 2**20)),
    st.data(),
)
def test_histogram_with_repeated_values_scores_like_its_expansion(values, data):
    # rate control quantizes distinct values, so equal indices can recur
    counts = data.draw(hnp.arrays(np.int64, values.size, elements=st.integers(0, 50)))
    expanded = np.repeat(values, counts)
    assert choose_rice_k(rice.Histogram(values, counts)) == choose_rice_k(expanded)


# no value of these bands reaches it
_BOUND = (1 << 30) - 1


def _record(name, width, height, k, bits, bound=_BOUND):
    """A component 0 record at step 1 whose indices keep ``|i| <= bound``."""
    return BandRecord(name, 0, width, height, 1, k, bits, 2 * bound)


def _records(bands, coded):
    """Band ``i`` as a record named ``i`` of shape ``(1, len(band))`` at step 1."""
    return [
        _record(str(i), len(band), 1, k, bits)
        for i, (band, (k, bits)) in enumerate(zip(bands, coded))
    ]


@pytest.mark.parametrize(
    "bands",
    [
        [],
        [[5]],
        [[0] * 17, [], [-3, 900, 2, -1], [7]],
    ],
    ids=["no_bands", "one_sample", "mixed"],
)
def test_bands_roundtrip(bands):
    bands = [np.asarray(band, dtype=np.int64) for band in bands]
    records, payload = encode_bands(bands)
    assert [k for k, _ in records] == [chosen_k(b) for b in bands]
    assert len(payload) == sum((bits + 7) // 8 for _, bits in records)
    out = list(decode_bands(payload, 0, _records(bands, records)))
    assert len(out) == len(bands)
    for got, want in zip(out, bands):
        assert np.array_equal(got, want.reshape(1, -1))


@given(st.lists(st.lists(st.integers(-4000, 4000), max_size=40), max_size=8))
def test_bands_roundtrip_property(bands):
    bands = [np.asarray(band, dtype=np.int64) for band in bands]
    records, payload = encode_bands(bands)
    out = list(decode_bands(payload, 0, _records(bands, records)))
    assert all(np.array_equal(a, b.reshape(1, -1)) for a, b in zip(out, bands))


@pytest.mark.parametrize("bound", [1, 1000, (1 << 30) - 1])
@pytest.mark.parametrize("excess", [-1, 0, 1, 2])
def test_bands_bound_edges(bound, excess):
    # mapped 2 * bound + excess is -bound, bound, -(bound + 1), bound + 1
    value = int(zigzag_unmap(np.array([2 * bound + excess]))[0])
    assert abs(value) == bound + (excess > 0)
    band = np.zeros((3, 5), dtype=np.int64)
    band[1, 2] = value
    band[2, 4] = -bound
    records, payload = encode_bands([band])
    decoded = decode_bands(payload, 0, [_record("X", 5, 3, k, bits, bound) for k, bits in records])
    if excess > 0:
        with pytest.raises(BitstreamError, match="^band X: coefficient out of range$"):
            list(decoded)
    else:
        (out,) = decoded
        assert out.dtype == np.int32 and out.shape == (3, 5)
        assert np.array_equal(out, band)


@pytest.mark.parametrize("k", range(4))
def test_bands_longer_than_their_longest_codes_rejected(k):
    # limit 5 at step 1 and limit 11 at step 2 both keep |i| <= 5, so the
    # longest code is mapped 10's, (10 >> k) + k + 1 bits
    bits = encode_band(np.array([5]), k)
    assert bits.size == (10 >> k) + k + 1
    longer = np.packbits(np.append(bits, 0)).tobytes()
    for record, step, limit in (struct.Struct(">BI"), (), 5), (struct.Struct(">HBI"), (2,), 11):
        data = record.pack(*step, k, bits.size) + np.packbits(bits).tobytes()
        (x,) = read_records(data, 0, [("X", 1, 1)], (0,), record, "", limit)
        (out,) = decode_bands(data, record.size, [x])
        assert x.top == 10 and out.tolist() == [[5]]
        data = record.pack(*step, k, bits.size + 1) + longer
        message = f"^band X at bit {8 * record.size}: {bits.size + 1} bits exceed any band of 1 "
        with pytest.raises(BitstreamError, match=message + "samples$"):
            read_records(data, 0, [("X", 1, 1)], (0,), record, "", limit)


def test_decode_band_returns_int64():
    values = np.arange(-512, 513, dtype=np.int64)
    for k in (0, 3, 10):
        out = decode_band(encode_band(values, k), values.size, k)
        assert out.dtype == np.int64 and np.array_equal(out, values)
    assert decode_band(np.zeros(0, dtype=np.uint8), 0, 2).dtype == np.int64


def test_bands_packed_msb_first_and_zero_padded():
    # zigzag(3) = 6; best k=2 (tie with 3 goes to the smaller): "1010", then
    # four zero padding bits; the second band, "0", starts on a fresh byte
    records, payload = encode_bands([np.array([3]), np.array([0])])
    assert records == [(2, 4), (0, 1)]
    assert payload == bytes([0b10100000, 0b00000000])


def test_bands_set_padding_bit_rejected():
    _, payload = encode_bands([np.array([3])])
    with pytest.raises(BitstreamError):
        list(decode_bands(bytes([payload[0] | 0x01]), 0, [_record("0", 1, 1, 2, 4)]))


def test_bands_count_above_bits_rejected():
    # a band of n samples needs at least n bits, one terminator each
    records, payload = encode_bands([np.zeros(4, dtype=np.int64)])
    assert records == [(0, 4)]
    with pytest.raises(BitstreamError, match="cannot hold"):
        list(decode_bands(payload, 0, [_record("0", 5, 1, 0, 4)]))


def test_records_carry_component_and_step():
    # two components of two bands; the second table has no step field
    layout = [("L", 2, 1), ("H", 1, 1)]
    stepped = struct.Struct(">HBI")
    table = b"".join(stepped.pack(step, 1, 9) for step in (3, 4, 5, 6)) + bytes(8)
    records = read_records(b"hdr" + table, 3, layout, range(2), stepped, "", 100)
    # top: twice the largest |i| with |i| * step + step // 2 <= 100
    assert records == (
        BandRecord("L", 0, 2, 1, 3, 1, 9, 66),
        BandRecord("H", 0, 1, 1, 4, 1, 9, 48),
        BandRecord("L", 1, 2, 1, 5, 1, 9, 38),
        BandRecord("H", 1, 1, 1, 6, 1, 9, 32),
    )
    stepless = struct.Struct(">BI")
    table = stepless.pack(2, 8) + stepless.pack(0, 0) + bytes(1)
    records = read_records(table, 0, layout, (2,), stepless, "", 100)
    assert records == (
        BandRecord("L", 2, 2, 1, 1, 2, 8, 200),
        BandRecord("H", 2, 1, 1, 1, 0, 0, 200),
    )
    # mapped 4 at k = 2 is "1000": the two samples of L, width 2 by height 1
    (band,) = decode_bands(b"\x88", 0, records[:1])
    assert band.tolist() == [[2, 2]]


@pytest.mark.parametrize(
    "table, message",
    [
        (bytes(9), "^at: truncated inside band records$"),
        (struct.pack(">HBIHBI", 0, 0, 0, 1, 0, 0), "^at: band L declares step 0$"),
        (struct.pack(">HBIHBI", 1, 0, 0, 1, 0, 9), "^at: declared band sizes"),
        (struct.pack(">HBIHBI", 1, 0, 0, 1, 0, 9) + bytes(3), "^at: declared band sizes"),
    ],
    ids=["cut", "step_0", "short", "long"],
)
def test_bad_record_tables_rejected(table, message):
    layout = [("L", 1, 1), ("H", 1, 1)]
    with pytest.raises(BitstreamError, match=message):
        read_records(table, 0, layout, (0,), struct.Struct(">HBI"), "at: ", _BOUND)


@pytest.mark.parametrize("layer", ["base", "wavelet"])
def test_rice_k_past_the_largest_rejected_in_both_layers(layer):
    from tlxs import base, dwt
    from tlxs.residual import (
        _EXT_FIXED,
        _EXT_LEN,
        LosslessCoderId,
        encode_extension,
        parse_extension_header,
    )
    from tlxs.synthetic import natural_image

    image = natural_image(32, 16, 8)
    if layer == "base":
        payload = bytearray(base.encode_base(image, base.BaseConfig(target_bpp=2.0)))
        payload[base._FIXED.size + 2] = MAX_RICE_K + 1  # first record's k, after step u16
        name = dwt.band_dimensions(32, 16, 5, 2)[0][0]
        with pytest.raises(BitstreamError, match=f"band {name} declares rice k 25$"):
            base.parse_base_header(bytes(payload))
    else:
        payload = bytearray(encode_extension(image.planes, 8, LosslessCoderId.WAVELET))
        payload[_EXT_FIXED.size + _EXT_LEN.size] = MAX_RICE_K + 1  # first record's k
        name = dwt.band_dimensions(32, 16, 3, 3)[0][0]
        with pytest.raises(BitstreamError, match=f"band {name} declares rice k 25$"):
            parse_extension_header(bytes(payload), 32, 16, 1)


# Bit-level I/O of the band section: MSB-first packing, zero padding to a
# byte, fixed-width field reads through the 64-bit windows of byte_windows,
# and truncation.


def _field_bits(fields):
    """0/1 array of each ``(value, width)`` field, most significant bit first."""
    bits = [(value >> (width - 1 - i)) & 1 for value, width in fields for i in range(width)]
    return np.asarray(bits, dtype=np.uint8)


def _read_field(windows, pos, width):
    """``width`` bits from bit ``pos``, read the way the predictive decoder does."""
    return ((windows[pos >> 3] << (pos & 7)) & ((1 << 64) - 1)) >> (64 - width)


def test_msb_first_packing():
    # mapped value 0b101 at k=3: no unary ones, the terminator "0", then "101"
    bits = pack_codes(np.array([0b101]), np.array([3]))
    assert bits.tolist() == [0, 1, 0, 1]
    assert np.packbits(bits).tobytes() == bytes([0b01010000])


def test_align_pads_zeros():
    # zigzag(-1) = 1 at k=0 codes as "10"; the section pads it to one byte
    records, payload = encode_bands([np.array([-1])])
    assert records == [(0, 2)]
    assert len(payload) * 8 == 8
    assert payload == bytes([0x80])


def test_reader_roundtrip_fields():
    bits = _field_bits([(0xABC, 12), (5, 3)])
    windows = byte_windows(np.packbits(bits).tobytes())
    assert len(windows) == 3
    assert _read_field(windows, 0, 12) == 0xABC
    assert _read_field(windows, 12, 3) == 5
    # past the end the window reads as zero padding
    assert _read_field(windows, 15, 8) == 0
    assert windows[2] == 0


def test_reader_truncation():
    # nine bits declared, one byte present; then one bit declared, none present
    record = struct.Struct(">BI")
    for bits, section in (9, b"\xff"), (1, b""):
        with pytest.raises(BitstreamError, match="^declared band sizes"):
            read_records(record.pack(0, bits) + section, 0, [("0", 1, 1)], (0,), record, "", 5)


def test_bit_array_roundtrip():
    band = np.array([-1, 0, 3, -2, 1], dtype=np.int64)
    records, payload = encode_bands([band])
    (k, nbits), = records
    bits = encode_band(band, k)
    assert nbits == bits.size
    unpacked = np.unpackbits(np.frombuffer(payload, dtype=np.uint8))
    assert np.array_equal(unpacked[: bits.size], bits)
    assert np.all(unpacked[bits.size :] == 0)
    (out,) = decode_bands(payload, 0, [_record("0", band.size, 1, k, nbits, 3)])
    assert np.array_equal(out, band.reshape(1, -1))


@given(st.lists(st.tuples(st.integers(0, 2**20), st.integers(0, MAX_RICE_K)), max_size=30))
def test_field_sequences_roundtrip(fields):
    kept = [(value & ((1 << width) - 1), width) for value, width in fields]
    windows = byte_windows(np.packbits(_field_bits(kept)).tobytes())
    pos = 0
    for value, width in kept:
        assert _read_field(windows, pos, width) == value
        pos += width


def _window_oracle(data, pos):
    return int.from_bytes(data[pos : pos + 8].ljust(8, b"\0"), "big")


@pytest.mark.parametrize("size", range(41))
def test_byte_windows_match_big_endian_reads(size):
    data = bytes(range(251, 251 - size, -1))
    windows = byte_windows(data)
    assert windows.tolist() == [_window_oracle(data, p) for p in range(size + 1)]


def test_byte_windows_of_a_long_payload():
    data = np.random.default_rng(8).integers(0, 256, 100_000, dtype=np.uint8).tobytes()
    windows = byte_windows(data)
    assert windows.tolist() == [_window_oracle(data, p) for p in range(len(data) + 1)]
