import math
import tracemalloc

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis.extra import numpy as hnp

from tlxs import base, dwt, rice
from tlxs.base import (
    LOSSLESS_BASE,
    RATE_TOLERANCE,
    BaseConfig,
    decode_base,
    encode_base,
    encode_base_detailed,
    parse_base_header,
    quantize_deadzone,
    rate_control,
)
from tlxs.errors import BitstreamError, CodecError
from tlxs.image import PlanarImage, bits_per_pixel, psnr
from tlxs.synthetic import natural_image, noise_image

from conftest import images
from reference import choose_rice_k_oracle, rice_bit_cost


def rate_control_oracle(image, config):
    """The bisection as it was before probes were memoized and bands split.

    Every probe re-quantizes every band with ``quantize_deadzone`` and
    scores it with the exhaustive k scan and ``rice_bit_cost``. Returns
    ``(steps, overshoot, integer step of every probe in order)``.
    """
    comp_bands = [
        dwt.decompose(plane, config.levels_h, config.levels_v)
        for plane in image.planes
    ]
    n_bands = len(comp_bands[0])
    probed = []

    def step_for(scale):
        return max(1, min(65535, math.floor(scale + 0.5)))

    def size_bits(scale):
        step = step_for(scale)
        probed.append(step)
        # 15-byte fixed header, 7-byte record per band
        total = 15 + 7 * n_bands * len(comp_bands)
        for bands in comp_bands:
            for band in bands:
                indices = quantize_deadzone(band, step)
                if indices.any():
                    k = choose_rice_k_oracle(indices)
                    total += (rice_bit_cost(indices, k) + 7) // 8
        return 8 * total

    budget = config.target_bpp * (1.0 + RATE_TOLERANCE) * image.pixel_count
    lo, hi = 1.0, 65536.0
    if size_bits(lo) <= budget:
        return (1,) * n_bands, False, probed
    if size_bits(hi) > budget:
        return (65535,) * n_bands, True, probed
    for _ in range(18):
        mid = (lo + hi) / 2.0
        if size_bits(mid) <= budget:
            hi = mid
        else:
            lo = mid
    return (step_for(hi),) * n_bands, False, probed


def encode_base_oracle(image, config):
    """The encoder as it was before it quantized from rate control's split.

    It decomposes the image itself, quantizes every band with
    ``quantize_deadzone`` and tracks which bands are coded in a side list.
    """
    comp_bands = [
        dwt.decompose(plane, config.levels_h, config.levels_v)
        for plane in image.planes
    ]
    if config.target_bpp is None:
        steps = (1,) * len(comp_bands[0])
    else:
        steps, _ = rate_control(image, config)
    coded = []

    def coded_bands():
        for bands in comp_bands:
            for band, step in zip(bands, steps):
                indices = quantize_deadzone(band, step)
                coded.append(bool(indices.any()))
                if coded[-1]:
                    yield indices

    entries, section = rice.encode_bands(coded_bands())
    header = bytearray(
        base._FIXED.pack(
            base.MAGIC,
            image.width,
            image.height,
            image.components,
            image.bit_depth,
            (config.levels_h << 4) | config.levels_v,
        )
    )
    entries_iter = iter(entries)
    for step, is_coded in zip(steps * len(comp_bands), coded):
        k, nbits = next(entries_iter) if is_coded else (0, 0)
        header += base._RECORD.pack(step, k, nbits)
    return bytes(header) + section


@st.composite
def base_configs(draw):
    levels_h = draw(st.integers(1, 6))
    levels_v = draw(st.integers(0, min(2, levels_h)))
    target = draw(st.one_of(st.sampled_from([0.01, 16.0]), st.floats(0.01, 16.0)))
    return BaseConfig(levels_h=levels_h, levels_v=levels_v, target_bpp=target)


@given(images(max_dim=40, depths=(8, 12, 16)), base_configs())
@settings(max_examples=150)
def test_rate_control_matches_oracle(img, config):
    steps, overshoot, _ = rate_control_oracle(img, config)
    assert rate_control(img, config) == (steps, overshoot)


@given(images(depths=(8, 12, 16)), base_configs(), st.booleans())
@settings(max_examples=150)
def test_encode_matches_oracle(img, config, lossless):
    if lossless:
        config = BaseConfig(config.levels_h, config.levels_v, LOSSLESS_BASE)
    assert encode_base(img, config) == encode_base_oracle(img, config)


@pytest.mark.parametrize("components", [1, 3])
@pytest.mark.parametrize("depth", [8, 12, 16])
@pytest.mark.parametrize("target", [LOSSLESS_BASE, 0.01, 0.3, 2.0, 16.0])
def test_encode_matches_oracle_on_natural_images(components, depth, target):
    planes = [
        natural_image(48, 40, depth, seed=seed).planes[0] for seed in range(components)
    ]
    img = PlanarImage.from_planes(planes, depth)
    config = BaseConfig(target_bpp=target)
    assert encode_base(img, config) == encode_base_oracle(img, config)


@st.composite
def seeded_images(draw):
    """Natural or noise images, gray or RGB, big enough for sub-bpp targets."""
    make = draw(st.sampled_from([natural_image, noise_image]))
    width, height = draw(st.integers(32, 96)), draw(st.integers(32, 96))
    depth = draw(st.sampled_from([8, 12, 16]))
    components = draw(st.sampled_from([1, 3]))
    seeds = draw(
        st.lists(st.integers(0, 2**16), min_size=components, max_size=components)
    )
    planes = [make(width, height, depth, seed=seed).planes[0] for seed in seeds]
    return PlanarImage.from_planes(planes, depth)


@given(seeded_images(), base_configs())
@settings(max_examples=60)
def test_rate_control_matches_oracle_on_seeded_images(img, config):
    steps, overshoot, _ = rate_control_oracle(img, config)
    assert rate_control(img, config) == (steps, overshoot)


@pytest.mark.parametrize("components", [1, 3])
@pytest.mark.parametrize("depth", [8, 12, 16])
@pytest.mark.parametrize("target", [0.01, 0.3, 2.0, 16.0])
def test_rate_control_matches_oracle_on_natural_images(components, depth, target):
    planes = [
        natural_image(48, 40, depth, seed=seed).planes[0] for seed in range(components)
    ]
    img = PlanarImage.from_planes(planes, depth)
    config = BaseConfig(target_bpp=target)
    steps, overshoot, _ = rate_control_oracle(img, config)
    assert rate_control(img, config) == (steps, overshoot)
    # the ends of the range reach both early exits
    if target == 0.01:
        assert overshoot
    if target == 16.0 and components == 1:
        assert steps[0] == 1


def test_rate_control_scores_each_integer_step_once(monkeypatch):
    img = natural_image(64, 64, 8)
    probed = []
    calls = 0
    section_bytes = base._section_bytes
    choose_rice_k = rice.choose_rice_k

    def recording(split, step):
        probed.append(step)
        return section_bytes(split, step)

    def counting(indices):
        nonlocal calls
        calls += 1
        return choose_rice_k(indices)

    monkeypatch.setattr(base, "_section_bytes", recording)
    monkeypatch.setattr(rice, "choose_rice_k", counting)
    for target in (2.0, 0.25):  # steps 7 and 73
        config = BaseConfig(target_bpp=target)
        comp_bands = [
            dwt.decompose(p, config.levels_h, config.levels_v) for p in img.planes
        ]
        probed.clear()
        calls = 0
        steps, _ = rate_control(img, config)
        # steps 1 and MAX_STEP, then one probe per halving of [1, 65535]: each
        # probe narrows the interval, so no step comes back
        assert len(set(probed)) == len(probed) <= 18
        assert steps[0] in probed
        # one k search per nonzero band per probe, none for zero bands
        assert calls == sum(
            bool(quantize_deadzone(band, step).any())
            for step in probed
            for bands in comp_bands
            for band in bands
        )


@given(
    hnp.arrays(np.int64, st.integers(1, 64), elements=st.integers(-(2**20), 2**20)),
    st.integers(1, 2**16),
    st.integers(1, 2**16),
)
def test_coded_length_never_grows_with_the_step(band, s1, s2):
    # the monotonicity that lets rate control bisect the step
    s1, s2 = sorted((s1, s2))
    fine, coarse = quantize_deadzone(band, s1), quantize_deadzone(band, s2)
    assert rice.choose_rice_k(coarse)[1] <= rice.choose_rice_k(fine)[1]
    if int(np.abs(band).max()) < s2:
        assert not coarse.any()


def test_rate_control_rejects_lossless_base():
    with pytest.raises(CodecError):
        rate_control(natural_image(16, 16, 8), BaseConfig(target_bpp=LOSSLESS_BASE))


def test_config_validation():
    with pytest.raises(CodecError):
        BaseConfig(levels_h=0)
    with pytest.raises(CodecError):
        BaseConfig(levels_h=7)
    with pytest.raises(CodecError):
        BaseConfig(levels_v=3)
    with pytest.raises(CodecError):
        BaseConfig(levels_h=1, levels_v=2)
    # an infinite target would be a second spelling of LOSSLESS_BASE
    for target in (-1.0, 0.0, math.inf, -math.inf, math.nan):
        with pytest.raises(CodecError, match="positive and finite"):
            BaseConfig(target_bpp=target)
    BaseConfig(target_bpp=LOSSLESS_BASE)  # sentinel is valid


def test_payload_is_deterministic(natural_256):
    config = BaseConfig(target_bpp=1.0)
    assert encode_base(natural_256, config) == encode_base(natural_256, config)


@given(images(max_dim=20))
@settings(max_examples=30)
def test_lossless_base_roundtrip(img):
    config = BaseConfig(target_bpp=LOSSLESS_BASE)
    assert decode_base(encode_base(img, config)) == img


def test_generous_target_reaches_finest():
    img = noise_image(16, 16, 8, seed=3)
    steps, overshoot = rate_control(img, BaseConfig(target_bpp=16.0))
    assert not overshoot
    assert all(step == 1 for step in steps)


def test_rate_control_meets_tolerance():
    img = natural_image(512, 512, 8)
    config = BaseConfig(target_bpp=2.0)
    payload = encode_base(img, config)
    achieved = bits_per_pixel(len(payload), img.width, img.height)
    assert achieved <= 2.0 * 1.02


def test_rate_control_on_noise_image():
    img = noise_image(256, 256, 8, seed=21)
    payload = encode_base(img, BaseConfig(target_bpp=1.0))
    achieved = bits_per_pixel(len(payload), img.width, img.height)
    assert achieved <= 1.02


def test_unreachable_target_sets_overshoot_flag():
    img = noise_image(32, 32, 8, seed=9)
    result = encode_base_detailed(img, BaseConfig(target_bpp=0.01))
    assert result.overshoot


def test_psnr_monotone_over_sweep(natural_256):
    img = natural_256
    values = []
    for target in (0.5, 1.0, 2.0, 4.0):
        rec = decode_base(encode_base(img, BaseConfig(target_bpp=target)))
        values.append(psnr(img, rec))
    assert values == sorted(values)


def test_decoder_matches_encoder_reconstruction(natural_256):
    # the decoder must land on the identical image the encoder used for the
    # residual; losslessness of the whole pipeline hinges on this identity
    from tlxs.pipeline import encode_two_layer_detailed

    details = encode_two_layer_detailed(natural_256, BaseConfig(target_bpp=1.0))
    fresh = decode_base(details.base_bytes)
    assert fresh == details.base_image


def test_header_parse_reports_bands(natural_256):
    payload = encode_base(natural_256, BaseConfig(target_bpp=2.0))
    info = parse_base_header(payload)
    assert (info.width, info.height) == (256, 256)
    assert (info.levels_h, info.levels_v) == (5, 2)
    assert len(info.records) == 10
    assert info.records[0].name == "L"
    assert {r.name for r in info.records} == {
        "L", "H5", "H4", "H3", "HL2", "LH2", "HH2", "HL1", "LH1", "HH1",
    }


def test_multicomponent_roundtrip():
    rng = np.random.default_rng(5)
    planes = [rng.integers(0, 1 << 10, size=(9, 13)) for _ in range(3)]
    img = PlanarImage.from_planes(planes, 10)
    assert decode_base(encode_base(img, BaseConfig(target_bpp=LOSSLESS_BASE))) == img


def test_truncated_payload_rejected(natural_256):
    payload = encode_base(natural_256, BaseConfig(target_bpp=0.5))
    for cut in (0, 4, 10):  # inside the 15-byte fixed header
        with pytest.raises(BitstreamError, match="^base payload: shorter than its fixed header$"):
            decode_base(payload[:cut])
    for cut in (len(payload) // 2, len(payload) - 1):
        with pytest.raises(BitstreamError):
            decode_base(payload[:cut])


def test_bad_magic_rejected(natural_256):
    payload = bytearray(encode_base(natural_256, BaseConfig(target_bpp=0.5)))
    payload[0] ^= 0xFF
    with pytest.raises(BitstreamError):
        decode_base(bytes(payload))


def test_byte_flips_never_crash():
    img = natural_image(32, 32, 8)
    payload = encode_base(img, BaseConfig(target_bpp=2.0))
    for pos in range(len(payload)):
        for flip in (0x01, 0xFF):
            corrupted = bytearray(payload)
            corrupted[pos] ^= flip
            try:
                out = decode_base(bytes(corrupted))
            except CodecError:
                continue
            # silent differences are tolerable only for in-range images
            assert isinstance(out, PlanarImage)


def test_band_error_names_its_location():
    planes = [natural_image(64, 64, 8, seed=seed).planes[0] for seed in (1, 2, 3)]
    image = PlanarImage.from_planes(planes, 8)
    payload = bytearray(encode_base(image, BaseConfig(target_bpp=2.0)))
    info = parse_base_header(bytes(payload))
    pos = info.data_offset
    for record in info.records:
        if record.component == 1 and record.bits >= 64:
            break
        pos += (record.bits + 7) // 8
    # ones up to the band's last byte: too few zero bits end its codes, and
    # the padding stays zero
    nbytes = (record.bits + 7) // 8
    payload[pos : pos + nbytes - 1] = b"\xff" * (nbytes - 1)
    where = f"base component 1: band {record.name} at bit {8 * pos}: "
    with pytest.raises(BitstreamError, match=f"^{where}bitstream truncated inside band"):
        decode_base(bytes(payload))


def test_decode_base_leaves_empty_bands_unallocated(monkeypatch):
    payload = encode_base(natural_image(512, 512, 8), BaseConfig(target_bpp=0.5))
    records = parse_base_header(payload).records
    assert [r.name for r in records if r.bits == 0] == ["HL1", "LH1", "HH1"]
    full_band = 4 * 256 * 256  # one int32 level-1 band: 256 KiB
    coded = sum(4 * r.width * r.height for r in records if r.bits)
    held = []
    original = dwt.recompose

    def measuring(bands, *args):
        # what decode_base holds once every band is ready
        held.append(tracemalloc.get_traced_memory()[0])
        for band, record in zip(bands, records):
            assert band.dtype == np.int32
            if record.bits == 0:
                assert band.strides == (0, 0) and not band.flags.writeable
        return original(bands, *args)

    monkeypatch.setattr(dwt, "recompose", measuring)
    tracemalloc.start()
    try:
        decode_base(payload)
    finally:
        tracemalloc.stop()
    # the coded bands are a quarter of the plane, and the rest (the section
    # copy, the last band's bits) is far below one more band; each empty
    # band, had it been materialised, would add a full_band
    assert coded == full_band
    assert held[0] < coded + full_band


def _small_payload():
    return encode_base(natural_image(32, 16, 8), BaseConfig(target_bpp=2.0))


def test_zero_width_rejected():
    payload = bytearray(_small_payload())
    payload[4:8] = bytes(4)  # width u32 after the magic
    with pytest.raises(BitstreamError):
        parse_base_header(bytes(payload))


def test_payload_cut_inside_band_records_rejected():
    payload = _small_payload()
    with pytest.raises(BitstreamError):
        parse_base_header(payload[: base._FIXED.size + base._RECORD.size // 2])


def test_band_declaring_step_0_rejected():
    payload = bytearray(_small_payload())
    payload[base._FIXED.size : base._FIXED.size + 2] = bytes(2)  # first record's step
    with pytest.raises(BitstreamError, match="^base component 0: band L declares step 0$"):
        decode_base(bytes(payload))
    payload = bytearray(_three_component_payload(0))
    # component 2's first record, band L's
    at = base._FIXED.size + 2 * len(dwt.band_dimensions(1, 1, 6, 2)) * base._RECORD.size
    payload[at : at + 2] = bytes(2)
    with pytest.raises(BitstreamError, match="^base component 2: band L declares step 0$"):
        decode_base(bytes(payload))


def _one_band_payload(index, step, bit_depth=16):
    """A 1x1 base payload at 6/2 levels whose one coded band, L, holds ``index``."""
    layout = dwt.band_dimensions(1, 1, 6, 2)
    [(k, bits)], section = rice.encode_bands([np.array([index], dtype=np.int64)])
    header = base._FIXED.pack(base.MAGIC, 1, 1, 1, bit_depth, (6 << 4) | 2)
    records = [base._RECORD.pack(step, k, bits)]
    records += [base._RECORD.pack(step, 0, 0)] * (len(layout) - 1)
    return header + b"".join(records) + section


@pytest.mark.parametrize("step", [1, 1000, base.MAX_STEP])
@pytest.mark.parametrize("sign", [1, -1])
def test_index_bound_is_checked_before_dequantizing(step, sign):
    # |i| * step + step // 2 may reach the limit, 2**(16 + 6 + 2 + 1) + MAX_STEP
    limit = (1 << 25) + base.MAX_STEP
    bound = (limit - step // 2) // step
    plane = decode_base(_one_band_payload(sign * bound, step)).planes[0]
    assert plane.dtype == np.int32
    assert plane[0, 0] == (65535 if sign > 0 else 0)
    with pytest.raises(BitstreamError, match="band L: coefficient out of range"):
        decode_base(_one_band_payload(sign * (bound + 1), step))


def _three_component_payload(index, step=1, bit_depth=16):
    """A 1x1 three-component base payload at 6/2 levels.

    Components 0 and 1 code index 1 in band L, component 2 codes ``index``;
    every other band is zero-length.
    """
    layout = dwt.band_dimensions(1, 1, 6, 2)
    indices = [1, 1, index]
    coded, section = rice.encode_bands(np.array([i], dtype=np.int64) for i in indices)
    header = base._FIXED.pack(base.MAGIC, 1, 1, 3, bit_depth, (6 << 4) | 2)
    records = []
    for k, bits in coded:
        records.append(base._RECORD.pack(step, k, bits))
        records += [base._RECORD.pack(step, 0, 0)] * (len(layout) - 1)
    return header + b"".join(records) + section


def test_band_error_in_component_2_names_its_location():
    payload = bytearray(_three_component_payload(0))
    info = parse_base_header(bytes(payload))
    # components 0 and 1 take one byte each; component 2's L band is "0" and
    # seven padding bits, of which the last is now set
    start = info.data_offset + 2
    assert len(payload) == start + 1
    payload[start] |= 0x01
    where = f"^base component 2: band L at bit {8 * start}: nonzero padding after band$"
    with pytest.raises(BitstreamError, match=where):
        decode_base(bytes(payload))


def test_coefficient_out_of_range_in_component_2_names_its_band():
    limit = (1 << 25) + base.MAX_STEP
    decode_base(_three_component_payload(limit))
    with pytest.raises(
        BitstreamError, match="^base component 2: band L: coefficient out of range$"
    ):
        decode_base(_three_component_payload(limit + 1))


def test_index_that_would_wrap_in_int32_is_rejected():
    # 2**40 narrowed to int32 is 0; its code alone is longer than any code the
    # index bound allows, so the record is refused before it is decoded
    message = "^base component 0: band L at bit 736: 131097 bits exceed any band of 1 samples$"
    with pytest.raises(BitstreamError, match=message):
        decode_base(_one_band_payload(1 << 40, base.MAX_STEP))


def test_dequantize_rejects_indices_whose_reconstruction_would_wrap():
    bound = (2**31 - 1 - 1000 // 2) // 1000
    assert base.dequantize_deadzone(np.array([-bound, bound]), 1000).tolist() == [
        -(bound * 1000 + 500),
        bound * 1000 + 500,
    ]
    for index in (bound + 1, -bound - 1, 2**32 + 5):
        with pytest.raises(CodecError):
            base.dequantize_deadzone(np.array([index]), 1000)


def test_quantizer_arrays_are_int32():
    coeffs = np.arange(-300, 301, dtype=np.int64)
    indices = quantize_deadzone(coeffs, 7)
    assert indices.dtype == np.int32
    assert base.dequantize_deadzone(indices, 7).dtype == np.int32
    with pytest.raises(CodecError):
        quantize_deadzone(np.array([2**32 + 5]), 7)


def test_decoded_planes_are_int32():
    planes = [natural_image(40, 24, 12, seed=seed).planes[0] for seed in (1, 2, 3)]
    image = PlanarImage.from_planes(planes, 12)
    for target in (LOSSLESS_BASE, 0.5):
        decoded = decode_base(encode_base(image, BaseConfig(target_bpp=target)))
        assert all(plane.dtype == np.int32 for plane in decoded.planes)
