from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from tlxs.base import LOSSLESS_BASE, BaseConfig, decode_base
from tlxs.container import HEADER_SIZE, demux
from tlxs.errors import BitstreamError, CodecError, ContainerError
from tlxs.image import PlanarImage, bits_per_pixel
from tlxs.pipeline import (
    CSV_COLUMNS,
    bench_sweep,
    decode_two_layer,
    encode_two_layer,
    encode_two_layer_detailed,
    rows_to_csv,
)
from tlxs.residual import LosslessCoderId, encode_extension
from tlxs.synthetic import color_gradient_image, natural_image

from conftest import images, overlong_band_container

CONFIG_CASES = [
    None,
    BaseConfig(target_bpp=LOSSLESS_BASE),
    BaseConfig(target_bpp=0.5),
    BaseConfig(target_bpp=2.0),
    BaseConfig(levels_h=3, levels_v=1, target_bpp=1.0),
]


@given(images(max_dim=16), st.sampled_from(CONFIG_CASES), st.sampled_from(list(LosslessCoderId)))
@settings(max_examples=40)
def test_end_to_end_lossless(img, config, coder):
    result = decode_two_layer(encode_two_layer(img, config, coder))
    assert result.lossless
    assert result.image == img


def test_wavelet_coder_roundtrip(natural_256):
    blob = encode_two_layer(natural_256, BaseConfig(target_bpp=1.0), LosslessCoderId.WAVELET)
    result = decode_two_layer(blob)
    assert result.lossless and result.image == natural_256


def test_color_image_roundtrip():
    img = color_gradient_image(33, 21, 10)
    for coder in LosslessCoderId:
        result = decode_two_layer(encode_two_layer(img, BaseConfig(target_bpp=2.0), coder))
        assert result.lossless and result.image == img


def test_encoder_and_decoder_base_agree(natural_256):
    # The encoder rebuilds its base from its own indices, never from its
    # payload; only a Rice round trip that gives those indices back makes
    # this hold. 1xN, Nx1 and odd shapes give empty and length-1 bands.
    from tlxs.container import decode_base_only

    details = encode_two_layer_detailed(natural_256, BaseConfig(target_bpp=1.0))
    assert decode_base_only(details.file_bytes) == details.base_image
    for (width, height), depth, components, (levels_h, levels_v), target in product(
        [(1, 37), (41, 1), (23, 19)],
        [8, 12, 16],
        [1, 3],
        [(1, 0), (6, 2)],
        [LOSSLESS_BASE, 1.5, 0.01],  # 0.01 overshoots at MAX_STEP
    ):
        planes = [
            natural_image(width, height, depth, seed=seed).planes[0]
            for seed in range(components)
        ]
        image = PlanarImage.from_planes(planes, depth)
        config = BaseConfig(levels_h, levels_v, target)
        details = encode_two_layer_detailed(image, config)
        case = (width, height, depth, components, levels_h, levels_v, target)
        assert details.overshoot or target != 0.01, case
        assert decode_base(details.base_bytes) == details.base_image, case
        if target is LOSSLESS_BASE:
            assert details.base_image == image, case


def test_no_base_accounting():
    img = natural_image(64, 64, 8)
    details = encode_two_layer_detailed(img, None)
    base, ext, meta = demux(details.file_bytes)
    assert base == b""
    assert len(details.file_bytes) == HEADER_SIZE + len(ext)
    total_bpp = bits_per_pixel(len(details.file_bytes), 64, 64)
    ext_bpp = bits_per_pixel(len(ext), 64, 64)
    overhead = bits_per_pixel(HEADER_SIZE, 64, 64)
    assert total_bpp == ext_bpp + overhead


def test_lossless_base_leaves_coder_floor():
    # a zero residual still costs the predictive coder one bit per sample,
    # which is why adding a base layer never makes the extension free
    img = natural_image(64, 64, 8)
    details = encode_two_layer_detailed(img, BaseConfig(target_bpp=LOSSLESS_BASE))
    assert details.base_image == img
    ext_bpp = bits_per_pixel(len(details.ext_bytes), 64, 64)
    assert 1.0 <= ext_bpp <= 1.1


def test_base_only_file_signals_lossy():
    from tlxs.container import CODER_NONE, ContainerMeta, mux

    img = natural_image(32, 32, 8)
    details = encode_two_layer_detailed(img, BaseConfig(target_bpp=2.0))
    blob = mux(details.base_bytes, b"", ContainerMeta(32, 32, 1, 8, CODER_NONE))
    result = decode_two_layer(blob)
    assert not result.lossless
    assert result.has_base and not result.has_extension
    assert result.image == details.base_image


def test_dims_mismatch_is_error():
    from tlxs.container import ContainerMeta, mux

    img = natural_image(16, 16, 8)
    details = encode_two_layer_detailed(img, BaseConfig(target_bpp=2.0))
    lying = ContainerMeta(width=16, height=8, components=1, bit_depth=8, coder_id=1)
    blob = mux(details.base_bytes, details.ext_bytes, lying)
    with pytest.raises(ContainerError):
        decode_two_layer(blob)


def _layers(config, coder=LosslessCoderId.PREDICTIVE):
    img = natural_image(16, 16, 8)
    details = encode_two_layer_detailed(img, config, coder)
    return details.base_bytes, details.ext_bytes


def test_extension_coder_must_match_container():
    from tlxs.container import ContainerMeta, mux

    base, ext = _layers(BaseConfig(target_bpp=2.0), LosslessCoderId.WAVELET)
    meta = ContainerMeta(16, 16, 1, 8, int(LosslessCoderId.PREDICTIVE))
    with pytest.raises(ContainerError):
        decode_two_layer(mux(base, ext, meta))


@pytest.mark.parametrize("with_base", [True, False], ids=["base", "no_base"])
def test_extension_depth_must_match_layers(with_base):
    # an 8-bit extension under a base, or a 9-bit residual extension without
    # one: each extension decodes, only its depth is wrong
    from tlxs.container import ContainerMeta, mux

    base, _ = _layers(BaseConfig(target_bpp=2.0))
    _, native = _layers(None)
    _, residual = _layers(BaseConfig(target_bpp=2.0))
    meta = ContainerMeta(16, 16, 1, 8, int(LosslessCoderId.PREDICTIVE))
    blob = mux(base, native, meta) if with_base else mux(b"", residual, meta)
    with pytest.raises(ContainerError):
        decode_two_layer(blob)


@pytest.mark.parametrize("mismatch", ["coder", "depth"])
@pytest.mark.parametrize("with_base", [True, False], ids=["base", "no_base"])
def test_mismatched_extension_rejected_before_any_layer_decodes(mismatch, with_base):
    # the component bytes, all ones, decode as a truncated stream, and the base
    # ends in ones too: only a check made before decoding either layer raises
    # ContainerError
    from tlxs.base import decode_base
    from tlxs.container import ContainerMeta, mux
    from tlxs.errors import BitstreamError
    from tlxs.residual import EXT_MAGIC, _EXT_FIXED, _EXT_LEN, decode_extension

    garbage = b"\xff" * 64
    depth = 8 + with_base + (mismatch == "depth")
    ext = _EXT_FIXED.pack(EXT_MAGIC, int(LosslessCoderId.PREDICTIVE), depth)
    ext += _EXT_LEN.pack(len(garbage)) + garbage
    with pytest.raises(BitstreamError):
        decode_extension(ext, 16, 16, 1)
    coder = LosslessCoderId.WAVELET if mismatch == "coder" else LosslessCoderId.PREDICTIVE
    base = b""
    if with_base:
        base = bytearray(_layers(BaseConfig(target_bpp=2.0))[0])
        base[-8:] = b"\xff" * 8
        with pytest.raises(BitstreamError):
            decode_base(bytes(base))
    blob = mux(bytes(base), ext, ContainerMeta(16, 16, 1, 8, int(coder)))
    with pytest.raises(ContainerError):
        decode_two_layer(blob)


def test_wavelet_band_sizes_refused_before_the_base_decodes(monkeypatch):
    # the extension's first band record declares one byte more than its
    # component holds; the extension header alone refuses the file
    from tlxs import pipeline
    from tlxs.container import demux
    from tlxs.errors import BitstreamError
    from tlxs.residual import parse_extension_header

    blob = overlong_band_container()
    _, ext, meta = demux(blob)
    with pytest.raises(BitstreamError, match="^extension component 0: declared band sizes"):
        parse_extension_header(ext, meta.width, meta.height, meta.components)

    def no_base_decode(payload):
        raise AssertionError("the base layer was decoded")

    monkeypatch.setattr(pipeline, "decode_base", no_base_decode)
    with pytest.raises(BitstreamError, match="declared band sizes"):
        decode_two_layer(blob)


def test_restored_samples_out_of_range_rejected():
    # the largest shifted residual on top of a nonzero base passes 255
    from tlxs.container import ContainerMeta, mux
    from tlxs.residual import encode_extension

    base, _ = _layers(BaseConfig(target_bpp=LOSSLESS_BASE))
    ext = encode_extension([np.full((16, 16), 510)], 9, LosslessCoderId.PREDICTIVE)
    meta = ContainerMeta(16, 16, 1, 8, int(LosslessCoderId.PREDICTIVE))
    with pytest.raises(CodecError):
        decode_two_layer(mux(base, ext, meta))


@pytest.mark.parametrize("coder", list(LosslessCoderId))
def test_restore_names_the_first_sample_out_of_range(coder):
    # the extension re-encoded from the shifted residual with its largest
    # sample, 2**(N+1) - 1, which both coders accept and which restores to
    # 2**N plus the base sample; component 1 comes before component 2
    from tlxs.container import ContainerMeta, mux
    from tlxs.residual import compute_residual, dc_shift, decode_extension

    img = color_gradient_image(12, 9, 8)
    details = encode_two_layer_detailed(img, BaseConfig(target_bpp=2.0), coder)
    shifted = [np.array(dc_shift(r).samples) for r in compute_residual(img, details.base_image)]
    shifted[1][4, 7] = shifted[2][0, 0] = (1 << 9) - 1
    ext = encode_extension(shifted, 9, coder)
    blob = mux(details.base_bytes, ext, ContainerMeta(12, 9, 3, 8, int(coder)))
    message = (
        r"^extension component 1: sample \(4, 7\): "
        "restored sample out of range for bit depth 8$"
    )
    with pytest.raises(BitstreamError, match=message):
        decode_two_layer(blob)
    planes, _, _ = decode_extension(ext, 12, 9, 3)
    assert planes[1][4, 7] == planes[2][0, 0] == (1 << 9) - 1


def test_empty_container_is_error():
    from tlxs.container import CODER_NONE, ContainerMeta, mux

    blob = mux(b"", b"", ContainerMeta(4, 4, 1, 8, CODER_NONE))
    with pytest.raises(ContainerError):
        decode_two_layer(blob)


def test_file_byte_flips_never_crash():
    from tlxs.errors import CodecError as TlxsError

    img = natural_image(24, 16, 8)
    blob = encode_two_layer(img, BaseConfig(target_bpp=2.0))
    for pos in range(len(blob)):
        for flip in (0x01, 0xFF):
            corrupted = bytearray(blob)
            corrupted[pos] ^= flip
            try:
                result = decode_two_layer(bytes(corrupted))
            except TlxsError:
                continue
            # a surviving decode must still be a structurally valid image
            assert result.image.width == img.width
            assert result.image.height == img.height


class TestBenchSweep:
    def test_grid_must_include_zero(self):
        img = natural_image(16, 16, 8)
        with pytest.raises(CodecError):
            bench_sweep(img, [1.0])
        with pytest.raises(CodecError):
            bench_sweep(img, [])

    def test_grid_must_not_be_negative(self):
        img = natural_image(16, 16, 8)
        with pytest.raises(CodecError):
            bench_sweep(img, [0, -1.0])

    def test_coder_list_must_not_be_empty(self):
        img = natural_image(16, 16, 8)
        with pytest.raises(CodecError, match="coder list"):
            bench_sweep(img, [0, 1], [])

    def test_single_zero_row(self):
        img = natural_image(32, 32, 8)
        rows = bench_sweep(img, [0], [LosslessCoderId.PREDICTIVE])
        assert len(rows) == 1
        row = rows[0]
        assert row.base_bpp == 0.0
        assert row.base_psnr is None
        assert row.total_bpp == row.ext_bpp + row.overhead_bpp
        assert row.lossless

    def test_row_grid(self):
        img = natural_image(32, 32, 8)
        rows = bench_sweep(img, [0, 1, 2])
        assert len(rows) == 6
        assert [r.coder for r in rows] == ["predictive"] * 3 + ["wavelet"] * 3
        assert all(r.lossless for r in rows)

    def test_psnr_column_monotone(self, natural_256):
        rows = bench_sweep(
            natural_256, [0, 0.5, 1, 2, 4], [LosslessCoderId.PREDICTIVE]
        )
        psnrs = [r.base_psnr for r in rows if r.base_psnr is not None]
        assert psnrs == sorted(psnrs)

    def test_two_layer_totals_exceed_lossless_alone(self, natural_256):
        rows = bench_sweep(
            natural_256, [0, 0.5, 1, 2, 4], [LosslessCoderId.PREDICTIVE]
        )
        baseline = rows[0].total_bpp
        assert all(r.total_bpp > baseline for r in rows[1:])

    def test_csv_shape(self):
        img = natural_image(32, 32, 8)
        rows = bench_sweep(img, [0, 1])
        text = rows_to_csv(rows)
        lines = text.strip().split("\n")
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 1 + len(rows)
        first = lines[1].split(",")
        assert first[0] == "predictive"
        assert first[1] == "0.0000"
        assert first[3] == ""  # no base image, no PSNR
        assert first[-1] == "true"
        # four decimal places on every float field
        for field in (first[1], first[2], first[4], first[5], first[6]):
            whole, frac = field.split(".")
            assert len(frac) == 4

    def test_csv_deterministic(self):
        img = natural_image(32, 32, 8)
        a = rows_to_csv(bench_sweep(img, [0, 1]))
        b = rows_to_csv(bench_sweep(img, [0, 1]))
        assert a == b

    def test_csv_renders_infinite_psnr(self):
        from tlxs.image import INFINITE
        from tlxs.pipeline import SweepRow

        row = SweepRow(
            coder="predictive",
            target_bpp=8.0,
            base_bpp=2.0,
            base_psnr=INFINITE,
            ext_bpp=1.0,
            overhead_bpp=0.1,
            total_bpp=3.1,
            lossless=True,
        )
        line = rows_to_csv([row]).strip().split("\n")[1]
        assert line.split(",")[3] == "inf"


@pytest.mark.parametrize("coder", [0, 3, 7, "wavelet"])
def test_unknown_coder_id_raises_codec_error(coder):
    img = natural_image(16, 16, 8)
    calls = (
        lambda: encode_two_layer(img, None, coder),
        lambda: encode_extension(img.planes, 8, coder),
        lambda: bench_sweep(img, [0], [coder]),
    )
    for call in calls:
        with pytest.raises(CodecError, match="unknown lossless coder id"):
            call()
