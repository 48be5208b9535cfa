import tracemalloc

import numpy as np
import pytest
from hypothesis import given
import hypothesis.strategies as st

from tlxs.base import LOSSLESS_BASE, BaseConfig, encode_base
from tlxs.cli import main
from tlxs.container import (
    CODER_NONE,
    HEADER_SIZE,
    ContainerMeta,
    decode_base_only,
    demux,
    mux,
)
from tlxs.errors import (
    BadMagicError,
    ChecksumError,
    ContainerError,
    LengthMismatchError,
    MissingLayerError,
)
from tlxs.pipeline import decode_two_layer, encode_two_layer_detailed
from tlxs.synthetic import natural_image

from conftest import base_larger_than_its_container, reseal


def _meta(coder_id=1):
    return ContainerMeta(width=10, height=4, components=1, bit_depth=8, coder_id=coder_id)


def test_roundtrip_both_layers():
    blob = mux(b"base-bytes", b"ext-bytes", _meta())
    base, ext, meta = demux(blob)
    assert (base, ext, meta) == (b"base-bytes", b"ext-bytes", _meta())


def test_base_only_file():
    blob = mux(b"base-bytes", b"", _meta(coder_id=CODER_NONE))
    base, ext, _ = demux(blob)
    assert base == b"base-bytes" and ext == b""


def test_lossless_only_file():
    blob = mux(b"", b"ext-bytes", _meta())
    base, ext, _ = demux(blob)
    assert base == b"" and ext == b"ext-bytes"


@given(st.binary(max_size=300), st.binary(max_size=300))
def test_roundtrip_random_payloads(base, ext):
    meta = _meta(coder_id=1 if ext else CODER_NONE)
    got_base, got_ext, got_meta = demux(mux(base, ext, meta))
    assert (got_base, got_ext, got_meta) == (base, ext, meta)


def test_size_accounting_exact():
    blob = mux(b"12345", b"987", _meta())
    assert len(blob) == HEADER_SIZE + 5 + 3


def test_inconsistent_meta_rejected():
    with pytest.raises(ContainerError):
        mux(b"", b"ext", _meta(coder_id=CODER_NONE))
    with pytest.raises(ContainerError):
        mux(b"base", b"", _meta(coder_id=1))
    with pytest.raises(ContainerError):
        ContainerMeta(width=0, height=4, components=1, bit_depth=8, coder_id=0)
    with pytest.raises(ContainerError):
        ContainerMeta(width=1, height=1, components=2, bit_depth=8, coder_id=0)


def test_truncated_file_is_length_mismatch():
    blob = mux(b"base", b"ext", _meta())
    with pytest.raises(LengthMismatchError):
        demux(blob[:-1])
    with pytest.raises(LengthMismatchError):
        demux(blob[: HEADER_SIZE - 2])
    with pytest.raises(LengthMismatchError):
        demux(blob + b"x")


def test_bad_magic_is_distinct_error():
    blob = bytearray(mux(b"base", b"ext", _meta()))
    blob[:4] = b"NOPE"
    with pytest.raises(BadMagicError):
        demux(bytes(blob))


def test_every_header_byte_is_checksummed():
    blob = mux(b"base", b"ext", _meta())
    for pos in range(4, HEADER_SIZE):
        for flip in (0x01, 0x80):
            corrupted = bytearray(blob)
            corrupted[pos] ^= flip
            with pytest.raises(ContainerError):
                demux(bytes(corrupted))


def test_decode_base_only_matches_encoder_reconstruction():
    img = natural_image(48, 32, 8)
    details = encode_two_layer_detailed(img, BaseConfig(target_bpp=1.0))
    assert decode_base_only(details.file_bytes) == details.base_image


def test_decode_base_only_ignores_extension_corruption():
    img = natural_image(48, 32, 8)
    details = encode_two_layer_detailed(img, BaseConfig(target_bpp=1.0))
    blob = bytearray(details.file_bytes)
    ext_start = HEADER_SIZE + len(details.base_bytes)
    rng = np.random.default_rng(2)
    for _ in range(50):
        pos = int(rng.integers(ext_start, len(blob)))
        corrupted = bytearray(blob)
        corrupted[pos] ^= int(rng.integers(1, 256))
        assert decode_base_only(bytes(corrupted)) == details.base_image


def test_decode_base_only_without_base_layer():
    img = natural_image(16, 16, 8)
    details = encode_two_layer_detailed(img, None)
    with pytest.raises(MissingLayerError):
        decode_base_only(details.file_bytes)


def test_base_only_equals_two_layer_base():
    img = natural_image(48, 32, 8)
    two_layer = encode_two_layer_detailed(img, BaseConfig(target_bpp=LOSSLESS_BASE))
    base_only = mux(two_layer.base_bytes, b"", ContainerMeta(48, 32, 1, 8, CODER_NONE))
    assert decode_base_only(base_only) == decode_base_only(two_layer.file_bytes)


def test_dims_mismatch_between_headers_rejected():
    img = natural_image(16, 16, 8)
    payload = encode_base(img, BaseConfig(target_bpp=LOSSLESS_BASE))
    wrong = ContainerMeta(width=17, height=16, components=1, bit_depth=8, coder_id=CODER_NONE)
    blob = mux(payload, b"", wrong)
    with pytest.raises(ContainerError):
        decode_base_only(blob)


@pytest.mark.parametrize("decode", [decode_base_only, decode_two_layer])
def test_base_header_mismatch_rejected_before_decoding(decode):
    blob = base_larger_than_its_container()
    assert len(blob) == 119
    tracemalloc.start()
    try:
        with pytest.raises(ContainerError, match="disagrees with container header"):
            decode(blob)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1 << 20


def test_unsupported_version_with_valid_crc_rejected():
    blob = reseal(mux(b"base", b"ext", _meta()), 4, 2)
    with pytest.raises(ContainerError):
        demux(blob)


def _base_only_with_coder_1():
    img = natural_image(16, 16, 8)
    payload = encode_base(img, BaseConfig(target_bpp=2.0))
    return reseal(mux(payload, b"", ContainerMeta(16, 16, 1, 8, CODER_NONE)), 7, 1)


def _extension_with_coder_0():
    img = natural_image(16, 16, 8)
    details = encode_two_layer_detailed(img, BaseConfig(target_bpp=2.0))
    return reseal(details.file_bytes, 7, CODER_NONE)


@pytest.mark.parametrize(
    "make",
    [_base_only_with_coder_1, _extension_with_coder_0],
    ids=["coder_1_no_ext", "coder_0_ext"],
)
def test_demux_refuses_what_mux_refuses(make, tmp_path, capsys):
    # a coder id is set exactly when an extension is present
    blob = make()
    for read in (demux, decode_two_layer, decode_base_only):
        with pytest.raises(ContainerError):
            read(blob)
    path = tmp_path / "bad.tlxs"
    path.write_bytes(blob)
    assert main(["inspect", str(path)]) == 1
    assert "error:" in capsys.readouterr().err
