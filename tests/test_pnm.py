import numpy as np
import pytest
from hypothesis import given

from tlxs.errors import PnmError
from tlxs.image import PlanarImage
from tlxs.pnm import load_pnm, parse_pnm, serialize_pnm, store_pnm

from conftest import images


def test_minimal_p5():
    img = parse_pnm(b"P5 2 1 255 " + bytes([0, 255]))
    assert (img.width, img.height, img.components, img.bit_depth) == (2, 1, 1, 8)
    assert img.planes[0].tolist() == [[0, 255]]


def test_16bit_big_endian():
    img = parse_pnm(b"P5 1 1 1023 " + bytes([0x03, 0xFF]))
    assert img.bit_depth == 10
    assert img.planes[0].tolist() == [[1023]]


def test_sample_exceeds_maxval():
    with pytest.raises(PnmError, match="exceeds maxval"):
        parse_pnm(b"P5 1 1 1023 " + bytes([0x04, 0x00]))


def test_maxval_not_power_of_two_minus_one():
    with pytest.raises(PnmError, match="maxval"):
        parse_pnm(b"P5 1 1 1000 " + bytes([0x00, 0x00]))


@pytest.mark.parametrize("maxval", [127, 65536, 3])
def test_maxval_out_of_depth_range(maxval):
    with pytest.raises(PnmError):
        parse_pnm(b"P5 1 1 %d " % maxval + bytes(4))


def test_truncated_raster():
    with pytest.raises(PnmError, match="truncated"):
        parse_pnm(b"P5 2 2 255 " + bytes([1, 2, 3]))
    with pytest.raises(PnmError, match="truncated"):
        parse_pnm(b"P5 2 1 65535 " + bytes(3))


@pytest.mark.parametrize(
    "data",
    [
        b"P5 # comment without a newline",
        b"P5 2",
        b"P5 0 1 255 ",
        b"P5 2 1 255#\n" + bytes(2),
        b"P5 2 1 255",
    ],
    ids=[
        "unterminated_comment",
        "header_ends_early",
        "zero_width",
        "hash_ends_maxval",
        "no_whitespace_after_maxval",
    ],
)
def test_malformed_header(data):
    with pytest.raises(PnmError):
        parse_pnm(data)


def test_hash_ends_a_token():
    img = parse_pnm(b"P5 2# width\n1 255 " + bytes([9, 8]))
    assert img.planes[0].tolist() == [[9, 8]]


def test_bad_magic():
    with pytest.raises(PnmError, match="magic"):
        parse_pnm(b"P2 1 1 255 \x00")


@pytest.mark.parametrize(
    "header, what",
    [
        (b"P5 abc 1 255 ", "width"),
        (b"P5 +16 2 255 ", "width"),
        (b"P5 1_6 2 255 ", "width"),
        (b"P5 16 2 0_255 ", "maxval"),
    ],
    ids=["abc", "sign", "underscore", "maxval_underscore"],
)
def test_malformed_header_token(header, what):
    with pytest.raises(PnmError, match=f"bad {what} in header"):
        parse_pnm(header + bytes(32))


@pytest.mark.parametrize("digits", [19, 5000], ids=["past_10**18", "past_int_digit_limit"])
def test_header_number_with_too_many_digits_rejected(digits):
    # 5000 digits is past the 4300 that int() converts by default
    with pytest.raises(PnmError, match="^bad width in header") as err:
        parse_pnm(b"P5 " + b"9" * digits + b" 1 255 " + bytes(32))
    assert len(str(err.value)) < 100 and f" of {digits} bytes" in str(err.value)
    img = parse_pnm(b"P5 " + b"0" * digits + b"2 1 255 " + bytes([9, 8]))
    assert img.planes[0].tolist() == [[9, 8]]


def test_megabyte_header_token_is_echoed_as_a_prefix_and_its_length():
    # no whitespace: each token runs to the end of the data
    with pytest.raises(PnmError) as err:
        parse_pnm(b"P5 " + b"9" * (1 << 20))
    assert str(err.value) == f"bad width in header: {b'9' * 20!r} of 1048576 bytes"
    with pytest.raises(PnmError) as err:
        parse_pnm(b"P" * (1 << 20))
    assert str(err.value) == f"unsupported magic {b'P' * 20!r} of 1048576 bytes (want P5 or P6)"


def test_comments_in_header():
    img = parse_pnm(b"P5 # a comment\n2 1 # another\n255 " + bytes([9, 8]))
    assert img.planes[0].tolist() == [[9, 8]]


def test_ppm_is_interleaved_on_disk():
    data = serialize_pnm(
        PlanarImage.from_planes(
            [np.full((1, 2), v, dtype=np.int64) for v in (1, 2, 3)], 8
        )
    )
    assert data.startswith(b"P6")
    assert data.endswith(bytes([1, 2, 3, 1, 2, 3]))


def test_written_maxval_matches_depth(tmp_path):
    img = PlanarImage.from_planes([np.zeros((1, 1), dtype=np.int64)], 10)
    path = tmp_path / "t.pgm"
    store_pnm(img, str(path))
    assert b"1023" in path.read_bytes()


@given(images(max_dim=12, depths=(8, 9, 10, 12, 16)))
def test_roundtrip_bit_exact(img):
    assert parse_pnm(serialize_pnm(img)) == img


@pytest.mark.parametrize("depth", range(8, 17))
def test_roundtrip_every_depth(tmp_path, depth):
    rng = np.random.default_rng(depth)
    plane = rng.integers(0, (1 << depth) - 1, size=(5, 7), endpoint=True)
    img = PlanarImage.from_planes([plane], depth)
    path = tmp_path / f"d{depth}.pgm"
    store_pnm(img, str(path))
    assert load_pnm(str(path)) == img
