"""Hostile inputs: only ``CodecError`` subclasses may escape the library.

Small valid containers (12x9, gray and RGB, 8/12/16 bits, both coders, with no
base, a 2-bpp base, a lossless base and a 3/1-level 0.5-bpp base) are mutated
by bit flips, truncation, appended bytes, an overwritten byte, a run spliced
inside a payload and a rewritten container-header byte, resealed or not. Each
mutant goes through ``decode_two_layer``, ``decode_base_only`` and
``tlxs inspect``. Only a ``CodecError`` may escape (exit status 1 with an
``error:`` line for the command), and each decode must reach the verdict of
the reference decoder in ``reference.py``: both refuse the mutant, or both
return the same image and the same ``lossless`` flag. PNM headers are mutated
through ``parse_pnm`` the same way.

The ``fuzz`` hypothesis profile in ``conftest.py`` runs many more examples:
``python -m pytest -q tests/test_fuzz.py --hypothesis-profile=fuzz``.
"""

import contextlib
import functools
import io

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given

from tlxs import cli
from tlxs.base import LOSSLESS_BASE, BaseConfig
from tlxs.container import HEADER_SIZE, decode_base_only, demux
from tlxs.errors import BitstreamError, CodecError, ContainerError
from tlxs.image import PlanarImage
from tlxs.pipeline import decode_two_layer, encode_two_layer
from tlxs.pnm import parse_pnm, serialize_pnm
from tlxs.residual import LosslessCoderId
from tlxs.synthetic import natural_image

import reference
from conftest import reseal

CONFIGS = (
    None,
    BaseConfig(target_bpp=2.0),
    BaseConfig(target_bpp=LOSSLESS_BASE),
    BaseConfig(levels_h=3, levels_v=1, target_bpp=0.5),
)
CASES = [
    (components, depth, coder, config)
    for components in (1, 3)
    for depth in (8, 12, 16)
    for coder in LosslessCoderId
    for config in CONFIGS
]


def _image(components, depth, width=12, height=9):
    planes = [natural_image(width, height, depth, seed=s).planes[0] for s in range(components)]
    return PlanarImage.from_planes(planes, depth)


@functools.cache
def _container(case):
    components, depth, coder, config = CASES[case]
    return encode_two_layer(_image(components, depth), config, coder)


@st.composite
def mutants(draw):
    """A mutated container: one of six kinds of damage to a valid one."""
    blob = bytearray(_container(draw(st.integers(0, len(CASES) - 1))))
    size = len(blob)
    kind = draw(st.sampled_from(["flip", "truncate", "append", "byte", "splice", "header"]))
    if kind == "flip":
        for bit in draw(st.lists(st.integers(0, 8 * size - 1), min_size=1, max_size=3)):
            blob[bit >> 3] ^= 0x80 >> (bit & 7)
    elif kind == "truncate":
        del blob[draw(st.integers(0, size - 1)) :]
    elif kind == "append":
        blob += draw(st.binary(min_size=1, max_size=16))
    elif kind == "byte":
        blob[draw(st.integers(0, size - 1))] = draw(st.integers(0, 255))
    elif kind == "splice":
        # a run of a payload copied over another place in the same payload
        base, ext, _ = demux(bytes(blob))
        payloads = [(HEADER_SIZE, len(base)), (size - len(ext), len(ext))]
        start, length = draw(st.sampled_from(payloads))
        if length:
            n = draw(st.integers(1, length))
            src = start + draw(st.integers(0, length - n))
            dst = start + draw(st.integers(0, length - n))
            blob[dst : dst + n] = blob[src : src + n]
    else:
        pos, value = draw(st.integers(0, HEADER_SIZE - 1)), draw(st.integers(0, 255))
        if draw(st.booleans()):
            return reseal(bytes(blob), pos, value)
        blob[pos] = value
    return bytes(blob)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _two_layer(blob):
    result = decode_two_layer(blob)
    return result.image.planes, result.image.bit_depth, result.lossless


def _base_only(blob):
    image = decode_base_only(blob)
    return image.planes, image.bit_depth, False


def _verdict(decode, blob):
    """The ``CodecError`` that ``decode`` raises on ``blob``, or what it returns."""
    try:
        return decode(blob)
    except CodecError as err:
        return err


@given(mutants())
def test_mutated_containers_raise_only_codec_errors(workdir, blob):
    pairs = ((_two_layer, reference.decode), (_base_only, reference.decode_base_only))
    verdicts = [(_verdict(library, blob), _verdict(ref, blob)) for library, ref in pairs]
    for got, want in verdicts:
        # both refuse, or both return the same image and lossless flag
        assert isinstance(got, CodecError) == isinstance(want, CodecError), (got, want)
        if not isinstance(got, CodecError):
            (planes, depth, lossless), (ref_planes, ref_depth, ref_lossless) = got, want
            assert (depth, lossless, len(planes)) == (ref_depth, ref_lossless, len(ref_planes))
            assert all(np.array_equal(p, q) for p, q in zip(planes, ref_planes))
    # a container or payload refusal names the part of the file it came from
    assert all(
        str(got).startswith(("container", "base", "extension"))
        for got, _ in verdicts
        if isinstance(got, (BitstreamError, ContainerError))
    )
    refusal = verdicts[0][0]

    path = workdir / "mutant.tlxs"
    path.write_bytes(blob)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = cli.main(["inspect", str(path)])
    assert status in (0, 1)
    assert err.getvalue().startswith("error: ") if status else not err.getvalue()
    # decode's refusals from the container and layer headers are inspect's too
    assert status == 1 or not isinstance(refusal, ContainerError)


PNMS = [serialize_pnm(_image(c, d, 5, 4)) for c in (1, 3) for d in (8, 12, 16)]


@st.composite
def pnm_mutants(draw):
    """A PNM file whose header (up to the raster) was damaged, or that was cut."""
    data = bytearray(draw(st.sampled_from(PNMS)))
    header = data.index(b"\n", data.index(b"\n", 3) + 1) + 1
    kind = draw(st.sampled_from(["flip", "byte", "insert", "delete", "stretch", "truncate"]))
    pos = draw(st.integers(0, header - 1))
    if kind == "flip":
        data[pos] ^= 1 << draw(st.integers(0, 7))
    elif kind == "byte":
        data[pos] = draw(st.sampled_from(b"0123456789 \t\n#P56+-_") | st.integers(0, 255))
    elif kind == "insert":
        data[pos:pos] = draw(st.binary(min_size=1, max_size=8))
    elif kind == "delete":
        del data[pos : pos + draw(st.integers(1, 4))]
    elif kind == "stretch":
        # one header byte repeated, up to a number far longer than any image's
        data[pos:pos] = data[pos : pos + 1] * draw(st.integers(1, 6000))
    else:
        del data[draw(st.integers(0, len(data) - 1)) :]
    return bytes(data)


@given(pnm_mutants())
def test_mutated_pnm_headers_raise_only_codec_errors(data):
    try:
        image = parse_pnm(data)
    except CodecError:
        return
    assert isinstance(image, PlanarImage)
    for plane in image.planes:
        assert 0 <= int(plane.min()) and int(plane.max()) <= image.max_sample
