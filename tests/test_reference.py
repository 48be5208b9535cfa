"""The reference decoder of ``reference.py`` on valid files, and its independence.

It must decode every file ``test_golden.py`` pins, and 64x64 files of every
corpus image, to their source images, as the library does. Built from the
docstrings, it may import nothing from ``tlxs`` but the error classes, and
the oracles moved into it are defined nowhere else.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

import reference
from tlxs.base import BaseConfig
from tlxs.container import decode_base_only
from tlxs.pipeline import decode_two_layer, encode_two_layer
from tlxs.residual import LosslessCoderId
from tlxs.synthetic import CORPUS_NAMES, corpus

from test_golden import CASES, IMAGES, _encode

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "tlxs"
MOVED = {
    "zigzag_map_oracle",
    "zigzag_unmap_oracle",
    "choose_rice_k_oracle",
    "rice_bit_cost",
    "decode_mapped_oracle",
    "decode_band_oracle",
    "_split_rows_oracle",
    "_merge_rows_oracle",
    "decompose_oracle",
    "recompose_oracle",
    "med_oracle",
    "scalar_prediction",
    "RiceAdapterOracle",
    "oracle_ks",
    "decode_predictive_oracle",
    "dc_unshift",
}


def _assert_decodes_alike(blob, image):
    want = reference.decode(blob)
    assert want.lossless and want.bit_depth == image.bit_depth
    assert len(want.planes) == image.components
    assert all(np.array_equal(p, q) for p, q in zip(want.planes, image.planes))
    got = decode_two_layer(blob)
    assert got.lossless and got.image == image
    if got.has_base:
        base = decode_base_only(blob)
        want = reference.decode_base_only(blob)
        assert not want.lossless and want.bit_depth == base.bit_depth
        assert all(np.array_equal(p, q) for p, q in zip(want.planes, base.planes))


@pytest.mark.parametrize("image_name,base_name,coder_name", CASES)
def test_reference_decodes_every_golden_file(image_name, base_name, coder_name):
    _assert_decodes_alike(_encode(image_name, base_name, coder_name), IMAGES[image_name]())


@pytest.mark.parametrize("coder", LosslessCoderId, ids=lambda c: c.name.lower())
@pytest.mark.parametrize("config", [None, BaseConfig(target_bpp=2.0)], ids=["nobase", "2bpp"])
@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_reference_decodes_the_corpus(name, config, coder):
    image = corpus(8, 64)[name]
    _assert_decodes_alike(encode_two_layer(image, config, coder), image)


def _parse(path):
    return ast.parse(path.read_text(), str(path))


def test_reference_imports_only_the_error_classes():
    modules = set()
    for node in ast.walk(_parse(TESTS / "reference.py")):
        if isinstance(node, ast.ImportFrom):
            modules.add(node.module)
        elif isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
    assert {m for m in modules if m.split(".")[0] == "tlxs"} == {"tlxs.errors"}


def test_moved_oracles_are_defined_only_in_the_reference():
    defined = {}
    for path in [*TESTS.glob("*.py"), *SRC.glob("*.py")]:
        for node in ast.walk(_parse(path)):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in MOVED:
                defined.setdefault(node.name, []).append(path.name)
    assert defined == {name: ["reference.py"] for name in MOVED}
    # residual planes compare by their fields in the tests, not by an __eq__
    (plane,) = (
        node
        for node in ast.walk(_parse(SRC / "residual.py"))
        if isinstance(node, ast.ClassDef) and node.name == "ResidualPlane"
    )
    assert "__eq__" not in {node.name for node in plane.body if isinstance(node, ast.FunctionDef)}
