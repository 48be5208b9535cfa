"""Names the acceptance suite, the benchmark and the scripts import must keep resolving."""

import ast
import importlib
from pathlib import Path

import pytest

from tlxs import rice
from tlxs.base import BaseConfig, rate_control
from tlxs.synthetic import natural_image

ROOT = Path(__file__).resolve().parent.parent
CONSUMERS = [
    ROOT / "tests" / "test_acceptance.py",
    *sorted((ROOT / "perfbench").glob("*.py")),
    *sorted((ROOT / "scripts").glob("*.py")),
]


def _imported_names():
    for path in CONSUMERS:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.module and (
                node.module == "tlxs" or node.module.startswith("tlxs.")
            ):
                for alias in node.names:
                    yield f"{path.name}:{node.module}.{alias.name}"
            elif (  # ``import tlxs`` then ``tlxs.__version__``
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "tlxs"
            ):
                yield f"{path.name}:tlxs.{node.attr}"


@pytest.mark.parametrize("name", sorted(set(_imported_names())))
def test_imported_name_resolves(name):
    _, dotted = name.split(":")
    module_name, attr = dotted.rsplit(".", 1)
    module = importlib.import_module(module_name)
    if not hasattr(module, attr):
        importlib.import_module(f"{module_name}.{attr}")


def test_rate_control_calls_choose_rice_k_through_the_module(monkeypatch):
    # perfbench/traced.py counts k searches by swapping this attribute
    calls = 0
    original = rice.choose_rice_k

    def counting(indices):
        nonlocal calls
        calls += 1
        return original(indices)

    monkeypatch.setattr(rice, "choose_rice_k", counting)
    rate_control(natural_image(32, 32, 8), BaseConfig(target_bpp=1.0))
    assert calls > 0
