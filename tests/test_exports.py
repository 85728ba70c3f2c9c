"""Every name a module lists in ``__all__`` resolves, so star-imports work."""

import importlib
from pathlib import Path

import pytest

MODULES = [
    "convreg",
    "convreg.bruteforce",
    "convreg.catalog",
    "convreg.cli",
    "convreg.errors",
    "convreg.grigorchuk",
    "convreg.groups",
    "convreg.linalg",
    "convreg.measures",
    "convreg.operators",
    "convreg.regularity",
]


@pytest.mark.parametrize("name", MODULES)
def test_star_import_resolves_every_name(name):
    namespace = {}
    exec(f"from {name} import *", namespace)
    module = importlib.import_module(name)
    assert set(module.__all__) <= set(namespace)


def test_every_module_is_listed():
    src = Path(importlib.import_module("convreg").__file__).parent
    stems = {path.stem for path in src.glob("*.py")} - {"__init__"}
    assert {f"convreg.{stem}" for stem in stems} | {"convreg"} == set(MODULES)
