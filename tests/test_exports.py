"""The package namespace holds what its users import, and every ``__all__`` resolves."""

import ast
import importlib
from pathlib import Path

import pytest

import convreg

ROOT = Path(__file__).resolve().parent.parent
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
    src = Path(convreg.__file__).parent
    stems = {path.stem for path in src.glob("*.py")} - {"__init__"}
    assert {f"convreg.{stem}" for stem in stems} | {"convreg"} == set(MODULES)


def _imported_from_convreg(source: str) -> set[str]:
    return {
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.module == "convreg" and node.level == 0
        for alias in node.names
    }


def test_package_namespace_is_what_acceptance_demos_and_readme_import():
    readme = (ROOT / "README.md").read_text()
    quick_start = readme.split("## Library quick start", 1)[1].split("```python\n", 1)[1]
    sources = [
        (ROOT / "tests" / "test_acceptance.py").read_text(),
        *(demo.read_text() for demo in sorted((ROOT / "demos").glob("*.py"))),
        quick_start.split("```", 1)[0],
    ]
    used = set().union(*map(_imported_from_convreg, sources))
    assert sorted(convreg.__all__) == sorted(used | {"__version__", "ConvregError"})
    assert len(convreg.__all__) == 32
