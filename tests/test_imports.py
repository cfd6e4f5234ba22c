"""The runtime uses only the standard library: every module under
``src/odoni`` imports stdlib modules, ``odoni`` itself, or its own
package relatively, and never a test-suite module. Nor does it carry a
top-level function or class that only the tests call."""

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "odoni"
TEST_MODULES = {path.stem for path in Path(__file__).resolve().parent.glob("*.py")} | {"tests"}


def _imported_top_levels(path: Path) -> set[str]:
    """Top-level names of the absolute imports in one source file."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            out.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            out.add(node.module.split(".")[0])
    return out


SOURCES = sorted(SRC.glob("*.py"))


def test_sources_found():
    assert {path.name for path in SOURCES} >= {"__init__.py", "poly.py", "polymod.py", "cli.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_stdlib_only(path):
    names = _imported_top_levels(path)
    assert not names & TEST_MODULES, names & TEST_MODULES
    outside = {name for name in names if name != "odoni" and name not in sys.stdlib_module_names}
    assert not outside, outside


def test_decimal_is_libmpdec():
    # the certifier's Decimal arithmetic needs the C decimal module:
    # _pydecimal is exact too, but orders of magnitude slower
    import _decimal
    import decimal

    assert decimal.Decimal is _decimal.Decimal
    assert decimal.__libmpdec_version__ == _decimal.__libmpdec_version__


def test_package_root_exports():
    # the engine behind each subcommand, plus the per-parity constructors
    # that tests/conftest.py imports from the root
    import odoni

    assert len(odoni.__all__) == 9
    namespace = {}
    exec("from odoni import *", namespace)
    assert all(callable(namespace[name]) for name in odoni.__all__)


def _unreferenced(sources: dict[str, str]) -> list[str]:
    """Top-level functions and classes of the given sources (file name
    -> source text) whose name no source uses as a name, an attribute
    or an imported name; the definition itself is none of these."""
    defined, mentioned = [], set()
    for name, text in sources.items():
        tree = ast.parse(text, filename=name)
        defined.extend(
            f"{name}:{node.name}"
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        )
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                mentioned.add(node.id)
            elif isinstance(node, ast.Attribute):
                mentioned.add(node.attr)
            elif isinstance(node, ast.alias):
                mentioned.add(node.name)
    return [qualified for qualified in defined if qualified.split(":")[1] not in mentioned]


def test_no_test_only_definitions():
    # a top-level function or class that nothing in src/odoni refers to
    # is called only by tests, so it belongs with them
    assert _unreferenced({path.name: path.read_text(encoding="utf-8") for path in SOURCES}) == []


def test_unreferenced_definition_is_found():
    # negative control on a synthetic source
    source = "def used():\n    pass\n\n\ndef spare():\n    return used()\n\n\nclass Lone:\n    pass\n"
    assert _unreferenced({"synthetic.py": source}) == ["synthetic.py:spare", "synthetic.py:Lone"]
