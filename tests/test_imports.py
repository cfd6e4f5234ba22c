"""The runtime uses only the standard library: every module under
``src/odoni`` imports stdlib modules, ``odoni`` itself, or its own
package relatively, and never a test-suite module."""

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
