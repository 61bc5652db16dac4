"""Every import in the package's modules is used, apart from the names the benchmark tracer wraps."""

import ast
from pathlib import Path

import pytest

from conftest import load_tracing

_PACKAGE = Path(__file__).resolve().parents[1] / "src" / "monosplit"
# __init__.py imports the package's public names in order to re-export them
MODULES = sorted(path.name for path in _PACKAGE.glob("*.py") if path.name != "__init__.py")
# the (module, name) pairs benchmark/tracing.py wraps; `Class.method` counts as `Class`
TRACED = {(module, attribute.split(".")[0]) for module, attribute, *_ in load_tracing().TARGETS}


def unused_imports(source: str) -> list[str]:
    """The names a module's imports bind that the module never reads, in source order."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


def test_unused_imports_finds_what_nothing_reads():
    source = "import os.path\nimport re as regex\nfrom x import a, b as c\nos.sep\nc()\n"
    assert unused_imports(source) == ["regex", "a"]
    assert unused_imports("from __future__ import annotations\n") == []


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_used(module):
    unused = unused_imports((_PACKAGE / module).read_text(encoding="utf-8"))
    qualified = "monosplit." + module.removesuffix(".py")
    assert [name for name in unused if (qualified, name) not in TRACED] == []
