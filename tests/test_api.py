import ast
import importlib
import pathlib
import pkgutil

import pytest

import monofem

MODULES = sorted(m.name for m in pkgutil.iter_modules(monofem.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"monofem.{name}")
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []


def test_package_imports_exist():
    tree = ast.parse(pathlib.Path(monofem.__file__).read_text())
    imported = [alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)
                for alias in node.names]
    assert imported
    missing = [n for n in imported if not hasattr(monofem, n)]
    assert missing == []
