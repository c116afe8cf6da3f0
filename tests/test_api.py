import ast
import functools
import importlib
import inspect
import pathlib
import pkgutil

import pytest

import monofem
from monofem.assembly import DiscreteOperators

MODULES = sorted(m.name for m in pkgutil.iter_modules(monofem.__path__))

SRC = pathlib.Path(monofem.__file__).parent
PERFBENCH = SRC.parents[1] / "perfbench"

#: public names that no package code or benchmark uses, with the reason
#: each is kept
UNUSED_ALLOWED = {}

#: private names that one package module takes from another, as
#: (owner, name, user), with the reason each link is kept
PRIVATE_LINKS_ALLOWED = {
    ("assembly", "_PERMC_SPEC", "solver"):
        "the DirectSolver oracle factors with the column ordering of the "
        "package's other sparse LU",
    ("assembly", "_PERMC_SPEC", "verify"):
        "the error pass factors the H1 Gram matrix with the same column "
        "ordering",
    ("estimators", "_at", "solver"):
        "balance mode evaluates each iterate at the estimators' points "
        "once, and hands the values to the indicators",
    ("estimators", "_iterate_indicators", "solver"):
        "balance mode's stopping test is the estimators' two indicators "
        "of one iterate, from one reaction",
    ("solver", "_march_steps", "verify"):
        "newton_study runs the one march loop, and solves the studied "
        "step again from the accepted state before it",
}


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


@functools.cache
def _tree(path):
    return ast.parse(path.read_text())


def _package_uses(module, name):
    """Whether package code other than `module`'s definition of `name`
    refers to it: a bare `name` or `module.name`.  Imports, `__all__`
    strings and the package `__init__` do not count."""
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        nodes = _tree(path).body
        if path.stem == module:
            nodes = [n for n in nodes if getattr(n, "name", None) != name]
        for node in (sub for top in nodes for sub in ast.walk(top)):
            if isinstance(node, ast.Name) and node.id == name:
                return True
            if (isinstance(node, ast.Attribute) and node.attr == name
                    and isinstance(node.value, ast.Name)
                    and node.value.id == module):
                return True
    return False


def _benchmark_uses(name):
    """Whether the benchmark names `name`: a reference to it, or a string
    such as a tracer target "name" or "name.method"."""
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Name) and node.id == name:
                return True
            if isinstance(node, ast.Attribute) and node.attr == name:
                return True
            if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                    and node.value.split(".")[0] == name):
                return True
    return False


def test_allowlist_names_only_unused_exports():
    for module, name in UNUSED_ALLOWED:
        assert name in importlib.import_module(f"monofem.{module}").__all__
        assert not _package_uses(module, name), (module, name)


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_is_used_outside_the_tests(module):
    exported = importlib.import_module(f"monofem.{module}").__all__
    unused = [n for n in exported
              if (module, n) not in UNUSED_ALLOWED
              and not _package_uses(module, n) and not _benchmark_uses(n)]
    assert unused == []


def _imported_names(tree):
    """The names a module's imports bind: `x` of `import x.y`, the alias
    of `import x as y`, and each name (or alias) of `from m import ...`."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]


@pytest.mark.parametrize("module", MODULES)
def test_every_imported_name_is_used(module):
    tree = _tree(SRC / f"{module}.py")
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [n for n in _imported_names(tree) if n not in used]
    assert unused == []


def _private_links():
    """{(owner, name, user)}: each underscore name that the package module
    `user` takes from the package module `owner`, by `from .owner import
    _name` or as `owner._name` after `from . import owner` (or the same
    imports spelled from `monofem`)."""
    links = set()
    for path in sorted(SRC.glob("*.py")):
        user, tree = path.stem, _tree(path)
        modules = {}
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 1:
                owner = node.module
            elif (node.module or "").split(".")[0] == "monofem":
                owner = node.module.partition(".")[2] or None
            else:
                continue
            if owner is None:
                modules.update((a.asname or a.name, a.name)
                               for a in node.names if a.name in MODULES)
            else:
                links |= {(owner, a.name, user) for a in node.names
                          if a.name.startswith("_")}
        links |= {(modules[node.value.id], node.attr, user)
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute)
                  and isinstance(node.value, ast.Name)
                  and node.value.id in modules
                  and node.attr.startswith("_")
                  and not node.attr.startswith("__")}
    return links


def test_private_links_between_modules_are_listed():
    # a new private link between two package modules fails here until it
    # is listed with its reason or removed; a listed link that is gone
    # fails too
    assert _private_links() == set(PRIVATE_LINKS_ALLOWED)


def test_the_conductivity_has_one_home():
    # the operators are the model-free discretization of their mesh: no
    # parameter but the mesh, and no module reads a conductivity off an
    # object; the conductivity is M_scalar of the model's parameters
    assert list(inspect.signature(DiscreteOperators).parameters) == ["mesh"]
    reads = [(path.stem, node.lineno)
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(_tree(path))
             if isinstance(node, ast.Attribute)
             and node.attr == "conductivity"]
    assert reads == []
