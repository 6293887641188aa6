"""The import layering of the rotdicke package, read from each module's AST.

No module reads a sibling module's underscore name, neither through
``from .x import _name`` nor as ``x._name``.  The run contract in
``trajectory`` depends on no engine, and the quantum engine does not
depend on the mean-field one.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "rotdicke"
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py"))
ENGINES = {"meanfield", "quantum"}


def _tree(module: str) -> ast.Module:
    path = PACKAGE / f"{module}.py"
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _sibling(node: ast.ImportFrom) -> str | None:
    """The package module that ``node`` imports from: ``from .x`` or
    ``from rotdicke.x`` give x, ``from .`` and ``from rotdicke`` give ""."""
    if node.level == 1:
        return node.module or ""
    if node.level == 0 and node.module and node.module.split(".")[0] == "rotdicke":
        return node.module.partition(".")[2]
    return None


def _imported_siblings(tree: ast.Module) -> dict[str, str]:
    """Local name -> sibling module, for every package module that ``tree`` imports."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and _sibling(node) == "":
            for alias in node.names:
                bound[alias.asname or alias.name] = alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "rotdicke" and len(parts) == 2 and alias.asname:
                    bound[alias.asname] = parts[1]
    return bound


def _imported_modules(tree: ast.Module) -> set[str]:
    """The package modules that ``tree`` imports, by any import form."""
    found = set(_imported_siblings(tree).values())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and _sibling(node):
            found.add(_sibling(node))
        elif isinstance(node, ast.Import):
            found.update(
                alias.name.split(".")[1] for alias in node.names
                if alias.name.startswith("rotdicke.")
            )
    return found


def _private_reads(tree: ast.Module) -> list[str]:
    """Every underscore name of a package module that ``tree`` imports or reads."""
    siblings = _imported_siblings(tree)
    reads = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and _sibling(node) is not None:
            source = _sibling(node) or "rotdicke"
            reads += [f"{source}.{alias.name}" for alias in node.names if _private(alias.name)]
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in siblings and _private(node.attr)):
            reads.append(f"{siblings[node.value.id]}.{node.attr}")
    return sorted(reads)


@pytest.mark.parametrize("module", MODULES)
def test_no_sibling_private_name_is_read(module):
    assert _private_reads(_tree(module)) == []


def test_quantum_does_not_import_meanfield():
    assert "meanfield" not in _imported_modules(_tree("quantum"))


def test_trajectory_imports_no_engine():
    assert not ENGINES & _imported_modules(_tree("trajectory"))


def test_checks_see_every_import_form():
    tree = ast.parse(
        "from . import meanfield as mf\n"
        "from .quantum import _Stencil\n"
        "import rotdicke.model as model\n"
        "from rotdicke.io import x, __doc__\n"
        "mf._dop853\n"
        "model._closed_form\n"
        "self._bound\n"
    )
    assert _imported_modules(tree) == {"meanfield", "quantum", "model", "io"}
    assert _private_reads(tree) == ["meanfield._dop853", "model._closed_form", "quantum._Stencil"]
