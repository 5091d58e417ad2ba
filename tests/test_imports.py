"""Every name a package module imports is used in that module.

A deletion tends to leave its imports behind; this check reads each
module under ``src/noisedeconv`` with the standard-library ``ast`` and
fails on an imported name that no expression, string annotation or
``__all__`` entry of the module mentions.  A line marked ``# noqa: F401``
is a deliberate binding and is skipped, as is ``__init__.py``, whose
imports are the package's exports.
"""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "noisedeconv"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def imported_names(tree: ast.Module, lines: list[str]) -> dict[str, int]:
    """Each name the module's imports bind -> the line that binds it."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            if "# noqa: F401" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    return bound


def used_names(tree: ast.Module) -> set[str]:
    """Names read anywhere in the module, in string annotations, or listed in ``__all__``."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            used.add(node.value)  # an ``__all__`` entry, or a quoted annotation such as "PTM"
    return used


def unused_imports(path: pathlib.Path) -> list[str]:
    source = path.read_text()
    tree = ast.parse(source)
    used = used_names(tree)
    return [f"{path.name}:{line}: {name}"
            for name, line in sorted(imported_names(tree, source.splitlines()).items(), key=lambda x: x[1])
            if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_every_import_is_used(path):
    assert unused_imports(path) == []


def test_the_check_finds_a_leftover(tmp_path):
    module = tmp_path / "leftover.py"
    module.write_text("from .pauli import as_index, devectorize\n"
                      "from .channels import apply_channel  # noqa: F401\n"
                      "def f(k):\n    return as_index(k)\n")
    assert unused_imports(module) == ["leftover.py:1: devectorize"]
