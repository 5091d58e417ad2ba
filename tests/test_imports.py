"""Every name a package module imports is used in that module, and every
name its ``__all__`` lists is bound in it.

A deletion tends to leave its imports and its ``__all__`` entry behind;
this check reads each module under ``src/noisedeconv`` with the
standard-library ``ast``.  It fails on an imported name that no expression
or string annotation of the module mentions (an ``__all__`` entry is not a
use), and on an ``__all__`` entry that no top-level statement of the module
binds.  A line marked ``# noqa: F401`` is a deliberate binding and is
skipped, as is ``__init__.py``, whose imports are the package's exports.
Such a binding must name its reader: its ``module.name`` has to appear in
the benchmark self-test, the one file that reads one, so a binding that
test stops reading fails here and can go.

A private name (``_name``) that one module imports from a sibling couples
the two, so every such import is listed in ``PRIVATE_IMPORTS`` with its
reason; a new coupling has to be added there, and one that goes, taken out.
"""

import ast
import pathlib
import re

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "noisedeconv"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
BENCH_TEST = PACKAGE.parents[1] / "bench" / "tests" / "test_bench.py"

# (importing module, sibling, private name) -> why the name crosses the module boundary.
PRIVATE_IMPORTS = {
    ("channels", "deconvolution", "_kept_inverse_adjoint"): "PTM.condition_number reads the bound kept with the inverse",
    ("channels", "pauli", "_DEVEC_KERNEL"): "a Kraus transfer matrix is built from devectorize's one-qubit kernel",
    ("channels", "pauli", "_VEC_KERNEL"): "a Kraus transfer matrix is built from vectorize's one-qubit kernel",
    ("channels", "pauli", "_transform_per_qubit"): "the transfer matrix and the Pauli lambdas use vectorize's per-qubit step",
    ("characterization", "pauli", "_check_index"): "a probe's k is checked as a Pauli index is everywhere",
    ("cli", "channels", "_config_object"): "an experiment config file is checked as a channel config is",
    ("cli", "simulator", "_fmt"): "every command prints numbers as the experiment CSV does",
    ("simulator", "channels", "_config_float"): "experiment config numbers are read as channel config numbers are",
    ("simulator", "channels", "_config_int"): "experiment config counts are read as channel config counts are",
    ("simulator", "channels", "_config_keys"): "an experiment config refuses unknown keys as a channel config does",
    ("simulator", "channels", "_config_object"): "an experiment's channel is checked as a channel config is",
    ("simulator", "deconvolution", "_finite"): "the diagonal table refuses a record as deconvolve does",
}


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


def used_names(tree: ast.AST) -> set[str]:
    """Names read anywhere in the module, or in a string annotation such as "PTM"."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        note = getattr(node, "annotation", None) or getattr(node, "returns", None)
        if isinstance(note, ast.Constant) and isinstance(note.value, str):
            used |= used_names(ast.parse(note.value, mode="eval"))
    return used


def module_bindings(tree: ast.Module) -> set[str]:
    """Names the module's top-level statements bind: definitions, imports and assignments."""
    bound = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        else:
            bound.update(name.id for name in ast.walk(node)
                         if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Store))
    return bound


def exported_names(tree: ast.Module) -> list[str]:
    """The entries of the module's ``__all__``, in order."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return [entry.value for entry in node.value.elts]
    return []


def unused_imports(path: pathlib.Path) -> list[str]:
    source = path.read_text()
    tree = ast.parse(source)
    used = used_names(tree)
    return [f"{path.name}:{line}: {name}"
            for name, line in sorted(imported_names(tree, source.splitlines()).items(), key=lambda x: x[1])
            if name not in used]


def unbound_exports(path: pathlib.Path) -> list[str]:
    tree = ast.parse(path.read_text())
    bound = module_bindings(tree)
    return [f"{path.name}: __all__ lists {name!r}" for name in exported_names(tree) if name not in bound]


def private_imports(path: pathlib.Path) -> set[tuple[str, str, str]]:
    """(module, sibling, name) of each private name the module imports from a sibling, but
    for a ``# noqa: F401`` binding; imports inside functions count too."""
    source = path.read_text()
    lines = source.splitlines()
    return {(path.stem, node.module, alias.name) for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.level == 1 and "# noqa: F401" not in lines[node.lineno - 1]
            for alias in node.names if alias.name.startswith("_")}


def unread_bindings(path: pathlib.Path, reader: str) -> list[str]:
    """``module.name`` of each name a ``# noqa: F401`` import binds that ``reader`` does not mention."""
    source = path.read_text()
    lines = source.splitlines()
    names = [f"{path.stem}.{alias.asname or alias.name.split('.')[0]}" for node in ast.walk(ast.parse(source))
             if isinstance(node, (ast.Import, ast.ImportFrom)) and "# noqa: F401" in lines[node.lineno - 1]
             for alias in node.names]
    return [name for name in names if not re.search(rf"\b{re.escape(name)}\b", reader)]


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_every_import_is_used(path):
    assert unused_imports(path) == []


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_every_export_is_bound(path):
    assert unbound_exports(path) == []


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_every_deliberate_binding_names_its_reader(path):
    assert unread_bindings(path, BENCH_TEST.read_text()) == []


def test_private_imports_are_the_listed_ones():
    assert set().union(*map(private_imports, MODULES)) == set(PRIVATE_IMPORTS)


def test_the_check_finds_a_private_import(tmp_path):
    # multi-line and in-function imports count; a deliberate binding does not
    module = tmp_path / "leftover.py"
    module.write_text("from .deconvolution import _finite, plan\n"
                      "from .deconvolution import _invert_adjoint  # noqa: F401\n"
                      "from .pauli import (\n    Memo,\n    _check_index,\n)\n"
                      "def f():\n    from .channels import _config_int\n")
    assert private_imports(module) == {("leftover", "deconvolution", "_finite"), ("leftover", "pauli", "_check_index"),
                                       ("leftover", "channels", "_config_int")}


def test_the_check_finds_a_leftover(tmp_path):
    module = tmp_path / "leftover.py"
    module.write_text("from .pauli import as_index, devectorize\n"
                      "from .channels import apply_channel  # noqa: F401\n"
                      "def f(k):\n    return as_index(k)\n")
    assert unused_imports(module) == ["leftover.py:1: devectorize"]


def test_the_check_finds_a_stale_export(tmp_path):
    # a deleted function left in __all__, and an import only __all__ lists
    module = tmp_path / "leftover.py"
    module.write_text("from .pauli import PauliIndex, vectorize\n"
                      "__all__ = ['f', 'g', 'PauliIndex']\n"
                      "def f(A) -> 'vectorize':\n    return A\n")
    assert unused_imports(module) == ["leftover.py:1: PauliIndex"]
    assert unbound_exports(module) == ["leftover.py: __all__ lists 'g'"]


def test_the_check_finds_an_unread_binding(tmp_path):
    # the reader stopped reading _invert_adjoint; apply_channels is another name
    module = tmp_path / "leftover.py"
    module.write_text("from .channels import apply_channel  # noqa: F401\n"
                      "from .deconvolution import _invert_adjoint, plan  # noqa: F401\n")
    reader = "assert leftover.apply_channel is original and leftover.plan\nleftover._invert_adjoints\n"
    assert unread_bindings(module, reader) == ["leftover._invert_adjoint"]
    assert unread_bindings(module, "leftover.apply_channels") == ["leftover.apply_channel", "leftover._invert_adjoint",
                                                                  "leftover.plan"]
