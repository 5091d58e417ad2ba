"""The README's fenced python blocks run, in order, in one namespace, so
the quickstart keeps up with the API it shows, and the names the README
and the package's own text give resolve, so a rename cannot leave them
stale."""

import functools
import importlib
import pathlib
import pkgutil
import re

import noisedeconv

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
PACKAGE = pathlib.Path(noisedeconv.__file__).parent
MODULES = {info.name for info in pkgutil.iter_modules([str(PACKAGE)])}
# The one README paragraph that names what the package no longer has.
REMOVED_NAMES = "The density-matrix API that no command used has been removed:"


def test_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), flags=re.M | re.S)
    assert blocks
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)


def test_layout_table_names_resolve():
    # a row reads "| `noisedeconv.<module>` | contents |"; a name in the
    # contents, or the name before "(" of a call form, is the module's
    rows = re.findall(r"^\| `(noisedeconv\.\w+)` +\|(.*)\|$", README.read_text(), flags=re.M)
    assert rows
    missing = []
    for module_name, contents in rows:
        module = importlib.import_module(module_name)
        for span in re.findall(r"`([^`]+)`", contents):
            name = span.split("(", 1)[0]
            if all(part.isidentifier() for part in name.split(".")):
                try:
                    functools.reduce(getattr, name.split("."), module)
                except AttributeError:
                    missing.append((module_name, span))
    assert not missing


def module_names(text):
    """Each backticked ``module.name`` span in ``text``, a call form cut at "(", whose
    module is one of the package's, with whether that module has the name."""
    found = []
    for span in re.findall(r"`+([^`]+)`+", text):
        parts = span.split("(", 1)[0].removeprefix("noisedeconv.").split(".")
        if len(parts) > 1 and parts[0] in MODULES and all(part.isidentifier() for part in parts):
            module = importlib.import_module(f"noisedeconv.{parts[0]}")
            try:
                functools.reduce(getattr, parts[1:], module)
            except AttributeError:
                found.append((span, False))
            else:
                found.append((span, True))
    return found


def test_package_text_names_resolve():
    # docstrings, module docstrings among them, and comments of every module
    found = {path.name: module_names(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    assert any(found.values())
    assert [(name, span) for name, spans in found.items() for span, ok in spans if not ok] == []


def test_readme_names_resolve():
    # all but the paragraph that lists removed names
    paragraphs = README.read_text().split("\n\n")
    removed = [paragraph for paragraph in paragraphs if paragraph.startswith(REMOVED_NAMES)]
    assert len(removed) == 1
    found = [f for paragraph in paragraphs if paragraph not in removed for f in module_names(paragraph)]
    assert found and [span for span, ok in found if not ok] == []
