"""The README's fenced python blocks run, in order, in one namespace, so
the quickstart keeps up with the API it shows."""

import functools
import importlib
import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


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
