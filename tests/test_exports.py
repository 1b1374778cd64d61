"""Every name in ramify.__all__ has a user besides the tests.

A name counts as used when code in a module of src/ramify other than the
one that defines it names it, when README.md mentions it, or when code
under bench/ names it.  Code means identifiers, attributes and imports:
a mention in a docstring or a comment does not count.  Tests import what
they check from the defining module, so they do not count either.
"""

from __future__ import annotations

import ast
import pathlib
import re

import ramify

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ramify"


def names_in_code(path):
    """The identifiers, attribute names and imported names of a file."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.split(".")[-1])
    return out


def defining_modules():
    """{exported name: the module __init__ imports it from}."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    return {alias.name: node.module
            for node in tree.body if isinstance(node, ast.ImportFrom)
            for alias in node.names}


def unused_exports():
    home = defining_modules()
    modules = {path.stem: names_in_code(path)
               for path in PACKAGE.glob("*.py") if path.stem != "__init__"}
    bench = set().union(*(names_in_code(path)
                          for path in (ROOT / "bench").rglob("*.py")))
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    return [name for name in ramify.__all__
            if not any(name in used for stem, used in modules.items()
                       if stem != home[name])
            and name not in bench
            and not re.search(r"\b%s\b" % re.escape(name), readme)]


def test_every_export_is_imported_from_init():
    assert set(ramify.__all__) <= set(defining_modules())


def test_every_export_has_a_user_besides_the_tests():
    assert unused_exports() == []
