"""Every name in ramify.__all__, and every public function or class of
src/ramify, has a user besides the tests.

An export counts as used when code in a module of src/ramify other than
the one that defines it names it, when README.md mentions it, or when
code under bench/ names it.  A public module-level function or class
counts as used when code of src/ramify outside its own definition names
it, or README.md or bench/ does; a route only the tests run belongs in
tests/reference.py.  Code means identifiers, attributes and imports: a
mention in a docstring or a comment does not count.  Tests import what
they check from the defining module, so they do not count either.

Every name a module of src/ramify imports is used in that module, listed
in its __all__, or marked ``# noqa: F401`` on its import statement; with
no linter at hand, this is the unused-import check.
"""

from __future__ import annotations

import ast
import functools
import pathlib
import re

import ramify

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ramify"


def parse(path):
    return ast.parse(path.read_text(encoding="utf-8"))


def names_in_code(path):
    """The identifiers, attribute names and imported names of a file."""
    return names_in(parse(path))


def names_in(tree):
    """The identifiers, attribute names and imported names under a node."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.split(".")[-1])
    return out


def defining_modules():
    """{exported name: the module __init__ imports it from}."""
    tree = parse(PACKAGE / "__init__.py")
    return {alias.name: node.module
            for node in tree.body if isinstance(node, ast.ImportFrom)
            for alias in node.names}


def modules():
    """{module stem: its syntax tree} for the modules of src/ramify but
    __init__, whose imports are the export list."""
    return {path.stem: parse(path) for path in sorted(PACKAGE.glob("*.py"))
            if path.stem != "__init__"}


@functools.cache
def outside_src():
    """The names code under bench/ uses, and the text of README.md."""
    bench = set().union(*(names_in_code(path)
                          for path in (ROOT / "bench").rglob("*.py")))
    return bench, (ROOT / "README.md").read_text(encoding="utf-8")


def used_outside_src(name):
    """Whether code under bench/ names ``name`` or README.md mentions it."""
    bench, readme = outside_src()
    return name in bench or bool(re.search(r"\b%s\b" % re.escape(name),
                                           readme))


def unused_exports():
    home = defining_modules()
    used = {stem: names_in(tree) for stem, tree in modules().items()}
    return [name for name in ramify.__all__
            if not any(name in names for stem, names in used.items()
                       if stem != home[name])
            and not used_outside_src(name)]


def unused_public_definitions():
    """'module.name' of each public module-level function or class that no
    code of src/ramify names outside its own definition, and that bench/
    and README.md do not name either."""
    trees = modules()
    # the names of each top-level node, and of each module, walked once
    node_names = {stem: [names_in(node) for node in tree.body]
                  for stem, tree in trees.items()}
    module_names = {stem: set().union(*names)
                    for stem, names in node_names.items()}
    out = []
    for stem, tree in trees.items():
        for node, own in zip(tree.body, node_names[stem]):
            if not (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                continue
            elsewhere = (
                any(node.name in names for names in node_names[stem]
                    if names is not own)
                or any(node.name in names
                       for s, names in module_names.items() if s != stem))
            if not elsewhere and not used_outside_src(node.name):
                out.append("%s.%s" % (stem, node.name))
    return out


def unused_imports():
    """'module.name' of each name a module of src/ramify imports and does
    not use, list in its __all__ or mark ``# noqa: F401``."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        lines, tree = text.splitlines(), ast.parse(text)
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        exported = {elt.value for node in tree.body
                    if isinstance(node, ast.Assign)
                    and any(getattr(t, "id", None) == "__all__"
                            for t in node.targets)
                    for elt in node.value.elts}
        for node in ast.walk(tree):
            if (not isinstance(node, (ast.Import, ast.ImportFrom))
                    or getattr(node, "module", None) == "__future__"
                    or any("# noqa: F401" in line for line in
                           lines[node.lineno - 1:node.end_lineno])):
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in used and name not in exported:
                    out.append("%s.%s" % (path.stem, name))
    return out


def test_every_export_is_imported_from_init():
    assert set(ramify.__all__) <= set(defining_modules())


def test_every_export_has_a_user_besides_the_tests():
    assert unused_exports() == []


def test_every_public_definition_has_a_user_besides_the_tests():
    assert unused_public_definitions() == []


def test_every_import_is_used():
    assert unused_imports() == []
