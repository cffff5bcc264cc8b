"""Checks on the source of the package itself."""

import ast
import pathlib

import plurigeo

SOURCES = sorted(pathlib.Path(plurigeo.__file__).parent.glob("*.py"))


def _private_definitions(tree):
    """Module-level ``_name`` bindings (not dunders) of one parsed module."""
    names = set()
    for top in tree.body:
        if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(top.name)
        elif isinstance(top, (ast.Assign, ast.AnnAssign)):
            targets = top.targets if isinstance(top, ast.Assign) else [top.target]
            for target in targets:
                names.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
        elif isinstance(top, (ast.Import, ast.ImportFrom)):
            names.update((a.asname or a.name).split(".")[0] for a in top.names)
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def test_every_private_name_is_read():
    # a private helper or constant that no code reads is left over from a
    # rewrite: delete it rather than keep it in step with the code it served
    defined, read = set(), set()
    for path in SOURCES:
        tree = ast.parse(path.read_text())
        defined.update((path.name, name) for name in _private_definitions(tree))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    unread = sorted(f"{path}:{name}" for path, name in defined if name not in read)
    assert not unread, f"private names never read in the package: {unread}"
