"""Checks on the source text of the package and its tests rather than their behaviour."""

import ast
from pathlib import Path

import cryptoflow

SOURCES = sorted(Path(cryptoflow.__file__).parent.glob("*.py"))
TESTS = sorted(Path(__file__).parent.glob("*.py"))


def _unread_parameters(tree):
    """(line, function, parameter) for each ``def`` parameter its body never reads."""
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        params = [*args.posonlyargs, *args.args, *args.kwonlyargs,
                  *(arg for arg in (args.vararg, args.kwarg) if arg is not None)]
        read = {name.id for statement in node.body for name in ast.walk(statement)
                if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Load)}
        for param in params:
            if param.arg not in ("self", "cls") and param.arg not in read:
                yield node.lineno, node.name, param.arg


def test_every_parameter_is_read():
    assert SOURCES
    unread = [f"{path.name}:{line} {function}({param})"
              for path in SOURCES
              for line, function, param in _unread_parameters(ast.parse(path.read_text()))]
    assert unread == []


def _unread_imports(text):
    """(line, name) for each name a module imports and never reads.

    ``from __future__`` imports, names listed in a literal ``__all__`` and
    imports on a line marked ``# noqa: F401`` are exempt.
    """
    tree = ast.parse(text)
    lines = text.splitlines()
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    exported = {element.value for node in tree.body if isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
                and isinstance(node.value, (ast.List, ast.Tuple))
                for element in node.value.elts if isinstance(element, ast.Constant)}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if "# noqa: F401" in lines[node.lineno - 1]:
            continue
        for alias in node.names:
            # ``import a.b`` binds a
            name = alias.asname or alias.name.split(".")[0]
            if name not in read and name not in exported:
                yield node.lineno, name


def test_every_import_is_read():
    assert SOURCES and TESTS
    unread = [f"{path.parent.name}/{path.name}:{line} {name}"
              for path in (*SOURCES, *TESTS)
              for line, name in _unread_imports(path.read_text())]
    assert unread == []


def _private_definitions(tree):
    """(line, name) for each module-level function, class or constant whose
    name starts with one underscore."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [name.id for target in targets for name in ast.walk(target)
                     if isinstance(name, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield node.lineno, name


def test_every_private_name_is_read():
    """A private helper no module reads is dead code, such as a retired
    helper's twin left behind."""
    assert SOURCES
    trees = {path: ast.parse(path.read_text()) for path in SOURCES}
    read = {node.id if isinstance(node, ast.Name) else node.attr
            for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))
            and isinstance(node.ctx, ast.Load)}
    unread = [f"{path.name}:{line} {name}"
              for path, tree in trees.items()
              for line, name in _private_definitions(tree) if name not in read]
    assert unread == []
