"""Checks on the source text of the package and its tests rather than their behaviour."""

import ast
import re
from pathlib import Path

import cryptoflow
from cryptoflow.cli import OPTIONS

SOURCES = sorted(Path(cryptoflow.__file__).parent.glob("*.py"))
TESTS = sorted(Path(__file__).parent.glob("*.py"))
README = Path(__file__).parent.parent / "README.md"


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


def _json_dump_calls(node, scope):
    """The scope of each ``json.dump`` call under node: the module's name and
    the names of the classes and functions around the call, dotted."""
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = f"{scope}.{child.name}"
        elif (isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute)
              and child.func.attr == "dump" and isinstance(child.func.value, ast.Name)
              and child.func.value.id == "json"):
            yield scope
        yield from _json_dump_calls(child, inner)


def test_one_json_writer():
    """Every JSON document is laid out, and its NaN and inf spelled, in one place."""
    calls = [scope for path in SOURCES
             for scope in _json_dump_calls(ast.parse(path.read_text()), path.stem)]
    assert calls == ["inputs.write_json"]


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


def test_every_cli_flag_is_in_the_readme():
    """Each flag a verb accepts is documented: it occurs as a whole token, so
    ``--q1`` does not count for ``--q``."""
    text = README.read_text()
    flags = ["--config", *(flag for opt in OPTIONS for flag in opt.option_strings)]
    missing = [flag for flag in flags
               if not re.search(rf"(?<![\w-]){re.escape(flag)}(?![\w-])", text)]
    assert missing == []
