"""Checks on the package's source text rather than its behaviour."""

import ast
from pathlib import Path

import cryptoflow

SOURCES = sorted(Path(cryptoflow.__file__).parent.glob("*.py"))


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
