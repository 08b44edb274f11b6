"""Checks over the package's own source code."""

import ast
from pathlib import Path

import mvcnn

PACKAGE = Path(mvcnn.__file__).parent


def unread_parameters(source: str) -> list[tuple[int, str, str]]:
    """(line, function, parameter) for each parameter of each function in
    source, other than self and cls, that its body never reads."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = node.args
        params = [*args.posonlyargs, *args.args, args.vararg, *args.kwonlyargs, args.kwarg]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {
            n.id for stmt in body for n in ast.walk(stmt)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        name = getattr(node, "name", "<lambda>")
        found += [
            (node.lineno, name, p.arg) for p in params
            if p is not None and p.arg not in ("self", "cls") and p.arg not in read
        ]
    return found


def test_every_parameter_is_read():
    unread = [
        f"{path.name}:{line} {func}({param})"
        for path in sorted(PACKAGE.glob("*.py"))
        for line, func, param in unread_parameters(path.read_text())
    ]
    assert unread == []


def test_unread_parameter_is_found():
    source = (
        "def f(a, b, *rest, key=None, **extra):\n"
        "    return a + len(extra)\n"
        "class C:\n"
        "    def m(self, x):\n"
        "        def inner():\n"
        "            return x\n"
        "        return inner\n"
        "g = lambda y, z: y\n"
    )
    assert unread_parameters(source) == [
        (1, "f", "b"), (1, "f", "rest"), (1, "f", "key"), (8, "<lambda>", "z"),
    ]
