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
        nodes = [n for stmt in body for n in ast.walk(stmt)]
        # x -= y reads x, though its target's context is Store
        read = {
            n.id for n in nodes if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        } | {
            n.target.id for n in nodes
            if isinstance(n, ast.AugAssign) and isinstance(n.target, ast.Name)
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
        "def h(total, step, fresh):\n"
        "    total -= step\n"
        "    fresh = 1\n"
    )
    assert unread_parameters(source) == [
        (1, "f", "b"), (1, "f", "rest"), (1, "f", "key"), (9, "h", "fresh"),
        (8, "<lambda>", "z"),
    ]


def unraised_error_classes(package: Path) -> list[str]:
    """Classes defined in package/errors.py that no raise under package names."""
    defined = [
        n.name for n in ast.parse((package / "errors.py").read_text()).body
        if isinstance(n, ast.ClassDef)
    ]
    raised = set()
    for path in package.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised |= {n.id for n in ast.walk(exc) if isinstance(n, ast.Name)}
    return [name for name in defined if name not in raised]


def test_every_error_class_is_raised():
    assert unraised_error_classes(PACKAGE) == []


def raising_functions(source: str) -> set[str]:
    """Names of the functions in source whose own bodies hold a raise."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if any(isinstance(n, ast.Raise) for n in ast.walk(node)):
                found.add(node.name)
    return found


def test_raising_function_is_found():
    source = (
        "def checks(x):\n"
        "    if x:\n"
        "        raise ValueError(x)\n"
        "def quiet(x):\n"
        "    return x\n"
    )
    assert raising_functions(source) == {"checks"}


def test_unchecked_kernels_raise_nothing():
    # PipelineConfig and evaluation.py check these kernels' values where
    # they enter, so the kernels hold no check of their own
    knn_source = (PACKAGE / "knn.py").read_text()
    assert raising_functions(knn_source) == set()
    assert not any(
        isinstance(n, ast.ImportFrom) and n.module == "errors"
        for n in ast.walk(ast.parse(knn_source))
    )
    assert "segment" not in raising_functions((PACKAGE / "audio.py").read_text())
    spectral = raising_functions((PACKAGE / "spectral.py").read_text())
    assert {"power_spectra", "_average_groups"}.isdisjoint(spectral)
