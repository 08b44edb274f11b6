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


def raising_functions(source: str, prefix: str = "") -> set[str]:
    """Qualified names (Class.function, outer.inner) of the functions in
    source whose own bodies hold a raise: a raise counts for the innermost
    function around it."""
    found = set()

    def visit(node, name, in_function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{name}{child.name}.", not isinstance(child, ast.ClassDef))
                continue
            if in_function and isinstance(child, ast.Raise):
                found.add(name[:-1])
            visit(child, name, in_function)

    visit(ast.parse(source), prefix, False)
    return found


def test_raising_function_is_found():
    source = (
        "def checks(x):\n"
        "    if x:\n"
        "        raise ValueError(x)\n"
        "def quiet(x):\n"
        "    def inner():\n"
        "        raise ValueError(x)\n"
        "    return inner\n"
        "class C:\n"
        "    def m(self):\n"
        "        for _ in self:\n"
        "            raise StopIteration\n"
    )
    assert raising_functions(source, "mod.") == {"mod.checks", "mod.quiet.inner", "mod.C.m"}


# The functions under src/mvcnn where an outside value enters and is
# checked: config and scenario rules, file and wire parsers, the public
# verbs and the model's input boundary, plus measure_snr, which tests use
# as an oracle. What they hand on is checked already, so nothing else
# raises; a new check belongs in one of them.
ENTRY_POINTS = {
    "audio.AudioClip.__post_init__", "audio.SilenceConfig.__post_init__",
    "audio.load_wav", "audio.window_rms",
    "cli.cmd_train", "cli.cmd_tune_threshold", "cli.parse_list",
    "evaluation.PipelineConfig.__post_init__", "evaluation.SweepSpec.resolved_grid",
    "evaluation.SyntheticClips.__getitem__", "evaluation.SyntheticClips.__init__",
    "evaluation.compute_metrics", "evaluation.kfold_split", "evaluation.load_manifest",
    "evaluation.make_method", "evaluation.prepare_fold", "evaluation.run_sweep",
    "evaluation.stratified_fraction_split", "evaluation.tune_silence_threshold",
    "model.ModelConfig.__post_init__", "model.TrainConfig.__post_init__",
    "model.build", "model.forward_batch", "model.gradient_check", "model.load",
    "model.load.need", "model.predict", "model.save", "model.train",
    "spectral.NormStats.__post_init__", "spectral.add_noise_snr",
    "spectral.design_highpass", "spectral.measure_snr", "spectral.mel_filterbank",
    "wasn.NodeConfig.__post_init__", "wasn.Scenario.validate", "wasn._parse_range",
    "wasn._scenario_training_frames", "wasn.check_model", "wasn.decode",
    "wasn.load_scenario", "wasn.parse_scenario", "wasn.server_classify",
    "wasn.simulate",
}


def test_only_entry_points_raise():
    raising = set()
    for path in PACKAGE.glob("*.py"):
        raising |= raising_functions(path.read_text(), f"{path.stem}.")
    assert sorted(raising - ENTRY_POINTS) == []
    assert sorted(ENTRY_POINTS - raising) == []


def test_knn_imports_no_error_class():
    # evaluation.py checks the KNN kernels' inputs where they enter
    knn_source = (PACKAGE / "knn.py").read_text()
    assert not any(
        isinstance(n, ast.ImportFrom) and n.module == "errors"
        for n in ast.walk(ast.parse(knn_source))
    )
