"""The benchmark's hold on the package, checked from the test suite.

`perfbench/layers.py` names the package functions the traced run wraps,
and `perfbench/workloads.py` builds and calls package objects directly.
Both are loaded here by path, unedited, so renaming or removing a name
they use fails these tests and not only the benchmark's own self-test.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SOURCE = Path(__file__).resolve().parents[1] / "src" / "mvcnn"
BENCH_MODULES = ("tracer", "layers", "workloads")  # in import order


@pytest.fixture(scope="module")
def bench():
    """The three benchmark modules, under the top-level names they import
    each other by; removed from sys.modules again afterwards."""
    saved = {name: sys.modules.pop(name, None) for name in BENCH_MODULES}
    loaded = {}
    try:
        for name in BENCH_MODULES:
            spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
            module = importlib.util.module_from_spec(spec)
            sys.modules[name] = module
            spec.loader.exec_module(module)
            loaded[name] = module
        yield loaded
    finally:
        for name, module in saved.items():
            sys.modules.pop(name, None)
            if module is not None:
                sys.modules[name] = module


def test_every_probe_resolves_in_the_package_source(bench):
    tracer, layers = bench["tracer"], bench["layers"]
    bindings = tracer.snapshot(layers.PROBES)
    bound = {id(original) for original in bindings.values()}
    for probe in layers.PROBES:
        owner, attr = tracer._resolve(probe.target)
        original = owner.__dict__[attr]
        assert id(original) in bound, probe.target
        code = getattr(original, "__code__", None)
        assert code is not None and Path(code.co_filename).resolve().parent == SOURCE, (
            probe.target
        )
    assert tracer.untouched(bindings)


def test_offload_workload_runs_on_the_package(bench):
    # toy size: the set-up trains barely, the unit runs simulate once
    workloads = bench["workloads"]
    assert set(workloads.WORKLOADS) == {"train", "cv_baselines", "offload"}
    offload = workloads.Offload(workloads.TOY)
    state = offload.setup(3)
    truth = offload.reference(state)
    unit = offload.unit(state)
    attempted, failed = offload.check(state, truth, unit)
    assert failed == [] and attempted == 1 + len(truth) > 1
