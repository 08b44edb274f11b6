"""The benchmark's hold on the package, checked from the test suite.

`perfbench/layers.py` names the package functions the traced run wraps,
and `perfbench/workloads.py` builds and calls package objects directly.
Both are loaded here by path, unedited, so renaming or removing a name
they use fails these tests and not only the benchmark's own self-test.
The tracer keeps one span stack, so toy units also run inside its
wrappers, and every probed call must stay on the calling thread.
"""

import importlib.util
import sys
import threading
from collections import Counter, defaultdict
from pathlib import Path

import pytest

from mvcnn import evaluation
from mvcnn.evaluation import PipelineConfig, SyntheticSpec

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


def test_probed_functions_run_on_the_calling_thread(bench):
    # the tracer keeps one span stack, so a probed call on clip_frame_features'
    # noise helper would be filed under whatever span the caller has open
    tracer, layers = bench["tracer"], bench["layers"]
    threads = defaultdict(set)
    calls = Counter()

    class ThreadRecorder(tracer.Tracer):
        def call(self, name, fn, args, kwargs):
            threads[name].add(threading.get_ident())
            calls[name] += 1
            return super().call(name, fn, args, kwargs)

    ds = evaluation.generate_synthetic(
        SyntheticSpec(n_classes=2, clips_per_class=3, clip_seconds=0.5, seed=1)
    )
    with tracer.Instrumented(ThreadRecorder(), layers.PROBES):
        for kind, highpass_hz in (("spectrum", 200.0), ("mfcc", None)):
            evaluation.clip_frame_features(ds, PipelineConfig(
                snr_db=-3.0, feature_kind=kind, highpass_hz=highpass_hz,
            ))
    assert {
        "evaluation.clip_frame_features", "spectral.highpass_butterworth",
        "audio.remove_silence", "audio.segment", "spectral.power_spectra",
        "spectral.spectrum_features", "spectral.mfcc_features",
        "spectral.add_noise_snr",
    } <= set(threads)
    assert calls["spectral.add_noise_snr"] == 2 * len(ds)  # once per noisy clip
    assert set().union(*threads.values()) == {threading.main_thread().ident}


@pytest.mark.parametrize("name", ["train", "cv_baselines"])
def test_traced_unit_nests_on_one_span_stack(bench, name):
    # toy size, set-up and one unit inside the benchmark's traced wrappers:
    # every span lies within its parent's, as self_times assumes
    tracer, layers, workloads = bench["tracer"], bench["layers"], bench["workloads"]
    workload = workloads.WORKLOADS[name](workloads.TOY)
    bindings = tracer.snapshot(layers.PROBES)
    with tracer.Instrumented(tracer.Tracer(), layers.PROBES) as traced:
        state = workload.setup(5)
        unit = workload.unit(state)
    assert tracer.untouched(bindings)
    attempted, failed = workload.check(state, workload.reference(state), unit)
    assert failed == [] and attempted > 1
    assert traced.counters["evaluation.clips"] > 0
    for _, start, end, parent in traced.spans:
        if parent >= 0:
            _, parent_start, parent_end, _ = traced.spans[parent]
            assert parent_start <= start <= end <= parent_end
    assert min(traced.self_times().values()) > -1e-9
