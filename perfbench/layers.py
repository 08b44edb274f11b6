"""Which package functions the traced run wraps, and the per-layer metrics.

Span names are ``<module>.<function>``; every per-layer metric below is
reported by every workload, as 0 where the workload never calls that
layer (for example the high-pass outside ``offload``).
"""

from __future__ import annotations

import math

import numpy as np

from tracer import Probe


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _conv_name(args, kwargs):
    return f"autograd.conv1d_same.w{_arg(args, kwargs, 1, 'bank').width}"


def _conv_flops(args, kwargs, out):
    # one multiply and one add per (row, position, input channel, tap, output channel)
    x = _arg(args, kwargs, 0, "x").data
    bank = _arg(args, kwargs, 1, "bank")
    batch, length, c_in = x.shape
    flops = 2 * batch * length * c_in * bank.width * bank.out_channels
    yield "autograd.conv_flops_computed", flops


def _silence(args, kwargs, out):
    yield "audio.samples_in", len(_arg(args, kwargs, 0, "clip").samples)
    yield "audio.samples_kept", len(out.samples)


def _knn(args, kwargs, out):
    model = _arg(args, kwargs, 0, "model")
    queries = len(_arg(args, kwargs, 1, "queries"))
    yield "knn.queries", queries
    yield "knn.distance_evals", queries * len(model.training_features)


def _forward_batch(args, kwargs, out):
    yield "model.forward_batch.calls", 1
    yield "model.rows", len(_arg(args, kwargs, 1, "features"))


def _clip_features(args, kwargs, out):
    yield "evaluation.clips", len(out)
    yield "evaluation.clips_without_frames", sum(1 for m in out if len(m) == 0)


def _simulate(args, kwargs, out):
    yield "wasn.messages", len(out.records)
    yield "wasn.fallback_records", sum(r.origin == "node_fallback" for r in out.records)


def _fft_frames(args, kwargs, out):
    yield "spectral.fft_frames", int(np.prod(np.shape(_arg(args, kwargs, 0, "frames"))[:-1]))


PROBES = (
    Probe("mvcnn.audio:remove_silence", "audio.remove_silence", counters=_silence),
    Probe(
        "mvcnn.audio:segment", "audio.segment",
        counters=lambda a, k, out: [("audio.frames", len(out))],
    ),
    Probe(
        "mvcnn.spectral:highpass_butterworth", "spectral.highpass_butterworth",
        counters=lambda a, k, out: [("spectral.highpass.samples", len(out.samples))],
    ),
    Probe(
        "mvcnn.spectral:power_spectra", "spectral.power_spectra",
        counters=_fft_frames,
    ),
    Probe("mvcnn.spectral:spectrum_features", "spectral.spectrum_features"),
    Probe("mvcnn.spectral:mfcc_features", "spectral.mfcc_features"),
    Probe("mvcnn.spectral:add_noise_snr", "spectral.add_noise_snr"),
    Probe("mvcnn.spectral:normalize", "spectral.normalize"),
    Probe("mvcnn.autograd:conv1d_same", "autograd.conv1d_same", name=_conv_name,
          counters=_conv_flops),
    Probe("mvcnn.autograd:Tensor.backward", "autograd.backward"),
    Probe("mvcnn.autograd:adam_step", "autograd.adam_step"),
    Probe("mvcnn.autograd:tanh_act", "autograd.tanh_act"),
    Probe("mvcnn.autograd:maxpool1d", "autograd.maxpool1d"),
    Probe("mvcnn.autograd:dropout", "autograd.dropout"),
    Probe("mvcnn.autograd:dense_softmax", "autograd.dense_softmax"),
    Probe("mvcnn.autograd:cross_entropy", "autograd.cross_entropy"),
    Probe("mvcnn.model:build", "model.build"),
    Probe("mvcnn.model:forward_batch", "model.forward_batch", counters=_forward_batch),
    Probe("mvcnn.model:train", "model.train"),
    Probe("mvcnn.model:predict", "model.predict"),
    Probe("mvcnn.knn:knn_classify_batch", "knn.knn_classify_batch", counters=_knn),
    Probe("mvcnn.knn:tune_k", "knn.tune_k"),
    Probe("mvcnn.evaluation:generate_synthetic", "evaluation.generate_synthetic"),
    Probe("mvcnn.evaluation:clip_frame_features", "evaluation.clip_frame_features",
          counters=_clip_features),
    Probe("mvcnn.evaluation:prepare_fold", "evaluation.prepare_fold"),
    Probe("mvcnn.evaluation:evaluate_split", "evaluation.evaluate_split"),
    Probe("mvcnn.evaluation:run_cv", "evaluation.run_cv"),
    Probe("mvcnn.wasn:node_process", "wasn.node_process"),
    Probe("mvcnn.wasn:server_classify", "wasn.server_classify"),
    Probe("mvcnn.wasn:simulate", "wasn.simulate", counters=_simulate),
    Probe("mvcnn.wasn:train_server_model", "wasn.train_server_model"),
    Probe("mvcnn.wasn:train_fallback_models", "wasn.train_fallback_models"),
)

# Convolution spans are named per filter width; they have no children, so
# their self time is their forward time.
CONV_WIDTHS = (10, 15, 20)

SELF_TIME_SPANS = tuple(
    p.span_name for p in PROBES if p.span_name != "autograd.conv1d_same"
)

COUNTERS = (
    "spectral.highpass.samples",
    "spectral.fft_frames",
    "audio.frames",
    "knn.queries",
    "knn.distance_evals",
    "autograd.conv_flops_computed",
    "model.forward_batch.calls",
    "model.rows",
    "evaluation.clips",
    "evaluation.clips_without_frames",
    "wasn.messages",
)

# per-call latency percentiles; the traced offload run makes enough calls
# that at least ten fall beyond the highest one
CALL_PERCENTILES = {"wasn.node_process": (50, 90), "wasn.server_classify": (50, 95)}


def _percentile_ms(seconds, q):
    """Nearest-rank percentile of a list of durations, in milliseconds."""
    if not seconds:
        return 0.0
    ordered = sorted(seconds)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return 1000.0 * ordered[rank - 1]


def per_layer_metrics(tracer) -> dict:
    """Name -> (value, unit) for every per-layer metric of a traced run."""
    self_s = tracer.self_times()
    c = tracer.counters
    out = {}
    for span in SELF_TIME_SPANS:
        out[f"{span}.self_s"] = (self_s.get(span, 0.0), "s")
    for width in CONV_WIDTHS:
        out[f"autograd.conv1d_same.w{width}.fwd_s"] = (
            self_s.get(f"autograd.conv1d_same.w{width}", 0.0), "s"
        )
    for name in COUNTERS:
        out[name] = (c.get(name, 0), "count")
    samples_in = c.get("audio.samples_in", 0)
    out["audio.silence_kept_ratio"] = (
        c.get("audio.samples_kept", 0) / samples_in if samples_in else 0.0, "ratio"
    )
    messages = c.get("wasn.messages", 0)
    out["wasn.fallback_share"] = (
        c.get("wasn.fallback_records", 0) / messages if messages else 0.0, "ratio"
    )
    for span, percentiles in CALL_PERCENTILES.items():
        calls = tracer.durations(span)
        out[f"{span}.calls"] = (len(calls), "count")
        for q in percentiles:
            out[f"{span}.call_ms_p{q}"] = (_percentile_ms(calls, q), "ms")
    return out
