import gc
import os
import struct
import subprocess
import sys

import numpy as np
import pytest

from mvcnn import model as model_module
from mvcnn.autograd import Tensor, conv1d_same, cross_entropy
from mvcnn.errors import (
    BadMagic,
    EmptyDataset,
    InvalidSetting,
    LabelOutOfRange,
    LengthMismatch,
    MvcnnError,
    TrailingBytes,
)
from mvcnn.model import (
    PREDICT_CHUNK,
    ModelConfig,
    ServingPlan,
    TrainConfig,
    accuracy,
    build,
    forward_batch,
    gradient_check,
    load,
    max_relative_error,
    predict,
    save,
    train,
)
from mvcnn.spectral import NormStats


def serve_one(model, x):
    """Eval-mode probabilities [H] of one feature vector, through a 1-row plan."""
    return ServingPlan(model, 1).probabilities(np.asarray(x)[None])[0].copy()


def tiny_config(**overrides):
    base = dict(input_len=32, n_classes=3, seed=0, dtype=np.float64)
    base.update(overrides)
    return ModelConfig(**base)


class TestBuild:
    def test_flattened_feature_length(self):
        model = build(ModelConfig(input_len=512, n_classes=14))
        assert model.fc_weights.shape == (170 * 24, 14) == (4080, 14)

    def test_channel_progression(self):
        model = build(tiny_config())
        for banks in model.views:
            assert [b.weights.shape[1] for b in banks] == [1, 2, 4]
            assert [b.out_channels for b in banks] == [2, 4, 8]

    def test_view_widths_constant_within_view(self):
        model = build(ModelConfig(input_len=64, n_classes=4))
        assert [banks[0].width for banks in model.views] == [10, 15, 20]
        for banks in model.views:
            assert len({b.width for b in banks}) == 1

    def test_same_seed_bit_identical(self):
        a = build(tiny_config())
        b = build(tiny_config())
        for pa, pb in zip(a.parameters(), b.parameters()):
            np.testing.assert_array_equal(pa.data, pb.data)

    def test_different_seed_differs(self):
        a = build(tiny_config(seed=0))
        b = build(tiny_config(seed=1))
        assert not np.array_equal(a.fc_weights.data, b.fc_weights.data)

    def test_input_too_short_for_pooling(self):
        for bad_len in (1, 2):
            with pytest.raises(InvalidSetting, match=f"input_len {bad_len} < pool window 3"):
                build(tiny_config(input_len=bad_len))

    def test_bad_keep_prob(self):
        # the only check on the keep probability dropout receives
        for bad in (0.0, -0.5, 1.2, float("nan")):
            with pytest.raises(InvalidSetting, match=r"keep_prob must be in \(0, 1\]"):
                build(tiny_config(keep_prob=bad))

    @pytest.mark.parametrize("override, message", [
        (dict(dtype=np.int32), "dtype must be float32 or float64"),
        (dict(dtype=np.float16), "dtype must be float32 or float64"),
        (dict(seed=-1), r"seed must be in \[0, 2\*\*64\), got -1"),
        (dict(layer_depths=()), "view_widths and layer_depths must be nonempty"),
        (dict(view_widths=(10, 0)), "view_widths and layer_depths must be nonempty"),
    ], ids=["int32", "float16", "seed", "no-layers", "zero-width"])
    def test_config_rejected_on_construction(self, override, message):
        with pytest.raises(InvalidSetting, match=message):
            ModelConfig(**override)

    def test_single_view_ablation_shares_code_path(self):
        model = build(tiny_config(view_widths=(10,)))
        assert len(model.views) == 1
        assert model.fc_weights.shape[0] == (32 // 3) * 8
        probs = serve_one(model, np.zeros(32))
        assert probs.shape == (3,)


class TestForward:
    def test_probabilities_sum_to_one(self):
        model = build(tiny_config())
        rng = np.random.Generator(np.random.PCG64(1))
        probs = serve_one(model, rng.normal(size=32))
        assert probs.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(probs > 0)

    def test_eval_forward_deterministic(self):
        model = build(tiny_config())
        x = np.linspace(-1, 1, 32)
        np.testing.assert_array_equal(serve_one(model, x), serve_one(model, x))

    def test_input_scale_changes_output(self):
        model = build(tiny_config())
        rng = np.random.Generator(np.random.PCG64(2))
        x = rng.normal(size=32)
        assert not np.allclose(serve_one(model, x), serve_one(model, 2 * x))

    def test_length_mismatch(self):
        model = build(tiny_config())
        with pytest.raises(LengthMismatch):
            predict(model, np.zeros((1, 33)))

    @pytest.mark.parametrize("features", [np.zeros(32), 0.5], ids=["vector", "scalar"])
    def test_only_a_matrix_is_accepted(self, features):
        # predict checks the shape once; its plan checks nothing
        model = build(tiny_config())
        with pytest.raises(LengthMismatch):
            predict(model, features)

    def test_train_flag_controls_dropout_only(self):
        model = build(tiny_config(keep_prob=0.5))
        x = np.linspace(-1, 1, 32)
        eval_probs = serve_one(model, x)
        train_probs = forward_batch(model, x[None, :], train=True, dropout_seed=3).data[0]
        assert not np.allclose(eval_probs, train_probs)
        np.testing.assert_array_equal(eval_probs, serve_one(model, x))


def separable_dataset(n_per_class=40, length=32, seed=0):
    """Two classes separated by the sign of a fixed direction."""
    rng = np.random.Generator(np.random.PCG64(seed))
    direction = rng.normal(size=length)
    direction /= np.linalg.norm(direction)
    X, y = [], []
    for label in (0, 1):
        sign = 1.0 if label else -1.0
        for _ in range(n_per_class):
            X.append(sign * direction * 2.0 + rng.normal(0, 0.2, length))
            y.append(label)
    return np.array(X), np.array(y)


class TestTrain:
    def test_loss_decreases_on_separable_data(self):
        X, y = separable_dataset()
        model = build(tiny_config(n_classes=2, dtype=np.float32))
        history = train(model, X, y, TrainConfig(iterations=50, seed=0))
        assert len(history) == 50
        assert history[-1].loss < history[0].loss

    def test_learns_separable_data(self):
        X, y = separable_dataset()
        model = build(tiny_config(n_classes=2, dtype=np.float32))
        train(model, X, y, TrainConfig(iterations=60, seed=0))
        assert accuracy(model, X, y) >= 0.95

    def test_bit_identical_history_and_parameters(self):
        X, y = separable_dataset()

        def run():
            model = build(tiny_config(n_classes=2, dtype=np.float32))
            hist = train(model, X, y, TrainConfig(iterations=25, seed=3),
                         validation=(X, y))
            return hist, [p.data.copy() for p in model.parameters()]

        h1, p1 = run()
        h2, p2 = run()
        assert [(r.iteration, r.loss, r.val_accuracy) for r in h1] == [
            (r.iteration, r.loss, r.val_accuracy) for r in h2
        ]
        for a, b in zip(p1, p2):
            np.testing.assert_array_equal(a, b)

    def test_validation_cadence(self):
        X, y = separable_dataset(n_per_class=10)
        model = build(tiny_config(n_classes=2, dtype=np.float32))
        history = train(model, X, y, TrainConfig(iterations=25, seed=0),
                        validation=(X, y))
        recorded = [r.iteration for r in history if r.val_accuracy is not None]
        assert recorded == [9, 19, 24]

    def test_step_graph_freed_before_next_forward(self, monkeypatch):
        X, y = separable_dataset(n_per_class=8, length=64)
        live = []

        def counting(*args, **kwargs):
            live.append(sum(
                isinstance(o, Tensor) and o._backward is not None
                for o in gc.get_objects()
            ))
            return forward_batch(*args, **kwargs)

        monkeypatch.setattr(model_module, "forward_batch", counting)
        model = build(tiny_config(input_len=64, n_classes=2, dtype=np.float32))
        train(model, X, y, TrainConfig(iterations=4, batch_size=8, seed=0))
        assert live == [0, 0, 0, 0]

    def test_saturated_wrong_step_moves_every_parameter(self):
        # the head puts class 0 at logit +60 and class 1 at -60, and every
        # row is class 1: the step still reaches each parameter
        model = build(ModelConfig(input_len=30, n_classes=2, view_widths=(3,),
                                  layer_depths=(2,), dtype=np.float32))
        model.fc_bias.data[:] = (60.0, -60.0)
        before = model.flat.copy()
        X = np.random.Generator(np.random.PCG64(13)).normal(size=(4, 30))
        train(model, X, np.ones(4, dtype=np.int64), TrainConfig(iterations=1, batch_size=4))
        assert model.flat.size == 50
        assert np.all(model.flat != before)

    def test_feature_gradient_skip_leaves_parameter_gradients_bit_identical(
        self, monkeypatch
    ):
        # a B=16 paper-model step; the features' input gradient is skipped,
        # which drops 3 of the 9 input-gradient products
        rng = np.random.Generator(np.random.PCG64(12))
        X = rng.normal(size=(16, 512))
        labels = np.eye(4, dtype=np.float32)[rng.integers(0, 4, 16)]
        conv_inputs = []

        def recording_conv(x, bank):
            conv_inputs.append(x)
            return conv1d_same(x, bank)

        class KeepsGradient(Tensor):
            requires_grad = property(lambda self: True, lambda self, value: None)

        def step():
            model = build(ModelConfig())
            probs = forward_batch(model, X, train=True, dropout_seed=5)
            cross_entropy(probs, labels).backward()
            return [p.grad for p in model.parameters()]

        monkeypatch.setattr(model_module, "conv1d_same", recording_conv)
        skipped = step()
        features = {id(x): x for x in conv_inputs if x._parents == ()}
        assert len(features) == 1
        (x,) = features.values()
        assert x.requires_grad is False and x.grad is None

        conv_inputs.clear()
        monkeypatch.setattr(model_module, "Tensor", KeepsGradient)
        full = step()
        (x,) = {id(x): x for x in conv_inputs if x._parents == ()}.values()
        assert x.grad is not None and x.grad.shape == (16, 512, 1)
        for a, b in zip(skipped, full):
            np.testing.assert_array_equal(a, b)

    def test_same_parameters_with_one_or_two_blas_threads(self):
        code = (
            "import hashlib, numpy as np\n"
            "from mvcnn.model import ModelConfig, TrainConfig, build, train\n"
            "rng = np.random.Generator(np.random.PCG64(8))\n"
            "X, y = rng.normal(size=(64, 512)), rng.integers(0, 4, 64)\n"
            "model = build(ModelConfig())\n"
            "train(model, X, y, TrainConfig(iterations=20))\n"
            "print(hashlib.sha256(model.flat.tobytes()).hexdigest())\n"
        )
        digests = []
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads}
            proc = subprocess.run([sys.executable, "-c", code], env=env,
                                  capture_output=True, text=True, timeout=300)
            assert proc.returncode == 0, proc.stderr
            digests.append(proc.stdout.strip())
        assert len(digests[0]) == 64 and digests[0] == digests[1]

    def test_empty_dataset(self):
        model = build(tiny_config())
        with pytest.raises(EmptyDataset):
            train(model, np.empty((0, 32)), np.empty(0, dtype=int))

    def test_label_out_of_range(self):
        model = build(tiny_config())
        with pytest.raises(LabelOutOfRange):
            train(model, np.zeros((4, 32)), np.array([0, 1, 2, 3]))

    @pytest.mark.parametrize("n_labels", [0, 3, 9, 11, 40])
    def test_labels_not_one_per_row(self, n_labels):
        model = build(tiny_config())
        with pytest.raises(LengthMismatch):
            train(model, np.zeros((10, 32)), np.zeros(n_labels, dtype=int))

    @pytest.mark.parametrize("override", [
        dict(batch_size=0), dict(learning_rate=float("nan")),
        dict(learning_rate=float("inf")), dict(learning_rate=0.0),
        dict(learning_rate=-1e-3), dict(iterations=-3), dict(seed=-1),
        dict(iterations=2.5), dict(iterations=float("nan")), dict(iterations=20.0),
        dict(batch_size=8.5), dict(batch_size=float("inf")), dict(seed=1.5),
        dict(seed=float("nan")),
    ], ids=["batch", "lr-nan", "lr-inf", "lr-zero", "lr-negative", "iters", "seed",
            "iters-fraction", "iters-nan", "iters-float", "batch-fraction", "batch-inf",
            "seed-fraction", "seed-nan"])
    def test_train_config_rejects_settings_that_train_nothing(self, override):
        with pytest.raises(InvalidSetting):
            TrainConfig(**override)

    def test_numpy_integer_counts_are_valid_settings(self):
        cfg = TrainConfig(iterations=np.int64(2), batch_size=np.int32(4), seed=np.uint64(7))
        model = build(tiny_config())
        assert len(train(model, np.zeros((4, 32)), np.array([0, 1, 2, 0]), cfg)) == 2

    def test_zero_iterations_is_a_valid_setting(self):
        model = build(tiny_config())
        assert train(model, np.zeros((4, 32)), np.array([0, 1, 2, 0]),
                     TrainConfig(iterations=0)) == []


class TestSerialization:
    def test_round_trip_forward_bit_exact(self, tmp_path):
        model = build(ModelConfig(input_len=48, n_classes=5, seed=7))
        model.norm_stats = NormStats(np.arange(48.0), np.arange(1.0, 49.0))
        path = tmp_path / "model.mvc"
        save(model, path)
        back = load(path)
        assert back.config.input_len == 48
        assert back.config.n_classes == 5
        assert back.config.view_widths == (10, 15, 20)
        assert back.config.layer_depths == (2, 4, 8)
        np.testing.assert_array_equal(back.norm_stats.mean, model.norm_stats.mean)
        np.testing.assert_array_equal(back.norm_stats.std, model.norm_stats.std)
        # copies, not read-only views of the file's bytes
        assert back.norm_stats.mean.flags.writeable and back.norm_stats.std.flags.writeable
        for pa, pb in zip(model.parameters(), back.parameters()):
            np.testing.assert_array_equal(pa.data, pb.data)
        rng = np.random.Generator(np.random.PCG64(8))
        x = rng.normal(size=48)
        np.testing.assert_array_equal(serve_one(model, x), serve_one(back, x))

    def test_save_is_deterministic(self, tmp_path):
        p1, p2 = tmp_path / "a.mvc", tmp_path / "b.mvc"
        save(build(ModelConfig(input_len=32, n_classes=3, seed=1)), p1)
        save(build(ModelConfig(input_len=32, n_classes=3, seed=1)), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.mvc"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(BadMagic):
            load(path)

    @pytest.mark.parametrize("version", [1, 2, 99])
    def test_version_mismatch(self, tmp_path, version):
        model = build(tiny_config())
        path = tmp_path / f"v{version}.mvc"
        save(model, path)
        blob = bytearray(path.read_bytes())
        blob[4:6] = version.to_bytes(2, "little")
        path.write_bytes(bytes(blob))
        with pytest.raises(BadMagic, match=f"model file version {version} is not 3; retrain"):
            load(path)

    def test_zero_views_rejected(self, tmp_path):
        path = tmp_path / "zero.mvc"
        save(build(tiny_config()), path)
        blob = bytearray(path.read_bytes())
        blob[14:18] = (0).to_bytes(4, "little")  # n_views
        path.write_bytes(bytes(blob))
        with pytest.raises(BadMagic, match="no views"):
            load(path)

    def test_single_view_round_trip(self, tmp_path):
        model = build(tiny_config(view_widths=(10,), dtype=np.float32))
        path = tmp_path / "sv.mvc"
        save(model, path)
        back = load(path)
        assert back.config.view_widths == (10,)
        x = np.linspace(-1, 1, 32)
        np.testing.assert_array_equal(serve_one(model, x), serve_one(back, x))

    @pytest.mark.parametrize("dtype, code", [(np.float32, 4), (np.float64, 8)])
    def test_byte_layout_pinned(self, tmp_path, dtype, code):
        model = build(tiny_config(dtype=dtype, keep_prob=0.5, seed=9))
        path = tmp_path / "layout.mvc"
        save(model, path)
        blob = path.read_bytes()
        # magic, version, input_len, n_classes, n_views, n_layers, keep_prob,
        # dtype code, seed; then the view widths and layer depths
        head = struct.pack("<4sHIIIIdBQ", b"MVC1", 3, 32, 3, 3, 3, 0.5, code, 9)
        head += struct.pack("<6I", 10, 15, 20, 2, 4, 8)
        assert blob[: len(head)] == head
        # per view and layer: [out, in, w] filters then [out] biases
        conv_values = sum(
            o * i * w + o for w in (10, 15, 20) for i, o in ((1, 2), (2, 4), (4, 8))
        )
        flat = (32 // 3) * 8 * 3
        fc_values = flat * 3 + 3
        stats_bytes = 16 * 32  # f64 means then f64 stds, no magic, no length
        assert len(blob) == len(head) + code * (conv_values + fc_values) + stats_bytes
        first = np.frombuffer(blob, f"<f{code}", 2 * 1 * 10, len(head))
        np.testing.assert_array_equal(first.reshape(2, 1, 10), model.views[0][0].weights.data)
        fc_at = len(blob) - stats_bytes - code * fc_values
        fc = np.frombuffer(blob, f"<f{code}", flat * 3, fc_at)
        np.testing.assert_array_equal(fc.reshape(flat, 3), model.fc_weights.data)
        stats = np.frombuffer(blob, "<f8", 2 * 32, len(blob) - stats_bytes)
        np.testing.assert_array_equal(stats[:32], model.norm_stats.mean)
        np.testing.assert_array_equal(stats[32:], model.norm_stats.std)

    @pytest.mark.parametrize("offset", [6, 10, 14, 18], ids=[
        "input_len", "n_classes", "n_views", "n_layers"])
    def test_huge_declared_size_is_bad_magic(self, tmp_path, offset):
        path = tmp_path / "huge.mvc"
        save(build(tiny_config()), path)
        blob = bytearray(path.read_bytes())
        blob[offset : offset + 4] = (2**32 - 1).to_bytes(4, "little")
        path.write_bytes(bytes(blob))
        with pytest.raises(BadMagic, match="truncated"):
            load(path)

    def test_trailing_byte(self, tmp_path):
        path = tmp_path / "trailing.mvc"
        save(build(tiny_config()), path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(TrailingBytes):
            load(path)

    @pytest.mark.parametrize("edit, error, match", [
        (lambda blob: blob[:-8], BadMagic, "truncated"),
        (lambda blob: blob + struct.pack("<d", 1.0), TrailingBytes, "8 bytes after"),
    ], ids=["stats-cut", "stats-extended"])
    def test_stats_section_must_be_input_len_values(self, tmp_path, edit, error, match):
        # one f64 more or less in the stats section: the file does not end
        # where its header says
        path = tmp_path / "stats.mvc"
        save(build(tiny_config()), path)
        path.write_bytes(edit(path.read_bytes()))
        with pytest.raises(error, match=match):
            load(path)

    @pytest.mark.parametrize("length", [31, 33])
    def test_save_refuses_stats_of_other_length(self, tmp_path, length):
        # the file carries no stats length, so such a file could not be read
        model = build(tiny_config())
        model.norm_stats = NormStats.identity(length)
        path = tmp_path / "m.mvc"
        with pytest.raises(LengthMismatch, match=f"norm stats hold {length} values, not 32"):
            save(model, path)
        assert not path.exists()

    def test_every_proper_prefix_is_refused(self, tmp_path):
        path = tmp_path / "m.mvc"
        save(build(tiny_config(view_widths=(10,), dtype=np.float32)), path)
        blob = path.read_bytes()
        cut = tmp_path / "cut.mvc"
        for end in range(len(blob)):
            cut.write_bytes(blob[:end])
            with pytest.raises(MvcnnError):
                load(cut)

    def test_round_trip_property(self, tmp_path):
        # load(save(m)) == m over seeded configs: depths, widths, lengths
        # (multiples of 3 and not), keep_prob, dtype and seed
        rng = np.random.Generator(np.random.PCG64(2024))
        for n in range(50):
            n_views = int(rng.integers(1, 4))
            cfg = ModelConfig(
                input_len=int(rng.integers(3, 40)),
                n_classes=int(rng.integers(2, 6)),
                view_widths=tuple(int(w) for w in rng.choice((1, 3, 10, 20), n_views)),
                layer_depths=tuple(int(d) for d in rng.integers(1, 6, rng.integers(1, 5))),
                keep_prob=float(rng.choice((0.5, 0.8, 1.0))),
                seed=int(rng.integers(0, 2**63)),
                dtype=(np.float32, np.float64)[n % 2],
            )
            model = build(cfg)
            model.norm_stats = NormStats(rng.normal(size=cfg.input_len),
                                         rng.uniform(0.5, 2.0, cfg.input_len))
            path = tmp_path / f"m{n}.mvc"
            save(model, path)
            back = load(path)
            assert back.config == cfg
            assert back.config.dtype is cfg.dtype
            for pa, pb in zip(model.parameters(), back.parameters(), strict=True):
                assert pb.data.dtype == cfg.dtype
                np.testing.assert_array_equal(pa.data, pb.data)
            np.testing.assert_array_equal(back.norm_stats.mean, model.norm_stats.mean)
            np.testing.assert_array_equal(back.norm_stats.std, model.norm_stats.std)
            x = rng.normal(size=cfg.input_len)
            np.testing.assert_array_equal(serve_one(model, x), serve_one(back, x))


def _assert_tiles(arrays, base):
    """The arrays are consecutive views that cover base exactly, in order."""
    assert all(np.shares_memory(a, base) for a in arrays)
    start = base.__array_interface__["data"][0]
    offsets = [a.__array_interface__["data"][0] - start for a in arrays]
    sizes = [a.nbytes for a in arrays]
    assert offsets == list(np.cumsum([0] + sizes[:-1]))
    assert sum(sizes) == base.nbytes


class TestFlatParameters:
    """Every parameter, its gradient and the model file share one flat layout."""

    CONFIGS = [tiny_config(dtype=np.float32), tiny_config(dtype=np.float64),
               tiny_config(view_widths=(10,), dtype=np.float32)]
    IDS = ["float32", "float64", "single-view"]

    @pytest.mark.parametrize("cfg", CONFIGS, ids=IDS)
    def test_parameters_tile_flat_after_build_and_load(self, tmp_path, cfg):
        model = build(cfg)
        save(model, tmp_path / "m.mvc")
        for m in (model, load(tmp_path / "m.mvc")):
            assert m.flat.dtype == cfg.dtype and m.flat.ndim == 1
            params = [p.data for p in m.parameters()]
            assert all(p.dtype == cfg.dtype for p in params)
            _assert_tiles(params, m.flat)

    @pytest.mark.parametrize("cfg", CONFIGS, ids=IDS)
    def test_saved_parameter_section_is_flat(self, tmp_path, cfg):
        model = build(cfg)
        path = tmp_path / "m.mvc"
        save(model, path)
        blob = path.read_bytes()
        stats_bytes = 16 * cfg.input_len
        section = blob[len(blob) - stats_bytes - model.flat.nbytes : -stats_bytes]
        assert section == model.flat.astype(model.flat.dtype.newbyteorder("<")).tobytes()

    def test_training_moves_flat_and_gradients_share_one_array(self):
        X, y = separable_dataset(n_per_class=8)
        model = build(tiny_config(n_classes=2, dtype=np.float32))
        before = model.flat.copy()
        train(model, X, y, TrainConfig(iterations=1, batch_size=8))
        assert not np.array_equal(model.flat, before)
        grads = [p.grad for p in model.parameters()]
        base = grads[0].base
        assert base is not None and base.shape == model.flat.shape
        _assert_tiles(grads, base)


# tiny_config() overrides, feature seed and label of each pinned case: c01's
# inputs, tiny_config() with three views and with one, and one view of one
# layer (conv, tanh, pool, dense+softmax, cross-entropy and nothing else).
GRADCHECK_CASES = {
    "c01": ({}, 0, 1),
    "three_views": ({}, 4, 2),
    "one_view": (dict(view_widths=(10,)), 5, 0),
    "one_layer": (dict(input_len=18, view_widths=(5,), layer_depths=(2,)), 8, 1),
}
ALL = 10**6  # more than any case's model.flat.size: every entry, in any order
# float.hex of gradient_check(model, features, label, n_samples, seed)
GRADCHECK_HEX = [
    ("c01", 0, 1, "0x1.fd04b61390f1bp-32"),
    ("c01", 0, 25, "0x1.91246db573b1bp-28"),
    ("c01", 0, ALL, "0x1.3f199a8c74c42p-23"),
    ("c01", 1, 1, "0x1.612b52bcc0539p-39"),
    ("c01", 1, 25, "0x1.4d46b1b54cc2bp-29"),
    ("c01", 2, 1, "0x1.3dcfacd58f536p-35"),
    ("c01", 2, 25, "0x1.be0cf59f5a22cp-30"),
    ("three_views", 0, 1, "0x1.6cc012d8af609p-37"),
    ("three_views", 0, 25, "0x1.7e1b7a62706c8p-28"),
    ("three_views", 0, ALL, "0x1.0c9ce2af869bfp-24"),
    ("three_views", 1, 1, "0x1.0a75ab74f89b1p-31"),
    ("three_views", 1, 25, "0x1.652122489bc83p-29"),
    ("three_views", 2, 1, "0x1.4d20e0985aecfp-32"),
    ("three_views", 2, 25, "0x1.33d40b43600fbp-30"),
    ("one_view", 0, 1, "0x1.7de28523670b8p-35"),
    ("one_view", 0, 25, "0x1.98c92cbfb11a7p-30"),
    ("one_view", 0, ALL, "0x1.a3aea407c0876p-23"),
    ("one_view", 1, 1, "0x1.bf1a3e6e36728p-37"),
    ("one_view", 1, 25, "0x1.8daef95d7e844p-30"),
    ("one_view", 2, 1, "0x1.3a57bd63804fep-35"),
    ("one_view", 2, 25, "0x1.9059a14775f1ep-32"),
    ("one_layer", 0, 1, "0x1.8468e72636026p-36"),
    ("one_layer", 0, 25, "0x1.41be0815ea74dp-27"),
    ("one_layer", 0, ALL, "0x1.41be0815ea74dp-27"),
    ("one_layer", 1, 1, "0x1.a1ce4e9e137a9p-31"),
    ("one_layer", 1, 25, "0x1.a1ce4e9e137a9p-31"),
    ("one_layer", 2, 1, "0x1.590fafa7c46ccp-37"),
    ("one_layer", 2, 25, "0x1.a1ce4e9e137a9p-31"),
]


class TestGradientCheck:
    @pytest.mark.parametrize("case, seed, n_samples, expected", GRADCHECK_HEX)
    def test_pinned_bit_for_bit(self, case, seed, n_samples, expected):
        overrides, feature_seed, label = GRADCHECK_CASES[case]
        model = build(tiny_config(**overrides))
        before = model.flat.copy()
        rng = np.random.Generator(np.random.PCG64(feature_seed))
        features = rng.normal(size=model.config.input_len)
        err = gradient_check(model, features, label, n_samples, seed)
        assert err.hex() == expected
        np.testing.assert_array_equal(model.flat, before)  # every entry restored

    def test_one_layer_composite_under_1e4(self):
        model = build(tiny_config(input_len=18, view_widths=(5,), layer_depths=(2,)))
        rng = np.random.Generator(np.random.PCG64(8))
        assert gradient_check(model, rng.normal(size=18), 1, n_samples=30, seed=0) < 1e-4

    def test_doubled_gradient_reports_half(self):
        g = np.array([0.4, -1.2, 3.0])
        assert max_relative_error(2 * g, g) == pytest.approx(0.5, abs=1e-12)

    def test_tiny_multiview_model(self):
        model = build(tiny_config())
        rng = np.random.Generator(np.random.PCG64(4))
        err = gradient_check(model, rng.normal(size=32), label=1, n_samples=25, seed=0)
        assert err < 1e-4

    def test_single_view_model(self):
        model = build(tiny_config(view_widths=(10,)))
        rng = np.random.Generator(np.random.PCG64(5))
        err = gradient_check(model, rng.normal(size=32), label=0, n_samples=25, seed=0)
        assert err < 1e-4

    @pytest.mark.parametrize("label, error", [
        # -1 would check class n-1; 3 is past tiny_config's three classes
        (-1, LabelOutOfRange), (3, LabelOutOfRange), (np.int64(3), LabelOutOfRange),
        (2**70, LabelOutOfRange),
        (1.0, TypeError), ("1", TypeError), (None, TypeError), (np.array([1]), TypeError),
    ])
    def test_bad_label_is_refused(self, label, error):
        with pytest.raises(error):
            gradient_check(build(tiny_config()), np.zeros(32), label, n_samples=1, seed=0)

    @pytest.mark.parametrize("label, same_as", [(True, 1), (False, 0), (np.int64(2), 2)])
    def test_integer_like_label_checks_that_class(self, label, same_as):
        rng = np.random.Generator(np.random.PCG64(4))
        x = rng.normal(size=32)
        got = gradient_check(build(tiny_config()), x, label, n_samples=25, seed=0)
        expect = gradient_check(build(tiny_config()), x, same_as, n_samples=25, seed=0)
        assert got.hex() == expect.hex()


def test_predict_batches_match_single(tmp_path):
    model = build(tiny_config())
    rng = np.random.Generator(np.random.PCG64(6))
    X = rng.normal(size=(PREDICT_CHUNK + 1, 32))  # one full chunk, one short
    batched = predict(model, X)
    single = np.array([int(np.argmax(serve_one(model, x))) for x in X])
    np.testing.assert_array_equal(batched, single)


def _perturbed(config, seed):
    """A built model whose every parameter, biases included, is random, so
    the plan's bias adds are tested on values other than zero."""
    model = build(config)
    rng = np.random.Generator(np.random.PCG64(seed + 1000))
    model.flat[...] = rng.normal(scale=0.5, size=model.flat.size)
    return model


class TestServingPlan:
    """ServingPlan runs forward_batch(..., train=False)'s operations on
    buffers of its own: same bits, no graph."""

    def _model_and_rows(self, n):
        model = build(tiny_config(dtype=np.float32))
        rng = np.random.Generator(np.random.PCG64(11))
        return model, rng.normal(size=(n, 32))

    @pytest.mark.parametrize("seed", [0, 2])
    @pytest.mark.parametrize("views", [(10,), (10, 15), (10, 15, 20)],
                             ids=["1view", "2views", "3views"])
    @pytest.mark.parametrize("input_len", [512, 517, 50, 100])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
    def test_probabilities_equal_forward_batch_bit_for_bit(self, dtype, input_len, views,
                                                           seed):
        # 517 and 50 are divided by neither TOEPLITZ_BLOCK = 8 nor the pool
        # window 3; 37 rows are two 16-row chunks and a 5-row tail, which
        # runs through a 5-row plan, as in predict
        model = _perturbed(ModelConfig(input_len=input_len, view_widths=views,
                                       seed=seed, dtype=dtype), seed)
        rng = np.random.Generator(np.random.PCG64(seed))
        X = rng.normal(size=(37, input_len))
        for rows, starts in ((1, range(5)), (PREDICT_CHUNK, (0, 16)), (5, (32,))):
            plan = ServingPlan(model, rows)
            for start in starts:
                chunk = X[start : start + rows]
                got = plan.probabilities(chunk)
                want = forward_batch(model, chunk, train=False).data
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes(), (rows, start)

    def test_predict_builds_one_plan_and_no_graph(self, monkeypatch):
        model, X = self._model_and_rows(PREDICT_CHUNK + 1)  # two chunks
        plans, graphs = [], []

        def planning(*args, **kwargs):
            plans.append(args[1])
            return ServingPlan(*args, **kwargs)

        monkeypatch.setattr(model_module, "ServingPlan", planning)
        monkeypatch.setattr(model_module, "forward_batch",
                            lambda *a, **k: graphs.append(a))
        predict(model, X)
        assert plans == [PREDICT_CHUNK, 1]  # the tail row takes a 1-row plan
        plans.clear()
        predict(model, X[:5])
        assert plans == [5]
        plans.clear()
        predict(model, np.vstack([X, X])[:2 * PREDICT_CHUNK])
        assert plans == [PREDICT_CHUNK]  # full chunks share one plan
        assert graphs == []

    @pytest.mark.parametrize("rows", [1, 15, 16, 17, 263])
    def test_predict_equals_graph_path(self, rows):
        # around one chunk of PREDICT_CHUNK = 16 rows, and 263 = 16 * 16 + 7,
        # whose last chunk is short
        model, X = self._model_and_rows(rows)
        graph = np.concatenate([
            np.argmax(forward_batch(model, X[i : i + PREDICT_CHUNK]).data, axis=1)
            for i in range(0, len(X), PREDICT_CHUNK)
        ])
        np.testing.assert_array_equal(predict(model, X), graph)

    def test_plan_keeps_the_weights_it_was_built_with(self):
        X, y = separable_dataset()
        model = build(tiny_config(n_classes=2, dtype=np.float32))
        plan = ServingPlan(model, 4)
        before = plan.probabilities(X[:4]).copy()
        train(model, X, y, TrainConfig(iterations=5, seed=0))
        np.testing.assert_array_equal(plan.probabilities(X[:4]), before)
        fresh = ServingPlan(model, 4).probabilities(X[:4])
        assert fresh.tobytes() == forward_batch(model, X[:4]).data.tobytes()
        assert fresh.tobytes() != before.tobytes()

    def test_plan_parameters_and_stats_are_read_only_copies(self):
        model = build(tiny_config())
        model.norm_stats = NormStats(np.full(32, 0.5), np.full(32, 2.0))
        plan = ServingPlan(model, 1)
        convs = [layer for _, layers in plan._views for layer in layers]
        assert len(convs) == 9
        for array in (plan.norm_stats.mean, plan.norm_stats.std, plan._weights, plan._bias,
                      *(layer[i] for layer in convs for i in (3, 5))):  # matrix, bias row
            assert not array.flags.writeable
            assert not np.shares_memory(array, model.flat)
        np.testing.assert_array_equal(plan.norm_stats.mean, model.norm_stats.mean)
        assert not np.shares_memory(plan.norm_stats.mean, model.norm_stats.mean)

    def test_validation_leaves_training_unchanged(self):
        # accuracy() runs mid-training through a plan of its own; were it to
        # share state with the training graph, the runs would diverge
        X, y = separable_dataset()

        def run(validation):
            model = build(tiny_config(n_classes=2, dtype=np.float32))
            hist = train(model, X, y, TrainConfig(iterations=25, seed=3),
                         validation=validation)
            return [r.loss for r in hist], [p.data.copy() for p in model.parameters()]

        (loss_a, params_a), (loss_b, params_b) = run((X, y)), run(None)
        assert loss_a == loss_b
        for a, b in zip(params_a, params_b):
            np.testing.assert_array_equal(a, b)

    def test_gradient_check_after_inference(self):
        model = build(tiny_config())
        rng = np.random.Generator(np.random.PCG64(4))
        x = rng.normal(size=32)
        predict(model, x[None, :])
        assert gradient_check(model, x, label=1, n_samples=25, seed=0) < 1e-4
