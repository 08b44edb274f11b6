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
    InvalidConfig,
    InvalidSetting,
    LabelOutOfRange,
    LengthMismatch,
    TrailingBytes,
    VersionMismatch,
)
from mvcnn.model import (
    ModelConfig,
    TrainConfig,
    accuracy,
    build,
    forward,
    forward_batch,
    gradient_check,
    load,
    predict,
    save,
    train,
)
from mvcnn.spectral import NormStats


def tiny_config(**overrides):
    base = dict(input_len=32, n_classes=3, seed=0, dtype=np.float64)
    base.update(overrides)
    return ModelConfig(**base)


class TestBuild:
    def test_flattened_feature_length(self):
        model = build(ModelConfig(input_len=512, n_classes=14))
        assert model.flat_features == 170 * 24 == 4080
        assert model.fc_weights.shape == (4080, 14)

    def test_channel_progression(self):
        model = build(tiny_config())
        for banks in model.views:
            assert [b.in_channels for b in banks] == [1, 2, 4]
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
            with pytest.raises(InvalidConfig):
                build(tiny_config(input_len=bad_len))

    def test_bad_keep_prob(self):
        with pytest.raises(InvalidConfig):
            build(tiny_config(keep_prob=0.0))

    @pytest.mark.parametrize("override", [
        dict(dtype=np.int32), dict(dtype=np.float16), dict(seed=-1),
        dict(layer_depths=()), dict(view_widths=(10, 0)),
    ], ids=["int32", "float16", "seed", "no-layers", "zero-width"])
    def test_config_rejected_on_construction(self, override):
        with pytest.raises(InvalidConfig):
            ModelConfig(**override)

    def test_single_view_ablation_shares_code_path(self):
        model = build(tiny_config(view_widths=(10,)))
        assert len(model.views) == 1
        assert model.flat_features == (32 // 3) * 8
        probs = forward(model, np.zeros(32))
        assert probs.shape == (3,)


class TestForward:
    def test_probabilities_sum_to_one(self):
        model = build(tiny_config())
        rng = np.random.Generator(np.random.PCG64(1))
        probs = forward(model, rng.normal(size=32))
        assert probs.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(probs > 0)

    def test_eval_forward_deterministic(self):
        model = build(tiny_config())
        x = np.linspace(-1, 1, 32)
        np.testing.assert_array_equal(forward(model, x), forward(model, x))

    def test_input_scale_changes_output(self):
        model = build(tiny_config())
        rng = np.random.Generator(np.random.PCG64(2))
        x = rng.normal(size=32)
        assert not np.allclose(forward(model, x), forward(model, 2 * x))

    def test_length_mismatch(self):
        model = build(tiny_config())
        with pytest.raises(LengthMismatch):
            forward(model, np.zeros(33))

    def test_train_flag_controls_dropout_only(self):
        model = build(tiny_config(keep_prob=0.5))
        x = np.linspace(-1, 1, 32)
        eval_probs = forward(model, x, train=False)
        train_probs = forward(model, x, train=True, dropout_seed=3)
        assert not np.allclose(eval_probs, train_probs)
        np.testing.assert_array_equal(eval_probs, forward(model, x, train=False))


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
        for pa, pb in zip(model.parameters(), back.parameters()):
            np.testing.assert_array_equal(pa.data, pb.data)
        rng = np.random.Generator(np.random.PCG64(8))
        x = rng.normal(size=48)
        np.testing.assert_array_equal(forward(model, x), forward(back, x))

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

    @pytest.mark.parametrize("version", [1, 99])
    def test_version_mismatch(self, tmp_path, version):
        model = build(tiny_config())
        path = tmp_path / f"v{version}.mvc"
        save(model, path)
        blob = bytearray(path.read_bytes())
        blob[4:6] = version.to_bytes(2, "little")
        path.write_bytes(bytes(blob))
        with pytest.raises(VersionMismatch, match="retrain"):
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
        np.testing.assert_array_equal(forward(model, x), forward(back, x))

    @pytest.mark.parametrize("dtype, code", [(np.float32, 4), (np.float64, 8)])
    def test_byte_layout_pinned(self, tmp_path, dtype, code):
        model = build(tiny_config(dtype=dtype, keep_prob=0.5, seed=9))
        path = tmp_path / "layout.mvc"
        save(model, path)
        blob = path.read_bytes()
        # magic, version, input_len, n_classes, n_views, n_layers, keep_prob,
        # dtype code, seed; then the view widths and layer depths
        head = struct.pack("<4sHIIIIdBQ", b"MVC1", 2, 32, 3, 3, 3, 0.5, code, 9)
        head += struct.pack("<6I", 10, 15, 20, 2, 4, 8)
        assert blob[: len(head)] == head
        # per view and layer: [out, in, w] filters then [out] biases
        conv_values = sum(
            o * i * w + o for w in (10, 15, 20) for i, o in ((1, 2), (2, 4), (4, 8))
        )
        flat = (32 // 3) * 8 * 3
        fc_values = flat * 3 + 3
        stats_bytes = 8 + 16 * 32
        assert len(blob) == len(head) + code * (conv_values + fc_values) + stats_bytes
        first = np.frombuffer(blob, f"<f{code}", 2 * 1 * 10, len(head))
        np.testing.assert_array_equal(first.reshape(2, 1, 10), model.views[0][0].weights.data)
        fc_at = len(blob) - stats_bytes - code * fc_values
        fc = np.frombuffer(blob, f"<f{code}", flat * 3, fc_at)
        np.testing.assert_array_equal(fc.reshape(flat, 3), model.fc_weights.data)
        assert blob[-stats_bytes:] == model.norm_stats.to_bytes()

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

    def test_norm_block_length_must_be_input_len(self, tmp_path):
        path = tmp_path / "nrm.mvc"
        save(build(tiny_config()), path)
        blob = path.read_bytes()[: -(8 + 16 * 32)]
        for length in (31, 33):
            path.write_bytes(blob + NormStats.identity(length).to_bytes())
            with pytest.raises(LengthMismatch, match="NRM1"):
                load(path)

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
            np.testing.assert_array_equal(forward(model, x), forward(back, x))


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
        stats_bytes = 8 + 16 * cfg.input_len
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


class TestGradientCheck:
    def test_tiny_multiview_model(self):
        model = build(tiny_config())
        rng = np.random.Generator(np.random.PCG64(4))
        err = gradient_check(model, rng.normal(size=32), label=1, n_samples=25)
        assert err < 1e-4

    def test_single_view_model(self):
        model = build(tiny_config(view_widths=(10,)))
        rng = np.random.Generator(np.random.PCG64(5))
        err = gradient_check(model, rng.normal(size=32), label=0, n_samples=25)
        assert err < 1e-4


def test_predict_batches_match_single(tmp_path):
    model = build(tiny_config())
    rng = np.random.Generator(np.random.PCG64(6))
    X = rng.normal(size=(20, 32))
    batched = predict(model, X, chunk=7)
    single = np.array([int(np.argmax(forward(model, x))) for x in X])
    np.testing.assert_array_equal(batched, single)


class TestNoGraphInference:
    """forward and predict run under no_grad(): same numbers, no graph."""

    def _model_and_rows(self, n):
        model = build(tiny_config(dtype=np.float32))
        rng = np.random.Generator(np.random.PCG64(11))
        return model, rng.normal(size=(n, 32))

    def test_forward_equals_graph_path(self):
        model, X = self._model_and_rows(5)
        for x in X:
            graph = forward_batch(model, x[None, :]).data[0]
            np.testing.assert_array_equal(forward(model, x), graph)

    @pytest.mark.parametrize("chunk", [1, 7, 256])
    def test_predict_equals_graph_path(self, chunk):
        # 263 rows: neither 7 nor 256 divides it, so the last chunk is short
        model, X = self._model_and_rows(263)
        graph = np.concatenate([
            np.argmax(forward_batch(model, X[i : i + chunk]).data, axis=1)
            for i in range(0, len(X), chunk)
        ])
        np.testing.assert_array_equal(predict(model, X, chunk=chunk), graph)

    def test_forward_and_predict_build_no_graph(self, monkeypatch):
        model, X = self._model_and_rows(3)
        outputs = []

        def recording(*args, **kwargs):
            outputs.append(forward_batch(*args, **kwargs))
            return outputs[-1]

        monkeypatch.setattr(model_module, "forward_batch", recording)
        predict(model, X, chunk=2)
        forward(model, X[0])
        assert len(outputs) == 3
        assert all(t._parents == () and t._backward is None for t in outputs)
        assert forward_batch(model, X)._backward is not None

    def test_validation_leaves_training_unchanged(self):
        # accuracy() runs mid-training under no_grad(); were the switch left
        # off, later steps would get no gradients and the runs would diverge
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
        assert gradient_check(model, x, label=1, n_samples=25) < 1e-4
