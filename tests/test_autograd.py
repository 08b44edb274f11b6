import collections
import gc
import threading

import numpy as np
import pytest

from mvcnn import model as model_module
from mvcnn.autograd import (
    AdamState,
    ConvFilterBank,
    Tensor,
    _accumulate,
    _node,
    _toeplitz,
    _toeplitz_product,
    _toeplitz_rows,
    adam_step,
    concat_channels,
    conv1d_same,
    cross_entropy,
    dense_softmax,
    dropout,
    flatten,
    grad_check,
    max_relative_error,
    maxpool1d,
    no_grad,
    tanh_act,
)
from mvcnn.errors import (
    ChannelMismatch,
    InputTooShort,
    InvalidProbability,
    InvalidSetting,
    NotOneHot,
    ShapeMismatch,
)


def bank(weights, biases=None):
    w = np.asarray(weights, dtype=np.float64)
    b = np.zeros(w.shape[0]) if biases is None else np.asarray(biases, float)
    return ConvFilterBank(Tensor(w), Tensor(b))


class TestConv1dSame:
    def test_ones_filter_hand_convolution(self):
        x = Tensor(np.ones((1, 5, 1)))
        out = conv1d_same(x, bank(np.ones((1, 1, 3))))
        np.testing.assert_allclose(out.data[0, :, 0], [2, 3, 3, 3, 2])

    def test_delta_filter_is_identity(self):
        rng = np.random.Generator(np.random.PCG64(0))
        x = Tensor(rng.normal(size=(2, 9, 1)))
        delta = np.zeros((1, 1, 3))
        delta[0, 0, 1] = 1.0
        out = conv1d_same(x, bank(delta))
        np.testing.assert_allclose(out.data, x.data)

    def test_output_shape_two_channels_width_ten(self):
        x = Tensor(np.zeros((1, 40, 1)))
        out = conv1d_same(x, bank(np.zeros((2, 1, 10))))
        assert out.shape == (1, 40, 2)

    @pytest.mark.parametrize("width", [10, 15, 20])
    @pytest.mark.parametrize("length", [1, 2, 7, 64])
    def test_length_preserved_for_all_view_widths(self, width, length):
        x = Tensor(np.ones((1, length, 3)))
        out = conv1d_same(x, bank(np.ones((4, 3, width))))
        assert out.shape == (1, length, 4)

    def test_bias_added_per_channel(self):
        x = Tensor(np.zeros((1, 4, 1)))
        out = conv1d_same(x, bank(np.zeros((2, 1, 3)), [1.5, -2.0]))
        np.testing.assert_allclose(out.data[0, :, 0], 1.5)
        np.testing.assert_allclose(out.data[0, :, 1], -2.0)

    def test_channel_mismatch(self):
        x = Tensor(np.zeros((1, 4, 2)))
        with pytest.raises(ChannelMismatch):
            conv1d_same(x, bank(np.zeros((2, 1, 3))))

    def test_matches_direct_correlation_oracle(self):
        rng = np.random.Generator(np.random.PCG64(1))
        x = rng.normal(size=(1, 12, 2))
        w = rng.normal(size=(3, 2, 5))
        b = rng.normal(size=3)
        out = conv1d_same(Tensor(x), bank(w, b))
        # direct loop: pad left floor((w-1)/2), right the rest
        left = 2
        padded = np.pad(x, ((0, 0), (left, 2), (0, 0)))
        expect = np.zeros((1, 12, 3))
        for l in range(12):
            for co in range(3):
                acc = b[co]
                for j in range(5):
                    for ci in range(2):
                        acc += w[co, ci, j] * padded[0, l + j, ci]
                expect[0, l, co] = acc
        np.testing.assert_allclose(out.data, expect, atol=1e-12)


class TestTanh:
    def test_odd_and_saturating(self):
        out = tanh_act(Tensor(np.array([[0.0, 50.0, -50.0]])))
        np.testing.assert_allclose(out.data, [[0.0, 1.0, -1.0]], atol=1e-12)

    def test_derivative_at_zero_is_one(self):
        x = Tensor(np.array([0.0]))
        tanh_act(x).backward()
        np.testing.assert_allclose(x.grad, [1.0])


class TestMaxpool:
    def test_hand_maxes(self):
        x = Tensor(np.array([1, 5, 2, 4, 4, 4], dtype=float).reshape(1, 6, 1))
        out = maxpool1d(x)
        np.testing.assert_allclose(out.data[0, :, 0], [5, 4])

    def test_window_must_equal_stride(self):
        with pytest.raises(InvalidSetting):
            maxpool1d(Tensor(np.zeros((1, 9, 1))), window=3, stride=2)

    def test_constant_input(self):
        out = maxpool1d(Tensor(np.full((1, 9, 2), 3.25)))
        assert out.shape == (1, 3, 2)
        np.testing.assert_allclose(out.data, 3.25)

    def test_remainder_dropped(self):
        x = Tensor(np.arange(7, dtype=float).reshape(1, 7, 1))
        out = maxpool1d(x)
        assert out.shape == (1, 2, 1)
        np.testing.assert_allclose(out.data[0, :, 0], [2, 5])

    def test_gradient_is_zero_one_routing_to_first_max(self):
        x = Tensor(np.array([1, 5, 2, 4, 4, 4], dtype=float).reshape(1, 6, 1))
        out = maxpool1d(x)
        loss = cross_entropy(
            dense_softmax(flatten(out), Tensor(np.eye(2)), Tensor(np.zeros(2))),
            np.array([[1, 0]]),
        )
        loss.backward()
        # each window's incoming gradient lands on exactly one position,
        # the first max (index 1 of window 0, index 0 of window 1)
        mask = (x.grad != 0).astype(int)[0, :, 0]
        np.testing.assert_array_equal(mask, [0, 1, 0, 1, 0, 0])

    def test_pool_backward_sums_to_one_per_window(self):
        rng = np.random.Generator(np.random.PCG64(2))
        x = Tensor(rng.normal(size=(1, 12, 1)))
        pooled = maxpool1d(x)
        # seed every pooled value with gradient 1: each window's routed
        # gradient must sum back to exactly 1
        pooled._backward(np.ones_like(pooled.data))
        sums = x.grad.reshape(4, 3).sum(axis=1)
        np.testing.assert_array_equal(sums, np.ones(4))

    def test_too_short(self):
        with pytest.raises(InputTooShort):
            maxpool1d(Tensor(np.zeros((1, 2, 1))))


class TestDenseSoftmax:
    def test_uniform_for_zero_parameters(self):
        x = Tensor(np.ones((1, 3)))
        probs = dense_softmax(x, Tensor(np.zeros((3, 4))), Tensor(np.zeros(4)))
        np.testing.assert_allclose(probs.data, np.full((1, 4), 0.25))

    def test_shift_invariance(self):
        rng = np.random.Generator(np.random.PCG64(3))
        x = Tensor(rng.normal(size=(2, 5)))
        w = Tensor(rng.normal(size=(5, 4)))
        base = dense_softmax(x, w, Tensor(np.zeros(4)))
        shifted = dense_softmax(x, w, Tensor(np.full(4, 7.3)))
        np.testing.assert_allclose(base.data, shifted.data, atol=1e-12)

    def test_probabilities_sum_to_one(self):
        rng = np.random.Generator(np.random.PCG64(4))
        for _ in range(20):
            x = Tensor(rng.normal(scale=10, size=(3, 6)))
            w = Tensor(rng.normal(size=(6, 5)))
            p = dense_softmax(x, w, Tensor(rng.normal(size=5)))
            assert np.all(p.data > 0)
            np.testing.assert_allclose(p.data.sum(axis=1), np.ones(3), atol=1e-9)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            dense_softmax(
                Tensor(np.zeros((1, 3))), Tensor(np.zeros((4, 2))), Tensor(np.zeros(2))
            )


class TestDropout:
    def test_keep_prob_one_is_identity(self):
        x = Tensor(np.arange(10.0))
        assert dropout(x, 1.0, train=True, seed=0) is x

    def test_eval_mode_is_identity(self):
        x = Tensor(np.arange(10.0))
        assert dropout(x, 0.5, train=False, seed=0) is x

    def test_zero_fraction_concentrates(self):
        x = Tensor(np.ones(100_000))
        out = dropout(x, 0.8, train=True, seed=11)
        zero_fraction = np.mean(out.data == 0.0)
        assert 0.195 <= zero_fraction <= 0.205

    def test_kept_units_scaled(self):
        x = Tensor(np.full(1000, 2.0))
        out = dropout(x, 0.8, train=True, seed=5)
        kept = out.data[out.data != 0]
        np.testing.assert_allclose(kept, 2.0 / 0.8)

    def test_deterministic_per_seed(self):
        x = Tensor(np.ones(256))
        a = dropout(x, 0.8, train=True, seed=9)
        b = dropout(x, 0.8, train=True, seed=9)
        np.testing.assert_array_equal(a.data, b.data)

    def test_expected_value_matches_identity(self):
        x = np.array([0.5, -1.5, 2.0, 3.0, -0.25, 1.0, 4.0, -2.0])
        total = np.zeros_like(x)
        n_seeds = 40_000
        for seed in range(n_seeds):
            total += dropout(Tensor(x), 0.8, train=True, seed=seed).data
        mean = total / n_seeds
        np.testing.assert_allclose(mean, x, rtol=0.01)

    def test_invalid_probability(self):
        for bad in (0.0, -0.5, 1.2):
            with pytest.raises(InvalidProbability):
                dropout(Tensor(np.ones(4)), bad, train=True, seed=0)


class TestCrossEntropy:
    def test_perfect_prediction(self):
        p = Tensor(np.array([[0.0, 1.0, 0.0]]))
        loss = cross_entropy(p, np.array([[0, 1, 0]]))
        assert loss.item() == pytest.approx(0.0, abs=1e-12)

    def test_uniform_fourteen_classes(self):
        p = Tensor(np.full((1, 14), 1.0 / 14))
        loss = cross_entropy(p, np.eye(14)[3:4])
        assert loss.item() == pytest.approx(np.log(14), rel=1e-9)

    def test_zero_probability_clipped(self):
        p = Tensor(np.array([[1.0, 0.0]]))
        loss = cross_entropy(p, np.array([[0, 1]]))
        assert loss.item() == pytest.approx(-np.log(1e-12), rel=1e-9)

    def test_not_one_hot(self):
        p = Tensor(np.full((1, 3), 1 / 3))
        for bad in ([[1, 1, 0]], [[0, 0, 0]], [[0.5, 0.5, 0]]):
            with pytest.raises(NotOneHot):
                cross_entropy(p, np.array(bad))

    def test_batch_mean(self):
        p = Tensor(np.array([[1.0, 0.0], [0.5, 0.5]]))
        loss = cross_entropy(p, np.array([[1, 0], [0, 1]]))
        assert loss.item() == pytest.approx(0.5 * (-np.log(0.5)), rel=1e-9)


class TestBackward:
    def test_softmax_cross_entropy_gradient_identity(self):
        # d(CE(softmax(z)))/dz = p - y, observed through the bias gradient
        rng = np.random.Generator(np.random.PCG64(5))
        x = Tensor(rng.normal(size=(1, 6)))
        w = Tensor(rng.normal(size=(6, 4)))
        b = Tensor(rng.normal(size=4))
        y = np.eye(4)[[2]]
        probs = dense_softmax(x, w, b)
        cross_entropy(probs, y).backward()
        np.testing.assert_allclose(b.grad, probs.data[0] - y[0], atol=1e-12)

    def test_unused_parameter_gets_no_gradient(self):
        x = Tensor(np.ones((1, 2)))
        w = Tensor(np.zeros((2, 2)))
        unused = Tensor(np.ones((3, 3)))
        cross_entropy(dense_softmax(x, w, Tensor(np.zeros(2))), [[1, 0]]).backward()
        assert unused.grad is None

    def test_two_backwards_identical(self):
        rng = np.random.Generator(np.random.PCG64(6))
        x_data = rng.normal(size=(1, 12, 1))
        w_data = rng.normal(size=(2, 1, 3))

        def run():
            x = Tensor(x_data.copy())
            fb = bank(w_data.copy())
            h = tanh_act(conv1d_same(x, fb))
            probs = dense_softmax(
                flatten(maxpool1d(h)), Tensor(np.ones((8, 3))), Tensor(np.zeros(3))
            )
            cross_entropy(probs, np.eye(3)[[1]]).backward()
            return fb.weights.grad

        np.testing.assert_array_equal(run(), run())

    def test_graph_freed_without_cyclic_collector(self):
        # a graph that only reference counting frees is gone as soon as the
        # loss is dropped, not one or two training steps later
        rng = np.random.Generator(np.random.PCG64(7))
        fb = bank(rng.normal(size=(2, 1, 3)))
        gc.collect()
        gc.disable()
        try:
            h = tanh_act(conv1d_same(Tensor(rng.normal(size=(2, 12, 1))), fb))
            probs = dense_softmax(
                flatten(maxpool1d(h)), Tensor(np.ones((8, 3))), Tensor(np.zeros(3))
            )
            loss = cross_entropy(probs, np.eye(3)[[1, 2]])
            loss.backward()
            del h, probs, loss
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_fanout_accumulates(self):
        # the same tensor consumed twice must receive both contributions
        x = Tensor(np.ones((1, 3, 1)))
        merged = concat_channels([x, x])
        probs = dense_softmax(
            flatten(maxpool1d(merged)), Tensor(np.ones((2, 2))), Tensor(np.zeros(2))
        )
        cross_entropy(probs, [[1, 0]]).backward()
        assert x.grad is not None
        assert x.grad.shape == (1, 3, 1)


class TestAdam:
    def test_zero_gradient_fresh_state_no_move(self):
        p = np.array([1.0, -2.0])
        state = AdamState.for_params(p)
        adam_step(p, np.zeros(2), state)
        np.testing.assert_array_equal(p, [1.0, -2.0])

    def test_hand_traced_single_step(self):
        p = np.array([0.0])
        state = AdamState.for_params(p, learning_rate=0.001)
        adam_step(p, np.array([0.5]), state)
        expected = -0.001 * 0.5 / (np.sqrt(0.25) + 1e-8)
        np.testing.assert_allclose(p, [expected], rtol=1e-12)
        assert state.step_count == 1

    def test_deterministic_trajectory(self):
        def run():
            p = np.array([0.3, -0.7])
            state = AdamState.for_params(p, learning_rate=0.01)
            rng = np.random.Generator(np.random.PCG64(7))
            for _ in range(50):
                adam_step(p, rng.normal(size=2), state)
            return p

        np.testing.assert_array_equal(run(), run())

    def test_shape_mismatch(self):
        p = np.zeros(3)
        state = AdamState.for_params(p)
        with pytest.raises(ShapeMismatch):
            adam_step(p, np.zeros(4), state)


class TestGradCheck:
    def _composite(self, dtype=np.float64):
        rng = np.random.Generator(np.random.PCG64(8))
        x_data = rng.normal(size=(1, 18, 1)).astype(dtype)
        fb = ConvFilterBank(
            Tensor(rng.normal(scale=0.5, size=(2, 1, 5)).astype(dtype)),
            Tensor(rng.normal(scale=0.1, size=2).astype(dtype)),
        )
        w = Tensor(rng.normal(scale=0.5, size=(12, 3)).astype(dtype))
        b = Tensor(np.zeros(3, dtype=dtype))
        y = np.eye(3)[[1]]

        def loss_fn():
            h = tanh_act(conv1d_same(Tensor(x_data), fb))
            return cross_entropy(dense_softmax(flatten(maxpool1d(h)), w, b), y)

        return loss_fn, [fb.weights, fb.biases, w, b]

    def test_composite_model_under_1e4(self):
        loss_fn, params = self._composite()
        assert grad_check(loss_fn, params, n_samples=30) < 1e-4

    def test_linear_model_under_1e7(self):
        rng = np.random.Generator(np.random.PCG64(9))
        x = rng.normal(size=(1, 8))
        w = Tensor(rng.normal(scale=0.5, size=(8, 3)))
        b = Tensor(np.zeros(3))
        y = np.eye(3)[[0]]

        def loss_fn():
            return cross_entropy(dense_softmax(Tensor(x), w, b), y)

        assert grad_check(loss_fn, [w, b], n_samples=20) < 1e-7

    def test_doubled_gradient_reports_half(self):
        g = np.array([0.4, -1.2, 3.0])
        assert max_relative_error(2 * g, g) == pytest.approx(0.5, abs=1e-12)


def _conv_reference(x, w, b, grad):
    """Per-tap float64 conv1d_same forward and backward, written directly.

    out[b, l, o] = bias[o] + sum_j sum_i w[o, i, j] * x[b, l + j - left, i],
    with x zero outside [0, L); the gradients follow from the same sum.
    """
    batch, length, c_in = x.shape
    c_out, _, width = w.shape
    left = (width - 1) // 2
    out = np.broadcast_to(b, (batch, length, c_out)).copy()
    dx = np.zeros_like(x)
    dw = np.zeros_like(w)
    for j in range(width):
        shift = j - left
        lo, hi = max(0, -shift), min(length, length - shift)
        if lo >= hi:
            continue
        src = x[:, lo + shift : hi + shift, :]
        out[:, lo:hi, :] += src @ w[:, :, j].T
        dx[:, lo + shift : hi + shift, :] += grad[:, lo:hi, :] @ w[:, :, j]
        dw[:, :, j] += np.einsum("blo,bli->oi", grad[:, lo:hi, :], src)
    return out, dx, dw, grad.sum(axis=(0, 1))


class TestConvOracle:
    @pytest.mark.parametrize("width", [1, 2, 3, 10, 15, 20])
    @pytest.mark.parametrize("channels", [(1, 2), (2, 4), (4, 8), (3, 1)])
    @pytest.mark.parametrize("batch", [1, 3])
    def test_forward_and_gradients_match_per_tap_reference(
        self, width, channels, batch
    ):
        c_in, c_out = channels
        rng = np.random.Generator(np.random.PCG64(100 * width + 10 * c_in + batch))
        x = rng.normal(size=(batch, 23, c_in))
        w = rng.normal(size=(c_out, c_in, width))
        b = rng.normal(size=c_out)
        grad = rng.normal(size=(batch, 23, c_out))
        xt, fb = Tensor(x.copy()), bank(w, b)
        out = conv1d_same(xt, fb)
        out._backward(grad)
        ref_out, ref_dx, ref_dw, ref_db = _conv_reference(x, w, b, grad)
        np.testing.assert_allclose(out.data, ref_out, rtol=0, atol=1e-12)
        np.testing.assert_allclose(xt.grad, ref_dx, rtol=0, atol=1e-12)
        np.testing.assert_allclose(fb.weights.grad, ref_dw, rtol=0, atol=1e-12)
        np.testing.assert_allclose(fb.biases.grad, ref_db, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("width", [15, 20])
    def test_input_shorter_than_filter(self, width):
        rng = np.random.Generator(np.random.PCG64(width))
        x = rng.normal(size=(2, 4, 2))
        w = rng.normal(size=(3, 2, width))
        b = rng.normal(size=3)
        grad = rng.normal(size=(2, 4, 3))
        xt, fb = Tensor(x.copy()), bank(w, b)
        out = conv1d_same(xt, fb)
        out._backward(grad)
        ref_out, ref_dx, ref_dw, ref_db = _conv_reference(x, w, b, grad)
        np.testing.assert_allclose(out.data, ref_out, rtol=0, atol=1e-12)
        np.testing.assert_allclose(xt.grad, ref_dx, rtol=0, atol=1e-12)
        np.testing.assert_allclose(fb.weights.grad, ref_dw, rtol=0, atol=1e-12)
        np.testing.assert_allclose(fb.biases.grad, ref_db, rtol=0, atol=1e-12)

    # P = 8 output positions per GEMM row: lengths below, at and past one and
    # two blocks, and the paper's 512
    @pytest.mark.parametrize("width", [1, 2, 10, 15, 20])
    @pytest.mark.parametrize("length", [1, 7, 8, 9, 16, 17, 512])
    @pytest.mark.parametrize("batch", [1, 3, 16])
    def test_block_edges_match_per_tap_reference(self, width, length, batch):
        rng = np.random.Generator(np.random.PCG64(1000 * width + 10 * length + batch))
        for c_in, c_out in [(1, 2), (2, 4), (4, 8), (3, 1)]:
            x = rng.normal(size=(batch, length, c_in))
            w = rng.normal(size=(c_out, c_in, width))
            b = rng.normal(size=c_out)
            grad = rng.normal(size=(batch, length, c_out))
            xt, fb = Tensor(x.copy()), bank(w, b)
            out = conv1d_same(xt, fb)
            out._backward(grad)
            ref_out, ref_dx, ref_dw, ref_db = _conv_reference(x, w, b, grad)
            # 1e-12 of the largest entry: at B*L = 8192 the dW sums reach
            # ~1e2, and the reference's own rounding is ~1e-14 of that
            got = (out.data, xt.grad, fb.weights.grad, fb.biases.grad)
            for g, ref in zip(got, (ref_out, ref_dx, ref_dw, ref_db)):
                atol = 1e-12 * max(1.0, np.max(np.abs(ref)))
                np.testing.assert_allclose(g, ref, rtol=0, atol=atol)

    @pytest.mark.parametrize("width", [10, 15, 20])
    @pytest.mark.parametrize("channels", [(1, 2), (2, 4), (4, 8)])
    def test_float32_paper_shapes_within_1e5_of_float64(self, width, channels):
        c_in, c_out = channels
        rng = np.random.Generator(np.random.PCG64(7 * width + c_in))
        x = rng.normal(size=(16, 512, c_in)).astype(np.float32)
        w = rng.normal(size=(c_out, c_in, width)).astype(np.float32)
        b = rng.normal(size=c_out).astype(np.float32)
        grad = rng.normal(size=(16, 512, c_out)).astype(np.float32)
        xt = Tensor(x.copy())
        fb = ConvFilterBank(Tensor(w.copy()), Tensor(b.copy()))
        out = conv1d_same(xt, fb)
        out._backward(grad)
        refs = _conv_reference(*(a.astype(np.float64) for a in (x, w, b, grad)))
        got = (out.data, xt.grad, fb.weights.grad, fb.biases.grad)
        for name, g, ref in zip(("out", "dx", "dw", "db"), got, refs):
            assert g.dtype == np.float32, name
            assert np.max(np.abs(g - ref)) <= 1e-5 * np.max(np.abs(ref)), name

    def test_shared_input_accumulates_both_views(self):
        # the three views read one input tensor, so its gradient is the sum
        rng = np.random.Generator(np.random.PCG64(77))
        x = rng.normal(size=(3, 31, 1))
        xt = Tensor(x.copy())
        expect = np.zeros_like(x)
        for width in (10, 15):
            w = rng.normal(size=(2, 1, width))
            b = rng.normal(size=2)
            grad = rng.normal(size=(3, 31, 2))
            conv1d_same(xt, bank(w, b))._backward(grad)
            expect += _conv_reference(x, w, b, grad)[1]
        np.testing.assert_allclose(xt.grad, expect, rtol=0, atol=1e-12)


def test_maxpool_backward_matches_per_window_reference_with_ties():
    rng = np.random.Generator(np.random.PCG64(41))
    # few distinct values force ties inside windows; L = 10 leaves a remainder
    data = rng.integers(0, 3, size=(3, 10, 5)).astype(np.float64)
    grad = rng.normal(size=(3, 3, 5))
    x = Tensor(data.copy())
    maxpool1d(x)._backward(grad)
    expect = np.zeros_like(data)
    ties = 0
    for b in range(3):
        for p in range(3):
            for c in range(5):
                window = list(data[b, 3 * p : 3 * p + 3, c])
                top = max(window)
                ties += window.count(top) > 1
                expect[b, 3 * p + window.index(top), c] = grad[b, p, c]
    assert ties > 0
    np.testing.assert_array_equal(x.grad, expect)


def _op_cases():
    rng = np.random.Generator(np.random.PCG64(50))
    x = Tensor(rng.normal(size=(2, 9, 2)))
    fb = bank(rng.normal(size=(3, 2, 4)), rng.normal(size=3))
    flat = Tensor(rng.normal(size=(2, 6)))
    w, b = Tensor(rng.normal(size=(6, 3))), Tensor(rng.normal(size=3))
    probs = Tensor(np.full((2, 3), 1.0 / 3.0))
    return {
        "conv1d_same": lambda: conv1d_same(x, fb),
        "tanh_act": lambda: tanh_act(x),
        "maxpool1d": lambda: maxpool1d(x),
        "concat_channels": lambda: concat_channels([x, x]),
        "flatten": lambda: flatten(x),
        "dense_softmax": lambda: dense_softmax(flat, w, b),
        "dropout": lambda: dropout(flat, 0.5, train=True, seed=3),
        "cross_entropy": lambda: cross_entropy(probs, np.eye(3)[[0, 2]]),
    }


class TestNoGrad:
    @pytest.mark.parametrize("name", sorted(_op_cases()))
    def test_op_builds_no_node_and_same_data(self, name):
        op = _op_cases()[name]
        graph = op()
        assert graph._parents and graph._backward is not None
        with no_grad():
            bare = op()
        assert bare._parents == () and bare._backward is None
        np.testing.assert_array_equal(bare.data, graph.data)

    def test_nested_blocks_restore_outer_state(self):
        op = _op_cases()["tanh_act"]
        with no_grad():
            with no_grad():
                pass
            assert op()._backward is None
        assert op()._backward is not None

    def test_switch_is_per_thread(self):
        op = _op_cases()["tanh_act"]
        built = []
        with no_grad():
            worker = threading.Thread(target=lambda: built.append(op()._backward))
            worker.start()
            worker.join(timeout=10)
        assert not worker.is_alive()
        assert built[0] is not None

    def test_restored_after_exception(self):
        op = _op_cases()["tanh_act"]
        with pytest.raises(ShapeMismatch):
            with no_grad():
                conv1d_same(Tensor(np.ones((2, 3))), bank(np.ones((1, 1, 2))))
        assert op()._backward is not None


class TestAccumulate:
    def test_fresh_gradient_kept_without_copy(self):
        t = Tensor(np.zeros((2, 3)))
        grad = np.ones((2, 3))
        _accumulate(t, grad)
        assert t.grad is grad

    def test_view_copied_so_later_sums_stay_local(self):
        base = np.arange(6.0).reshape(2, 3)
        t = Tensor(np.zeros(3))
        _accumulate(t, base[0])
        _accumulate(t, base[1])
        np.testing.assert_array_equal(base, np.arange(6.0).reshape(2, 3))
        np.testing.assert_array_equal(t.grad, [3.0, 5.0, 7.0])

    def test_split_pieces_do_not_write_into_merged_gradient(self):
        rng = np.random.Generator(np.random.PCG64(51))
        x = Tensor(rng.normal(size=(1, 3, 2)))
        merged = concat_channels([x, x])
        flat = flatten(merged)
        w = Tensor(rng.normal(size=(12, 2)))
        probs = dense_softmax(flat, w, Tensor(np.zeros(2)))
        cross_entropy(probs, [[1, 0]]).backward()
        assert not np.shares_memory(flat.grad, merged.grad)
        expect = merged.grad[..., :2] + merged.grad[..., 2:]
        assert np.any(merged.grad[..., 2:] != 0)
        np.testing.assert_array_equal(x.grad, expect)


# --- references: the layer glue in its plain broadcast and reduce form ---
# Each wide-row kernel must give the same IEEE operations in the same order,
# so its outputs and gradients must equal these bit for bit.


def _conv_bias_reference(x, fb):
    """conv1d_same with the bias added by a broadcast over C_out after the
    GEMM; the backward is conv1d_same's own."""
    out = conv1d_same(x, fb)
    batch, length, _ = x.data.shape
    matrix, _ = _toeplitz(fb.weights.data)
    data = _toeplitz_product(
        _toeplitz_rows(x.data, fb.width, (fb.width - 1) // 2), matrix, batch, length
    )
    data += fb.biases.data
    out.data = data
    return out


def _maxpool_reference(x, window=3, stride=3):
    """.max(axis=2) forward; three-pass routing into a zeroed gradient."""
    batch, length, channels = x.data.shape
    pooled_len = length // window
    trimmed = x.data[:, : pooled_len * window, :].reshape(
        batch, pooled_len, window, channels
    )
    out_data = trimmed.max(axis=2)

    def backward(grad):
        dx = np.zeros(x.data.shape, dtype=x.data.dtype)
        taps = dx[:, : pooled_len * window].reshape(batch, pooled_len, window, channels)
        unrouted = np.ones(out_data.shape, dtype=bool)
        for k in range(window):
            hit = unrouted & (trimmed[:, :, k] == out_data)
            np.multiply(grad, hit, out=taps[:, :, k])
            unrouted &= ~hit
        _accumulate(x, dx)

    return _node(out_data, (x,), backward)


def _tanh_reference(x):
    out_data = np.tanh(x.data)

    def backward(grad):
        _accumulate(x, grad * (1.0 - out_data * out_data))

    return _node(out_data, (x,), backward)


def _dropout_reference(x, keep_prob, train, seed=0):
    """Inverted dropout with the mask cast to a float array."""
    if not train or keep_prob == 1.0:
        return x
    rng = np.random.Generator(np.random.PCG64(seed))
    mask = (rng.random(x.data.shape) < keep_prob).astype(x.data.dtype)
    scale = 1.0 / keep_prob

    def backward(grad):
        _accumulate(x, grad * mask * scale)

    return _node(x.data * mask * scale, (x,), backward)


def _assert_same_bits(got, expect):
    assert got.dtype == expect.dtype and got.shape == expect.shape
    assert got.tobytes() == expect.tobytes()


def _run_both(op, reference, data, grad, *args):
    """(output, input gradient) of op and of reference on copies of data."""
    results = []
    for fn in (op, reference):
        x = Tensor(data.copy())
        out = fn(x, *args)
        out._backward(grad.copy())
        results.append((out.data, x.grad))
    return results


def _signed_zeros_and_ties(rng, shape, dtype):
    """Values drawn from a few levels, so windows tie, among them -0.0 and
    +0.0; with normal noise on half the entries."""
    levels = np.array([-1.0, -0.0, 0.0, 0.5])
    data = levels[rng.integers(0, len(levels), size=shape)]
    noisy = rng.random(shape) < 0.5
    data[noisy] = rng.normal(size=int(noisy.sum()))
    return data.astype(dtype)


KERNEL_DTYPES = pytest.mark.parametrize("dtype", [np.float32, np.float64])
KERNEL_BATCHES = pytest.mark.parametrize("batch", [1, 3, 16])
# not multiples of P = 8 or of the pooling window 3, and the paper's length
KERNEL_LENGTHS = pytest.mark.parametrize("length", [9, 13, 512])
KERNEL_CHANNELS = (1, 2, 8, 24)


class TestWideRowKernelsMatchReferences:
    @KERNEL_DTYPES
    @KERNEL_BATCHES
    @KERNEL_LENGTHS
    def test_conv_bias(self, dtype, batch, length):
        rng = np.random.Generator(np.random.PCG64(batch * 1000 + length))
        for c_out in KERNEL_CHANNELS:
            for c_in, width in ((1, 10), (3, 1), (2, 20)):
                data = rng.normal(size=(batch, length, c_in)).astype(dtype)
                fb = ConvFilterBank(
                    Tensor(rng.normal(size=(c_out, c_in, width)).astype(dtype)),
                    Tensor(_signed_zeros_and_ties(rng, c_out, dtype)),
                )
                grad = rng.normal(size=(batch, length, c_out)).astype(dtype)
                got, expect = _run_both(conv1d_same, _conv_bias_reference, data, grad, fb)
                _assert_same_bits(got[0], expect[0])
                _assert_same_bits(got[1], expect[1])

    @KERNEL_DTYPES
    @KERNEL_BATCHES
    @KERNEL_LENGTHS
    def test_maxpool_with_ties_signed_zeros_and_nan(self, dtype, batch, length):
        rng = np.random.Generator(np.random.PCG64(batch * 1000 + length + 1))
        for channels in KERNEL_CHANNELS:
            data = _signed_zeros_and_ties(rng, (batch, length, channels), dtype)
            data[0, 1, 0] = np.nan  # the first window of channel 0 holds a NaN
            data[-1, 3:6, -1] = [-0.0, 0.0, -0.0]  # a window of zeros alone
            for window in (3, 2, 1):
                grad = _signed_zeros_and_ties(
                    rng, (batch, length // window, channels), dtype
                )
                got, expect = _run_both(
                    maxpool1d, _maxpool_reference, data, grad, window, window
                )
                nan_window = slice(1 // window * window, (1 // window + 1) * window)
                assert np.isnan(got[0][0, 1 // window, 0])
                assert not np.any(got[1][0, nan_window, 0])  # it routes nothing
                _assert_same_bits(got[0], expect[0])
                _assert_same_bits(got[1], expect[1])

    @KERNEL_DTYPES
    @KERNEL_BATCHES
    @KERNEL_LENGTHS
    def test_tanh(self, dtype, batch, length):
        rng = np.random.Generator(np.random.PCG64(batch * 1000 + length + 2))
        for channels in KERNEL_CHANNELS:
            shape = (batch, length, channels)
            data = 3 * _signed_zeros_and_ties(rng, shape, dtype)
            grad = _signed_zeros_and_ties(rng, shape, dtype)
            got, expect = _run_both(tanh_act, _tanh_reference, data, grad)
            _assert_same_bits(got[0], expect[0])
            _assert_same_bits(got[1], expect[1])

    @KERNEL_DTYPES
    @KERNEL_BATCHES
    @KERNEL_LENGTHS
    def test_dropout(self, dtype, batch, length):
        rng = np.random.Generator(np.random.PCG64(batch * 1000 + length + 3))
        for channels in KERNEL_CHANNELS:
            shape = (batch, length * channels)
            data = _signed_zeros_and_ties(rng, shape, dtype)
            grad = _signed_zeros_and_ties(rng, shape, dtype)
            for keep_prob in (0.8, 0.3):
                got, expect = _run_both(
                    dropout, _dropout_reference, data, grad, keep_prob, True, channels
                )
                _assert_same_bits(got[0], expect[0])
                _assert_same_bits(got[1], expect[1])

    def test_bias_of_another_dtype_is_refused(self):
        # the tiled bias row lives in the filter matrix's allocation
        with pytest.raises(ShapeMismatch, match="dtype"):
            ConvFilterBank(Tensor(np.ones((2, 1, 3), np.float32)), Tensor(np.zeros(2)))

    def test_paper_model_training_matches_reference_kernels(self, monkeypatch):
        rng = np.random.Generator(np.random.PCG64(18))
        features = rng.normal(size=(48, 512)).astype(np.float32)
        labels = rng.integers(0, 4, size=48)

        def run():
            net = model_module.build(model_module.ModelConfig(seed=3))
            history = model_module.train(
                net, features, labels, model_module.TrainConfig(iterations=20, seed=5)
            )
            return net.flat.tobytes(), np.array([r.loss for r in history]).tobytes()

        kernels = run()
        used = collections.Counter()
        for name, reference in [("conv1d_same", _conv_bias_reference),
                                ("maxpool1d", _maxpool_reference),
                                ("tanh_act", _tanh_reference),
                                ("dropout", _dropout_reference)]:
            def counted(*args, _name=name, _reference=reference, **kwargs):
                used[_name] += 1
                return _reference(*args, **kwargs)

            monkeypatch.setattr(model_module, name, counted)
        assert run() == kernels
        assert len(used) == 4
