"""Minimal dense-tensor library with reverse-mode differentiation.

Implements exactly the layer set the classifier needs: 1D convolution
with same-shape zero padding, tanh, max pooling, channel concatenation,
a fused dense+softmax head, inverted dropout, cross-entropy, and Adam.
Tensors carry a [batch, ...] leading axis; the network in this package
uses [B, L, C] for convolutional activations and [B, F] after
flattening. The convolution runs as one GEMM over block-Toeplitz rows,
each covering TOEPLITZ_BLOCK output positions (the input-copy saving of
Cho & Brand, MEC, ICML 2017), forward and backward alike. The elementwise
glue around it runs over wide rows where numpy's loops would otherwise
step through a 2-24 wide channel axis: the bias is added to the GEMM
output's P*C_out-wide rows, and max pooling takes one np.maximum per tap
view instead of a reduce over the window axis. Each keeps the IEEE
operations, and their order, of the plain broadcast or reduce.

Graphs are built define-by-run, and only while gradients are enabled
(the default): every op then returns a new Tensor holding a closure that
routes its output gradient to its parents. Calling ``backward()`` on a
scalar loss fills ``.grad`` on every tensor that participated in
producing it. Inside ``with no_grad():`` every op returns a bare Tensor
with no parents and no closure, so nothing an op computes for its
backward pass (the lowered conv rows, a pooling mask) outlives the op.
conv1d_same skips the input-gradient product for an input whose
requires_grad is False, such as the features forward_batch builds.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import (
    ChannelMismatch,
    InputTooShort,
    InvalidProbability,
    InvalidSetting,
    NotOneHot,
    ShapeMismatch,
)


class Tensor:
    """Dense n-dimensional array plus the autograd bookkeeping."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, dtype=None, parents=(), backward=None):
        self.data = np.asarray(data, dtype=dtype)
        self.grad = None
        # False on an input whose gradient nobody reads; conv1d_same skips it
        self.requires_grad = True
        self._parents = parents
        self._backward = backward

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype})"

    def item(self) -> float:
        return float(self.data)

    def backward(self):
        """Reverse-mode sweep from a scalar; accumulates into .grad fields."""
        if self.data.size != 1:
            raise ShapeMismatch("backward() requires a scalar loss")
        topo = []
        _post_order(self, set(), topo)
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is not None:
                node._backward(node.grad)


def _post_order(node: Tensor, seen: set, topo: list):
    """Append every node reachable from node to topo, each after its parents.

    Module-level on purpose: a recursive closure refers to itself, and that
    cycle would keep every node of the graph alive after backward() returns,
    until the cyclic garbage collector happens to run.
    """
    if id(node) in seen:
        return
    seen.add(id(node))
    for parent in node._parents:
        _post_order(parent, seen, topo)
    topo.append(node)


class _GradMode(threading.local):
    """Per-thread, so inference on one thread leaves training on another intact."""

    enabled = True


_grad_mode = _GradMode()


@contextmanager
def no_grad():
    """Build no graph inside the block; the previous state returns on exit.

    Separate from the ops' ``train`` flags: dropout's mode says what the
    forward pass computes, this switch only whether it can be differentiated.
    """
    previous = _grad_mode.enabled
    _grad_mode.enabled = False
    try:
        yield
    finally:
        _grad_mode.enabled = previous


def _node(data, parents: tuple, backward) -> Tensor:
    """An op's output: a graph node, or a bare Tensor under no_grad()."""
    if _grad_mode.enabled:
        return Tensor(data, parents=parents, backward=backward)
    return Tensor(data)


def _accumulate(tensor: Tensor, grad: np.ndarray):
    """Add grad into tensor.grad, keeping grad itself on the first store.

    A view (a reshape, a split piece) is copied, because a later += would
    write through it into the array it views. Backward closures hand over
    arrays they have just computed, never one they captured.
    """
    if tensor.grad is None:
        tensor.grad = grad if grad.flags.owndata else grad.copy()
    else:
        tensor.grad += grad


@dataclass
class ConvFilterBank:
    """Learnable 1D filters: weights [out_channels, in_channels, width]."""

    weights: Tensor
    biases: Tensor

    def __post_init__(self):
        if self.weights.data.ndim != 3:
            raise ShapeMismatch("conv weights must be [out, in, width]")
        if self.biases.data.shape != (self.weights.data.shape[0],):
            raise ShapeMismatch("conv biases must be [out_channels]")
        if self.biases.data.dtype != self.weights.data.dtype:
            # conv1d_same tiles the biases into the filter matrix's allocation
            raise ShapeMismatch("conv biases must have the weights' dtype")

    @property
    def out_channels(self):
        return self.weights.data.shape[0]

    @property
    def in_channels(self):
        return self.weights.data.shape[1]

    @property
    def width(self):
        return self.weights.data.shape[2]


# Output positions per GEMM row of the block-Toeplitz convolution.
TOEPLITZ_BLOCK = 8


def _taps(matrix: np.ndarray, c_in: int, width: int) -> np.ndarray:
    """[P, w, in, out] strided view of the filter taps in a C-contiguous
    [(P+w-1)*in, P*out] block-Toeplitz matrix: element (p, j, ci, co) is
    entry ((p+j)*in + ci, p*out + co), where W[co, ci, j] sits for every
    output slot p. The P copies of one tap lie on distinct entries.
    """
    row = matrix.strides[0]
    c_out = matrix.shape[1] // TOEPLITZ_BLOCK
    return np.ndarray(
        (TOEPLITZ_BLOCK, width, c_in, c_out),
        matrix.dtype,
        matrix,
        strides=(row * c_in + matrix.strides[1] * c_out, row * c_in, row, matrix.strides[1]),
    )


def _toeplitz(weights: np.ndarray, bias: np.ndarray | None = None):
    """[out, in, w] filters -> the [(P+w-1)*in, P*out] block-Toeplitz matrix
    and the [P*out] bias row: the bias tiled P times (zero without one).

    The bias row is one more row of the matrix's allocation, so tiling it
    costs one small write per call and no array of its own.
    """
    c_out, c_in, width = weights.shape
    rows = (TOEPLITZ_BLOCK + width - 1) * c_in
    block = np.zeros((rows + 1, TOEPLITZ_BLOCK * c_out), dtype=weights.dtype)
    _taps(block, c_in, width)[...] = weights.transpose(2, 1, 0)
    if bias is not None:
        block[rows].reshape(TOEPLITZ_BLOCK, c_out)[...] = bias
    return block[:rows], block[rows]


def _toeplitz_rows(data: np.ndarray, w: int, pad_left: int) -> np.ndarray:
    """[B, L, C] -> [B*ceil(L/P), (P+w-1)*C]: row (b, k) holds the zero-padded
    positions k*P .. k*P+P+w-2, the inputs of output positions k*P .. k*P+P-1.

    The input is copied once into a zeroed [B, ceil(L/P)*P + w-1, C] buffer
    with pad_left leading rows; each output row is then one contiguous run
    of that buffer, read through a read-only strided view whose rows
    overlap. The final reshape is free at B=1 and otherwise copies
    (P+w-1)/P values per input value, not w as a one-position-per-row
    lowering (im2col) would.
    """
    batch, length, channels = data.shape
    blocks = -(-length // TOEPLITZ_BLOCK)
    padded = np.zeros((batch, blocks * TOEPLITZ_BLOCK + w - 1, channels), dtype=data.dtype)
    padded[:, pad_left : pad_left + length] = data
    windows = np.ndarray(
        (batch, blocks, (TOEPLITZ_BLOCK + w - 1) * channels),
        data.dtype,
        padded,
        strides=(padded.strides[0], padded.strides[1] * TOEPLITZ_BLOCK, padded.strides[2]),
    )
    windows.flags.writeable = False
    return windows.reshape(batch * blocks, -1)


def _toeplitz_product(rows: np.ndarray, matrix: np.ndarray, batch: int, length: int,
                      bias_row: np.ndarray | None = None):
    """rows @ matrix (+ bias_row) as [B, L, C_out]: an array of its own when
    P divides L, else a view trimming the zero-padded tail of one.

    The bias row is added to the product's [B*ceil(L/P), P*C_out] rows, so
    each output gets the same one add as a broadcast over C_out, but
    numpy's loop runs P*C_out wide instead of C_out.
    """
    c_out = matrix.shape[1] // TOEPLITZ_BLOCK
    blocks = -(-length // TOEPLITZ_BLOCK)
    out = np.empty(
        (batch, blocks * TOEPLITZ_BLOCK, c_out), dtype=np.result_type(rows, matrix)
    )
    out2d = out.reshape(rows.shape[0], matrix.shape[1])
    np.matmul(rows, matrix, out=out2d)
    if bias_row is not None:
        out2d += bias_row
    return out if blocks * TOEPLITZ_BLOCK == length else out[:, :length]


def conv1d_same(x: Tensor, bank: ConvFilterBank) -> Tensor:
    """Zero-padded stride-1 cross-correlation, pre-activation.

    Input [B, L, C_in] -> output [B, L, C_out]. Padding is
    floor((w-1)/2) left, ceil((w-1)/2) right, so output length always
    equals input length. tanh is applied by the caller.

    Lowered to one GEMM by block-Toeplitz rows: each row of
    `_toeplitz_rows` covers P = TOEPLITZ_BLOCK consecutive output
    positions, and the filters are written into a [(P+w-1)*C_in,
    P*C_out] matrix with one assignment through its strided tap view
    (`_taps`), so the product is P*C_out columns wide. It does
    (P+w-1)/w times the multiply-adds of the direct sum, the extra ones by
    zero. The backward pass reuses the rows for the matrix gradient and
    sums its P copies of each tap through the same view; it runs the same
    lowering on the gradient for the input gradient, which it skips when
    x.requires_grad is False.
    """
    if x.data.ndim != 3:
        raise ShapeMismatch(f"conv input must be [B, L, C], got {x.shape}")
    if x.data.shape[2] != bank.in_channels:
        raise ChannelMismatch(
            f"input has {x.data.shape[2]} channels, bank expects {bank.in_channels}"
        )
    batch, length, c_in = x.data.shape
    c_out = bank.out_channels
    w = bank.width
    left = (w - 1) // 2
    right = w - 1 - left

    rows = _toeplitz_rows(x.data, w, left)
    matrix, bias_row = _toeplitz(bank.weights.data, bank.biases.data)
    out_data = _toeplitz_product(rows, matrix, batch, length, bias_row)

    def backward(grad):
        grad2d = grad.reshape(batch * length, c_out)
        _accumulate(bank.biases, np.ones(batch * length, dtype=grad.dtype) @ grad2d)
        tail = -length % TOEPLITZ_BLOCK
        # zero rows for the positions past L that the last block covers
        padded = np.pad(grad, ((0, 0), (0, tail), (0, 0))) if tail else grad
        dtoeplitz = rows.T @ padded.reshape(rows.shape[0], TOEPLITZ_BLOCK * c_out)
        # each tap sits on P diagonals of the matrix; its gradient is their sum
        _accumulate(bank.weights, _taps(dtoeplitz, c_in, w).sum(axis=0).transpose(2, 1, 0))
        if x.requires_grad:
            # transposed convolution: correlate the gradient, padded the other
            # way round, with the flipped filters, in and out swapped
            flipped, _ = _toeplitz(bank.weights.data.transpose(1, 0, 2)[:, :, ::-1])
            grad_rows = _toeplitz_rows(grad, w, right)
            _accumulate(x, _toeplitz_product(grad_rows, flipped, batch, length))

    return _node(out_data, (x,), backward)


def tanh_act(x: Tensor) -> Tensor:
    """Elementwise tanh; gradient is 1 - tanh^2."""
    out_data = np.tanh(x.data)

    def backward(grad):
        # (1 - y*y) * grad in one buffer; the product commutes, so the bits
        # equal those of grad * (1 - y*y)
        dx = np.multiply(out_data, out_data)
        np.subtract(1.0, dx, out=dx)
        np.multiply(dx, grad, out=dx)
        _accumulate(x, dx)

    return _node(out_data, (x,), backward)


def maxpool1d(x: Tensor, window: int = 3, stride: int = 3) -> Tensor:
    """Max pooling over the length axis of [B, L, C].

    Trailing positions that do not fill a window are dropped. The
    gradient routes to the first maximal position of each window.
    """
    if window != stride:
        raise InvalidSetting("only window == stride pooling is supported")
    if x.data.ndim != 3:
        raise ShapeMismatch(f"pool input must be [B, L, C], got {x.shape}")
    batch, length, channels = x.data.shape
    if length < window:
        raise InputTooShort(f"length {length} < pooling window {window}")
    pooled_len = length // window
    kept = pooled_len * window
    trimmed = x.data[:, :kept].reshape(batch, pooled_len, window, channels)
    # one np.maximum per tap over [B, L/w, C] views: the comparisons of
    # trimmed.max(axis=2) in the same order, without its C-wide reduce loop
    if window == 1:
        out_data = trimmed[:, :, 0].copy()
    else:
        out_data = np.maximum(trimmed[:, :, 0], trimmed[:, :, 1])
    for k in range(2, window):
        np.maximum(out_data, trimmed[:, :, k], out=out_data)

    def backward(grad):
        dx = np.empty(x.data.shape, dtype=x.data.dtype)
        dx[:, kept:] = 0
        taps = dx[:, :kept].reshape(batch, pooled_len, window, channels)
        # tap k gets grad * hit, hit where it equals the window max and no
        # earlier tap did; a NaN window equals nothing and routes nothing
        routed = np.equal(trimmed[:, :, 0], out_data)
        np.multiply(grad, routed, out=taps[:, :, 0])
        hit = np.empty_like(routed)
        for k in range(1, window):
            np.equal(trimmed[:, :, k], out_data, out=hit)
            np.greater(hit, routed, out=hit)  # hit and not yet routed
            np.multiply(grad, hit, out=taps[:, :, k])
            routed |= hit
        _accumulate(x, dx)

    return _node(out_data, (x,), backward)


def concat_channels(tensors: list[Tensor]) -> Tensor:
    """Concatenate [B, L, C_i] tensors along the channel axis."""
    first = tensors[0].data.shape
    for t in tensors[1:]:
        if t.data.shape[:2] != first[:2]:
            raise ShapeMismatch("channel concat requires matching [B, L]")
    out_data = np.concatenate([t.data for t in tensors], axis=2)
    splits = np.cumsum([t.data.shape[2] for t in tensors])[:-1]

    def backward(grad):
        for t, piece in zip(tensors, np.split(grad, splits, axis=2)):
            _accumulate(t, piece)

    return _node(out_data, tuple(tensors), backward)


def flatten(x: Tensor) -> Tensor:
    """Collapse all non-batch axes: [B, ...] -> [B, F]."""
    batch = x.data.shape[0]
    out_data = x.data.reshape(batch, -1)

    def backward(grad):
        _accumulate(x, grad.reshape(x.data.shape))

    return _node(out_data, (x,), backward)


def dense_softmax(x: Tensor, weights: Tensor, bias: Tensor) -> Tensor:
    """Fully-connected layer followed by a row-wise softmax.

    Logits are shifted by their row max before exponentiation, so the
    output is shift-invariant and never overflows.
    """
    if x.data.ndim != 2:
        raise ShapeMismatch(f"dense input must be [B, F], got {x.shape}")
    if weights.data.ndim != 2 or x.data.shape[1] != weights.data.shape[0]:
        raise ShapeMismatch(
            f"dense weights {weights.data.shape} incompatible with input {x.shape}"
        )
    if bias.data.shape != (weights.data.shape[1],):
        raise ShapeMismatch("dense bias must be [H]")
    logits = x.data @ weights.data + bias.data
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    probs = exp / exp.sum(axis=1, keepdims=True)

    def backward(grad):
        # through the softmax jacobian, then the affine map
        dlogits = probs * (grad - (grad * probs).sum(axis=1, keepdims=True))
        _accumulate(weights, x.data.T @ dlogits)
        _accumulate(bias, dlogits.sum(axis=0))
        _accumulate(x, dlogits @ weights.data.T)

    return _node(probs, (x, weights, bias), backward)


def dropout(x: Tensor, keep_prob: float, train: bool, seed: int = 0) -> Tensor:
    """Inverted dropout: keep with probability keep_prob, scale by its inverse.

    Eval mode is the identity. Deterministic per seed.

    Raises:
        InvalidProbability: keep_prob outside (0, 1].
    """
    if not 0.0 < keep_prob <= 1.0:
        raise InvalidProbability(f"keep_prob must be in (0, 1], got {keep_prob}")
    if not train or keep_prob == 1.0:
        return x
    rng = np.random.Generator(np.random.PCG64(seed))
    mask = rng.random(x.data.shape) < keep_prob
    scale = 1.0 / keep_prob
    # (x * mask) * scale, the bool mask read as 0.0 and 1.0 by the multiply
    out_data = np.multiply(x.data, mask)
    out_data *= scale

    def backward(grad):
        dx = np.multiply(grad, mask)
        dx *= scale
        _accumulate(x, dx)

    return _node(out_data, (x,), backward)


PROB_FLOOR = 1e-12


def cross_entropy(probs: Tensor, one_hot) -> Tensor:
    """Mean negative log-probability of the true class.

    probs is [B, H] (rows summing to 1); one_hot is a matching 0/1
    array with exactly one 1 per row. Probabilities are clipped to
    [1e-12, 1] before the log, so the loss is always finite.

    Raises:
        NotOneHot: label rows are not valid one-hot vectors.
    """
    labels = np.asarray(one_hot)
    if labels.ndim == 1:
        labels = labels[None, :]
    if labels.shape != probs.data.shape:
        raise ShapeMismatch(
            f"labels {labels.shape} do not match probabilities {probs.data.shape}"
        )
    if not (
        np.all((labels == 0) | (labels == 1))
        and np.all(labels.sum(axis=1) == 1)
    ):
        raise NotOneHot("labels must contain exactly one 1 per row")
    batch = probs.data.shape[0]
    clipped = np.clip(probs.data, PROB_FLOOR, 1.0)
    loss = -(labels * np.log(clipped)).sum() / batch

    def backward(grad):
        # clip is flat below the floor, so those entries get no gradient
        inside = probs.data >= PROB_FLOOR
        dp = -(labels * inside) / clipped / batch
        _accumulate(probs, dp * grad)

    return _node(np.asarray(loss, dtype=probs.data.dtype), (probs,), backward)


# --- optimizer ---

# Adam's moment decay rates and denominator floor (Kingma & Ba, ICLR 2015)
_BETA1, _BETA2, _EPSILON = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    """First/second moment accumulators, shaped like the parameter array."""

    m: np.ndarray
    v: np.ndarray
    learning_rate: float = 0.001
    step_count: int = 0

    @classmethod
    def for_params(cls, params: np.ndarray, learning_rate: float = 0.001):
        return cls(np.zeros_like(params), np.zeros_like(params), learning_rate)


def adam_step(params: np.ndarray, grads: np.ndarray, state: AdamState):
    """One bias-corrected Adam update of a parameter array, in place.

    Adam is elementwise, so one update over a model's flat parameter array
    equals the update of each parameter tensor on its own.
    """
    if not params.shape == grads.shape == state.m.shape:
        raise ShapeMismatch(
            f"params {params.shape}, grads {grads.shape} and state {state.m.shape} differ"
        )
    state.step_count += 1
    t = state.step_count
    state.m = _BETA1 * state.m + (1.0 - _BETA1) * grads
    state.v = _BETA2 * state.v + (1.0 - _BETA2) * grads * grads
    m_hat = state.m / (1.0 - _BETA1**t)
    v_hat = state.v / (1.0 - _BETA2**t)
    params -= state.learning_rate * m_hat / (np.sqrt(v_hat) + _EPSILON)


# --- numerical validation ---

def max_relative_error(a, b) -> float:
    """max |a-b| / max(|a|, |b|, 1e-8), elementwise over arrays."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-8)
    return float(np.max(np.abs(a - b) / denom))


def grad_check(loss_fn, params: list[Tensor], h: float = 1e-5,
               n_samples: int = 24, seed: int = 0) -> float:
    """Compare analytic gradients against central finite differences.

    loss_fn() must rebuild the loss graph from the current parameter
    values (and must be deterministic: dropout off). Samples n_samples
    parameter entries uniformly across all tensors and returns the
    worst relative error.
    """
    for p in params:
        p.grad = None
    loss_fn().backward()
    analytic = [
        p.grad if p.grad is not None else np.zeros_like(p.data) for p in params
    ]

    sizes = np.array([p.data.size for p in params])
    total = int(sizes.sum())
    rng = np.random.Generator(np.random.PCG64(seed))
    picks = rng.choice(total, size=min(n_samples, total), replace=False)
    offsets = np.concatenate([[0], np.cumsum(sizes)])

    worst = 0.0
    for pick in picks:
        which = int(np.searchsorted(offsets, pick, side="right") - 1)
        index = int(pick - offsets[which])
        param = params[which]
        original = param.data.flat[index]
        param.data.flat[index] = original + h
        plus = float(loss_fn().data)
        param.data.flat[index] = original - h
        minus = float(loss_fn().data)
        param.data.flat[index] = original
        numeric = (plus - minus) / (2.0 * h)
        worst = max(worst, max_relative_error(analytic[which].flat[index], numeric))
    return worst
