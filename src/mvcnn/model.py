"""The three-view convolutional classifier: assembly, training, serialization,
gradient checking.

Architecture: the [1, L, 1] feature vector feeds three parallel stacks
of width-10/15/20 convolutions (three tanh layers each, channel
progression 1 -> 2 -> 4 -> 8). The stacks' outputs are concatenated on
the channel axis, max-pooled 3/3, flattened, passed through dropout and
a dense+softmax head. A single-view ablation is the same code path with
one stack.

Training and the gradient check run the network on the autograd tape
(`forward_batch`); inference runs it through a `ServingPlan(model,
rows)`, which repeats the tape's forward arithmetic, bit for bit, on
read-only copies of the weights and buffers of its own, sized for the
one row count it serves (`predict` builds a second plan for a shorter
last chunk, so each chunk runs the GEMMs of its own rows).
`forward_batch` checks the feature shape of every tape pass, so `train`
and `gradient_check` need no shape check of their own; `predict` checks
its matrix once per call, and `wasn.server_classify` each payload.
"""

from __future__ import annotations

import math
import operator
import struct
from dataclasses import dataclass

import numpy as np

from .autograd import (
    POOL_WINDOW,
    TOEPLITZ_BLOCK,
    AdamState,
    ConvFilterBank,
    Tensor,
    adam_step,
    concat_channels,
    conv1d_same,
    cross_entropy,
    dense_softmax,
    dropout,
    flatten,
    maxpool1d,
    tanh_act,
    _toeplitz,
    _toeplitz_windows,
)
from .errors import (
    BadMagic,
    EmptyDataset,
    InvalidSetting,
    LabelOutOfRange,
    LengthMismatch,
    TrailingBytes,
)
from .spectral import NormStats

MODEL_MAGIC = b"MVC1"
MODEL_VERSION = 3
FLOAT_TYPES = {4: np.float32, 8: np.float64}  # keyed by item size, the file's dtype code


@dataclass(frozen=True)
class ModelConfig:
    input_len: int = 512
    n_classes: int = 4
    view_widths: tuple = (10, 15, 20)
    layer_depths: tuple = (2, 4, 8)
    keep_prob: float = 0.8
    seed: int = 0
    dtype: type = np.float32

    def __post_init__(self):
        """Raises InvalidSetting for a config no architecture realizes."""
        if self.input_len < POOL_WINDOW:
            raise InvalidSetting(f"input_len {self.input_len} < pool window {POOL_WINDOW}")
        if self.n_classes < 2:
            raise InvalidSetting("need at least two classes")
        sizes = (*self.view_widths, *self.layer_depths)
        if not self.view_widths or not self.layer_depths or min(sizes) < 1:
            raise InvalidSetting("view_widths and layer_depths must be nonempty, positive")
        if not 0.0 < self.keep_prob <= 1.0:
            raise InvalidSetting(f"keep_prob must be in (0, 1], got {self.keep_prob}")
        if self.dtype not in FLOAT_TYPES.values():
            raise InvalidSetting(f"dtype must be float32 or float64, got {self.dtype!r}")
        if not 0 <= self.seed < 2**64:
            raise InvalidSetting(f"seed must be in [0, 2**64), got {self.seed}")


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.001
    iterations: int = 200
    batch_size: int = 16
    seed: int = 0

    def __post_init__(self):
        """Raises InvalidSetting for settings that train nothing or train NaN."""
        lr = self.learning_rate
        if not (math.isfinite(lr) and lr > 0):
            raise InvalidSetting(f"learning rate must be finite and positive, got {lr}")
        for name, low in (("iterations", 0), ("batch_size", 1), ("seed", 0)):
            value = getattr(self, name)
            try:
                operator.index(value)  # what range() and rng.choice() take
            except TypeError:
                raise InvalidSetting(f"{name} must be an integer, got {value!r}") from None
            if value < low:
                raise InvalidSetting(f"{name} must be >= {low}, got {value}")


@dataclass
class TrainRecord:
    iteration: int
    loss: float
    val_accuracy: float | None = None


class MultiViewCnn:
    """Parameter set and architecture config of the multi-view network.

    Every parameter Tensor is a view of the one flat array `flat`, in
    _parameter_shapes(config) order, so Adam and save/load work on `flat`
    while the layers read their own slices of it.
    """

    def __init__(self, config: ModelConfig, flat: np.ndarray, norm_stats):
        self.config = config
        self.flat = flat
        self.norm_stats = norm_stats
        self._params = params = [Tensor(view) for view in _views(flat, config)]
        banks = [ConvFilterBank(w, b) for w, b in zip(params[:-2:2], params[1:-2:2])]
        depth = len(config.layer_depths)
        self.views = [banks[i : i + depth] for i in range(0, len(banks), depth)]  # per view
        self.fc_weights, self.fc_bias = params[-2:]

    def parameters(self) -> list[Tensor]:
        return list(self._params)


def _parameter_shapes(config: ModelConfig) -> list[tuple]:
    """Shapes of parameters(), in order: per view and layer the [out, in,
    width] filters then the [out] biases; then the [flat, H] dense weights
    and the [H] bias. MultiViewCnn.flat holds them back to back in this
    order, in memory and in the model file."""
    shapes = []
    for width in config.view_widths:
        in_ch = 1
        for out_ch in config.layer_depths:
            shapes += [(out_ch, in_ch, width), (out_ch,)]
            in_ch = out_ch
    flat = config.input_len // POOL_WINDOW * config.layer_depths[-1] * len(config.view_widths)
    return shapes + [(flat, config.n_classes), (config.n_classes,)]


def _views(flat: np.ndarray, config: ModelConfig) -> list[np.ndarray]:
    """Consecutive views of flat, one per _parameter_shapes(config) entry."""
    views, start = [], 0
    for shape in _parameter_shapes(config):
        size = math.prod(shape)
        views.append(flat[start : start + size].reshape(shape))
        start += size
    return views


def _bind_grads(model: MultiViewCnn) -> np.ndarray:
    """A zeroed array shaped like model.flat whose views become the
    parameters' .grad fields, so backward adds each parameter's gradient
    into its slice of it."""
    grads = np.zeros_like(model.flat)
    for p, view in zip(model.parameters(), _views(grads, model.config)):
        p.grad = view
    return grads


def build(config: ModelConfig) -> MultiViewCnn:
    """Initialize a model with seeded Glorot-uniform weights, zero biases,
    drawn in parameters() order.

    Raises:
        InvalidSetting: the parameter array cannot be allocated.
    """
    rng = np.random.Generator(np.random.PCG64(config.seed))
    count = sum(math.prod(s) for s in _parameter_shapes(config))
    try:
        flat = np.zeros(count, dtype=config.dtype)
    except MemoryError:
        raise InvalidSetting(f"cannot allocate a model of {count} parameters") from None
    for view in _views(flat, config):
        shape = view.shape
        if len(shape) > 1:  # fans in*w, out*w of an [out, in, w] filter; F, H of [F, H]
            limit = np.sqrt(6.0 / ((shape[0] + shape[1]) * math.prod(shape[2:])))
            view[...] = rng.uniform(-limit, limit, size=shape)
    return MultiViewCnn(config, flat, NormStats.identity(config.input_len))


def forward_batch(
    model: MultiViewCnn, features: np.ndarray, train: bool = False,
    dropout_seed: int = 0,
) -> Tensor:
    """Run a [B, L] batch through the network; returns [B, H] probabilities."""
    features = np.asarray(features)
    if features.ndim != 2 or features.shape[1] != model.config.input_len:
        raise LengthMismatch(
            f"expected [B, {model.config.input_len}] features, got {features.shape}"
        )
    x = Tensor(
        features.astype(model.config.dtype).reshape(
            features.shape[0], model.config.input_len, 1
        )
    )
    x.requires_grad = False  # nothing reads the features' gradient
    view_outs = []
    for banks in model.views:
        h = x
        for bank in banks:
            h = tanh_act(conv1d_same(h, bank))
        view_outs.append(h)
    flat = flatten(maxpool1d(concat_channels(view_outs)))
    dropped = dropout(flat, model.config.keep_prob, train, dropout_seed)
    return dense_softmax(dropped, model.fc_weights, model.fc_bias)


class ServingPlan:
    """Eval-mode inference of one model, `rows` rows per call, on buffers
    of its own.

    `probabilities` runs forward_batch(..., train=False)'s operations in
    the tape's order on read-only copies of the model's parameters, with
    every intermediate written into the plan's buffers, so a call builds
    no graph and allocates almost nothing.

    The plan copies what it reads: each bank's `_toeplitz` matrix and bias
    row, the dense weights and bias, and the normalisation statistics, all
    read-only. It owns each layer's zero-padded input, whose pads stay
    zero because each tanh writes only the next layer's length-L slice
    (the last layer of a view writes its channels of the concat buffer);
    one lowered-row and one product buffer that every layer reuses; and
    the concat, pool and output buffers. Nothing is cached on the model,
    so a plan keeps the weights it was built with, and serving a later
    `train`'s weights takes a new plan.
    """

    def __init__(self, model: MultiViewCnn, rows: int):
        cfg = self.config = model.config
        self.rows = rows
        length, dtype = cfg.input_len, cfg.dtype
        blocks = -(-length // TOEPLITZ_BLOCK)
        banks = [bank for view in model.views for bank in view]
        span = max((TOEPLITZ_BLOCK + b.width - 1) * b.weights.data.shape[1] for b in banks)
        lowered = np.empty(rows * blocks * span, dtype=dtype)
        product = np.empty(rows * blocks * TOEPLITZ_BLOCK * max(b.out_channels for b in banks),
                           dtype=dtype)
        channels = [view[-1].out_channels for view in model.views]
        concat = np.empty((rows, length, sum(channels)), dtype=dtype)
        self._views, start = [], 0
        for banks, c_last in zip(model.views, channels):
            inputs, layers = [], []
            for bank in banks:
                c_out, c_in, width = bank.weights.data.shape
                padded = np.zeros((rows, blocks * TOEPLITZ_BLOCK + width - 1, c_in), dtype=dtype)
                left = (width - 1) // 2
                inputs.append(padded[:, left : left + length])
                windows = _toeplitz_windows(padded, width)
                matrix, bias_row = _toeplitz(bank.weights.data, bank.biases.data)
                matrix.flags.writeable = bias_row.flags.writeable = False
                size = windows[0].size
                out = product[: rows * blocks * TOEPLITZ_BLOCK * c_out]
                layers.append([
                    windows, lowered[: rows * size].reshape(windows.shape),
                    lowered[: rows * size].reshape(rows * blocks, -1), matrix,
                    out.reshape(rows * blocks, -1), bias_row,
                    out.reshape(rows, -1, c_out)[:, :length],
                ])
            outputs = inputs[1:] + [concat[:, :, start : start + c_last]]
            self._views.append((inputs[0], [(*layer, o) for layer, o in zip(layers, outputs)]))
            start += c_last
        pooled_len = length // POOL_WINDOW
        windows = concat[:, : pooled_len * POOL_WINDOW].reshape(rows, pooled_len, POOL_WINDOW, -1)
        self._taps = [windows[:, :, k] for k in range(POOL_WINDOW)]
        self._pooled = np.empty((rows, pooled_len, start), dtype=dtype)
        self._flat = self._pooled.reshape(rows, -1)
        self._weights, self._bias = (np.array(p.data) for p in (model.fc_weights, model.fc_bias))
        self.norm_stats = NormStats(np.array(model.norm_stats.mean),
                                    np.array(model.norm_stats.std))
        for array in (self._weights, self._bias, self.norm_stats.mean, self.norm_stats.std):
            array.flags.writeable = False
        self._logits = np.empty((rows, cfg.n_classes), dtype=dtype)
        self._peaks = np.empty((rows, 1), dtype=dtype)

    def probabilities(self, features: np.ndarray) -> np.ndarray:
        """[rows, H] probabilities of [rows, L] features: bit for bit those
        of forward_batch(model, features).

        The result is the plan's output buffer, which the next call
        overwrites. Nothing is checked here: predict and server_classify
        check the features where they enter.
        """
        for inputs, layers in self._views:
            np.copyto(inputs, features[:, :, None])
            for windows, lowered, rows2d, matrix, product, bias_row, trimmed, outputs in layers:
                np.copyto(lowered, windows)
                np.matmul(rows2d, matrix, out=product)
                product += bias_row
                np.tanh(trimmed, out=outputs)
        taps, pooled, logits, peaks = self._taps, self._pooled, self._logits, self._peaks
        np.maximum(taps[0], taps[1], out=pooled)
        for tap in taps[2:]:
            np.maximum(pooled, tap, out=pooled)
        np.matmul(self._flat, self._weights, out=logits)
        logits += self._bias
        # the reductions of dense_softmax's .max and .sum, without their wrappers
        np.maximum.reduce(logits, axis=1, keepdims=True, out=peaks)
        np.subtract(logits, peaks, out=logits)
        np.exp(logits, out=logits)
        np.add.reduce(logits, axis=1, keepdims=True, out=peaks)
        np.divide(logits, peaks, out=logits)
        return logits


# Rows per predict() pass, the training batch size: chunks of 8 to 32 rows
# ran equally fast, and larger ones were slower and raised the process's
# peak memory.
PREDICT_CHUNK = 16


def predict(model: MultiViewCnn, features: np.ndarray) -> np.ndarray:
    """Eval-mode argmax labels for a [n, L] feature matrix, PREDICT_CHUNK
    rows per pass: the full chunks share one `ServingPlan(model,
    PREDICT_CHUNK)`, and a shorter last chunk takes a plan of its size.

    Builds no autograd graph.

    Raises:
        LengthMismatch: features is not an [n, L] matrix.
    """
    features = np.asarray(features)
    if features.ndim != 2 or features.shape[1] != model.config.input_len:
        raise LengthMismatch(
            f"expected [n, {model.config.input_len}] features, got {features.shape}"
        )
    out = np.empty(len(features), dtype=np.int64)
    plan = None
    for start in range(0, len(features), PREDICT_CHUNK):
        chunk = features[start : start + PREDICT_CHUNK]
        if plan is None or plan.rows != len(chunk):
            plan = ServingPlan(model, len(chunk))
        out[start : start + len(chunk)] = np.argmax(plan.probabilities(chunk), axis=1)
    return out


def accuracy(model: MultiViewCnn, features: np.ndarray, labels: np.ndarray) -> float:
    return float(np.mean(predict(model, features) == np.asarray(labels)))


def train(
    model: MultiViewCnn,
    features: np.ndarray,
    labels: np.ndarray,
    cfg: TrainConfig = TrainConfig(),
    validation: tuple | None = None,
) -> list[TrainRecord]:
    """Minibatch Adam training; returns the per-iteration history.

    Each iteration draws a seeded minibatch without replacement,
    backpropagates the mean cross-entropy and applies one Adam step.
    Held-out accuracy is recorded every 10 iterations (and at the end)
    when a (features, labels) validation pair is supplied. Fully
    deterministic given (features, labels, model seed, cfg.seed).

    Raises:
        LengthMismatch: not one label per feature row.
        EmptyDataset: no training rows.
        LabelOutOfRange: a label outside 0..n_classes-1.
    """
    features = np.asarray(features)
    labels = np.asarray(labels, dtype=np.int64)
    if len(labels) != len(features):
        raise LengthMismatch(f"{len(labels)} labels for {len(features)} feature rows")
    if len(features) == 0:
        raise EmptyDataset("no training samples")
    n_classes = model.config.n_classes
    if labels.min() < 0 or labels.max() >= n_classes:
        raise LabelOutOfRange(
            f"labels must be in [0, {n_classes}), got [{labels.min()}, {labels.max()}]"
        )

    one_hot = np.eye(n_classes, dtype=model.config.dtype)
    state = AdamState.for_params(model.flat, cfg.learning_rate)
    grads = _bind_grads(model)
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    history = []
    for it in range(cfg.iterations):
        idx = rng.choice(len(features), size=min(cfg.batch_size, len(features)),
                         replace=False)
        probs = forward_batch(
            model,
            features[idx],
            train=True,
            dropout_seed=(cfg.seed * 1_000_003 + it) & 0x7FFFFFFF,
        )
        loss = cross_entropy(probs, one_hot[labels[idx]])
        grads.fill(0)
        loss.backward()
        adam_step(model.flat, grads, state)
        loss_value = float(loss.data)
        del probs, loss  # free this step's graph before the next forward pass

        val_acc = None
        if validation is not None and ((it + 1) % 10 == 0 or it == cfg.iterations - 1):
            val_acc = accuracy(model, validation[0], validation[1])
        history.append(TrainRecord(it, loss_value, val_acc))
    return history


# --- serialization ---

# magic, version, input_len, n_classes, n_views, n_layers, keep_prob, dtype code, seed
_HEADER = struct.Struct("<4sHIIIIdBQ")


def save(model: MultiViewCnn, path) -> None:
    """Write the model as a little-endian version-3 MVC1 file.

    The header holds every ModelConfig field, the flat parameter array
    follows in the model's own dtype, then the input_len f64 means and
    the input_len f64 stds of the normalisation statistics, so load()
    returns an equal config, bit-identical parameters and equal stats.

    Raises:
        LengthMismatch: the stats do not hold input_len values, so load()
        could not find where the file ends; nothing is written.
    """
    cfg = model.config
    if len(model.norm_stats.mean) != cfg.input_len:
        raise LengthMismatch(
            f"norm stats hold {len(model.norm_stats.mean)} values, not {cfg.input_len}"
        )
    dtype = np.dtype(cfg.dtype).newbyteorder("<")
    out = bytearray(_HEADER.pack(
        MODEL_MAGIC, MODEL_VERSION, cfg.input_len, cfg.n_classes, len(cfg.view_widths),
        len(cfg.layer_depths), cfg.keep_prob, dtype.itemsize, cfg.seed,
    ))
    sizes = (*cfg.view_widths, *cfg.layer_depths)
    out += struct.pack(f"<{len(sizes)}I", *sizes)
    out += model.flat.astype(dtype).tobytes()
    out += model.norm_stats.mean.astype("<f8").tobytes()
    out += model.norm_stats.std.astype("<f8").tobytes()
    with open(path, "wb") as fh:
        fh.write(bytes(out))


def load(path) -> MultiViewCnn:
    """Read a model saved by save(): equal config, bit-exact parameters
    and normalisation statistics.

    Every declared size is checked against the file length before any
    array is allocated, and the file must end exactly where the header
    says. Files of other versions are refused; retrain such a model from
    the flags in its .history.csv header.

    Raises:
        BadMagic: wrong magic, a format version other than MODEL_VERSION,
        no views, unknown dtype code, or truncated.
        InvalidSetting: the header declares a config build() rejects.
        TrailingBytes: bytes after the normalisation statistics.
    """
    with open(path, "rb") as fh:
        blob = fh.read()

    def need(end):
        if len(blob) < end:
            raise BadMagic("model file truncated")

    need(_HEADER.size)
    (magic, version, input_len, n_classes, n_views, n_layers, keep_prob, itemsize,
     seed) = _HEADER.unpack_from(blob)
    if magic != MODEL_MAGIC:
        raise BadMagic(f"expected {MODEL_MAGIC!r}, got {magic!r}")
    if version != MODEL_VERSION:
        raise BadMagic(
            f"model file version {version} is not {MODEL_VERSION}; retrain the "
            "model from the flags in its .history.csv header"
        )
    if n_views == 0:
        raise BadMagic("model file declares no views")
    if itemsize not in FLOAT_TYPES:
        raise BadMagic(f"unknown dtype code {itemsize}")
    pos = _HEADER.size + 4 * (n_views + n_layers)
    need(pos)
    sizes = struct.unpack_from(f"<{n_views + n_layers}I", blob, _HEADER.size)
    config = ModelConfig(
        input_len=input_len, n_classes=n_classes, view_widths=sizes[:n_views],
        layer_depths=sizes[n_views:], keep_prob=keep_prob, seed=seed,
        dtype=FLOAT_TYPES[itemsize],
    )

    count = sum(math.prod(s) for s in _parameter_shapes(config))
    stats_at = pos + itemsize * count
    end = stats_at + 16 * input_len
    need(end)
    if len(blob) > end:
        raise TrailingBytes(f"{len(blob) - end} bytes after the normalisation statistics")

    flat = np.frombuffer(blob, np.dtype(config.dtype).newbyteorder("<"), count, pos)
    stats = np.frombuffer(blob, "<f8", 2 * input_len, stats_at).astype(np.float64)
    mean, std = stats.reshape(2, input_len)
    return MultiViewCnn(config, flat.astype(config.dtype), NormStats(mean, std))


# Central-difference step of gradient_check, in parameter units.
GRADCHECK_STEP = 1e-5


def max_relative_error(a, b) -> float:
    """max |a-b| / max(|a|, |b|, 1e-8), elementwise over arrays."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-8)
    return float(np.max(np.abs(a - b) / denom))


def gradient_check(
    model: MultiViewCnn, features: np.ndarray, label: int, n_samples: int, seed: int,
) -> float:
    """Finite-difference validation of the full model's gradients.

    Compares the backward pass's gradient with the central difference of
    the loss at n_samples entries of model.flat, drawn without replacement
    from PCG64(seed) (every entry when n_samples exceeds their count), each
    perturbed by GRADCHECK_STEP and then restored. Runs with dropout
    disabled; the model should be built with dtype=np.float64 for a
    meaningful comparison. Returns the worst relative error.

    Raises:
        InvalidSetting: n_samples below 1, which would check nothing.
        LabelOutOfRange: label outside 0..n_classes-1 (a non-integer raises TypeError).
    """
    if n_samples < 1:
        raise InvalidSetting(f"n_samples must be >= 1, got {n_samples}")
    label = operator.index(label)  # as TrainConfig takes its counts
    if not 0 <= label < model.config.n_classes:
        raise LabelOutOfRange(f"label must be in [0, {model.config.n_classes}), got {label}")
    rows = np.asarray(features)[None, :]
    one_hot = np.eye(model.config.n_classes, dtype=model.config.dtype)[[label]]

    def loss():
        return cross_entropy(forward_batch(model, rows), one_hot)

    grads = _bind_grads(model)
    loss().backward()
    flat = model.flat
    rng = np.random.Generator(np.random.PCG64(seed))
    worst = 0.0
    for i in rng.choice(flat.size, size=min(n_samples, flat.size), replace=False):
        original = flat[i]
        flat[i] = original + GRADCHECK_STEP
        plus = float(loss().data)
        flat[i] = original - GRADCHECK_STEP
        minus = float(loss().data)
        flat[i] = original
        numeric = (plus - minus) / (2.0 * GRADCHECK_STEP)
        worst = max(worst, max_relative_error(grads[i], numeric))
    return worst
