"""The three-view convolutional classifier: assembly, training, serialization.

Architecture: the [1, L, 1] feature vector feeds three parallel stacks
of width-10/15/20 convolutions (three tanh layers each, channel
progression 1 -> 2 -> 4 -> 8). The stacks' outputs are concatenated on
the channel axis, max-pooled 3/3, flattened, passed through dropout and
a dense+softmax head. A single-view ablation is the same code path with
one stack.
"""

from __future__ import annotations

import math
import operator
import struct
from dataclasses import dataclass

import numpy as np

from .autograd import (
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
    grad_check,
    maxpool1d,
    no_grad,
    tanh_act,
)
from .errors import (
    BadMagic,
    EmptyDataset,
    InvalidConfig,
    InvalidSetting,
    LabelOutOfRange,
    LengthMismatch,
    TrailingBytes,
    VersionMismatch,
)
from .spectral import NormStats

MODEL_MAGIC = b"MVC1"
MODEL_VERSION = 2
POOL_WINDOW = 3
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
        """Raises InvalidConfig for a config no architecture realizes."""
        if self.input_len < POOL_WINDOW:
            raise InvalidConfig(f"input_len {self.input_len} < pool window {POOL_WINDOW}")
        if self.n_classes < 2:
            raise InvalidConfig("need at least two classes")
        sizes = (*self.view_widths, *self.layer_depths)
        if not self.view_widths or not self.layer_depths or min(sizes) < 1:
            raise InvalidConfig("view_widths and layer_depths must be nonempty, positive")
        if not 0.0 < self.keep_prob <= 1.0:
            raise InvalidConfig(f"keep_prob must be in (0, 1], got {self.keep_prob}")
        if self.dtype not in FLOAT_TYPES.values():
            raise InvalidConfig(f"dtype must be float32 or float64, got {self.dtype!r}")
        if not 0 <= self.seed < 2**64:
            raise InvalidConfig(f"seed must be in [0, 2**64), got {self.seed}")


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

    @property
    def flat_features(self) -> int:
        return self.fc_weights.shape[0]


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


def build(config: ModelConfig) -> MultiViewCnn:
    """Initialize a model with seeded Glorot-uniform weights, zero biases,
    drawn in parameters() order."""
    rng = np.random.Generator(np.random.PCG64(config.seed))
    flat = np.zeros(sum(math.prod(s) for s in _parameter_shapes(config)), dtype=config.dtype)
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
        assert h.shape[1] == model.config.input_len  # same padding holds per layer
        view_outs.append(h)
    merged = view_outs[0] if len(view_outs) == 1 else concat_channels(view_outs)
    flat = flatten(maxpool1d(merged, POOL_WINDOW, POOL_WINDOW))
    dropped = dropout(flat, model.config.keep_prob, train, dropout_seed)
    return dense_softmax(dropped, model.fc_weights, model.fc_bias)


def forward(model: MultiViewCnn, features: np.ndarray, train: bool = False,
            dropout_seed: int = 0) -> np.ndarray:
    """Probability vector [H] for a single feature vector of length L.

    Runs under no_grad(), so no backward graph is built for the row.
    """
    features = np.asarray(features)
    if features.ndim != 1:
        raise LengthMismatch(f"expected a flat feature vector, got {features.shape}")
    with no_grad():
        return forward_batch(model, features[None, :], train, dropout_seed).data[0]


def predict(model: MultiViewCnn, features: np.ndarray, chunk: int = 16) -> np.ndarray:
    """Eval-mode argmax labels for a [n, L] feature matrix, chunk rows per pass.

    Builds no autograd graph, so each conv's lowered input rows are freed as
    soon as its product is taken. The default chunk is the training batch size:
    chunks of 8 to 32 rows ran equally fast, and larger ones were slower and
    raised the process's peak memory.
    """
    features = np.asarray(features)
    out = np.empty(len(features), dtype=np.int64)
    with no_grad():
        for start in range(0, len(features), chunk):
            probs = forward_batch(model, features[start : start + chunk], train=False)
            out[start : start + chunk] = np.argmax(probs.data, axis=1)
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
        EmptyDataset: no training rows.
        LabelOutOfRange: a label outside 0..n_classes-1.
    """
    features = np.asarray(features)
    labels = np.asarray(labels, dtype=np.int64)
    if len(features) == 0:
        raise EmptyDataset("no training samples")
    n_classes = model.config.n_classes
    if labels.min() < 0 or labels.max() >= n_classes:
        raise LabelOutOfRange(
            f"labels must be in [0, {n_classes}), got [{labels.min()}, {labels.max()}]"
        )

    one_hot = np.eye(n_classes, dtype=model.config.dtype)
    state = AdamState.for_params(model.flat, cfg.learning_rate)
    grads = np.zeros_like(model.flat)
    for p, view in zip(model.parameters(), _views(grads, model.config)):
        p.grad = view  # backward adds each parameter's gradient into its view
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
    """Write the model as a little-endian version-2 MVC1 file.

    The header holds every ModelConfig field, the flat parameter array
    follows in the model's own dtype, then the NRM1 block, so load()
    returns an equal config and bit-identical parameters.
    """
    cfg = model.config
    dtype = np.dtype(cfg.dtype).newbyteorder("<")
    out = bytearray(_HEADER.pack(
        MODEL_MAGIC, MODEL_VERSION, cfg.input_len, cfg.n_classes, len(cfg.view_widths),
        len(cfg.layer_depths), cfg.keep_prob, dtype.itemsize, cfg.seed,
    ))
    sizes = (*cfg.view_widths, *cfg.layer_depths)
    out += struct.pack(f"<{len(sizes)}I", *sizes)
    out += model.flat.astype(dtype).tobytes()
    out += model.norm_stats.to_bytes()
    with open(path, "wb") as fh:
        fh.write(bytes(out))


def load(path) -> MultiViewCnn:
    """Read a model saved by save(): equal config, bit-exact parameters.

    Every declared size is checked against the file length before any
    array is allocated. Version-1 files are refused; retrain the model
    from the flags in its .history.csv header.

    Raises:
        BadMagic: wrong magic, no views, unknown dtype code, or truncated.
        VersionMismatch: format version other than MODEL_VERSION.
        InvalidConfig: the header declares a config build() rejects.
        LengthMismatch: NRM1 block length is not input_len.
        TrailingBytes: bytes after the NRM1 block.
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
        raise VersionMismatch(
            f"model file version {version} is not {MODEL_VERSION}; retrain a "
            "version-1 model from the flags in its .history.csv header"
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
    need(stats_at)
    stats = NormStats.from_bytes(blob[stats_at:])
    if len(stats.mean) != input_len:
        raise LengthMismatch(f"NRM1 block holds {len(stats.mean)} values, not {input_len}")
    if len(blob) > stats_at + 8 + 16 * input_len:
        raise TrailingBytes("bytes after the NRM1 block")

    flat = np.frombuffer(blob, np.dtype(config.dtype).newbyteorder("<"), count, pos)
    return MultiViewCnn(config, flat.astype(config.dtype), stats)


def gradient_check(
    model: MultiViewCnn, features: np.ndarray, label: int,
    h: float = 1e-5, n_samples: int = 24, seed: int = 0,
) -> float:
    """Finite-difference validation of the full model's gradients.

    Runs with dropout disabled; the model should be built with
    dtype=np.float64 for a meaningful comparison. Returns the worst
    relative error over the sampled parameters.
    """
    one_hot = np.eye(model.config.n_classes, dtype=model.config.dtype)[[label]]

    def loss_fn():
        probs = forward_batch(model, np.asarray(features)[None, :], train=False)
        return cross_entropy(probs, one_hot)

    return grad_check(loss_fn, model.parameters(), h=h, n_samples=n_samples, seed=seed)
