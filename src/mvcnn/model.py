"""The three-view convolutional classifier: assembly, training, serialization.

Architecture: the [1, L, 1] feature vector feeds three parallel stacks
of width-10/15/20 convolutions (three tanh layers each, channel
progression 1 -> 2 -> 4 -> 8). The stacks' outputs are concatenated on
the channel axis, max-pooled 3/3, flattened, passed through dropout and
a dense+softmax head. A single-view ablation is the same code path with
one stack.
"""

from __future__ import annotations

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
    LabelOutOfRange,
    LengthMismatch,
    VersionMismatch,
)
from .spectral import NormStats

MODEL_MAGIC = b"MVC1"
MODEL_VERSION = 1
POOL_WINDOW = 3


@dataclass(frozen=True)
class ModelConfig:
    input_len: int = 512
    n_classes: int = 4
    view_widths: tuple = (10, 15, 20)
    layer_depths: tuple = (2, 4, 8)
    keep_prob: float = 0.8
    seed: int = 0
    dtype: type = np.float32


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.001
    iterations: int = 200
    batch_size: int = 16
    seed: int = 0


@dataclass
class TrainRecord:
    iteration: int
    loss: float
    val_accuracy: float | None = None


class MultiViewCnn:
    """Parameter set and architecture config of the multi-view network."""

    def __init__(self, config: ModelConfig, views, fc_weights, fc_bias, norm_stats):
        self.config = config
        self.views = views  # list of [ConvFilterBank, ...] per view
        self.fc_weights = fc_weights
        self.fc_bias = fc_bias
        self.norm_stats = norm_stats

    def parameters(self) -> list[Tensor]:
        params = []
        for banks in self.views:
            for bank in banks:
                params.append(bank.weights)
                params.append(bank.biases)
        params.append(self.fc_weights)
        params.append(self.fc_bias)
        return params

    @property
    def flat_features(self) -> int:
        cfg = self.config
        return (cfg.input_len // POOL_WINDOW) * cfg.layer_depths[-1] * len(
            cfg.view_widths
        )


def _glorot(rng, shape, fan_in, fan_out, dtype):
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape).astype(dtype)


def build(config: ModelConfig) -> MultiViewCnn:
    """Initialize a model with seeded Glorot-uniform weights, zero biases.

    Raises:
        InvalidConfig: architecture cannot be realized (too-short input,
        empty views, bad keep probability).
    """
    if config.input_len < POOL_WINDOW:
        raise InvalidConfig(
            f"input_len {config.input_len} shorter than pooling window {POOL_WINDOW}"
        )
    if config.n_classes < 2:
        raise InvalidConfig("need at least two classes")
    if not config.view_widths or not config.layer_depths:
        raise InvalidConfig("view_widths and layer_depths must be nonempty")
    if not 0.0 < config.keep_prob <= 1.0:
        raise InvalidConfig(f"keep_prob must be in (0, 1], got {config.keep_prob}")
    if any(w < 1 for w in config.view_widths) or any(
        d < 1 for d in config.layer_depths
    ):
        raise InvalidConfig("widths and depths must be positive")

    rng = np.random.Generator(np.random.PCG64(config.seed))
    dtype = config.dtype
    views = []
    for width in config.view_widths:
        banks = []
        in_ch = 1
        for out_ch in config.layer_depths:
            weights = _glorot(
                rng, (out_ch, in_ch, width), in_ch * width, out_ch * width, dtype
            )
            banks.append(
                ConvFilterBank(Tensor(weights), Tensor(np.zeros(out_ch, dtype=dtype)))
            )
            in_ch = out_ch
        views.append(banks)

    flat = (config.input_len // POOL_WINDOW) * config.layer_depths[-1] * len(
        config.view_widths
    )
    fc_w = Tensor(_glorot(rng, (flat, config.n_classes), flat, config.n_classes, dtype))
    fc_b = Tensor(np.zeros(config.n_classes, dtype=dtype))
    return MultiViewCnn(config, views, fc_w, fc_b, NormStats.identity(config.input_len))


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

    Builds no autograd graph, so each conv's im2col buffer is freed as soon
    as its product is taken. The default chunk is the training batch size:
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
    params = model.parameters()
    state = AdamState.for_params(params, cfg.learning_rate)
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
        for p in params:
            p.grad = None
        loss.backward()
        grads = [
            p.grad if p.grad is not None else np.zeros_like(p.data) for p in params
        ]
        adam_step(params, grads, state)
        loss_value = float(loss.data)
        del probs, loss  # free this step's graph before the next forward pass

        val_acc = None
        if validation is not None and ((it + 1) % 10 == 0 or it == cfg.iterations - 1):
            val_acc = accuracy(model, validation[0], validation[1])
        history.append(TrainRecord(it, loss_value, val_acc))
    return history


# --- serialization ---

def _pack_f32(arr: np.ndarray) -> bytes:
    return np.ascontiguousarray(arr, dtype="<f4").tobytes()


def save(model: MultiViewCnn, path) -> None:
    """Write the model as the little-endian MVC1 binary format.

    Raises:
        InvalidConfig: views not three layers deep; MVC1 stores no depth.
    """
    cfg = model.config
    if len(cfg.layer_depths) != 3:
        raise InvalidConfig(f"MVC1 stores 3-layer views, not {len(cfg.layer_depths)}")
    out = bytearray()
    out += struct.pack(
        "<4sHIII",
        MODEL_MAGIC,
        MODEL_VERSION,
        cfg.input_len,
        cfg.n_classes,
        len(cfg.view_widths),
    )
    for width, banks in zip(cfg.view_widths, model.views):
        out += struct.pack("<I", width)
        for bank in banks:
            out += struct.pack("<II", bank.in_channels, bank.out_channels)
            out += _pack_f32(bank.weights.data)
            out += _pack_f32(bank.biases.data)
    out += _pack_f32(model.fc_weights.data)
    out += _pack_f32(model.fc_bias.data)
    out += model.norm_stats.to_bytes()
    with open(path, "wb") as fh:
        fh.write(bytes(out))


class _Reader:
    def __init__(self, blob):
        self.blob = blob
        self.pos = 0

    def unpack(self, fmt):
        size = struct.calcsize(fmt)
        if self.pos + size > len(self.blob):
            raise BadMagic("model file truncated")
        vals = struct.unpack_from(fmt, self.blob, self.pos)
        self.pos += size
        return vals

    def f32(self, count):
        size = 4 * count
        if self.pos + size > len(self.blob):
            raise BadMagic("model file truncated")
        arr = np.frombuffer(self.blob, dtype="<f4", count=count, offset=self.pos)
        self.pos += size
        return arr.copy()


def load(path) -> MultiViewCnn:
    """Read a model saved by save(); bit-exact parameter round trip.

    Raises:
        BadMagic: file does not start with the model magic.
        VersionMismatch: format version unsupported.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    rd = _Reader(blob)
    magic, version, input_len, n_classes, n_views = rd.unpack("<4sHIII")
    if magic != MODEL_MAGIC:
        raise BadMagic(f"expected {MODEL_MAGIC!r}, got {magic!r}")
    if version != MODEL_VERSION:
        raise VersionMismatch(f"unsupported model version {version}")
    if n_views == 0:
        raise BadMagic("model file declares no views")

    widths = []
    views = []
    depths = None
    for _ in range(n_views):
        (width,) = rd.unpack("<I")
        widths.append(width)
        banks = []
        view_depths = []
        for _ in range(3):
            in_ch, out_ch = rd.unpack("<II")
            weights = rd.f32(out_ch * in_ch * width).reshape(out_ch, in_ch, width)
            biases = rd.f32(out_ch)
            banks.append(ConvFilterBank(Tensor(weights), Tensor(biases)))
            view_depths.append(out_ch)
        depths = tuple(view_depths)
        views.append(banks)

    flat = (input_len // POOL_WINDOW) * depths[-1] * n_views
    fc_w = Tensor(rd.f32(flat * n_classes).reshape(flat, n_classes))
    fc_b = Tensor(rd.f32(n_classes))
    stats = NormStats.from_bytes(blob[rd.pos :])
    config = ModelConfig(
        input_len=input_len,
        n_classes=n_classes,
        view_widths=tuple(widths),
        layer_depths=depths,
    )
    return MultiViewCnn(config, views, fc_w, fc_b, stats)


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
