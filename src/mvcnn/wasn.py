"""Node-to-server offload simulator and the framed spectrum upload format.

Nodes run training's feature chain (`evaluation.clip_features`) with a
`NodeConfig`, high-pass on at 200 Hz, and produce one `SpectrumMessage`
per window, stamped on the node's own clock. SPM1 is the format a node
uploads a message in: `encode` and `decode` implement it, and acceptance
criterion 9 round-trips it.
`simulate` skips serialization and hands each message to
`server_classify` in memory; its float32 payload holds the values a
frame would carry. `simulate` builds one `ServingPlan(model, 1)` per
server and fallback model when it starts, and classifies every message
through one of them, one message at a time. A star topology relays
non-hub traffic through node 1. During a node's link outage, or a server
outage, messages are classified on the node by a reduced-class fallback
model; otherwise the server model classifies them. Everything is a pure
function of (scenario, models): no wall clock, no global state. The
simulator streams its audio: each node clip is synthesized when the node
replays it and freed once its messages are out, so memory holds one clip
at a time, however many nodes and clips the scenario has; only the
records grow with it. A scenario that leaves every node without a window
to send is refused once the nodes have run.

Message frame: magic "SPM1", u16 node id, u32 sequence, u64 timestamp
(ms, node clock), u32 feature count, f32 payload, u32 CRC32 over all
preceding bytes. Little-endian throughout.

Scenario files are plain text: `key = value` lines, `[node N]`
sections, `start..end` millisecond ranges for outages, `#` comments.
Repeatable keys: `server_outage` (top level) and `link_outage` (per
node).
"""

from __future__ import annotations

import struct
import zlib
from collections.abc import Sequence
from dataclasses import dataclass, field, fields

import numpy as np

from .audio import AudioClip, SilenceConfig, hop_length
from .errors import (
    BadMagic,
    CrcMismatch,
    InvalidScenario,
    InvalidSetting,
    LengthMismatch,
    MvcnnError,
    TrailingBytes,
    Truncated,
)
from .evaluation import (
    PipelineConfig,
    SyntheticClips,
    SyntheticSpec,
    clip_features,
    clip_frame_features,
    generate_synthetic,
    stack_frames,
)
from .model import ModelConfig, MultiViewCnn, ServingPlan, TrainConfig, build, train
from .spectral import design_highpass, fit_standardizer, log_features, normalize, standardize

SPM_MAGIC = b"SPM1"
_HEADER_FMT = "<4sHIQI"
_HEADER_LEN = struct.calcsize(_HEADER_FMT)  # 22 bytes

ORIGIN_SERVER = "server"
ORIGIN_FALLBACK = "node_fallback"


@dataclass(frozen=True)
class SpectrumMessage:
    """One preprocessed window on its way to the classifier."""

    node_id: int
    sequence_no: int
    timestamp_ms: int
    payload: np.ndarray  # f32

    def __post_init__(self):
        object.__setattr__(
            self, "payload", np.asarray(self.payload, dtype=np.float32)
        )

    @property
    def feature_len(self) -> int:
        return len(self.payload)


def encode(msg: SpectrumMessage) -> bytes:
    """Frame a message: header, f32 payload, CRC32 of everything before it."""
    body = struct.pack(
        _HEADER_FMT, SPM_MAGIC, msg.node_id, msg.sequence_no,
        msg.timestamp_ms, msg.feature_len,
    ) + msg.payload.astype("<f4").tobytes()
    return body + struct.pack("<I", zlib.crc32(body))


def decode(blob: bytes) -> SpectrumMessage:
    """Parse and verify a frame produced by encode().

    Raises:
        Truncated: fewer bytes than the declared layout.
        BadMagic: wrong leading magic.
        TrailingBytes: more bytes than the declared layout.
        CrcMismatch: checksum does not cover the content.
    """
    if len(blob) < _HEADER_LEN + 4:
        raise Truncated(f"frame of {len(blob)} bytes is shorter than any message")
    magic, node_id, seq, ts, feature_len = struct.unpack_from(_HEADER_FMT, blob, 0)
    if magic != SPM_MAGIC:
        raise BadMagic(f"expected {SPM_MAGIC!r}, got {magic!r}")
    total = _HEADER_LEN + 4 * feature_len + 4
    if len(blob) < total:
        raise Truncated(f"need {total} bytes for {feature_len} features, got {len(blob)}")
    if len(blob) > total:
        raise TrailingBytes(f"{len(blob) - total} bytes of trailing garbage")
    (crc,) = struct.unpack_from("<I", blob, total - 4)
    if crc != zlib.crc32(blob[: total - 4]):
        raise CrcMismatch("checksum failure")
    payload = np.frombuffer(blob, dtype="<f4", count=feature_len, offset=_HEADER_LEN)
    return SpectrumMessage(node_id, seq, ts, payload.copy())


# --- node pipeline ---

@dataclass(frozen=True)
class NodeConfig(PipelineConfig):
    """A node's feature pipeline: high-pass on by default, no injected noise."""

    highpass_hz: float | None = 200.0
    node_id: int = field(kw_only=True)

    def __post_init__(self):
        super().__post_init__()
        if self.snr_db is not None:
            raise InvalidSetting("a node records its noise; snr_db must be None")


def node_process(
    clip: AudioClip, cfg: NodeConfig, start_ms: int = 0, seq_start: int = 0
) -> list[SpectrumMessage]:
    """clip_features framed as one message per surviving window.

    Message timestamps are on the node's clock: they mark when each
    window is fully captured, relative to start_ms, the clip's start as
    that clock reads it.
    """
    hop = hop_length(cfg.window_len, cfg.overlap)
    messages = []
    # one f32 cast per clip; each message's payload is a row of it
    for i, row in enumerate(clip_features(clip, cfg).astype(np.float32)):
        end_sample = i * hop + cfg.window_len
        ts = start_ms + int(round(1000.0 * end_sample / clip.sample_rate))
        messages.append(SpectrumMessage(cfg.node_id, seq_start + i, ts, row))
    return messages


# --- classification records ---

@dataclass
class ClassificationRecord:
    node_id: int
    sequence_no: int
    timestamp_ms: int
    origin: str  # ORIGIN_SERVER or ORIGIN_FALLBACK
    predicted: int
    probabilities: np.ndarray
    latency_ms: int


def server_classify(
    msg: SpectrumMessage, plan: ServingPlan, latency_ms: int = 0
) -> ClassificationRecord:
    """Normalize a message payload with the plan's statistics and classify
    it through the plan (a `ServingPlan(model, 1)`, built once per model).

    The server model and the nodes' fallback models both classify here.
    The record's probabilities are a copy, so the plan's buffers can take
    the next message.

    Raises:
        LengthMismatch: payload length differs from the model input.
    """
    if msg.feature_len != plan.config.input_len:
        raise LengthMismatch(
            f"payload has {msg.feature_len} features, model wants "
            f"{plan.config.input_len}"
        )
    features = normalize(msg.payload, plan.norm_stats)
    probs = plan.probabilities(features[None])[0].copy()
    return ClassificationRecord(
        msg.node_id, msg.sequence_no, msg.timestamp_ms, ORIGIN_SERVER,
        int(np.argmax(probs)), probs, latency_ms,
    )


# --- scenario ---

@dataclass(frozen=True)
class NodeSpec:
    clock_skew_ms: int = 0
    fallback_classes: tuple = ()
    link_outages: tuple = ()  # (start_ms, end_ms) half-open windows


@dataclass(frozen=True)
class Scenario:
    n_nodes: int = 5
    clips_per_node: int = 2
    clip_seconds: float = 2.0
    sample_rate: int = 24000
    n_classes: int = 4
    feature_len: int = NodeConfig.feature_len
    window_len: int = NodeConfig.window_len
    overlap: float = NodeConfig.overlap
    silence_threshold: float = SilenceConfig.threshold
    highpass_hz: float = NodeConfig.highpass_hz
    inter_clip_gap_ms: int = 250
    link_latency_ms: int = 10
    node_proc_ms: int = 35
    server_proc_ms: int = 15
    fallback_proc_ms: int = 40
    max_skew_ms: int = 25
    fallback_policy: str = "local"  # or "buffer": hold and forward after outage
    server_outages: tuple = ()
    nodes: tuple = ()  # NodeSpec per node, padded to n_nodes
    seed: int = 0

    def __post_init__(self):
        self.validate()  # first, so a refused n_nodes sizes no padding
        padding = (NodeSpec(),) * (self.n_nodes - len(self.nodes))
        object.__setattr__(self, "nodes", tuple(self.nodes) + padding)

    def validate(self):
        """Check the scenario's own rules, then build its corpus, node
        pipeline and high-pass, so their rules apply as well, and refuse
        a clock skew that stamps a node's first window before 0 ms and a
        window longer than the corpus's clips. Every node id and
        sequence number must fit its SPM1 field: at most 65535 nodes, and
        at most 2**32 windows per node.

        Raises:
            InvalidScenario: any rule broken, with the message of the
            error that the corpus, pipeline or filter raised.
        """
        if self.n_nodes < 1 or self.clips_per_node < 1:
            raise InvalidScenario("need at least one node and one clip per node")
        if self.n_nodes > 0xFFFF:
            raise InvalidScenario(f"{self.n_nodes} nodes, but an SPM1 node id is a u16")
        if len(self.nodes) > self.n_nodes:
            raise InvalidScenario(f"{len(self.nodes)} node specs for {self.n_nodes} nodes")
        for name in (f.name for f in fields(self) if f.name.endswith("_ms")):
            if getattr(self, name) < 0:
                raise InvalidScenario(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.fallback_policy not in ("local", "buffer"):
            raise InvalidScenario(
                f"fallback_policy must be 'local' or 'buffer', "
                f"got {self.fallback_policy!r}"
            )
        for start, end in self.server_outages:
            if not 0 <= start < end:
                raise InvalidScenario(f"bad server outage window {start}..{end}")
        for i, node in enumerate(self.nodes, start=1):
            if abs(node.clock_skew_ms) > self.max_skew_ms:
                raise InvalidScenario(
                    f"node {i} skew {node.clock_skew_ms} exceeds "
                    f"+/-{self.max_skew_ms} ms sync accuracy"
                )
            for start, end in node.link_outages:
                if not 0 <= start < end:
                    raise InvalidScenario(f"bad link outage {start}..{end} on node {i}")
            if not all(0 <= c < self.n_classes for c in node.fallback_classes):
                raise InvalidScenario(
                    f"node {i} fallback classes {node.fallback_classes} outside "
                    f"0..{self.n_classes - 1}"
                )
            if node.fallback_classes and len(set(node.fallback_classes)) < 2:
                raise InvalidScenario(
                    f"node {i} needs at least two distinct fallback classes"
                )
        try:
            corpus = SyntheticClips(_corpus_spec(self, 1, self.seed))  # no rule reads the count
            _node_config(self, 0)
            if self.highpass_hz is not None:
                design_highpass(self.highpass_hz, self.sample_rate)
        except MvcnnError as exc:
            raise InvalidScenario(str(exc)) from None
        # node_process's stamp for a node's first window, which SPM1 holds in a u64
        first_ms = int(round(1000.0 * self.window_len / self.sample_rate))
        for i, node in enumerate(self.nodes, start=1):
            if node.clock_skew_ms + first_ms < 0:
                raise InvalidScenario(
                    f"node {i} skew {node.clock_skew_ms} ms stamps its first window "
                    f"at {node.clock_skew_ms + first_ms} ms, before 0"
                )
        # a longer window cuts no frame from any clip, so no node would send
        if self.window_len > corpus.n_samples:
            raise InvalidScenario(
                f"window_len {self.window_len} is longer than a clip's "
                f"{corpus.n_samples} samples"
            )
        # windows per clip before silence removal, which only drops some
        hop = hop_length(self.window_len, self.overlap)
        frames = (corpus.n_samples - self.window_len) // hop + 1
        if self.clips_per_node * frames > 2**32:
            raise InvalidScenario(
                f"{self.clips_per_node} clips of up to {frames} windows per node, but "
                "an SPM1 sequence number is a u32"
            )
        return self


def _parse_range(text, what):
    parts = text.split("..")
    if len(parts) != 2:
        raise InvalidScenario(f"{what}: expected start..end, got {text!r}")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise InvalidScenario(f"{what}: {exc}") from None


# file key -> (field, cast): every field with a scalar default, under its own
# name except n_nodes; the tuple fields come from sections and repeated keys
_SCENARIO_FIELDS = {
    "nodes" if f.name == "n_nodes" else f.name: (f.name, type(f.default))
    for f in fields(Scenario)
    if not isinstance(f.default, tuple)
}

_NODE_FIELDS = {
    "clock_skew_ms": int,
    "fallback_classes": lambda text: tuple(int(v) for v in text.split(",") if v.strip()),
}


def parse_scenario(text: str) -> Scenario:
    """Parse the key-value scenario format; see the module docstring."""
    top = {}
    server_outages = []
    node_sections = {}
    current = None  # None = top level, else node number
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise InvalidScenario(f"line {lineno}: unterminated section header")
            parts = line[1:-1].split()
            if len(parts) != 2 or parts[0] != "node":
                raise InvalidScenario(f"line {lineno}: expected [node N]")
            try:
                current = int(parts[1])
            except ValueError:
                raise InvalidScenario(f"line {lineno}: bad node number") from None
            node_sections.setdefault(current, {"outages": [], "fields": {}})
            continue
        if "=" not in line:
            raise InvalidScenario(f"line {lineno}: expected key = value")
        key, value = (part.strip() for part in line.split("=", 1))
        if current is None:
            if key == "server_outage":
                server_outages.append(_parse_range(value, f"line {lineno}"))
            elif key in _SCENARIO_FIELDS:
                name, cast = _SCENARIO_FIELDS[key]
                try:
                    top[name] = cast(value)
                except ValueError as exc:
                    raise InvalidScenario(f"line {lineno}: {exc}") from None
            else:
                raise InvalidScenario(f"line {lineno}: unknown key {key!r}")
        else:
            section = node_sections[current]
            if key == "link_outage":
                section["outages"].append(_parse_range(value, f"line {lineno}"))
            elif key in _NODE_FIELDS:
                try:
                    section["fields"][key] = _NODE_FIELDS[key](value)
                except ValueError as exc:
                    raise InvalidScenario(f"line {lineno}: {exc}") from None
            else:
                raise InvalidScenario(f"line {lineno}: unknown node key {key!r}")

    n_nodes = top.get("n_nodes", Scenario.n_nodes)
    for num in node_sections:
        if not 1 <= num <= n_nodes:
            raise InvalidScenario(f"section [node {num}] outside 1..{n_nodes}")
    nodes = []  # up to the last section; Scenario pads the rest
    for num in range(1, max(node_sections, default=0) + 1):
        section = node_sections.get(num, {"outages": [], "fields": {}})
        nodes.append(
            NodeSpec(link_outages=tuple(section["outages"]), **section["fields"])
        )
    return Scenario(server_outages=tuple(server_outages), nodes=tuple(nodes), **top)


def load_scenario(path) -> Scenario:
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise InvalidScenario(
            f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})"
        ) from None
    return parse_scenario(text)


# --- simulation ---

@dataclass
class SimulationResult:
    records: list
    events: list  # (time_ms, description), sorted by time


def _release_time(t: int, windows) -> int:
    """Earliest time >= t outside every (possibly overlapping) window."""
    moved = True
    while moved:
        moved = False
        for start, end in windows:
            if start <= t < end:
                t = end
                moved = True
    return t


class _NodeClips(Sequence):
    """The scenario clips one node replays, each synthesized when it is read."""

    def __init__(self, corpus: SyntheticClips, numbers: range):
        self._corpus = corpus
        self._numbers = numbers

    def __len__(self):
        return len(self._numbers)

    def __getitem__(self, index: int) -> AudioClip:
        j, cls = divmod(self._numbers[index], self._corpus.spec.n_classes)
        return self._corpus.clip(cls, j)


def scenario_clips(scenario: Scenario) -> list:
    """Per-node clip sequences (round-robin classes), deterministic per seed.

    Clip j of node n (from 0) is scenario clip g = n * clips_per_node + j,
    clip g // n_classes of class g % n_classes. Each node's sequence is
    lazy: a clip is synthesized when it is read and not kept, so replaying
    a node holds one clip in memory however long the scenario is, and a
    clip no node replays is never made.
    """
    corpus = SyntheticClips(_corpus_spec(scenario, 1, scenario.seed))
    n = scenario.clips_per_node
    return [_NodeClips(corpus, range(i * n, (i + 1) * n)) for i in range(scenario.n_nodes)]


def _corpus_spec(scenario: Scenario, clips_per_class: int, seed: int) -> SyntheticSpec:
    """Synthetic clips of the scenario's classes, length and sample rate."""
    return SyntheticSpec(
        n_classes=scenario.n_classes,
        clips_per_class=clips_per_class,
        clip_seconds=scenario.clip_seconds,
        sample_rate=scenario.sample_rate,
        seed=seed,
    )


def _node_config(scenario: Scenario, node_id: int) -> NodeConfig:
    """The node pipeline settings a scenario gives every node."""
    return NodeConfig(
        node_id=node_id,
        feature_len=scenario.feature_len,
        window_len=scenario.window_len,
        overlap=scenario.overlap,
        silence=SilenceConfig(threshold=scenario.silence_threshold),
        highpass_hz=scenario.highpass_hz,
    )


def check_model(scenario: Scenario, model: MultiViewCnn, node: int | None = None) -> None:
    """Raises InvalidScenario unless model fits the scenario's feature length
    and its classes: every class for the server model (node None), node
    `node`'s fallback classes for that node's fallback model."""
    who, classes = "server model", range(scenario.n_classes)
    if node is not None:
        if not 1 <= node <= scenario.n_nodes:
            raise InvalidScenario(
                f"fallback model for node {node} outside 1..{scenario.n_nodes}"
            )
        who = f"node {node} fallback model"
        classes = scenario.nodes[node - 1].fallback_classes
        if not classes:
            raise InvalidScenario(f"node {node} has a fallback model but no classes")
    cfg = model.config
    if (cfg.input_len, cfg.n_classes) != (scenario.feature_len, len(classes)):
        raise InvalidScenario(
            f"{who} maps {cfg.input_len} features to {cfg.n_classes} classes, "
            f"scenario has {scenario.feature_len} features and {len(classes)} classes"
        )


def simulate(
    scenario: Scenario,
    server_model: MultiViewCnn,
    fallback_models: dict | None = None,
) -> SimulationResult:
    """Run the offload loop over simulated time.

    Messages whose true production time falls inside one of their
    node's link outages or a server outage are classified by that
    node's fallback model (predictions mapped back to global class
    ids); all others go to the server. Under fallback_policy="buffer"
    the node instead holds such messages and forwards them to the
    server when the outage clears, paying the wait as latency. Each node
    stamps its messages on its own clock, clock_skew_ms off true time,
    and the records keep those stamps; routing uses true simulated
    time. Records come back sorted by (node, sequence):
    in-order reliable delivery. Memory holds one clip and its messages
    at a time (see `scenario_clips`), plus the records. Each model
    classifies through one `ServingPlan(model, 1)`, built here.

    Raises:
        InvalidScenario: a server or fallback model that `check_model`
        refuses, a missing fallback model for a node that needs one, or a
        silence threshold that left no node a window to send, so there is
        no record.
    """
    fallback_models = fallback_models or {}
    check_model(scenario, server_model)
    for num, fb in fallback_models.items():
        check_model(scenario, fb, num)

    server = ServingPlan(server_model, 1)
    fallbacks = {num: ServingPlan(fb, 1) for num, fb in fallback_models.items()}
    clip_ms = int(round(scenario.clip_seconds * 1000))
    records = []
    events = []
    for start, end in scenario.server_outages:
        events.append((start, "server_down"))
        events.append((end, "server_up"))

    for num, clips in enumerate(scenario_clips(scenario), start=1):
        cfg = _node_config(scenario, num)
        spec = scenario.nodes[num - 1]
        for start, end in spec.link_outages:
            events.append((start, f"link_down node={num}"))
            events.append((end, f"link_up node={num}"))
        outages = tuple(spec.link_outages) + tuple(scenario.server_outages)
        hops = 1 if num == 1 else 2
        transit = (
            scenario.node_proc_ms + hops * scenario.link_latency_ms
            + scenario.server_proc_ms
        )
        fb = fallbacks.get(num)
        t_clip = 0
        seq = 0
        for j in range(len(clips)):
            # the clip is synthesized here and freed once node_process returns,
            # and the node stamps its messages on its own clock
            messages = node_process(clips[j], cfg, t_clip + spec.clock_skew_ms, seq)
            seq += len(messages)
            t_clip += clip_ms + scenario.inter_clip_gap_ms
            for msg in messages:
                t_true = msg.timestamp_ms - spec.clock_skew_ms
                held = _release_time(t_true, outages)
                if held == t_true or scenario.fallback_policy == "buffer":
                    records.append(
                        server_classify(msg, server, (held - t_true) + transit)
                    )
                    continue
                if fb is None:
                    raise InvalidScenario(
                        f"node {num} hit an outage at t={t_true} ms but has "
                        "no fallback model"
                    )
                rec = server_classify(
                    msg, fb, scenario.node_proc_ms + scenario.fallback_proc_ms
                )
                rec.origin = ORIGIN_FALLBACK
                rec.predicted = spec.fallback_classes[rec.predicted]
                records.append(rec)

    if not records:
        raise InvalidScenario(
            f"silence_threshold {scenario.silence_threshold} leaves no node a "
            "window to send"
        )
    events.sort()
    return SimulationResult(records, events)


# --- convenience trainers so a scenario can run end to end ---

def _scenario_training_frames(scenario: Scenario, clips_per_class: int, seed: int):
    """Training frames drawn through the node pipeline, disjoint from the
    clips the simulation itself replays (different seed namespace).
    Raises InvalidScenario when the silence threshold leaves a class no frame."""
    dataset = generate_synthetic(_corpus_spec(scenario, clips_per_class, seed + 7919))
    per_clip = clip_frame_features(dataset, _node_config(scenario, node_id=0))
    frames, labels = stack_frames(per_clip, dataset.labels)
    frames = frames.astype(np.float32).astype(np.float64)  # as sent
    counts = np.bincount(labels, minlength=scenario.n_classes)
    if not counts.all():  # each fallback model trains on a class subset
        raise InvalidScenario(f"silence_threshold {scenario.silence_threshold} leaves "
                              f"class {np.argmin(counts)} no training frame")
    return frames, labels


def _fit(frames, labels, classes, iterations: int, seed: int) -> MultiViewCnn:
    """A paper-default model of the frames whose labels lie in classes,
    renumbered 0..len(classes)-1 in that order, trained on those frames
    normalized by their own statistics, which it keeps for serving. The
    server model is the case of every class."""
    mask = np.isin(labels, classes)
    lookup = np.zeros(max(classes) + 1, dtype=np.int64)
    lookup[list(classes)] = np.arange(len(classes))
    frames, labels = frames[mask], lookup[labels[mask]]
    logged = log_features(frames)
    stats = fit_standardizer(logged)
    model = build(ModelConfig(input_len=frames.shape[1], n_classes=len(classes), seed=seed))
    train(model, standardize(logged, stats), labels,
          TrainConfig(iterations=iterations, seed=seed))
    model.norm_stats = stats
    return model


def train_server_model(
    scenario: Scenario, iterations: int, clips_per_class: int = 6, seed: int = 0,
) -> MultiViewCnn:
    """Train a full-class server model on scenario-matched synthetic data."""
    frames, labels = _scenario_training_frames(scenario, clips_per_class, seed)
    return _fit(frames, labels, range(scenario.n_classes), iterations, seed)


def train_fallback_models(
    scenario: Scenario, iterations: int, clips_per_class: int = 6, seed: int = 0,
) -> dict:
    """Fallback model per node that declares fallback classes.

    Each is trained on the subset of scenario-matched synthetic frames
    whose labels fall in that node's class list, remapped to 0..len-1.
    """
    frames, labels = _scenario_training_frames(scenario, clips_per_class, seed)
    return {
        num: _fit(frames, labels, spec.fallback_classes, iterations, seed + num)
        for num, spec in enumerate(scenario.nodes, start=1)
        if spec.fallback_classes
    }


RECORD_HEADER = "node,sequence,timestamp_ms,origin,predicted,latency_ms"


def write_records_csv(path, result: SimulationResult, meta=()) -> None:
    """Records as CSV; metadata and outage events ride in '#' comments."""
    with open(path, "w", newline="") as fh:
        for line in meta:
            fh.write(f"# {line}\n")
        for t, label in result.events:
            fh.write(f"# event {t} {label}\n")
        fh.write(RECORD_HEADER + "\n")
        for r in result.records:
            fh.write(
                f"{r.node_id},{r.sequence_no},{r.timestamp_ms},{r.origin},"
                f"{r.predicted},{r.latency_ms}\n"
            )
