import hashlib
import subprocess
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from mvcnn.audio import AudioClip
from mvcnn.errors import (
    BadMagic,
    CrcMismatch,
    InvalidScenario,
    InvalidSetting,
    LengthMismatch,
    MvcnnError,
    TrailingBytes,
    Truncated,
)
from mvcnn import wasn
from mvcnn.evaluation import SyntheticSpec, generate_synthetic
from mvcnn.model import ModelConfig, ServingPlan, build, forward_batch
from mvcnn.spectral import fit_normalizer, normalize
from mvcnn.wasn import (
    ORIGIN_FALLBACK,
    ORIGIN_SERVER,
    NodeConfig,
    NodeSpec,
    Scenario,
    SpectrumMessage,
    decode,
    encode,
    load_scenario,
    node_process,
    parse_scenario,
    scenario_clips,
    server_classify,
    simulate,
    write_records_csv,
)


def random_message(rng, feature_len=None):
    n = int(rng.integers(1, 300)) if feature_len is None else feature_len
    return SpectrumMessage(
        node_id=int(rng.integers(0, 2**16)),
        sequence_no=int(rng.integers(0, 2**32)),
        timestamp_ms=int(rng.integers(0, 2**48)),
        payload=rng.normal(size=n).astype(np.float32),
    )


class TestProtocol:
    def test_round_trip_bit_exact(self):
        rng = np.random.Generator(np.random.PCG64(0))
        for _ in range(1000):
            msg = random_message(rng)
            back = decode(encode(msg))
            assert back.node_id == msg.node_id
            assert back.sequence_no == msg.sequence_no
            assert back.timestamp_ms == msg.timestamp_ms
            assert back.payload.tobytes() == msg.payload.tobytes()

    def test_every_flipped_bit_detected(self):
        rng = np.random.Generator(np.random.PCG64(1))
        msg = random_message(rng, feature_len=8)
        blob = encode(msg)
        for byte_index in range(len(blob)):
            for bit in (0, 3, 7):
                corrupted = bytearray(blob)
                corrupted[byte_index] ^= 1 << bit
                with pytest.raises((CrcMismatch, BadMagic, Truncated, ValueError)):
                    decode(bytes(corrupted))

    def test_single_trailing_byte(self):
        rng = np.random.Generator(np.random.PCG64(4))
        blob = encode(random_message(rng, feature_len=8)) + b"\x00"
        with pytest.raises(TrailingBytes, match="1 bytes of trailing") as exc:
            decode(blob)
        assert isinstance(exc.value, MvcnnError)

    def test_payload_bit_flip_is_crc_mismatch(self):
        rng = np.random.Generator(np.random.PCG64(2))
        blob = bytearray(encode(random_message(rng, feature_len=16)))
        blob[30] ^= 0x01  # inside the payload
        with pytest.raises(CrcMismatch):
            decode(bytes(blob))

    def test_three_bytes_is_truncated(self):
        with pytest.raises(Truncated):
            decode(b"SPM")

    def test_declared_length_beyond_frame_is_truncated(self):
        rng = np.random.Generator(np.random.PCG64(3))
        blob = encode(random_message(rng, feature_len=4))
        with pytest.raises(Truncated):
            decode(blob[:-6])

    def test_bad_magic(self):
        rng = np.random.Generator(np.random.PCG64(4))
        blob = bytearray(encode(random_message(rng, feature_len=4)))
        blob[0:4] = b"XXXX"
        with pytest.raises(BadMagic):
            decode(bytes(blob))

    def test_byte_layout_pinned(self):
        import struct
        import zlib

        msg = SpectrumMessage(1, 2, 3, np.array([1.5], dtype=np.float32))
        body = (
            b"SPM1" + struct.pack("<H", 1) + struct.pack("<I", 2)
            + struct.pack("<Q", 3) + struct.pack("<I", 1)
            + struct.pack("<f", 1.5)
        )
        assert encode(msg) == body + struct.pack("<I", zlib.crc32(body))


def tone_clip(seconds=2.0, sr=24000, freq=1000.0, amplitude=0.5):
    t = np.arange(int(seconds * sr)) / sr
    return AudioClip(amplitude * np.sin(2 * np.pi * freq * t), sr)


class TestNodeProcess:
    def test_silent_clip_no_messages(self):
        clip = AudioClip(np.zeros(48000), 24000)
        assert node_process(clip, NodeConfig(node_id=1)) == []

    def test_active_clip_three_messages(self):
        clip = tone_clip(seconds=32768 / 24000)
        msgs = node_process(clip, NodeConfig(node_id=3))
        assert [m.sequence_no for m in msgs] == [0, 1, 2]
        assert all(m.node_id == 3 for m in msgs)

    def test_payload_length_is_feature_len(self):
        clip = tone_clip(seconds=2.0)
        msgs = node_process(clip, NodeConfig(node_id=1, feature_len=512))
        assert msgs
        assert all(m.feature_len == 512 for m in msgs)

    def test_timestamps_mark_window_capture_end(self):
        sr = 24000
        clip = tone_clip(seconds=32768 / sr)
        msgs = node_process(clip, NodeConfig(node_id=1), start_ms=1000)
        expected = [
            1000 + round(1000 * (offset + 16384) / sr)
            for offset in (0, 8192, 16384)
        ]
        assert [m.timestamp_ms for m in msgs] == expected

    def test_sequence_continues_from_seq_start(self):
        clip = tone_clip(seconds=32768 / 24000)
        msgs = node_process(clip, NodeConfig(node_id=1), seq_start=7)
        assert [m.sequence_no for m in msgs] == [7, 8, 9]

    def test_node_config_rejects_injected_noise(self):
        with pytest.raises(InvalidSetting, match="snr_db"):
            NodeConfig(node_id=1, snr_db=0.0)

    def test_node_config_checks_its_pipeline(self):
        with pytest.raises(InvalidSetting, match="feature_kind"):
            NodeConfig(node_id=1, feature_kind="bogus")

    def test_node_config_needs_node_id(self):
        with pytest.raises(TypeError):
            NodeConfig()

    def test_scenario_training_frames_are_node_payloads(self):
        scenario = small_scenario()
        frames, labels = wasn._scenario_training_frames(scenario, 2, seed=4)
        # reference: the node pipeline, message by message, through the wire's f32
        dataset = generate_synthetic(SyntheticSpec(
            n_classes=scenario.n_classes, clips_per_class=2,
            clip_seconds=scenario.clip_seconds, sample_rate=scenario.sample_rate,
            seed=4 + 7919,
        ))
        cfg = wasn._node_config(scenario, node_id=0)
        want_frames, want_labels = [], []
        for clip, label in zip(dataset.clips, dataset.labels):
            msgs = node_process(clip, cfg)
            want_frames.extend(m.payload.astype(np.float64) for m in msgs)
            want_labels.extend([int(label)] * len(msgs))
        assert want_frames
        np.testing.assert_array_equal(frames, np.array(want_frames))
        np.testing.assert_array_equal(labels, want_labels)
        assert labels.dtype == np.int64


def whole_dataset_selection(scenario):
    """Per-node clips as picked from one eagerly synthesized dataset."""
    total = scenario.n_nodes * scenario.clips_per_node
    per_class = -(-total // scenario.n_classes)
    dataset = generate_synthetic(SyntheticSpec(
        n_classes=scenario.n_classes, clips_per_class=per_class,
        clip_seconds=scenario.clip_seconds, sample_rate=scenario.sample_rate,
        seed=scenario.seed,
    ))
    by_node = []
    for node_index in range(scenario.n_nodes):
        clips = []
        for j in range(scenario.clips_per_node):
            g = node_index * scenario.clips_per_node + j
            cls = g % scenario.n_classes
            clips.append(dataset.clips[cls * per_class + g // scenario.n_classes])
        by_node.append(clips)
    return by_node


class TestScenarioClips:
    @pytest.mark.parametrize("n_nodes, clips_per_node, n_classes, seed",
                             [(3, 2, 3, 0), (5, 2, 4, 1), (2, 5, 3, 9), (1, 1, 2, 4)])
    def test_same_clips_as_whole_dataset_selection(self, n_nodes, clips_per_node,
                                                   n_classes, seed):
        scenario = Scenario(n_nodes=n_nodes, clips_per_node=clips_per_node,
                            n_classes=n_classes, clip_seconds=0.2,
                            sample_rate=16000, window_len=2048, seed=seed)
        want = whole_dataset_selection(scenario)
        got = scenario_clips(scenario)
        assert len(got) == len(want) == n_nodes
        for node_got, node_want in zip(got, want):
            assert len(node_got) == len(node_want) == clips_per_node
            for j, (clip, ref) in enumerate(zip(node_got, node_want)):
                assert clip.sample_rate == ref.sample_rate
                assert clip.samples.tobytes() == ref.samples.tobytes()
                assert node_got[j].samples.tobytes() == ref.samples.tobytes()

    def test_only_replayed_clips_are_made(self, monkeypatch):
        # 5 nodes x 2 clips over 4 classes: clips 0 and 1 of every class and
        # clip 2 of classes 0 and 1, once each, in scenario order
        made = []
        original = wasn.SyntheticClips.clip

        def spy(self, cls, j):
            made.append((cls, j))
            return original(self, cls, j)

        monkeypatch.setattr(wasn.SyntheticClips, "clip", spy)
        by_node = scenario_clips(Scenario(n_nodes=5, clips_per_node=2,
                                          clip_seconds=0.1, window_len=2048, seed=3))
        assert made == []  # nothing is synthesized up front
        for clips in by_node:
            for _ in clips:
                pass
        assert made == [(g % 4, g // 4) for g in range(10)]

    def test_clips_past_memory_are_read_by_number(self):
        # 5 nodes x 2**30 clips: a corpus indexed by item would hold 40 GiB
        # of labels, so under a 2 GiB address-space limit only arithmetic
        # on the clip number reaches the last clip
        code = (
            "import hashlib, resource; "
            "resource.setrlimit(resource.RLIMIT_AS, (2**31, 2**31)); "
            "from mvcnn.wasn import Scenario, scenario_clips; "
            "clips = scenario_clips(Scenario(n_nodes=5, clips_per_node=2**30)); "
            "print(hashlib.sha256(clips[-1][-1].samples.tobytes()).hexdigest())"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        g = 5 * 2**30 - 1
        corpus = wasn.SyntheticClips(SyntheticSpec(clips_per_class=1, clip_seconds=2.0))
        want = corpus.clip(g % 4, g // 4).samples.tobytes()
        assert proc.stdout.strip() == hashlib.sha256(want).hexdigest()


class TestServerClassify:
    def _plan(self):
        return ServingPlan(build(ModelConfig(input_len=64, n_classes=4, seed=0)), 1)

    def test_deterministic_records(self):
        plan = self._plan()
        rng = np.random.Generator(np.random.PCG64(5))
        msg = SpectrumMessage(1, 0, 100, np.abs(rng.normal(size=64)))
        a = server_classify(msg, plan)
        b = server_classify(msg, plan)
        assert a.predicted == b.predicted
        np.testing.assert_array_equal(a.probabilities, b.probabilities)
        assert a.origin == ORIGIN_SERVER

    def test_record_keeps_its_probabilities_after_the_next_message(self):
        # the plan reuses its output buffer; each record holds a copy
        plan = self._plan()
        rng = np.random.Generator(np.random.PCG64(8))
        first = server_classify(SpectrumMessage(1, 0, 0, np.abs(rng.normal(size=64))), plan)
        kept = first.probabilities.copy()
        server_classify(SpectrumMessage(1, 1, 0, 10 * np.abs(rng.normal(size=64))), plan)
        np.testing.assert_array_equal(first.probabilities, kept)

    def test_probabilities_sum_to_one(self):
        plan = self._plan()
        rng = np.random.Generator(np.random.PCG64(6))
        msg = SpectrumMessage(1, 0, 0, np.abs(rng.normal(size=64)))
        rec = server_classify(msg, plan)
        assert abs(rec.probabilities.sum() - 1.0) < 1e-6

    def test_length_mismatch(self):
        plan = self._plan()
        msg = SpectrumMessage(1, 0, 0, np.zeros(256, dtype=np.float32))
        with pytest.raises(LengthMismatch):
            server_classify(msg, plan)


def small_scenario(**overrides):
    base = dict(
        n_nodes=3,
        clips_per_node=2,
        clip_seconds=0.6,
        n_classes=3,
        feature_len=64,
        window_len=2**11,
        seed=0,
    )
    base.update(overrides)
    return Scenario(**base)


def small_models(scenario, fallback_nodes=()):
    server = build(
        ModelConfig(input_len=scenario.feature_len, n_classes=scenario.n_classes,
                    seed=0)
    )
    fallbacks = {}
    for num in fallback_nodes:
        subset = scenario.nodes[num - 1].fallback_classes
        fallbacks[num] = build(
            ModelConfig(input_len=scenario.feature_len, n_classes=len(subset),
                        seed=10 + num)
        )
    return server, fallbacks


class TestSimulate:
    def test_no_outage_all_server(self):
        scenario = small_scenario()
        server, _ = small_models(scenario)
        result = simulate(scenario, server)
        assert result.records
        assert all(r.origin == ORIGIN_SERVER for r in result.records)
        assert result.events == []

    def test_total_server_outage_all_fallback(self):
        nodes = tuple(
            NodeSpec(fallback_classes=(0, 1)) for _ in range(3)
        )
        scenario = small_scenario(server_outages=((0, 10**9),), nodes=nodes)
        server, fallbacks = small_models(scenario, fallback_nodes=(1, 2, 3))
        result = simulate(scenario, server, fallbacks)
        assert result.records
        assert all(r.origin == ORIGIN_FALLBACK for r in result.records)
        assert all(r.predicted in (0, 1) for r in result.records)

    def test_link_outage_routes_exactly_window_messages(self):
        nodes = (
            NodeSpec(),
            NodeSpec(fallback_classes=(0, 2), link_outages=((400, 900),)),
            NodeSpec(),
        )
        scenario = small_scenario(nodes=nodes)
        server, fallbacks = small_models(scenario, fallback_nodes=(2,))
        result = simulate(scenario, server, fallbacks)
        down = [t for t, label in result.events if label == "link_down node=2"]
        up = [t for t, label in result.events if label == "link_up node=2"]
        assert down == [400] and up == [900]
        for r in result.records:
            # zero skew: record timestamps are true production times
            inside = r.node_id == 2 and 400 <= r.timestamp_ms < 900
            assert (r.origin == ORIGIN_FALLBACK) == inside
        assert any(r.origin == ORIGIN_FALLBACK for r in result.records)
        assert any(
            r.origin == ORIGIN_SERVER and r.node_id == 2 for r in result.records
        )

    def test_fallback_predictions_confined_to_subset(self):
        nodes = (
            NodeSpec(fallback_classes=(0, 2), link_outages=((0, 10**9),)),
            NodeSpec(),
            NodeSpec(),
        )
        scenario = small_scenario(nodes=nodes)
        server, fallbacks = small_models(scenario, fallback_nodes=(1,))
        result = simulate(scenario, server, fallbacks)
        node1 = [r for r in result.records if r.node_id == 1]
        assert node1
        assert all(r.predicted in (0, 2) for r in node1)
        assert all(len(r.probabilities) == 2 for r in node1)

    def test_sequences_strictly_increasing_no_gaps(self):
        scenario = small_scenario()
        server, _ = small_models(scenario)
        result = simulate(scenario, server)
        for num in range(1, scenario.n_nodes + 1):
            seqs = [r.sequence_no for r in result.records if r.node_id == num]
            assert seqs == list(range(len(seqs)))

    def test_record_multiset_matches_node_process(self):
        scenario = small_scenario()
        server, _ = small_models(scenario)
        result = simulate(scenario, server)
        emitted = set()
        clip_ms = int(round(scenario.clip_seconds * 1000))
        for num, clips in enumerate(scenario_clips(scenario), start=1):
            cfg = NodeConfig(
                node_id=num, feature_len=scenario.feature_len,
                window_len=scenario.window_len,
            )
            t, seq = 0, 0
            for clip in clips:
                msgs = node_process(clip, cfg, start_ms=t, seq_start=seq)
                emitted.update((m.node_id, m.sequence_no) for m in msgs)
                seq += len(msgs)
                t += clip_ms + scenario.inter_clip_gap_ms
        got = {(r.node_id, r.sequence_no) for r in result.records}
        assert len(result.records) == len(got)  # no duplicates
        assert got == emitted

    def test_memory_does_not_grow_with_clips_per_node(self):
        # one clip is alive at a time, so 8x the clips per node must not
        # raise the traced peak by even two clips' worth of bytes
        peaks = {}
        for clips_per_node in (2, 16):
            scenario = small_scenario(clips_per_node=clips_per_node, window_len=2**13)
            server, _ = small_models(scenario)
            simulate(scenario, server)  # fill one-off caches before tracing
            tracemalloc.start()
            try:
                simulate(scenario, server)
                peaks[clips_per_node] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        clip_bytes = 8 * int(round(scenario.clip_seconds * scenario.sample_rate))
        print(f"simulate traced peak: {peaks[2]} B at 2 clips per node, "
              f"{peaks[16]} B at 16 (one clip is {clip_bytes} B)")
        assert abs(peaks[16] - peaks[2]) < 2 * clip_bytes

    def test_clock_skew_shifts_recorded_timestamps(self):
        nodes = (NodeSpec(clock_skew_ms=20), NodeSpec(), NodeSpec())
        scenario = small_scenario(nodes=nodes)
        server, _ = small_models(scenario)
        base = simulate(small_scenario(), server)
        skewed = simulate(scenario, server)
        for a, b in zip(base.records, skewed.records):
            expected = a.timestamp_ms + (20 if a.node_id == 1 else 0)
            assert b.timestamp_ms == expected

    def test_byte_identical_csv(self, tmp_path):
        nodes = (
            NodeSpec(fallback_classes=(0, 1), link_outages=((300, 800),)),
            NodeSpec(),
            NodeSpec(),
        )
        scenario = small_scenario(nodes=nodes)
        server, fallbacks = small_models(scenario, fallback_nodes=(1,))
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_records_csv(p1, simulate(scenario, server, fallbacks), meta=("run",))
        write_records_csv(p2, simulate(scenario, server, fallbacks), meta=("run",))
        assert p1.read_bytes() == p2.read_bytes()

    def test_missing_fallback_model_rejected(self):
        nodes = (NodeSpec(link_outages=((0, 10**9),)), NodeSpec(), NodeSpec())
        scenario = small_scenario(nodes=nodes)
        server, _ = small_models(scenario)
        with pytest.raises(InvalidScenario):
            simulate(scenario, server)

    @pytest.mark.parametrize("num", [0, 4])
    def test_fallback_model_for_unknown_node_rejected(self, num):
        nodes = (NodeSpec(fallback_classes=(0, 1)),) * 3
        scenario = small_scenario(nodes=nodes)
        server, fallbacks = small_models(scenario, fallback_nodes=(1,))
        message = rf"^fallback model for node {num} outside 1\.\.3$"
        with pytest.raises(InvalidScenario, match=message):
            simulate(scenario, server, {num: fallbacks[1]})

    @pytest.mark.parametrize(
        "n_classes, input_len", [(3, 64), (2, 32)], ids=["classes", "input-len"]
    )
    def test_ill_fitted_fallback_model_rejected(self, monkeypatch, n_classes, input_len):
        # node 1 never falls back, yet its model is refused before any clip
        # is replayed
        nodes = (NodeSpec(fallback_classes=(0, 1)), NodeSpec(), NodeSpec())
        scenario = small_scenario(nodes=nodes)
        server, _ = small_models(scenario)
        fallback = build(ModelConfig(input_len=input_len, n_classes=n_classes, seed=11))
        monkeypatch.setattr(wasn, "node_process", lambda *a, **k: pytest.fail("replayed"))
        message = (
            rf"^node 1 fallback model maps {input_len} features to {n_classes} classes, "
            r"scenario has 64 features and 2 classes$"
        )
        with pytest.raises(InvalidScenario, match=message):
            simulate(scenario, server, {1: fallback})

    def test_buffer_policy_forwards_after_outage(self):
        nodes = (NodeSpec(link_outages=((300, 1500),)), NodeSpec(), NodeSpec())
        scenario = small_scenario(nodes=nodes, fallback_policy="buffer")
        server, _ = small_models(scenario)
        result = simulate(scenario, server)
        assert all(r.origin == ORIGIN_SERVER for r in result.records)
        base = scenario.node_proc_ms + scenario.link_latency_ms + scenario.server_proc_ms
        buffered = [
            r for r in result.records
            if r.node_id == 1 and 300 <= r.timestamp_ms < 1500
        ]
        assert buffered
        for r in buffered:
            # waited until the outage cleared, then paid normal transit
            assert r.latency_ms == (1500 - r.timestamp_ms) + base
        direct = [
            r for r in result.records
            if r.node_id == 1 and not 300 <= r.timestamp_ms < 1500
        ]
        assert all(r.latency_ms == base for r in direct)

    def test_bad_fallback_policy_rejected(self):
        with pytest.raises(InvalidScenario):
            small_scenario(fallback_policy="drop")

    @pytest.mark.parametrize("seconds", [0.0, -1.0, float("nan"), float("inf"), 1e308])
    def test_bad_clip_seconds_rejected(self, seconds):
        with pytest.raises(InvalidScenario, match="clip_seconds"):
            small_scenario(clip_seconds=seconds)

    def test_feature_len_mismatch_rejected(self):
        scenario = small_scenario(feature_len=32)
        server = build(ModelConfig(input_len=64, n_classes=3, seed=0))
        with pytest.raises(InvalidScenario):
            simulate(scenario, server)

    @pytest.mark.parametrize("n_classes", [2, 4])
    def test_class_count_mismatch_rejected(self, n_classes):
        # a server model that cannot predict (or predicts beyond) the
        # scenario's classes is refused before any clip is replayed
        scenario = small_scenario()
        server = build(ModelConfig(input_len=64, n_classes=n_classes, seed=0))
        message = (
            rf"^server model maps 64 features to {n_classes} classes, "
            r"scenario has 64 features and 3 classes$"
        )
        with pytest.raises(InvalidScenario, match=message):
            simulate(scenario, server)

    @pytest.mark.parametrize(
        "server_shape, fallback_shapes, message",
        (
            ((64, 2), {}, r"^server model maps 64 features to 2 classes, "
                          r"scenario has 64 features and 3 classes$"),
            ((32, 3), {}, r"^server model maps 32 features to 3 classes, "
                          r"scenario has 64 features and 3 classes$"),
            ((64, 3), {4: (64, 2)}, r"^fallback model for node 4 outside 1\.\.3$"),
            ((64, 3), {2: (64, 2)}, r"^node 2 has a fallback model but no classes$"),
            ((64, 3), {1: (64, 3)}, r"^node 1 fallback model maps 64 features to 3 "
                                    r"classes, scenario has 64 features and 2 classes$"),
        ),
        ids=["server-classes", "server-features", "fallback-node", "fallback-no-classes",
             "fallback-classes"],
    )
    def test_check_model_refusals(self, monkeypatch, server_shape, fallback_shapes,
                                  message):
        # each refusal fires before any clip is replayed, from check_model
        scenario = small_scenario(nodes=(NodeSpec(fallback_classes=(0, 1)),))

        def model(shape):
            return build(ModelConfig(input_len=shape[0], n_classes=shape[1], seed=0))

        server = model(server_shape)
        fallbacks = {num: model(shape) for num, shape in fallback_shapes.items()}
        monkeypatch.setattr(wasn, "node_process", lambda *a, **k: pytest.fail("replayed"))
        with pytest.raises(InvalidScenario, match=message):
            simulate(scenario, server, fallbacks)
        with pytest.raises(InvalidScenario, match=message):
            for node, checked in [(None, server), *fallbacks.items()]:
                wasn.check_model(scenario, checked, node)

    @pytest.mark.parametrize("policy", ["local", "buffer"])
    def test_records_come_in_node_and_sequence_order(self, policy):
        # skewed clocks, a link outage and a server outage reorder no record:
        # node by node, each node's sequence numbers counting up from 0
        nodes = (
            NodeSpec(clock_skew_ms=-20, fallback_classes=(0, 2), link_outages=((300, 900),)),
            NodeSpec(clock_skew_ms=15, fallback_classes=(1, 2)),
            NodeSpec(fallback_classes=(0, 1)),
        )
        scenario = small_scenario(nodes=nodes, server_outages=((600, 1400),),
                                  fallback_policy=policy)
        server, fallbacks = small_models(scenario, fallback_nodes=(1, 2, 3))
        result = simulate(scenario, server, fallbacks)
        keys = [(r.node_id, r.sequence_no) for r in result.records]
        per_node = {num: [seq for n, seq in keys if n == num] for num in (1, 2, 3)}
        assert keys == sorted(keys)
        assert all(seqs == list(range(len(seqs))) and seqs for seqs in per_node.values())
        assert result.events == sorted(result.events)
        fallback = {r.node_id for r in result.records if r.origin == ORIGIN_FALLBACK}
        assert fallback == ({1, 2, 3} if policy == "local" else set())


SCENARIO_TEXT = """
# three-node test scenario
nodes = 3
seed = 7
clips_per_node = 2
clip_seconds = 0.6
n_classes = 3
feature_len = 64
window_len = 2048
server_outage = 5000..6000

[node 2]
clock_skew_ms = -12
fallback_classes = 0, 2
link_outage = 1000..2500
link_outage = 7000..8000
"""


class TestScenarioParsing:
    def test_parse_example(self):
        scenario = parse_scenario(SCENARIO_TEXT)
        assert scenario.n_nodes == 3
        assert scenario.seed == 7
        assert scenario.server_outages == ((5000, 6000),)
        assert scenario.nodes[1].clock_skew_ms == -12
        assert scenario.nodes[1].fallback_classes == (0, 2)
        assert scenario.nodes[1].link_outages == ((1000, 2500), (7000, 8000))
        assert scenario.nodes[0] == NodeSpec()

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "s.scn"
        path.write_text(SCENARIO_TEXT)
        assert load_scenario(path) == parse_scenario(SCENARIO_TEXT)

    def test_load_rejects_non_utf8(self, tmp_path):
        path = tmp_path / "latin1.scn"
        path.write_bytes(b"# gr\xfcn\nnodes = 2\n")
        with pytest.raises(InvalidScenario, match="not UTF-8"):
            load_scenario(path)

    def test_unknown_key(self):
        with pytest.raises(InvalidScenario):
            parse_scenario("bogus = 3\n")

    def test_bad_range(self):
        with pytest.raises(InvalidScenario):
            parse_scenario("server_outage = 500..100\n")

    def test_skew_beyond_sync_accuracy(self):
        with pytest.raises(InvalidScenario):
            parse_scenario("nodes = 1\n[node 1]\nclock_skew_ms = 26\n")

    @pytest.mark.parametrize(
        "line", ["clock_skew_ms = abc", "clock_skew_ms = 1.5", "fallback_classes = 0, x"]
    )
    def test_bad_node_value_names_its_line(self, line):
        with pytest.raises(InvalidScenario, match="line 3"):
            parse_scenario(f"nodes = 1\n[node 1]\n{line}\n")

    def test_section_outside_node_range(self):
        with pytest.raises(InvalidScenario):
            parse_scenario("nodes = 2\n[node 5]\nclock_skew_ms = 1\n")

    @pytest.mark.parametrize(
        "key",
        ["inter_clip_gap_ms", "link_latency_ms", "node_proc_ms", "server_proc_ms",
         "fallback_proc_ms", "max_skew_ms"],
    )
    def test_negative_timing_names_its_key(self, key):
        with pytest.raises(InvalidScenario, match=f"{key} must be >= 0"):
            parse_scenario(f"{key} = -50\n")

    @pytest.mark.parametrize(
        "line",
        ["overlap = 1.5", "feature_len = 9000", "window_len = 3000",
         "highpass_hz = 20000", "n_classes = 1", "sample_rate = 4000", "seed = -1",
         "silence_threshold = 0.7"],
    )
    def test_value_the_pipeline_or_corpus_refuses(self, line):
        with pytest.raises(InvalidScenario):
            parse_scenario(line + "\n")

    @pytest.mark.parametrize(
        "text, window, samples",
        [("window_len = 65536\n", 65536, 48000),
         ("clip_seconds = 0.5\nsample_rate = 16000\nwindow_len = 8192\n", 8192, 8000)],
    )
    def test_window_longer_than_a_clip_is_named(self, text, window, samples):
        message = rf"^window_len {window} is longer than a clip's {samples} samples$"
        with pytest.raises(InvalidScenario, match=message):
            parse_scenario(text)

    def test_window_as_long_as_a_clip_is_kept(self):
        scenario = parse_scenario("clip_seconds = 0.256\nsample_rate = 16000\nwindow_len = 4096\n")
        assert scenario.window_len == 4096

    @pytest.mark.parametrize("rate", [0, -24000])
    def test_non_positive_sample_rate_is_named(self, rate):
        with pytest.raises(InvalidScenario, match=f"sample_rate must be positive, got {rate}"):
            parse_scenario(f"sample_rate = {rate}\n")

    def test_keys_are_the_scalar_fields(self):
        assert set(wasn._SCENARIO_FIELDS) == {
            "fallback_policy", "nodes", "clips_per_node", "clip_seconds",
            "sample_rate", "n_classes", "feature_len", "window_len", "overlap",
            "silence_threshold", "highpass_hz", "inter_clip_gap_ms",
            "link_latency_ms", "node_proc_ms", "server_proc_ms",
            "fallback_proc_ms", "max_skew_ms", "seed",
        }
        assert wasn._SCENARIO_FIELDS["nodes"] == ("n_nodes", int)
        assert wasn._SCENARIO_FIELDS["highpass_hz"] == ("highpass_hz", float)


class TestScenarioIsAlwaysValid:
    def test_replace_is_checked(self):
        with pytest.raises(InvalidScenario, match="link_latency_ms"):
            replace(small_scenario(), link_latency_ms=-1)

    def test_pipeline_error_keeps_its_message(self):
        with pytest.raises(InvalidScenario, match=r"^overlap must be in \[0, 1\), got 1.5$"):
            small_scenario(overlap=1.5)

    @pytest.mark.parametrize("cls", [3, -1])
    def test_fallback_class_outside_range(self, cls):
        nodes = (NodeSpec(fallback_classes=(0, cls)),)
        with pytest.raises(InvalidScenario, match=r"outside 0\.\.2"):
            small_scenario(nodes=nodes)

    def test_more_node_specs_than_nodes(self):
        with pytest.raises(InvalidScenario, match="4 node specs for 3 nodes"):
            small_scenario(nodes=(NodeSpec(),) * 4)

    def test_more_nodes_than_a_u16_node_id_numbers_are_refused(self):
        assert len(small_scenario(n_nodes=0xFFFF).nodes) == 0xFFFF
        with pytest.raises(InvalidScenario,
                           match=r"^65536 nodes, but an SPM1 node id is a u16$"):
            parse_scenario("nodes = 65536\n")
        with pytest.raises(InvalidScenario, match="u16"):
            Scenario(n_nodes=2**63)  # refused before it sizes the padding

    def test_more_windows_per_node_than_a_u32_sequence_numbers_are_refused(self):
        # a default scenario's 48000-sample clips hold 4 windows of 16384
        # samples at half overlap, so 2**30 clips number 2**32 windows
        assert Scenario(n_nodes=1, clips_per_node=2**30).clips_per_node == 2**30
        with pytest.raises(InvalidScenario, match=r"^1073741825 clips of up to 4 windows "
                           r"per node, but an SPM1 sequence number is a u32$"):
            Scenario(n_nodes=1, clips_per_node=2**30 + 1)
        with pytest.raises(InvalidScenario, match="u32"):
            Scenario(clips_per_node=2**63 - 1)

    def test_skew_that_stamps_a_window_before_0_ms_is_refused(self):
        # a node stamps its first window when 2048 samples at 24 kHz are in,
        # 85 ms after the clip starts on its own clock
        text = ("nodes = 1\nclips_per_node = 1\nclip_seconds = 1.0\nwindow_len = 2048\n"
                "max_skew_ms = 1000\n[node 1]\nclock_skew_ms = {}\n")
        with pytest.raises(InvalidScenario, match=r"^node 1 skew -500 ms stamps its "
                           r"first window at -415 ms, before 0$"):
            parse_scenario(text.format(-500))
        with pytest.raises(InvalidScenario, match="at -1 ms, before 0"):
            parse_scenario(text.format(-86))
        scenario = parse_scenario(text.format(-85))
        server = build(ModelConfig(input_len=scenario.feature_len, n_classes=4))
        records = simulate(scenario, server).records
        assert records[0].timestamp_ms == 0
        for r in records:
            msg = SpectrumMessage(r.node_id, r.sequence_no, r.timestamp_ms, np.zeros(1))
            assert decode(encode(msg)).timestamp_ms == r.timestamp_ms

    def test_nodes_padded_to_n_nodes(self):
        assert small_scenario(nodes=(NodeSpec(clock_skew_ms=3),)).nodes == (
            NodeSpec(clock_skew_ms=3), NodeSpec(), NodeSpec(),
        )


def _record_fields(records):
    return [
        (r.node_id, r.sequence_no, r.timestamp_ms, r.origin, r.predicted,
         r.probabilities.tobytes(), r.latency_ms)
        for r in records
    ]


def _graph_probabilities(model, payload):
    """One message classified on the autograd tape, the reference path."""
    features = normalize(np.asarray(payload).astype(np.float64), model.norm_stats)
    return forward_batch(model, features[None], train=False).data[0]


class TestPlanServing:
    def test_server_classify_matches_graph_path(self):
        model = build(ModelConfig(input_len=64, n_classes=4, seed=0))
        model.norm_stats = fit_normalizer(np.abs(np.random.Generator(
            np.random.PCG64(6)).normal(size=(20, 64))))
        plan = ServingPlan(model, 1)
        rng = np.random.Generator(np.random.PCG64(7))
        for i in range(4):
            msg = SpectrumMessage(1, i, 10 * i, np.abs(rng.normal(size=64)))
            rec = server_classify(msg, plan)
            want = _graph_probabilities(model, msg.payload)
            assert rec.probabilities.tobytes() == want.tobytes()
            assert rec.predicted == int(np.argmax(want))

    def test_simulate_records_equal_a_per_message_replay(self):
        # node 1 loses its link mid-run and node 3 for the whole run, so both
        # fallback models and the server model classify
        nodes = (
            NodeSpec(fallback_classes=(0, 2), link_outages=((300, 800),), clock_skew_ms=4),
            NodeSpec(),
            NodeSpec(fallback_classes=(1, 2), link_outages=((0, 10**9),)),
        )
        scenario = small_scenario(nodes=nodes)
        server, fallbacks = small_models(scenario, fallback_nodes=(1, 3))
        records = simulate(scenario, server, fallbacks).records
        assert {r.origin for r in records} == {ORIGIN_SERVER, ORIGIN_FALLBACK}
        replay = []
        for num, clips in enumerate(scenario_clips(scenario), start=1):
            cfg = wasn._node_config(scenario, num)
            spec = scenario.nodes[num - 1]
            t_clip = seq = 0
            for clip in clips:
                for msg in node_process(clip, cfg, start_ms=t_clip, seq_start=seq):
                    rec = records[len(replay)]
                    model = server if rec.origin == ORIGIN_SERVER else fallbacks[num]
                    probs = _graph_probabilities(model, msg.payload)
                    label = int(np.argmax(probs))
                    if rec.origin == ORIGIN_FALLBACK:
                        label = spec.fallback_classes[label]
                    replay.append((num, msg.sequence_no, msg.timestamp_ms + spec.clock_skew_ms,
                                   rec.origin, label, probs.tobytes(), rec.latency_ms))
                    seq += 1
                t_clip += int(round(scenario.clip_seconds * 1000)) + scenario.inter_clip_gap_ms
        assert _record_fields(records) == replay

    def test_each_window_is_one_message(self, monkeypatch):
        # the nodes' clocks run 7 ms ahead and 5 ms behind: a node stamps a
        # message once, on its own clock, and its record keeps the stamp
        scenario = small_scenario(nodes=(NodeSpec(clock_skew_ms=7),
                                         NodeSpec(clock_skew_ms=-5)))
        server, _ = small_models(scenario)
        built = []
        check = SpectrumMessage.__post_init__

        def counting(msg):
            built.append(msg)
            check(msg)

        monkeypatch.setattr(SpectrumMessage, "__post_init__", counting)
        records = simulate(scenario, server).records
        assert len(built) == len(records) > 0
        assert [(m.node_id, m.sequence_no, m.timestamp_ms) for m in built] == [
            (r.node_id, r.sequence_no, r.timestamp_ms) for r in records
        ]

    def test_models_are_planned_once_per_run(self, monkeypatch):
        nodes = (NodeSpec(fallback_classes=(0, 2), link_outages=((300, 800),)),)
        scenario = small_scenario(nodes=nodes)
        server, fallbacks = small_models(scenario, fallback_nodes=(1,))
        built = []

        def planning(model, rows):
            built.append((model, rows))
            return ServingPlan(model, rows)

        monkeypatch.setattr(wasn, "ServingPlan", planning)
        records = simulate(scenario, server, fallbacks).records
        assert len(records) > 2
        assert built == [(server, 1), (fallbacks[1], 1)]


class TestNothingToSend:
    def test_scenario_that_sends_no_window_is_refused(self):
        # every window of the synthetic clips reads an RMS below 0.5
        scenario = Scenario(n_nodes=1, clips_per_node=1, clip_seconds=1.0,
                            window_len=2048, silence_threshold=0.5)
        server = build(ModelConfig(input_len=scenario.feature_len, n_classes=4))
        with pytest.raises(InvalidScenario, match=r"^silence_threshold 0\.5 leaves no node"):
            simulate(scenario, server)
