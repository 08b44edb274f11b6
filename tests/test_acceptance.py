"""Acceptance suite: one test per criterion, run with `pytest -v -s`.

Each test prints a `[ACCEPTANCE] criterion N (...): PASS/FAIL` line.
Heavier criteria share module-scoped fixtures; everything is seeded, so
results are bit-stable across runs on one platform.
"""

import subprocess
import sys
import time
from collections import Counter

import numpy as np
import pytest

from mvcnn.audio import AudioClip, SilenceConfig, remove_silence
from mvcnn.errors import CrcMismatch, BadMagic, Truncated
from mvcnn.evaluation import (
    ClipDataset,
    PipelineConfig,
    SyntheticSpec,
    clip_frame_features,
    compute_metrics,
    evaluate_split,
    generate_synthetic,
    kfold_split,
    make_method,
    prepare_fold,
    run_cv,
    stratified_fraction_split,
)
from mvcnn.knn import KnnModel, knn_classify_batch
from mvcnn.model import ModelConfig, TrainConfig, build, gradient_check, train
from mvcnn.spectral import (
    add_noise_snr,
    design_highpass,
    highpass_butterworth,
    measure_snr,
    mfcc_features,
    power_spectra,
    standard_normals,
)
from mvcnn.wasn import (
    NodeSpec,
    Scenario,
    SpectrumMessage,
    decode,
    encode,
    simulate,
    write_records_csv,
)


class criterion:
    """Context manager printing one PASS/FAIL line per criterion."""

    def __init__(self, number, title):
        self.number = number
        self.title = title
        self.start = None

    def __enter__(self):
        self.start = time.time()
        return self

    def __exit__(self, exc_type, exc, tb):
        verdict = "PASS" if exc_type is None else "FAIL"
        elapsed = time.time() - self.start
        print(
            f"\n[ACCEPTANCE] criterion {self.number} ({self.title}): "
            f"{verdict} ({elapsed:.1f}s)"
        )
        return False


@pytest.fixture(scope="module")
def default_dataset():
    return generate_synthetic(SyntheticSpec(seed=0))


def test_c01_gradient_correctness():
    with criterion(1, "gradient correctness"):
        model = build(
            ModelConfig(input_len=32, n_classes=3, seed=0, dtype=np.float64)
        )
        rng = np.random.Generator(np.random.PCG64(0))
        err = gradient_check(
            model, rng.normal(size=32), label=1, n_samples=25, seed=0
        )
        print(f"max relative gradient error: {err:.3e}")
        assert err < 1e-4


def test_c02_dsp_identities():
    with criterion(2, "DSP identities"):
        rng = np.random.Generator(np.random.PCG64(1))
        # Parseval on 100 random 2^10 frames
        for _ in range(100):
            x = rng.normal(size=1024)
            bins = np.sqrt(power_spectra(x))
            full_power = bins[0] ** 2 + bins[-1] ** 2 + 2 * np.sum(bins[1:-1] ** 2)
            time_energy = np.sum(x * x)
            assert abs(full_power / 1024 - time_energy) <= 1e-9 * time_energy
        # on-grid cosine: single peak of magnitude N/2
        n = 1024
        x = np.cos(2 * np.pi * 37 * np.arange(n) / n)
        bins = np.sqrt(power_spectra(x))
        assert abs(bins[37] - n / 2) <= 1e-9
        assert np.max(np.delete(bins, 37)) <= 1e-9 * (n / 2)
        # Butterworth DC rejection after 0.5 s of settling
        sr = 24000
        out = highpass_butterworth(AudioClip(np.ones(sr), sr), 200.0)
        assert np.max(np.abs(out.samples[sr // 2 :])) < 1e-3


def test_c03_snr_fidelity():
    with criterion(3, "SNR fidelity"):
        sr = 24000
        t = np.arange(sr) / sr
        clip = AudioClip(0.4 * np.sin(2 * np.pi * 800 * t), sr)
        for target in (-6.0, 0.0, 6.0):
            measured = []
            for seed in range(10):
                noisy = add_noise_snr(clip, target, standard_normals(seed, np.empty(sr)))
                noise = AudioClip(noisy.samples - clip.samples, sr)
                measured.append(measure_snr(clip, noise))
            mean = float(np.mean(measured))
            print(f"target {target:+.0f} dB -> measured {mean:+.4f} dB")
            assert abs(mean - target) <= 0.1


def _oracle_knn(features, labels, query, k):
    dists = sorted(
        (float(np.sqrt(np.sum((f - query) ** 2))), i)
        for i, f in enumerate(features)
    )
    votes = Counter(int(labels[i]) for _, i in dists[:k])
    top = max(votes.values())
    return min(c for c, v in votes.items() if v == top)


def _oracle_mfcc(values, sample_rate, n_filters, n_coeffs):
    n = len(values)
    k = np.arange(n)
    dft = np.exp(-2j * np.pi * np.outer(k, k) / n) @ values
    power = np.abs(dft[: n // 2 + 1]) ** 2
    mel_hi = 2595.0 * np.log10(1.0 + (sample_rate / 2) / 700.0)
    edges = 700.0 * (10.0 ** (np.linspace(0.0, mel_hi, n_filters + 2) / 2595.0) - 1.0)
    energies = np.zeros(n_filters)
    for i in range(n_filters):
        lo, mid, hi = edges[i], edges[i + 1], edges[i + 2]
        for j in range(n // 2 + 1):
            f = j * sample_rate / n
            if lo <= f <= mid:
                w = (f - lo) / (mid - lo)
            elif mid < f <= hi:
                w = (hi - f) / (hi - mid)
            else:
                w = 0.0
            energies[i] += w * power[j]
    logged = np.log(np.maximum(energies, 1e-10))
    out = np.zeros(n_coeffs)
    for c in range(n_coeffs):
        acc = sum(
            logged[i] * np.cos(np.pi * c * (2 * i + 1) / (2 * n_filters))
            for i in range(n_filters)
        )
        scale = np.sqrt(1.0 / n_filters) if c == 0 else np.sqrt(2.0 / n_filters)
        out[c] = scale * acc
    return out


def test_c04_oracle_equivalence():
    with criterion(4, "oracle equivalence (KNN + MFCC)"):
        rng = np.random.Generator(np.random.PCG64(2))
        feats = rng.normal(size=(60, 10))
        labels = rng.integers(0, 5, 60)
        for trial in range(200):
            k = (1, 3, 5, 7)[trial % 4]
            model = KnnModel(feats, labels, k=k)
            q = rng.normal(size=10)
            assert knn_classify_batch(model, q[None])[0] == _oracle_knn(feats, labels, q, k)
        for _ in range(100):
            x = rng.normal(size=256)
            got = mfcc_features(x[None], 24000)[0]
            want = _oracle_mfcc(x, 24000, 26, 13)
            assert np.max(np.abs(got - want)) <= 1e-9


def test_c05_convergence_bound(default_dataset):
    with criterion(5, "convergence within 200 iterations at +6 dB"):
        ds = default_dataset
        pipe = PipelineConfig(snr_db=6.0, noise_seed=0)
        per_clip = clip_frame_features(ds, pipe)
        train_idx, val_idx = stratified_fraction_split(ds.labels, 0.7, seed=0)
        fold = prepare_fold(per_clip, ds.labels, train_idx, val_idx, True)
        val_X = np.vstack(fold.test_features)
        val_y = np.concatenate(
            [np.full(len(per_clip[i]), ds.labels[i]) for i in val_idx]
        )
        model = build(ModelConfig(input_len=512, n_classes=4, seed=0))
        history = train(
            model, fold.train_features, fold.train_labels,
            TrainConfig(iterations=200, seed=0), validation=(val_X, val_y),
        )
        best = max(r.val_accuracy for r in history if r.val_accuracy is not None)
        print(f"best validation accuracy within 200 iterations: {best:.4f}")
        assert best >= 0.95


def test_c06_multiview_advantage(default_dataset):
    with criterion(6, "multi-view advantage ordering at -6 dB"):
        ds = default_dataset
        methods = ("multiview", "single_view_cnn", "knn_spectrum")
        means = {}
        accs = {m: [] for m in methods}
        for seed in range(5):
            pipe = PipelineConfig(snr_db=-6.0, noise_seed=seed)
            per_clip = clip_frame_features(ds, pipe)
            train_idx, test_idx = stratified_fraction_split(ds.labels, 0.7, seed=seed)
            fold = prepare_fold(per_clip, ds.labels, train_idx, test_idx, True)
            for m in methods:
                clf = make_method(m, ds.n_classes, 512, seed=seed)
                cm = evaluate_split(
                    ds.labels, test_idx, fold, clf, ds.n_classes, clip_level=False,
                )
                accs[m].append(compute_metrics(cm).accuracy)
        for m in methods:
            means[m] = float(np.mean(accs[m]))
            print(f"{m}: mean frame accuracy over 5 seeds = {means[m]:.4f}")
        assert means["multiview"] >= means["single_view_cnn"]
        assert means["multiview"] >= means["knn_spectrum"]
        assert means["single_view_cnn"] >= means["knn_spectrum"]


def test_c07_silence_removal():
    with criterion(7, "silence removal recovery and idempotence"):
        sr = 24000
        t = np.arange(sr) / sr
        active = 0.5 * np.sin(2 * np.pi * 900 * t)
        samples = np.concatenate([np.zeros(sr), active, np.zeros(sr)])
        out = remove_silence(AudioClip(samples, sr), SilenceConfig(threshold=0.03))
        np.testing.assert_array_equal(out.samples, active)
        rng = np.random.Generator(np.random.PCG64(3))
        cfg = SilenceConfig(threshold=0.1, window_seconds=0.25)
        for _ in range(50):
            n = int(rng.integers(100, 20000))
            x = rng.normal(0, 0.3, n) * (rng.random(n) < 0.5)
            once = remove_silence(AudioClip(x, 8000), cfg)
            if len(once) == 0:
                continue
            twice = remove_silence(once, cfg)
            np.testing.assert_array_equal(once.samples, twice.samples)


def test_c08_harness_integrity():
    with criterion(8, "harness integrity (folds, chance level, pooling)"):
        # stratified folds: disjoint, exhaustive, per-class balance +/-1
        rng = np.random.Generator(np.random.PCG64(4))
        for trial in range(10):
            n = int(rng.integers(20, 100))
            labels = rng.integers(0, 4, n)
            if n < 10:
                continue
            folds = kfold_split(labels, 10, seed=trial)
            merged = np.concatenate(folds)
            assert len(merged) == n and len(np.unique(merged)) == n
            for cls in np.unique(labels):
                counts = [int(np.sum(labels[f] == cls)) for f in folds]
                assert max(counts) - min(counts) <= 1

        # shuffled labels: every method within 3 sigma of chance
        ds = generate_synthetic(
            SyntheticSpec(clips_per_class=12, clip_seconds=1.0, seed=0)
        )
        shuffle_rng = np.random.Generator(np.random.PCG64(5))
        shuffled = ClipDataset(
            ds.clips, shuffle_rng.permutation(ds.labels), ds.n_classes,
            ds.label_names,
        )
        pipe = PipelineConfig(window_len=2**12, feature_len=128)
        n_clips = len(ds)
        chance = 1.0 / ds.n_classes
        sigma = np.sqrt(chance * (1 - chance) / n_clips)
        for m in ("multiview", "single_view_cnn", "knn_spectrum", "knn_mfcc"):
            result = run_cv(
                shuffled, m, k=10, seed=0, pipeline=pipe,
                iterations=40, batch_size=16,
            )
            acc = result.report.accuracy
            print(f"shuffled-label accuracy [{m}]: {acc:.4f} "
                  f"(chance {chance:.2f}, 3 sigma {3 * sigma:.4f})")
            assert abs(acc - chance) <= 3 * sigma

        # pooled accuracy equals the sample-weighted fold mean
        real = run_cv(ds, "knn_spectrum", k=10, seed=0, pipeline=pipe)
        sizes = [len(f) for f in kfold_split(ds.labels, 10, seed=0)]
        weighted = sum(
            s * acc for s, (acc, _, _, _) in zip(sizes, real.report.fold_metrics)
        ) / sum(sizes)
        assert abs(real.report.accuracy - weighted) <= 1e-12


def test_c09_protocol_and_simulator(tmp_path):
    with criterion(9, "protocol round trip, CRC, outage routing"):
        rng = np.random.Generator(np.random.PCG64(6))
        for _ in range(1000):
            msg = SpectrumMessage(
                int(rng.integers(0, 2**16)), int(rng.integers(0, 2**32)),
                int(rng.integers(0, 2**48)),
                rng.normal(size=int(rng.integers(1, 128))).astype(np.float32),
            )
            back = decode(encode(msg))
            assert (
                back.node_id == msg.node_id
                and back.sequence_no == msg.sequence_no
                and back.timestamp_ms == msg.timestamp_ms
                and back.payload.tobytes() == msg.payload.tobytes()
            )
        # single-bit corruption is always detected
        blob = encode(
            SpectrumMessage(3, 9, 1234, rng.normal(size=16).astype(np.float32))
        )
        for byte_index in range(len(blob)):
            for bit in range(8):
                corrupted = bytearray(blob)
                corrupted[byte_index] ^= 1 << bit
                with pytest.raises((CrcMismatch, BadMagic, Truncated, ValueError)):
                    decode(bytes(corrupted))

        # outage routing and determinism
        nodes = (
            NodeSpec(),
            NodeSpec(fallback_classes=(0, 2), link_outages=((400, 900),)),
            NodeSpec(fallback_classes=(0, 1), link_outages=()),
        )
        scenario = Scenario(
            n_nodes=3, clips_per_node=2, clip_seconds=0.6, n_classes=3,
            feature_len=64, window_len=2**11, nodes=nodes, seed=0,
            server_outages=((1500, 1700),),
        )
        server = build(ModelConfig(input_len=64, n_classes=3, seed=0))
        fallbacks = {
            2: build(ModelConfig(input_len=64, n_classes=2, seed=12)),
            3: build(ModelConfig(input_len=64, n_classes=2, seed=13)),
        }
        result = simulate(scenario, server, fallbacks)
        assert result.records
        for r in result.records:
            in_link = r.node_id == 2 and 400 <= r.timestamp_ms < 900
            in_server = 1500 <= r.timestamp_ms < 1700
            assert (r.origin == "node_fallback") == (in_link or in_server)
            if r.origin == "node_fallback":
                subset = scenario.nodes[r.node_id - 1].fallback_classes
                assert r.predicted in subset
        assert any(r.origin == "node_fallback" for r in result.records)
        p1, p2 = tmp_path / "run1.csv", tmp_path / "run2.csv"
        write_records_csv(p1, simulate(scenario, server, fallbacks))
        write_records_csv(p2, simulate(scenario, server, fallbacks))
        assert p1.read_bytes() == p2.read_bytes()


def test_c10_end_to_end_determinism(tmp_path):
    with criterion(10, "bit-identical training runs via the CLI"):
        args = [
            sys.executable, "-m", "mvcnn", "train",
            "--classes", "4", "--clips-per-class", "8", "--clip-seconds", "2.0",
            "--window", "16384", "--feature-len", "512",
            "--iters", "200", "--seed", "0",
            "--out", "model.mvc", "--history", "history.csv",
        ]
        dirs = []
        for run in (1, 2):
            workdir = tmp_path / f"run{run}"
            workdir.mkdir()
            proc = subprocess.run(
                args, cwd=workdir, capture_output=True, text=True, timeout=540
            )
            assert proc.returncode == 0, proc.stderr
            dirs.append(workdir)
        model_a = (dirs[0] / "model.mvc").read_bytes()
        model_b = (dirs[1] / "model.mvc").read_bytes()
        assert model_a == model_b
        hist_a = (dirs[0] / "history.csv").read_bytes()
        hist_b = (dirs[1] / "history.csv").read_bytes()
        assert hist_a == hist_b
        print(f"model file: {len(model_a)} bytes, histories identical")
