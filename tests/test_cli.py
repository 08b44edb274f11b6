import os
import re
import subprocess
import sys

import numpy as np
import pytest

from mvcnn.audio import AudioClip, save_wav
from mvcnn.cli import dispatch, main
from mvcnn.evaluation import (
    PipelineConfig,
    SyntheticSpec,
    clip_frame_features,
    generate_synthetic,
    load_manifest,
    make_method,
    prepare_fold,
    save_dataset,
    stratified_fraction_split,
)
from mvcnn.model import ModelConfig, build, load, save, train
from mvcnn.wasn import NodeConfig, node_process

SMALL_DATA = ["--classes", "3", "--clips-per-class", "4", "--clip-seconds", "0.5"]
SMALL_PIPE = ["--window", "2048", "--feature-len", "64"]


def test_unknown_verb_exits_2():
    with pytest.raises(SystemExit) as exc:
        dispatch(["badverb"])
    assert exc.value.code == 2


def test_unknown_verb_subprocess_prints_usage():
    proc = subprocess.run(
        [sys.executable, "-m", "mvcnn", "badverb"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2
    assert "usage" in proc.stderr.lower()


def test_help_for_each_verb():
    for verb in ("synth", "prep", "train", "eval", "sweep", "gradcheck",
                 "simulate", "tune-threshold"):
        with pytest.raises(SystemExit) as exc:
            dispatch([verb, "--help"])
        assert exc.value.code == 0


def test_window_must_be_standard_power_of_two():
    with pytest.raises(SystemExit) as exc:
        dispatch(["prep", "--window", "3000", "--out", "x.npz"])
    assert exc.value.code == 2


def test_gradcheck_passes(capsys):
    assert dispatch(["gradcheck", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert "max relative gradient error" in out


def test_synth_writes_corpus(tmp_path):
    out = tmp_path / "corpus"
    code = dispatch(["synth", *SMALL_DATA, "--seed", "1", "--out", str(out)])
    assert code == 0
    dataset = load_manifest(out / "manifest.csv")
    assert len(dataset) == 12
    info = (out / "run_info.txt").read_text()
    assert info.startswith("mvcnn synth")
    assert "--seed 1" in info


def test_synth_files_match_the_eager_dataset(tmp_path):
    # synth streams its clips; the files are those of the whole dataset saved at once
    code = dispatch(["synth", *SMALL_DATA, "--seed", "4", "--sample-rate", "16000",
                     "--out", str(tmp_path / "cli")])
    assert code == 0
    spec = SyntheticSpec(n_classes=3, clips_per_class=4, clip_seconds=0.5,
                         sample_rate=16000, seed=4)
    save_dataset(generate_synthetic(spec), tmp_path / "eager")
    eager = sorted(p.name for p in (tmp_path / "eager").iterdir())
    assert len(eager) == 13 and "manifest.csv" in eager
    assert sorted(p.name for p in (tmp_path / "cli").iterdir()) == eager + ["run_info.txt"]
    for name in eager:
        assert (tmp_path / "cli" / name).read_bytes() == \
            (tmp_path / "eager" / name).read_bytes(), name


def test_prep_writes_features_with_flags(tmp_path):
    out = tmp_path / "features.npz"
    code = dispatch(["prep", *SMALL_DATA, *SMALL_PIPE, "--out", str(out)])
    assert code == 0
    archive = np.load(out)
    assert archive["features"].shape[1] == 64
    assert archive["features"].shape[0] == len(archive["clip_index"])
    assert str(archive["flags"]).startswith("mvcnn prep")


def test_prep_with_highpass_and_mfcc(tmp_path):
    out = tmp_path / "mfcc.npz"
    code = dispatch([
        "prep", *SMALL_DATA, *SMALL_PIPE, "--mfcc", "--highpass", "200",
        "--out", str(out),
    ])
    assert code == 0
    assert np.load(out)["features"].shape[1] == 13


def small_synthetic(seed=0):
    return generate_synthetic(
        SyntheticSpec(n_classes=3, clips_per_class=4, clip_seconds=0.5, seed=seed)
    )


def test_prep_training_and_node_compute_one_clip_alike(tmp_path):
    out = tmp_path / "hp.npz"
    code = dispatch([
        "prep", *SMALL_DATA, *SMALL_PIPE, "--highpass", "200", "--out", str(out),
    ])
    assert code == 0
    archive = np.load(out)
    dataset = small_synthetic()
    pipeline = PipelineConfig(window_len=2048, feature_len=64, highpass_hz=200.0)
    rows = clip_frame_features(dataset, pipeline)[0]
    assert len(rows)
    np.testing.assert_array_equal(archive["features"][archive["clip_index"] == 0], rows)
    node = NodeConfig(node_id=1, window_len=2048, feature_len=64)
    payloads = [m.payload for m in node_process(dataset.clips[0], node)]
    np.testing.assert_array_equal(np.array(payloads), rows.astype(np.float32))


def test_prep_adds_noise_before_the_high_pass(tmp_path):
    # as on a node, which filters what it records
    out = tmp_path / "noisy.npz"
    code = dispatch([
        "prep", *SMALL_DATA, *SMALL_PIPE, "--snr", "0", "--highpass", "200",
        "--seed", "2", "--out", str(out),
    ])
    assert code == 0
    pipeline = PipelineConfig(
        window_len=2048, feature_len=64, snr_db=0.0, noise_seed=2, highpass_hz=200.0,
    )
    want = np.vstack(clip_frame_features(small_synthetic(seed=2), pipeline))
    np.testing.assert_array_equal(np.load(out)["features"], want)


def train_args(out, history=None, seed="3"):
    args = [
        "train", *SMALL_DATA, *SMALL_PIPE, "--iters", "8", "--seed", seed,
        "--out", str(out),
    ]
    if history:
        args += ["--history", str(history)]
    return args


def test_train_writes_model_and_history(tmp_path):
    out = tmp_path / "model.mvc"
    hist = tmp_path / "hist.csv"
    assert dispatch(train_args(out, hist)) == 0
    model = load(out)
    assert model.config.input_len == 64
    assert model.config.n_classes == 3
    lines = hist.read_text().splitlines()
    assert lines[0].startswith("# mvcnn train")
    assert "--seed 3" in lines[0]
    assert lines[1] == "iteration,loss,val_accuracy"
    assert len(lines) == 2 + 8


def test_train_deterministic_outputs(tmp_path):
    out1, h1 = tmp_path / "a.mvc", tmp_path / "a.csv"
    out2, h2 = tmp_path / "b.mvc", tmp_path / "b.csv"
    assert dispatch(train_args(out1, h1)) == 0
    assert dispatch(train_args(out2, h2)) == 0
    assert out1.read_bytes() == out2.read_bytes()
    # history differs only in the embedded --out/--history flags
    assert h1.read_text().splitlines()[1:] == h2.read_text().splitlines()[1:]


def test_train_single_saves_the_single_view_method(tmp_path):
    # train --arch single builds and trains what the harness's single_view_cnn does
    out = tmp_path / "single.mvc"
    assert dispatch([*train_args(out), "--arch", "single", "--val-fraction", "0.5"]) == 0
    dataset = small_synthetic(seed=3)
    pipeline = PipelineConfig(window_len=2048, feature_len=64)
    method = make_method("single_view_cnn", 3, 64, 3, iterations=8)
    assert method.model_cfg.view_widths == (10,)
    per_clip = clip_frame_features(dataset, pipeline)
    train_idx, val_idx = stratified_fraction_split(dataset.labels, 0.5, seed=3)
    fold = prepare_fold(per_clip, dataset.labels, train_idx, val_idx, True)
    model = build(method.model_cfg)
    train(model, fold.train_features, fold.train_labels, method.train_cfg)
    model.norm_stats = fold.stats
    save(model, tmp_path / "want.mvc")
    assert out.read_bytes() == (tmp_path / "want.mvc").read_bytes()


@pytest.mark.parametrize("fraction", ["0", "1", "1.5", "nan"])
def test_train_val_fraction_checked_first(tmp_path, capsys, monkeypatch, fraction):
    def no_features(*args, **kwargs):
        raise AssertionError("features extracted before --val-fraction was checked")

    monkeypatch.setattr("mvcnn.cli.clip_frame_features", no_features)
    args = [*train_args(tmp_path / "m.mvc"), "--val-fraction", fraction]
    assert dispatch(args) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: --val-fraction must be in (0, 1), got {float(fraction)}"
    ]


def test_eval_knn_writes_metrics(tmp_path, capsys):
    out = tmp_path / "metrics.csv"
    code = dispatch([
        "eval", *SMALL_DATA, *SMALL_PIPE, "--method", "knn_spectrum",
        "--k", "3", "--seed", "0", "--out", str(out),
    ])
    assert code == 0
    printed = capsys.readouterr().out
    assert "pooled accuracy" in printed
    assert "skipped" not in printed  # every clip has frames
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# mvcnn eval")
    assert lines[1] == "axis,value,method,fold,seed,accuracy,precision,recall,f1"
    assert len(lines) == 2 + 3


def test_eval_reports_skipped_clips(tmp_path, capsys):
    dataset = generate_synthetic(SyntheticSpec(n_classes=3, clips_per_class=4,
                                               clip_seconds=0.5))
    silent = AudioClip(np.zeros_like(dataset.clips[2].samples), 24000)
    dataset.clips[2] = silent
    manifest = save_dataset(dataset, tmp_path / "corpus")
    code = dispatch([
        "eval", "--manifest", str(manifest), *SMALL_PIPE, "--method", "knn_spectrum",
        "--k", "3", "--seed", "0",
    ])
    assert code == 0
    assert "skipped 1 test clips without frames" in capsys.readouterr().out


def test_sweep_reports_skipped_clips(tmp_path, capsys):
    dataset = generate_synthetic(SyntheticSpec(n_classes=3, clips_per_class=4,
                                               clip_seconds=0.5))
    dataset.clips[2] = AudioClip(np.zeros_like(dataset.clips[2].samples), 24000)
    manifest = save_dataset(dataset, tmp_path / "corpus")
    out = tmp_path / "sweep.csv"
    code = dispatch([
        "sweep", "--manifest", str(manifest), *SMALL_PIPE, "--axis", "window_size",
        "--grid", "2048", "--methods", "knn_spectrum", "--seeds", "0,1", "--k", "3",
        "--out", str(out),
    ])
    assert code == 0
    # one skip per (value, method, seed) run, not one per fold row
    assert "skipped 2 test clips without frames" in capsys.readouterr().out
    assert out.read_text().splitlines()[1] == (
        "axis,value,method,fold,seed,accuracy,precision,recall,f1"
    )


def test_sweep_row_count(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code = dispatch([
        "sweep", *SMALL_DATA, *SMALL_PIPE, "--axis", "snr", "--grid", "0,6",
        "--methods", "knn_spectrum", "--seeds", "0,1", "--k", "2",
        "--out", str(out),
    ])
    assert code == 0
    assert "skipped" not in capsys.readouterr().out  # every clip has frames
    lines = out.read_text().splitlines()
    # 2 values x 1 method x 2 folds x 2 seeds
    assert len(lines) == 2 + 8


def test_sweep_grid_may_start_with_a_negative_number(tmp_path):
    # argparse alone reads "-3,3" as an option; both spellings must run alike
    bodies = []
    for name, grid in (("spaced", ["--grid", "-3,3"]), ("joined", ["--grid=-3,3"])):
        out = tmp_path / f"{name}.csv"
        code = dispatch([
            "sweep", *SMALL_DATA, *SMALL_PIPE, "--axis", "snr", *grid,
            "--methods", "knn_spectrum", "--k", "2", "--out", str(out),
        ])
        assert code == 0
        bodies.append([l for l in out.read_text().splitlines() if not l.startswith("#")])
    assert bodies[0] == bodies[1]
    assert [l.split(",")[1] for l in bodies[0][1:]] == ["-3", "-3", "3", "3"]


def test_negative_seed_list_is_one_error_line(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "mvcnn", "sweep", *SMALL_DATA, *SMALL_PIPE,
         "--axis", "snr", "--grid", "0", "--methods", "knn_spectrum",
         "--seeds", "-1,0", "--k", "2", "--out", str(tmp_path / "sweep.csv")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 1
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and "seed" in lines[0]


BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.mark.parametrize(
    "preset, want",
    ((None, ("2", "2", "2")), ("1", ("2", "1", "2"))),
    ids=("unset", "openblas-preset"),
)
def test_mvcnn_threads_caps_blas_pools(preset, want):
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env["MVCNN_THREADS"] = "2"
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    proc = subprocess.run(
        [sys.executable, "-c",
         f"import os, mvcnn.cli; print(*(os.environ[v] for v in {BLAS_THREAD_VARS}))"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert tuple(proc.stdout.split()) == want


SCENARIO = """
nodes = 2
seed = 0
clips_per_node = 1
clip_seconds = 0.6
n_classes = 3
feature_len = 64
window_len = 2048

[node 2]
fallback_classes = 0, 1
link_outage = 0..100000
"""


def test_simulate_end_to_end(tmp_path):
    scn = tmp_path / "test.scn"
    scn.write_text(SCENARIO)
    out = tmp_path / "records.csv"
    code = dispatch([
        "simulate", "--scenario", str(scn), "--iters", "12",
        "--seed", "0", "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# mvcnn simulate")
    header_idx = next(i for i, l in enumerate(lines) if not l.startswith("#"))
    assert lines[header_idx] == "node,sequence,timestamp_ms,origin,predicted,latency_ms"
    rows = [l.split(",") for l in lines[header_idx + 1 :]]
    assert rows
    node2 = [r for r in rows if r[0] == "2"]
    assert node2 and all(r[3] == "node_fallback" for r in node2)
    assert all(r[4] in ("0", "1") for r in node2)
    node1 = [r for r in rows if r[0] == "1"]
    assert node1 and all(r[3] == "server" for r in node1)


def test_bad_scenario_value_is_one_error_line(tmp_path):
    scn = tmp_path / "bad.scn"
    scn.write_text("nodes = 2\n[node 2]\nclock_skew_ms = abc\n")
    proc = subprocess.run(
        [sys.executable, "-m", "mvcnn", "simulate", "--scenario", str(scn),
         "--out", str(tmp_path / "records.csv")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: line 3:")


def test_invalid_scenario_fails_before_training(tmp_path):
    scn = tmp_path / "bad.scn"
    scn.write_text("feature_len = 9000\n[node 1]\nfallback_classes = 0, 1\n")
    proc = subprocess.run(
        [sys.executable, "-m", "mvcnn", "simulate", "--scenario", str(scn),
         "--out", str(tmp_path / "records.csv")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 1
    assert proc.stdout == ""  # no "training ..." line
    assert proc.stderr.splitlines() == [
        "error: feature length 9000 outside [1, 8193] spectrum bins"
    ]


def test_model_without_views_is_one_error_line(tmp_path):
    path = tmp_path / "zero.mvc"
    save(build(ModelConfig(input_len=6, n_classes=2, layer_depths=(1, 1, 1))), path)
    blob = bytearray(path.read_bytes())
    blob[14:18] = (0).to_bytes(4, "little")  # n_views
    path.write_bytes(bytes(blob))
    (tmp_path / "s.scn").write_text("nodes = 1\n")
    proc = subprocess.run(
        [sys.executable, "-m", "mvcnn", "simulate", "--scenario",
         str(tmp_path / "s.scn"), "--model", str(path),
         "--out", str(tmp_path / "records.csv")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0] == "error: model file declares no views"


def test_model_with_other_class_count_is_one_error_line(tmp_path):
    # a 3-class model on a scenario of the default 4 classes
    path = tmp_path / "three.mvc"
    save(build(ModelConfig(input_len=NodeConfig.feature_len, n_classes=3)), path)
    (tmp_path / "s.scn").write_text("nodes = 2\nclips_per_node = 1\n")
    out = tmp_path / "records.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "mvcnn", "simulate", "--scenario",
         str(tmp_path / "s.scn"), "--model", str(path), "--out", str(out)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr.splitlines() == [
        "error: server model maps 512 features to 3 classes, "
        "scenario has 512 features and 4 classes"
    ]
    assert not out.exists()


def test_mismatched_model_is_refused_before_fallback_training(tmp_path):
    # the same 3-class model on a 4-class scenario whose node 2 needs a
    # fallback model: the refusal comes before any model is trained
    path = tmp_path / "three.mvc"
    save(build(ModelConfig(input_len=NodeConfig.feature_len, n_classes=3)), path)
    (tmp_path / "s.scn").write_text(
        "nodes = 2\nclips_per_node = 1\n[node 2]\nfallback_classes = 0, 1\n"
    )
    out = tmp_path / "records.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "mvcnn", "simulate", "--scenario",
         str(tmp_path / "s.scn"), "--model", str(path), "--out", str(out)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 1
    assert "training fallback models" not in proc.stdout
    assert proc.stderr.splitlines() == [
        "error: server model maps 512 features to 3 classes, "
        "scenario has 512 features and 4 classes"
    ]
    assert not out.exists()


def test_window_longer_than_a_clip_is_refused_before_training(tmp_path):
    # 2 s clips at 24 kHz hold 48000 samples, so no 65536-sample window fits
    (tmp_path / "s.scn").write_text("nodes = 2\nclips_per_node = 1\nwindow_len = 65536\n")
    out = tmp_path / "records.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "mvcnn", "simulate", "--scenario",
         str(tmp_path / "s.scn"), "--out", str(out)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 1
    assert "training" not in proc.stdout
    assert proc.stderr.splitlines() == [
        "error: window_len 65536 is longer than a clip's 48000 samples"
    ]
    assert not out.exists()


def test_silence_threshold_that_leaves_a_class_no_frame_is_one_error_line(tmp_path):
    # the synthetic clips' loudest windows read an RMS near 0.154, so a
    # threshold of 0.5 (in SilenceConfig's range) silences every frame
    (tmp_path / "s.scn").write_text(
        "nodes = 1\nclips_per_node = 1\nclip_seconds = 1.0\nwindow_len = 2048\n"
        "silence_threshold = 0.5\n"
    )
    out = tmp_path / "records.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "mvcnn", "simulate", "--scenario",
         str(tmp_path / "s.scn"), "--iters", "1", "--out", str(out)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr.splitlines() == [
        "error: silence_threshold 0.5 leaves class 0 no training frame"
    ]
    assert not out.exists()


def test_saved_model_on_a_scenario_that_sends_nothing_is_one_error_line(tmp_path):
    # the scenario above with a saved model: no model trains, so it is the
    # simulator that finds no node sent a window, before any CSV is written
    path = tmp_path / "server.mvc"
    save(build(ModelConfig(input_len=NodeConfig.feature_len, n_classes=4)), path)
    (tmp_path / "s.scn").write_text(
        "nodes = 1\nclips_per_node = 1\nclip_seconds = 1.0\nwindow_len = 2048\n"
        "silence_threshold = 0.5\n"
    )
    out = tmp_path / "records.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "mvcnn", "simulate", "--scenario",
         str(tmp_path / "s.scn"), "--model", str(path), "--out", str(out)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr.splitlines() == [
        "error: silence_threshold 0.5 leaves no node a window to send"
    ]
    assert not out.exists()


def write_stereo_manifest(tmp_path):
    """A manifest of one WAV that save_wav wrote, its header then set to 2 channels."""
    save_wav(tmp_path / "a.wav", AudioClip(np.zeros(100), 24000))
    blob = bytearray((tmp_path / "a.wav").read_bytes())
    blob[22:24] = (2).to_bytes(2, "little")
    (tmp_path / "a.wav").write_bytes(bytes(blob))
    (tmp_path / "stereo.csv").write_text("path,label\na.wav,x\n")
    return tmp_path / "stereo.csv"


def write_version_2_model(tmp_path):
    """A saved server model whose header declares format version 2."""
    path = tmp_path / "v2.mvc"
    save(build(ModelConfig(input_len=NodeConfig.feature_len, n_classes=4)), path)
    blob = bytearray(path.read_bytes())
    blob[4:6] = (2).to_bytes(2, "little")
    path.write_bytes(bytes(blob))
    return path


# input files named in argv below, each written into the test's directory
INPUT_FILES = {"stereo.csv": write_stereo_manifest, "v2.mvc": write_version_2_model}


@pytest.mark.parametrize(
    "argv, scenario",
    [
        (["prep", *SMALL_DATA, *SMALL_PIPE, "--silence-threshold", "0.9"], None),
        (["simulate"], "silence_threshold = 0.9\n"),
        (["simulate"], "window_len = 1000\n"),
        (["sweep", *SMALL_DATA, *SMALL_PIPE, "--axis", "snr", "--grid", "0",
          "--methods", "knn_bogus", "--k", "2"], None),
        (["sweep", *SMALL_DATA, *SMALL_PIPE, "--axis", "train_fraction",
          "--grid", "1.5", "--methods", "knn_spectrum", "--k", "2"], None),
        (["sweep", *SMALL_DATA, *SMALL_PIPE, "--axis", "train_fraction",
          "--grid", "0.5", "--methods", "knn_spectrum", "--k", "0"], None),
        (["synth", *SMALL_DATA, "--seed", "-1"], None),
        (["prep", *SMALL_DATA, *SMALL_PIPE, "--seed", "-1"], None),
        (["train", *SMALL_DATA, *SMALL_PIPE, "--seed", "-1"], None),
        (["eval", *SMALL_DATA, *SMALL_PIPE, "--method", "knn_spectrum",
          "--seed", "-1"], None),
        (["sweep", *SMALL_DATA, *SMALL_PIPE, "--axis", "snr", "--seed", "-1"], None),
        (["simulate", "--iters", "1", "--seed", "-1"],
         "nodes = 1\nclip_seconds = 0.5\nwindow_len = 2048\nfeature_len = 64\n"),
        (["tune-threshold", "--seed", "-1"], None),
        (["train", *SMALL_DATA, *SMALL_PIPE, "--batch", "0"], None),
        (["train", *SMALL_DATA, *SMALL_PIPE, "--lr", "nan"], None),
        (["train", *SMALL_DATA, *SMALL_PIPE, "--iters", "-3"], None),
        (["eval", *SMALL_DATA, *SMALL_PIPE, "--method", "knn_spectrum", "--k", "0"],
         None),
        (["tune-threshold", "--window-seconds", "0"], None),
        (["sweep", *SMALL_DATA, *SMALL_PIPE, "--axis", "snr", "--grid", "abc"], None),
        (["sweep", *SMALL_DATA, *SMALL_PIPE, "--axis", "snr", "--seeds", "x"], None),
        (["synth", *SMALL_DATA, "--clip-seconds", "nan"], None),
        (["synth", *SMALL_DATA, "--clip-seconds", "inf"], None),
        (["simulate"], "clip_seconds = nan\n"),
        (["synth", "--classes", "14", "--clips-per-class", "1", "--clip-seconds", "0.5"],
         None),
        (["synth", "--classes", "2000", "--clips-per-class", "1", "--clip-seconds", "0.5"],
         None),
        (["simulate"], "n_classes = 2000\n"),
        (["eval", *SMALL_DATA, *SMALL_PIPE, "--method", "knn_spectrum", "--snr", "4000"],
         None),
        (["eval", *SMALL_DATA, *SMALL_PIPE, "--method", "knn_spectrum", "--snr=-4000"],
         None),
        (["eval", *SMALL_DATA, *SMALL_PIPE, "--method", "knn_spectrum", "--snr=-inf"],
         None),
        (["eval", *SMALL_DATA, *SMALL_PIPE, "--method", "knn_spectrum", "--snr", "nan"],
         None),
        (["sweep", *SMALL_DATA, *SMALL_PIPE, "--axis", "snr", "--grid", "4000",
          "--methods", "knn_spectrum"], None),
        (["eval", *SMALL_DATA, *SMALL_PIPE, "--method", "knn_spectrum", "--snr=-3070"],
         None),
        (["tune-threshold", "--window-seconds", "nan"], None),
        (["tune-threshold", "--window-seconds", "inf"], None),
        (["prep", "--overlap", "1.5"], None),
        (["prep", "--feature-len", "9000"], None),
        (["prep", "--highpass", "20000"], None),
        (["eval", "--method", "knn_spectrum", "--classes", "2", "--clips-per-class", "2",
          "--k", "10"], None),
        (["prep", "--manifest", "stereo.csv"], None),
        (["simulate", "--model", "v2.mvc"], "nodes = 1\n"),
        (["simulate"], "nodes = 1\nclips_per_node = 1\nclip_seconds = 1.0\n"
         "window_len = 2048\nmax_skew_ms = 1000\n[node 1]\nclock_skew_ms = -500\n"),
    ],
    ids=["prep-threshold", "scenario-threshold", "scenario-window", "sweep-method",
         "sweep-fraction", "sweep-k", "synth-seed", "prep-seed", "train-seed", "eval-seed",
         "sweep-seed", "simulate-seed", "tune-threshold-seed", "train-batch",
         "train-lr", "train-iters", "eval-k", "tune-threshold-window", "sweep-grid",
         "sweep-seeds", "synth-seconds-nan", "synth-seconds-inf", "scenario-seconds-nan",
         "synth-classes-14", "synth-classes-2000", "scenario-classes-2000",
         "eval-snr-4000", "eval-snr-minus-4000", "eval-snr-minus-inf", "eval-snr-nan",
         "sweep-snr-4000", "eval-snr-minus-3070", "tune-threshold-window-nan",
         "tune-threshold-window-inf", "prep-overlap", "prep-feature-len",
         "prep-highpass", "eval-folds", "manifest-stereo-wav", "simulate-model-v2",
         "scenario-skew-before-0"],
)
def test_bad_setting_is_one_error_line(tmp_path, argv, scenario):
    argv = [str(INPUT_FILES[a](tmp_path)) if a in INPUT_FILES else a for a in argv]
    argv = [*argv, "--out", str(tmp_path / "out")]
    if scenario is not None:
        (tmp_path / "bad.scn").write_text(scenario)
        argv += ["--scenario", str(tmp_path / "bad.scn")]
    proc = subprocess.run(
        [sys.executable, "-m", "mvcnn", *argv], capture_output=True, text=True,
    )
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    if "--k" in argv and argv[argv.index("--k") + 1] == "0":
        assert re.search(r"\bk\b", lines[0])  # the message names the bad flag
    if any(a.startswith("--snr") for a in argv) or "4000" in argv:
        assert "snr_db" in lines[0]
    if "--window-seconds" in argv:
        assert "window_seconds" in lines[0]


# the CLI under a 2 GiB address-space limit, so an unchecked size fails fast
# with MemoryError instead of taking the machine's memory
LIMITED_CLI = ("import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (2**31, 2**31)); "
               "from mvcnn.cli import main; sys.exit(main())")


@pytest.mark.parametrize(
    "argv, scenario, message",
    [
        (["simulate"], "nodes = 9223372036854775808\n",
         "9223372036854775808 nodes, but an SPM1 node id is a u16"),
        (["simulate", "--model"], "clips_per_node = 9223372036854775807\n",
         "9223372036854775807 clips of up to 4 windows per node, but an SPM1 "
         "sequence number is a u32"),
        (["synth", "--clip-seconds", "1e300"], None,
         "clip_seconds 1e+300 at 24000 Hz is longer than the 2147483629 samples one "
         "16-bit mono WAV holds"),
    ],
    ids=["scenario-nodes-past-u16", "scenario-sequence-past-u32", "synth-clip-past-wav"],
)
def test_input_past_a_file_format_field_is_one_error_line(tmp_path, argv, scenario,
                                                          message):
    if "--model" in argv:
        save(build(ModelConfig(input_len=NodeConfig.feature_len, n_classes=4)),
             tmp_path / "server.mvc")
        argv = [*argv, str(tmp_path / "server.mvc")]
    argv = [*argv, "--out", str(tmp_path / "out")]
    if scenario is not None:
        (tmp_path / "big.scn").write_text(scenario)
        argv += ["--scenario", str(tmp_path / "big.scn")]
    proc = subprocess.run(
        [sys.executable, "-c", LIMITED_CLI, *argv], capture_output=True, text=True,
        timeout=120,
    )
    assert proc.returncode == 1
    assert proc.stderr.splitlines() == [f"error: {message}"]
    assert not (tmp_path / "out").exists()


def test_gradcheck_negative_seed_is_one_error_line():
    proc = subprocess.run(
        [sys.executable, "-m", "mvcnn", "gradcheck", "--seed", "-1"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 1
    assert proc.stderr.splitlines() == ["error: seed must be in [0, 2**64), got -1"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--samples", "0"], "n_samples must be >= 1, got 0"),
        (["--samples", "-1"], "n_samples must be >= 1, got -1"),
        (["--input-len", "2"], "input_len 2 < pool window 3"),
    ],
    ids=["samples-0", "samples-minus-1", "input-len-2"],
)
def test_gradcheck_bad_setting_is_one_error_line(capsys, argv, message):
    # no probed parameter would report a zero error without checking anything
    assert dispatch(["gradcheck", *argv]) == 1
    captured = capsys.readouterr()
    assert "gradient error" not in captured.out
    assert captured.err.splitlines() == [f"error: {message}"]


@pytest.mark.parametrize("flag", ["--classes", "--input-len"])
def test_gradcheck_unallocatable_model_is_one_error_line(capsys, flag):
    # 2**40 classes or input positions ask for a parameter array of 1.9 PiB or
    # 192 TiB, beyond any memory and any 47-bit address space, so numpy
    # refuses it before a page is touched
    assert main(["gradcheck", flag, "1099511627776"]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert re.fullmatch(r"error: cannot allocate a model of \d+ parameters", lines[0])


def test_runtime_error_exits_1(tmp_path, capsys):
    code = dispatch([
        "eval", "--manifest", str(tmp_path / "missing.csv"), "--method",
        "knn_spectrum",
    ])
    assert code == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("window", [[], ["--window-seconds", "1e15"]],
                         ids=["one-second", "longer-than-the-clips"])
def test_tune_threshold_with_manifest(tmp_path, capsys, window):
    sr = 8000
    t = np.arange(sr) / sr
    save_wav(tmp_path / "a.wav", AudioClip(0.5 * np.sin(2 * np.pi * 440 * t), sr))
    save_wav(tmp_path / "s.wav", AudioClip(np.zeros(sr), sr))
    (tmp_path / "m.csv").write_text(
        "path,label\na.wav,active\ns.wav,silent\n"
    )
    out = tmp_path / "rho.txt"
    code = dispatch([
        "tune-threshold", "--manifest", str(tmp_path / "m.csv"), *window,
        "--out", str(out),
    ])
    assert code == 0
    assert "best silence threshold: 0.01" in capsys.readouterr().out
    assert out.read_text().splitlines()[1] == "threshold,0.01"
