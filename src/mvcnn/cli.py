"""Command-line entry point: preprocessing, training, evaluation, sweeps,
gradient checks, synthetic data generation and offload simulation.

Every verb accepts --seed; every results file starts with a '#' comment
carrying the fully resolved flag set, so any run can be reproduced from
its output alone. Exit codes: 0 success, 1 runtime error, 2 usage error.
"""

import os

# cap BLAS parallelism before numpy initializes its thread pools
_threads = os.environ.get("MVCNN_THREADS")
if _threads:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, _threads)

import argparse
import re
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .audio import AudioClip, SilenceConfig, window_rms
from .errors import InvalidSetting, MvcnnError
from .evaluation import (
    DEFAULT_GRIDS,
    METHOD_NAMES,
    ClipDataset,
    PipelineConfig,
    SweepSpec,
    SyntheticClips,
    SyntheticSpec,
    clip_frame_features,
    fold_rows,
    generate_synthetic,
    load_manifest,
    make_method,
    prepare_fold,
    run_cv,
    run_sweep,
    save_dataset,
    stack_frames,
    stratified_fraction_split,
    tune_silence_threshold,
    write_results_csv,
)
from .model import ModelConfig, TrainConfig, build, gradient_check, load, save, train
from .wasn import (
    check_model,
    load_scenario,
    simulate,
    train_fallback_models,
    train_server_model,
    write_records_csv,
)


def resolved_flags(args) -> str:
    """The verb plus every resolved flag (defaults included), sorted."""
    skip = {"func", "verb"}
    parts = [f"mvcnn {args.verb}"]
    for key in sorted(vars(args)):
        if key in skip:
            continue
        value = getattr(args, key)
        if value is None:
            continue
        if isinstance(value, (list, tuple)):
            value = ",".join(str(v) for v in value)
        parts.append(f"--{key.replace('_', '-')} {value}")
    return " ".join(parts)


def add_pipeline_flags(p):
    p.add_argument("--window", type=int, default=PipelineConfig.window_len,
                   choices=DEFAULT_GRIDS["window_size"],
                   help="segment window length in samples")
    p.add_argument("--overlap", type=float, default=PipelineConfig.overlap,
                   help="segment overlap fraction in [0, 1)")
    p.add_argument("--silence-threshold", type=float, default=SilenceConfig.threshold,
                   help="RMS silence-removal threshold")
    p.add_argument("--feature-len", type=int, default=PipelineConfig.feature_len,
                   help="bin-averaged feature vector length")
    p.add_argument("--snr", type=float, default=PipelineConfig.snr_db,
                   help="inject Gaussian noise at this SNR (dB) before features")
    p.add_argument("--highpass", type=float, default=PipelineConfig.highpass_hz,
                   help="Butterworth high-pass cutoff (Hz) after any noise; "
                        "off by default, scenario nodes use 200")


def add_train_flags(p):
    p.add_argument("--lr", type=float, default=TrainConfig.learning_rate,
                   help="Adam learning rate")
    p.add_argument("--dropout", type=float, default=ModelConfig.keep_prob,
                   help="dropout rate = keep probability (0.8 keeps 80%%)")
    p.add_argument("--iters", type=int, default=TrainConfig.iterations,
                   help="training iterations")
    p.add_argument("--batch", type=int, default=TrainConfig.batch_size,
                   help="minibatch size")


def add_corpus_flags(p):
    p.add_argument("--classes", type=int, default=SyntheticSpec.n_classes,
                   help="synthetic class count")
    p.add_argument("--clips-per-class", type=int, default=SyntheticSpec.clips_per_class)
    p.add_argument("--clip-seconds", type=float, default=SyntheticSpec.clip_seconds)


def add_dataset_flags(p):
    p.add_argument("--manifest", type=Path, default=None,
                   help="path,label CSV of WAV clips (default: built-in synthetic set)")
    add_corpus_flags(p)


def parse_list(flag, text, kind):
    """A comma-separated flag value as a tuple of kind(item)."""
    try:
        return tuple(kind(v) for v in text.split(","))
    except (ValueError, OverflowError):
        raise InvalidSetting(f"{flag} takes comma-separated numbers, got {text!r}") from None


def get_dataset(args):
    if args.manifest is not None:
        return load_manifest(args.manifest)
    return generate_synthetic(
        SyntheticSpec(
            n_classes=args.classes,
            clips_per_class=args.clips_per_class,
            clip_seconds=args.clip_seconds,
            seed=args.seed,
        )
    )


def get_pipeline(args) -> PipelineConfig:
    return PipelineConfig(
        window_len=args.window,
        overlap=args.overlap,
        silence=SilenceConfig(threshold=args.silence_threshold),
        feature_len=args.feature_len,
        snr_db=args.snr,
        noise_seed=args.seed,
        highpass_hz=args.highpass,
    )


# --- verbs ---

def cmd_synth(args):
    # lazy clips: save_dataset writes each one before the next is made
    clips = SyntheticClips(
        SyntheticSpec(
            n_classes=args.classes,
            clips_per_class=args.clips_per_class,
            clip_seconds=args.clip_seconds,
            sample_rate=args.sample_rate,
            amplitude=args.amplitude,
            seed=args.seed,
        )
    )
    dataset = ClipDataset(clips, clips.labels, args.classes, clips.label_names)
    manifest = save_dataset(dataset, args.out)
    (Path(args.out) / "run_info.txt").write_text(resolved_flags(args) + "\n")
    print(f"wrote {len(dataset)} clips, manifest at {manifest}")
    return 0


def cmd_prep(args):
    dataset = get_dataset(args)
    pipeline = get_pipeline(args)
    if args.mfcc:
        pipeline = replace(pipeline, feature_kind="mfcc")
    per_clip = clip_frame_features(dataset, pipeline)
    features, clip_index = stack_frames(per_clip, np.arange(len(per_clip)))
    np.savez(
        args.out,
        features=features,
        clip_index=clip_index,
        labels=dataset.labels,
        label_names=np.array(dataset.label_names),
        flags=np.array(resolved_flags(args)),
    )
    print(f"wrote {features.shape[0]} frames x {features.shape[1]} features to {args.out}")
    return 0


def cmd_train(args):
    if not 0.0 < args.val_fraction < 1.0:
        raise InvalidSetting(f"--val-fraction must be in (0, 1), got {args.val_fraction}")
    dataset = get_dataset(args)
    pipeline = get_pipeline(args)
    # the method's configs are checked here, before any feature extraction
    method = make_method(
        "multiview" if args.arch == "multiview" else "single_view_cnn",
        dataset.n_classes, pipeline.feature_dim, args.seed,
        learning_rate=args.lr, iterations=args.iters, batch_size=args.batch,
        keep_prob=args.dropout,
    )
    per_clip = clip_frame_features(dataset, pipeline)
    train_idx, val_idx = stratified_fraction_split(
        dataset.labels, 1.0 - args.val_fraction, seed=args.seed
    )
    fold = prepare_fold(per_clip, dataset.labels, train_idx, val_idx, True)
    val_X, val_y = stack_frames(fold.test_features, dataset.labels[val_idx])
    validation = (val_X, val_y) if len(val_y) else None
    model = build(method.model_cfg)
    history = train(
        model, fold.train_features, fold.train_labels,
        method.train_cfg, validation=validation,
    )
    model.norm_stats = fold.stats
    save(model, args.out)
    history_path = args.history or Path(str(args.out) + ".history.csv")
    with open(history_path, "w", newline="") as fh:
        fh.write(f"# {resolved_flags(args)}\n")
        fh.write("iteration,loss,val_accuracy\n")
        for rec in history:
            val = "" if rec.val_accuracy is None else repr(rec.val_accuracy)
            fh.write(f"{rec.iteration},{rec.loss!r},{val}\n")
    final_val = next(
        (r.val_accuracy for r in reversed(history) if r.val_accuracy is not None),
        None,
    )
    print(f"saved model to {args.out}; history at {history_path}")
    if final_val is not None:
        print(f"final validation accuracy: {final_val:.4f}")
    return 0


def cmd_eval(args):
    dataset = get_dataset(args)
    pipeline = get_pipeline(args)
    result = run_cv(
        dataset, args.method, k=args.k, seed=args.seed, pipeline=pipeline,
        clip_level=not args.frame_level,
        learning_rate=args.lr, iterations=args.iters, batch_size=args.batch,
        keep_prob=args.dropout,
    )
    report = result.report
    mean = report.fold_mean()
    std = report.fold_std()
    print(f"method={args.method} folds={args.k}")
    for name, m, s in zip(("accuracy", "precision", "recall", "f1"), mean, std):
        print(f"  {name}: {m:.4f} +/- {s:.4f}")
    print(f"  pooled accuracy: {report.accuracy:.4f}")
    if result.skipped_clips:
        print(f"  skipped {result.skipped_clips} test clips without frames")
    if args.out:
        snr = 0.0 if args.snr is None else args.snr
        rows = fold_rows("cv", snr, args.method, args.seed, result)
        write_results_csv(args.out, rows, meta=(resolved_flags(args),))
        print(f"fold metrics written to {args.out}")
    if args.confusion_out:
        with open(args.confusion_out, "w", newline="") as fh:
            fh.write(f"# {resolved_flags(args)}\n")
            fh.write("," + ",".join(dataset.label_names) + "\n")
            for name, row in zip(dataset.label_names, result.confusion):
                fh.write(name + "," + ",".join(str(c) for c in row) + "\n")
        print(f"confusion matrix written to {args.confusion_out}")
    return 0


def cmd_sweep(args):
    dataset = get_dataset(args)
    pipeline = get_pipeline(args)
    grid = None
    if args.grid:
        integral = isinstance(DEFAULT_GRIDS[args.axis][0], int)
        to_value = (lambda v: int(float(v))) if integral else float
        grid = parse_list("--grid", args.grid, to_value)
    spec = SweepSpec(
        axis=args.axis, grid=grid,
        methods=tuple(args.methods.split(",")),
        seeds=parse_list("--seeds", args.seeds, int),
        k=args.k,
    )
    rows = run_sweep(
        spec, dataset, pipeline=pipeline, clip_level=not args.frame_level,
        learning_rate=args.lr, iterations=args.iters, batch_size=args.batch,
        keep_prob=args.dropout,
    )
    # every fold row of a run repeats its count; fold 0 stands for the run
    skipped = sum(r["skipped_clips"] for r in rows if r["fold"] == 0)
    if skipped:
        print(f"skipped {skipped} test clips without frames")
    write_results_csv(args.out, rows, meta=(resolved_flags(args),))
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def cmd_gradcheck(args):
    model = build(
        ModelConfig(
            input_len=args.input_len, n_classes=args.classes,
            seed=args.seed, dtype=np.float64,
        )
    )
    rng = np.random.Generator(np.random.PCG64(args.seed))
    features = rng.normal(size=args.input_len)
    err = gradient_check(
        model, features, label=0, n_samples=args.samples, seed=args.seed
    )
    print(f"max relative gradient error: {err:.3e}")
    return 0 if err < 1e-4 else 1


def cmd_simulate(args):
    scenario = load_scenario(args.scenario)
    if args.model:
        server = load(args.model)
        check_model(scenario, server)  # before any fallback model trains
    else:
        print("no --model given; training a server model on synthetic data")
        server = train_server_model(scenario, iterations=args.iters, seed=args.seed)
    fallbacks = {}
    needed = [
        num for num, spec in enumerate(scenario.nodes, start=1)
        if spec.fallback_classes
    ]
    if needed:
        print(f"training fallback models for nodes {needed}")
        fallbacks = train_fallback_models(
            scenario, iterations=max(20, args.iters // 2), seed=args.seed
        )
    result = simulate(scenario, server, fallbacks)
    write_records_csv(args.out, result, meta=(resolved_flags(args),))
    n_fallback = sum(r.origin == "node_fallback" for r in result.records)
    print(
        f"{len(result.records)} records ({n_fallback} via node fallback), "
        f"{len(result.events)} outage events -> {args.out}"
    )
    return 0


def cmd_tune_threshold(args):
    silence = SilenceConfig(window_seconds=args.window_seconds)
    if args.manifest is not None:
        dataset = load_manifest(args.manifest)
        names = {n.lower() for n in dataset.label_names}
        if not names <= {"active", "silent", "0", "1"}:
            raise MvcnnError(
                "tune-threshold manifests must label clips active/silent (or 1/0)"
            )
        active_ids = {
            i for i, n in enumerate(dataset.label_names)
            if n.lower() in ("active", "1")
        }
        labeled = list(zip(dataset.clips, dataset.labels))
    else:
        dataset = generate_synthetic(SyntheticSpec(seed=args.seed))
        labeled = [(c, 1) for c in dataset.clips]
        sr = dataset.clips[0].sample_rate
        labeled += [
            (AudioClip(np.zeros(3 * sr), sr), 0) for _ in range(len(labeled) // 2)
        ]
        active_ids = {1}
    levels = [window_rms(clip, silence)[0] for clip, _ in labeled]
    active = [np.full(len(lv), lab in active_ids) for lv, (_, lab) in zip(levels, labeled)]
    rho = tune_silence_threshold(np.concatenate(levels), np.concatenate(active))
    print(f"best silence threshold: {rho:.2f}")
    if args.out:
        Path(args.out).write_text(f"# {resolved_flags(args)}\nthreshold,{rho:.2f}\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mvcnn",
        description="Acoustic species classification: preprocessing, multi-view "
                    "CNN training, baselines, sweeps and offload simulation.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("synth", help="generate a synthetic labeled corpus")
    add_corpus_flags(p)
    p.add_argument("--sample-rate", type=int, default=SyntheticSpec.sample_rate)
    p.add_argument("--amplitude", type=float, default=SyntheticSpec.amplitude)
    p.add_argument("--seed", type=int, default=SyntheticSpec.seed)
    p.add_argument("--out", type=Path, required=True, help="output directory")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("prep", help="run the node preprocessing chain to features")
    add_dataset_flags(p)
    add_pipeline_flags(p)
    p.add_argument("--mfcc", action="store_true", help="extract MFCCs instead of spectra")
    p.add_argument("--seed", type=int, default=SyntheticSpec.seed)
    p.add_argument("--out", type=Path, required=True, help="output .npz path")
    p.set_defaults(func=cmd_prep)

    p = sub.add_parser("train", help="train the classifier and save the model")
    add_dataset_flags(p)
    add_pipeline_flags(p)
    add_train_flags(p)
    p.add_argument("--arch", choices=("multiview", "single"), default="multiview")
    p.add_argument("--val-fraction", type=float, default=0.25)
    p.add_argument("--seed", type=int, default=SyntheticSpec.seed)
    p.add_argument("--out", type=Path, required=True, help="model file path")
    p.add_argument("--history", type=Path, default=None,
                   help="history CSV path (default: <out>.history.csv)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="k-fold cross-validation of one method")
    add_dataset_flags(p)
    add_pipeline_flags(p)
    add_train_flags(p)
    p.add_argument("--method", choices=METHOD_NAMES, default="multiview")
    p.add_argument("--k", type=int, default=SweepSpec.k, help="number of folds")
    p.add_argument("--frame-level", action="store_true",
                   help="score frames instead of clip-level majority votes")
    p.add_argument("--seed", type=int, default=SyntheticSpec.seed)
    p.add_argument("--out", type=Path, default=None, help="fold metrics CSV")
    p.add_argument("--confusion-out", type=Path, default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep", help="parameter sweep over a grid")
    add_dataset_flags(p)
    add_pipeline_flags(p)
    add_train_flags(p)
    p.add_argument("--axis", required=True, choices=tuple(DEFAULT_GRIDS))
    p.add_argument("--grid", type=str, default=None,
                   help="comma-separated values (default: the standard grid)")
    p.add_argument("--methods", type=str, default=",".join(SweepSpec.methods),
                   help="comma-separated method names")
    p.add_argument("--seeds", type=str, default=",".join(map(str, SweepSpec.seeds)),
                   help="comma-separated seeds")
    p.add_argument("--k", type=int, default=SweepSpec.k)
    p.add_argument("--frame-level", action="store_true")
    p.add_argument("--seed", type=int, default=SyntheticSpec.seed)
    p.add_argument("--out", type=Path, required=True, help="results CSV")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("gradcheck", help="finite-difference gradient validation")
    p.add_argument("--input-len", type=int, default=32)
    p.add_argument("--classes", type=int, default=3)
    p.add_argument("--samples", type=int, default=24,
                   help="number of parameters to probe")
    p.add_argument("--seed", type=int, default=ModelConfig.seed)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("simulate", help="run a node-to-server offload scenario")
    p.add_argument("--scenario", type=Path, required=True)
    p.add_argument("--model", type=Path, default=None,
                   help="server model file (default: train one on the fly)")
    p.add_argument("--iters", type=int, default=150,
                   help="iterations for on-the-fly model training")
    p.add_argument("--seed", type=int, default=TrainConfig.seed)
    p.add_argument("--out", type=Path, required=True, help="records CSV")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("tune-threshold", help="exhaustive silence-threshold search")
    p.add_argument("--manifest", type=Path, default=None,
                   help="clips labeled active/silent (default: synthetic demo)")
    p.add_argument("--window-seconds", type=float, default=SilenceConfig.window_seconds)
    p.add_argument("--seed", type=int, default=SyntheticSpec.seed)
    p.add_argument("--out", type=Path, default=None)
    p.set_defaults(func=cmd_tune_threshold)

    return parser


def dispatch(argv) -> int:
    """Parse argv and run the verb; argparse itself exits 2 on usage errors.
    It reads `-3,3` in `--grid -3,3` as an option, so that becomes `--grid=-3,3`."""
    words = []
    for word in argv:
        if words and words[-1] in ("--grid", "--seeds") and re.match(r"-[\d.]", word):
            words[-1] += f"={word}"
        else:
            words.append(word)
    args = build_parser().parse_args(words)
    try:
        return args.func(args)
    except (MvcnnError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main(argv=None) -> int:
    return dispatch(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
