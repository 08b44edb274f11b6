"""The three benchmark workloads, driven only through the package's public API.

Each workload has a set-up (inputs made from the seed; not timed as
work), a unit of timed work that the runner repeats in a closed loop,
and checks on each unit's outputs that run outside the timed region.

- ``train``: paper-default three-view training (200 Adam steps at B=16)
  on normalised +6 dB spectrum frames, then ``model.predict`` over the
  held-out frames. Feature extraction happens in set-up only.
- ``cv_baselines``: stratified 10-fold ``run_cv`` for ``knn_spectrum``
  and ``knn_mfcc`` at -3 dB. No autograd runs.
- ``offload``: ``simulate`` on a 5-node star with a link outage on a
  relayed node, a server outage, clock skew and fallback classes on every
  node; the server and fallback models are trained in set-up. The only
  workload that runs the Butterworth high-pass and B=1 inference.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

# Package functions are called through their modules, so that the traced
# run's wrappers, which replace module attributes, see every call.
from mvcnn import evaluation, model, wasn
from mvcnn.audio import SilenceConfig
from mvcnn.evaluation import PipelineConfig, SyntheticSpec
from mvcnn.model import ModelConfig, TrainConfig
from mvcnn.wasn import NodeConfig, NodeSpec, Scenario


@dataclass
class Unit:
    """One repetition of a workload's timed work."""

    seconds: float  # wall time of the whole unit
    ops: int  # operations the unit's throughput counts
    op_seconds: float  # wall time those operations took
    output: object
    named: dict  # workload-specific figures under their own names


@dataclass(frozen=True)
class Size:
    clips_per_class: int
    iterations: int
    clips_per_node: int
    server_iterations: int
    fallback_iterations: int
    train_clips_per_class: int
    val_accuracy_floor: float


# Offload models train on 6 clips per class: with 3, the server model's
# accuracy swung between 0.85 and 0.99 across seeds.
FULL = Size(clips_per_class=16, iterations=200, clips_per_node=8,
            server_iterations=60, fallback_iterations=15, train_clips_per_class=6,
            val_accuracy_floor=0.85)
# toy models are barely trained, so no accuracy floor applies
TOY = Size(clips_per_class=3, iterations=5, clips_per_node=1,
           server_iterations=3, fallback_iterations=2, train_clips_per_class=1,
           val_accuracy_floor=0.0)


class Train:
    name = "train"
    snr_db = 6.0
    traced_units = 2

    def __init__(self, size: Size = FULL):
        self.size = size

    def setup(self, seed):
        ds = evaluation.generate_synthetic(
            SyntheticSpec(clips_per_class=self.size.clips_per_class, seed=seed)
        )
        per_clip = evaluation.clip_frame_features(
            ds, PipelineConfig(snr_db=self.snr_db, noise_seed=seed)
        )
        train_idx, val_idx = evaluation.stratified_fraction_split(ds.labels, 0.7, seed=seed)
        fold = evaluation.prepare_fold(per_clip, ds.labels, train_idx, val_idx, True)
        val_y = np.concatenate(
            [np.full(len(per_clip[i]), ds.labels[i]) for i in val_idx]
        )
        return {
            "seed": seed,
            "n_classes": ds.n_classes,
            "train_X": fold.train_features,
            "train_y": fold.train_labels,
            "val_X": np.vstack(fold.test_features),
            "val_y": val_y,
        }

    def reference(self, state):
        return None

    def unit(self, state):
        seed = state["seed"]
        t0 = time.perf_counter()
        net = model.build(ModelConfig(input_len=state["train_X"].shape[1],
                                      n_classes=state["n_classes"], seed=seed))
        t1 = time.perf_counter()
        history = model.train(net, state["train_X"], state["train_y"],
                              TrainConfig(learning_rate=1e-3,
                                          iterations=self.size.iterations,
                                          batch_size=16, seed=seed))
        t2 = time.perf_counter()
        preds = model.predict(net, state["val_X"])
        t3 = time.perf_counter()
        val_accuracy = float(np.mean(preds == state["val_y"]))
        rows = len(state["val_X"])
        return Unit(
            seconds=t3 - t0, ops=len(history), op_seconds=t2 - t1,
            output=(history, val_accuracy),
            named={
                "train_steps_per_s": len(history) / (t2 - t1),
                "predict_rows_per_s": rows / (t3 - t2),
                "val_accuracy": val_accuracy,
            },
        )

    def check(self, state, ref, unit):
        """Failed check names: finite losses, held-out accuracy floor."""
        history, val_accuracy = unit.output
        failed = []
        if not all(np.isfinite(r.loss) for r in history):
            failed.append("train: non-finite loss")
        floor = self.size.val_accuracy_floor
        if val_accuracy < floor:
            failed.append(f"train: val_accuracy {val_accuracy:.4f} below {floor}")
        return 2, failed

    def accuracy(self, units):
        return units[0].named["val_accuracy"]


class CvBaselines:
    name = "cv_baselines"
    snr_db = -3.0
    methods = ("knn_spectrum", "knn_mfcc")
    folds = 10
    traced_units = 2

    def __init__(self, size: Size = FULL):
        self.size = size

    def setup(self, seed):
        ds = evaluation.generate_synthetic(
            SyntheticSpec(clips_per_class=self.size.clips_per_class, seed=seed)
        )
        return {"seed": seed, "dataset": ds,
                "pipeline": PipelineConfig(snr_db=self.snr_db, noise_seed=seed)}

    def reference(self, state):
        return evaluation.kfold_split(state["dataset"].labels, self.folds, state["seed"])

    def unit(self, state):
        ds = state["dataset"]
        results = {}
        t0 = time.perf_counter()
        for method in self.methods:
            results[method] = evaluation.run_cv(ds, method, self.folds, state["seed"],
                                                state["pipeline"])
        seconds = time.perf_counter() - t0
        ops = len(ds) * len(self.methods)
        named = {"cv_clips_per_s": ops / seconds}
        for method, result in results.items():
            named[f"{method}_accuracy"] = result.report.accuracy
        return Unit(seconds, ops, seconds, results, named)

    def check(self, state, folds, unit):
        """Folds disjoint and exhaustive; pooled accuracy = size-weighted fold mean."""
        failed = []
        n = len(state["dataset"])
        merged = np.concatenate(folds)
        if len(merged) != n or len(np.unique(merged)) != n:
            failed.append("cv: folds are not disjoint and exhaustive")
        sizes = np.array([len(f) for f in folds], dtype=np.float64)
        for method, result in unit.output.items():
            fold_acc = np.array([m[0] for m in result.report.fold_metrics])
            weighted = float(np.sum(fold_acc * sizes) / sizes.sum())
            if abs(weighted - result.report.accuracy) > 1e-9:
                failed.append(f"cv: {method} pooled accuracy "
                              f"{result.report.accuracy} != weighted fold mean {weighted}")
        return 1 + len(unit.output), failed

    def accuracy(self, units):
        return float(np.mean([units[0].named[f"{m}_accuracy"] for m in self.methods]))


# Fixed topology, so the fallback share is the same for every seed; the seed
# picks the clips and the model initialisation. Each 2 s clip yields
# messages 683, 1024, 1365 and 1707 ms after it starts, and clips start
# every 2250 ms. Each outage edge lies within one node's clock skew of a
# message, so routing by the skewed clock instead of true time misroutes
# at least one record: node 3 at 3615 and 7433 ms, nodes 4 and 5 at
# 10707 ms, node 4 at 12957 ms.
FALLBACK_CLASSES = ((0, 1), (1, 2), (2, 3), (0, 3), (0, 2))
CLOCK_SKEW_MS = (0, 12, 18, -15, -9)
LINK_OUTAGE = (3, (3620, 7440))  # node 3 relays through node 1
SERVER_OUTAGE = (10700, 12950)


class Offload:
    name = "offload"
    traced_units = 4

    def __init__(self, size: Size = FULL):
        self.size = size

    def scenario(self, seed):
        nodes = tuple(
            NodeSpec(
                clock_skew_ms=skew,
                fallback_classes=classes,
                link_outages=(LINK_OUTAGE[1],) if num == LINK_OUTAGE[0] else (),
            )
            for num, (skew, classes) in enumerate(
                zip(CLOCK_SKEW_MS, FALLBACK_CLASSES), start=1
            )
        )
        return Scenario(
            n_nodes=len(nodes), clips_per_node=self.size.clips_per_node,
            clip_seconds=2.0, n_classes=4, nodes=nodes,
            server_outages=(SERVER_OUTAGE,), seed=seed,
        ).validate()

    def setup(self, seed):
        scenario = self.scenario(seed)
        size = self.size
        server = wasn.train_server_model(scenario, size.server_iterations,
                                         size.train_clips_per_class, seed)
        fallbacks = wasn.train_fallback_models(scenario, size.fallback_iterations,
                                               size.train_clips_per_class, seed)
        return {"scenario": scenario, "server": server, "fallbacks": fallbacks}

    def reference(self, state):
        """(node, sequence) -> true class, from the node pipeline run clip by clip."""
        sc = state["scenario"]
        truth = {}
        for index, clips in enumerate(wasn.scenario_clips(sc)):
            cfg = NodeConfig(
                node_id=index + 1, feature_len=sc.feature_len,
                window_len=sc.window_len, overlap=sc.overlap,
                silence=SilenceConfig(threshold=sc.silence_threshold),
                highpass_hz=sc.highpass_hz,
            )
            seq = 0
            for j, clip in enumerate(clips):
                cls = (index * sc.clips_per_node + j) % sc.n_classes
                for _ in wasn.node_process(clip, cfg):
                    truth[(index + 1, seq)] = cls
                    seq += 1
        return truth

    def unit(self, state):
        t0 = time.perf_counter()
        result = wasn.simulate(state["scenario"], state["server"], state["fallbacks"])
        seconds = time.perf_counter() - t0
        records = result.records
        return Unit(seconds, len(records), seconds, result,
                    {"offload_msgs_per_s": len(records) / seconds})

    def check(self, state, truth, unit):
        """Routing by true time, fallback subsets, one record per message.

        Also scores each record against its clip's class, for
        offload_accuracy.
        """
        sc = state["scenario"]
        records = unit.output.records
        failed = []
        if len(records) != len(truth):
            failed.append(f"offload: {len(records)} records for {len(truth)} messages")
        correct = 0
        for r in records:
            spec = sc.nodes[r.node_id - 1]
            t_true = r.timestamp_ms - spec.clock_skew_ms
            offline = any(s <= t_true < e for s, e in spec.link_outages) or any(
                s <= t_true < e for s, e in sc.server_outages
            )
            if (r.origin == "node_fallback") != offline:
                failed.append(f"offload: node {r.node_id} seq {r.sequence_no} "
                              f"routed {r.origin} at t={t_true}")
            elif r.origin == "node_fallback" and r.predicted not in spec.fallback_classes:
                failed.append(f"offload: fallback class {r.predicted} outside "
                              f"{spec.fallback_classes}")
            correct += truth.get((r.node_id, r.sequence_no), -1) == r.predicted
        unit.named["offload_accuracy"] = correct / len(records) if records else 0.0
        return 1 + len(records), failed

    def accuracy(self, units):
        return units[0].named["offload_accuracy"]


WORKLOADS = {w.name: w for w in (Train, CvBaselines, Offload)}
