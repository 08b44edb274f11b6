"""Fast self-test of the benchmark: every workload once at toy size.

    python3 perfbench/selftest.py

Checks, for each workload and both trace settings, that the run exits 0,
that its last line has exactly the result keys, that every metric named
in BENCHMARK.json is present with its unit and nothing else, that the
outputs pass their checks, and that the report carries the provenance
stamp and the workload's figures. Also checks that the benchmark fails
without a result in a directory holding only BENCHMARK.json and the
benchmark's own files. Takes about a minute.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

NAMED = {
    "train": ("train_steps_per_s", "predict_rows_per_s", "val_accuracy"),
    "cv_baselines": ("cv_clips_per_s", "knn_spectrum_accuracy", "knn_mfcc_accuracy"),
    "offload": ("offload_msgs_per_s", "offload_accuracy"),
}
COMMON_NAMED = ("setup_s", "peak_rss_mb", "error_rate")
STAMP = ("git_sha", "python", "numpy", "blas", "nproc", "threads", "seed")

# layers that must do work on a workload, and layers that must stay idle there
ACTIVE = {
    "train": ("autograd.backward.self_s", "model.train.self_s",
              "model.predict.self_s", "evaluation.clip_frame_features.self_s"),
    "cv_baselines": ("knn.knn_classify_batch.self_s", "spectral.mfcc_features.self_s",
                     "evaluation.run_cv.self_s"),
    "offload": ("spectral.highpass_butterworth.self_s", "wasn.simulate.self_s",
                "wasn.server_classify.self_s", "wasn.messages"),
}
IDLE = {
    "train": ("spectral.highpass_butterworth.self_s", "knn.knn_classify_batch.self_s"),
    "cv_baselines": ("spectral.highpass_butterworth.self_s", "autograd.backward.self_s"),
    "offload": ("knn.knn_classify_batch.self_s", "spectral.mfcc_features.self_s"),
}


def run(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace), "--toy"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def check_run(bench, workload, trace):
    proc = run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    report = json.loads(lines[-2])["report"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] and result["failed"] == 0, report["failed_checks"]
    assert result["attempted"] >= 1
    declared = bench["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want, sorted(set(got) ^ set(want)) or got
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
    assert set(STAMP) <= set(report["stamp"]), report["stamp"]
    assert all(v == "1" for v in report["stamp"]["threads"].values())
    if trace:
        values = {k: v["value"] for k, v in result["metrics"].items()}
        for name in ACTIVE[workload]:
            assert values[name] > 0, f"{workload}: {name} did no work"
        for name in IDLE[workload]:
            assert values[name] == 0, f"{workload}: {name} should be idle"
    else:
        for name in NAMED[workload] + COMMON_NAMED:
            assert name in report["named"], f"{workload}: {name} missing"
        for name, metric in result["metrics"].items():
            assert metric["value"] > 0, f"{workload}: {name} is not positive"


def check_without_package(bench):
    """Only BENCHMARK.json and the benchmark's files: no result, nonzero exit."""
    with tempfile.TemporaryDirectory(prefix=".selftest-", dir=ROOT) as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        for path in bench["paths"]:
            shutil.copytree(ROOT / path, Path(tmp) / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bench["workloads"][0]["name"], 0, cwd=tmp)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in bench["workloads"]:
        for trace in (0, 1):
            check_run(bench, w["name"], trace)
            print(f"ok {w['name']} trace={trace}", flush=True)
    check_without_package(bench)
    print("ok no package: fails without a result")


if __name__ == "__main__":
    main()
