"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads train,offload --seeds 0-9 \
        --out perfbench/results/spread.json

Runs are sequential, from the checkout root. For every end-to-end metric
and workload it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, the
distance between the quartiles as a share of the median, next to the
metric's bound in BENCHMARK.json. A spread above a third of the bound is
marked ``wide``; set-up time is exempt from the spread rule.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds_arg(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload, seed, seconds, trace):
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    report = json.loads(lines[-2])["report"]
    report["wall_s"] = time.perf_counter() - t0
    return report, json.loads(lines[-1])


def summarize(values):
    if len(values) < 2:
        return {"median": values[0]}
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else float("inf")}


def main(argv=None):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    p.add_argument("--seeds", type=seeds_arg, default=seeds_arg("0-9"))
    p.add_argument("--seconds", type=float, default=bench["run_seconds"])
    p.add_argument("--trace", type=int, default=0, choices=(0, 1))
    p.add_argument("--out", type=Path)
    args = p.parse_args(argv)

    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    out = {"seconds": args.seconds, "seeds": args.seeds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            report, result = run_once(workload, seed, args.seconds, args.trace)
            runs.append({"seed": seed, "report": report, "result": result})
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", flush=True)
        metrics = {}
        for name in runs[0]["result"]["metrics"]:
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            metrics[name] = {"values": values, **summarize(values)}
            bound = bounds.get(name)
            if args.trace == 0 and bound is not None and len(values) > 1:
                s = metrics[name]
                mark = "" if name == "setup_s" or s["spread"] <= bound / 3 else "  wide"
                print(f"  {name:14s} median {s['median']:.6g}  spread {s['spread']:.4f}"
                      f"  bound {bound}{mark}")
        out["workloads"][workload] = {"metrics": metrics, "runs": runs}
    if args.out:
        args.out.write_text(json.dumps(out, indent=1) + "\n")


if __name__ == "__main__":
    main()
