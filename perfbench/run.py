"""Benchmark runner: one workload, one seed, one result line.

    python3 perfbench/run.py --workload train --seed 0 --seconds 15 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` beside this directory. With ``--trace 0`` the workload is set up
several times (median set-up time) and its unit of work repeats in a
closed loop until ``--seconds`` seconds of timed work have passed,
untraced. With ``--trace 1`` it is set up once untraced and once traced,
then runs a fixed number of units, alternating untraced and traced; the
per-layer figures come from the traced spans. Outputs are checked on
every unit, outside the timed region.

The last line of standard output is the result:
``{"correct", "attempted", "failed", "metrics"}``. The line before it is
a report with the run's provenance, the workload's figures under the
names the design uses, and any failed checks.
"""

import os

# One BLAS thread: with the default pools, repeated timings on a 2-core
# machine spread about twice as wide. Must be set before numpy loads.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# set-up runs at least this many times, and for cheap set-ups until this
# much set-up time has passed, so the median is not one noisy sample
SETUP_REPEATS = (3, 15)
SETUP_MIN_SECONDS = 2.0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--toy", action="store_true",
                   help="tiny inputs, for the self-test only")
    return p.parse_args(argv)


def git_sha(root: Path) -> str:
    """HEAD commit read from .git without running git; 'unknown' outside a clone."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def blas_library(np) -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        return "unknown"


def stamp(np, seed) -> dict:
    return {
        "git_sha": git_sha(ROOT),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_library(np),
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "seed": seed,
    }


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def checked(workload, state, ref, unit, tally):
    attempted, failed = workload.check(state, ref, unit)
    tally["attempted"] += attempted
    tally["failed"].extend(failed)


def run_untraced(workload, seed, seconds, bindings, untouched):
    setup_times = []
    least, most = SETUP_REPEATS
    while len(setup_times) < least or (
        sum(setup_times) < SETUP_MIN_SECONDS and len(setup_times) < most
    ):
        t0 = time.perf_counter()
        state = workload.setup(seed)
        setup_times.append(time.perf_counter() - t0)
    ref = workload.reference(state)
    if not untouched(bindings):
        raise RuntimeError("a package function is still wrapped in an untraced run")

    tally = {"attempted": 0, "failed": []}
    units = []
    timed = 0.0
    while not units or timed < seconds:
        unit = workload.unit(state)
        units.append(unit)
        timed += unit.seconds
        checked(workload, state, ref, unit, tally)

    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "ops_per_s": (statistics.median(u.ops / u.op_seconds for u in units), "1/s"),
        "accuracy": (workload.accuracy(units), "fraction"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    named = {
        key: statistics.median(u.named[key] for u in units) for key in units[0].named
    }
    named["setup_s"] = metrics["setup_s"][0]
    named["peak_rss_mb"] = metrics["peak_rss_mb"][0]
    return metrics, named, tally, {"units": len(units), "timed_s": timed,
                                   "setup_runs_s": setup_times}


def run_traced(workload, seed, bindings, untouched):
    from layers import PROBES, per_layer_metrics
    from tracer import Instrumented, Tracer

    tracer = Tracer()
    t0 = time.perf_counter()
    state = workload.setup(seed)
    untraced_setup = time.perf_counter() - t0
    with Instrumented(tracer, PROBES):
        t0 = time.perf_counter()
        workload.setup(seed)
        traced_setup = time.perf_counter() - t0
    if not untouched(bindings):
        raise RuntimeError("tracing wrappers were not removed")
    ref = workload.reference(state)

    # Untraced and traced units alternate, so that drift in the machine's
    # speed falls on both sides of the overhead estimate alike.
    tally = {"attempted": 0, "failed": []}
    untraced_units = []
    traced_units = []
    mark = len(tracer.spans)
    for _ in range(workload.traced_units):
        if not untouched(bindings):
            raise RuntimeError("tracing wrappers were not removed")
        untraced_units.append(workload.unit(state))
        with Instrumented(tracer, PROBES):
            traced_units.append(workload.unit(state))
    for unit in untraced_units + traced_units:
        checked(workload, state, ref, unit, tally)

    untraced_s = sum(u.seconds for u in untraced_units)
    traced_s = sum(u.seconds for u in traced_units)
    metrics = per_layer_metrics(tracer)
    metrics["trace.untraced_s"] = (untraced_s, "s")
    metrics["trace.top_spans_s"] = (tracer.root_seconds(mark), "s")
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    metrics["trace.spans"] = (len(tracer.spans), "count")
    info = {"units": workload.traced_units, "traced_s": traced_s,
            "untraced_setup_s": untraced_setup, "traced_setup_s": traced_setup}
    return metrics, {}, tally, info


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "mvcnn" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'mvcnn'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))

    import numpy as np

    from layers import PROBES
    from tracer import snapshot, untouched
    from workloads import FULL, TOY, WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](TOY if args.toy else FULL)
    # the original function objects, checked again before each untraced phase
    bindings = snapshot(PROBES)

    if args.trace:
        metrics, named, tally, info = run_traced(workload, args.seed, bindings, untouched)
    else:
        metrics, named, tally, info = run_untraced(
            workload, args.seed, args.seconds, bindings, untouched
        )
    attempted = tally["attempted"]
    failed = len(tally["failed"])
    named["error_rate"] = failed / attempted
    report = {
        "workload": args.workload,
        "trace": args.trace,
        "toy": args.toy,
        "stamp": stamp(np, args.seed),
        "run": info,
        "named": named,
        "failed_checks": tally["failed"][:20],
    }
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
