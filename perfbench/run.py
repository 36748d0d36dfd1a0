"""Benchmark of the sasvbackend package: training steps and score jobs.

Run from the repository root:

    python3 perfbench/run.py --workload train-trend --seed 1 --seconds 20 --trace 0

Workloads (see workloads.py): train-trend, train-corpus and score-eval. The
seed makes every input; the package only ever sees generated data.

--trace 0 sets up at least three times and for at least 4 s, runs one
untimed warm-up operation, and then times operations (training steps or
score jobs) for --seconds, reporting the end-to-end metrics. --trace 1 runs operations untraced for half of
--seconds, then the same operations again with every layer traced, and
reports the per-layer metrics and the tracing overhead.

Standard output ends with one JSON line: {"correct", "attempted", "failed",
"metrics"}. Before it comes an indented JSON report with the machine, the
metrics under their workload-specific names and, traced, the full per-layer
summary (null where the workload does not run a layer). The report, and
the spans of a traced run, are also written to .bench_work/results/.
"""

import os

# pinned before numpy is imported anywhere: one BLAS thread per process
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
# set-up repeats at least this often and for at least this long; the median is reported
SETUP_MIN_REPS = 3
SETUP_MIN_SECONDS = 4.0


def parse_args(argv, workload_names):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workload_names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def import_package():
    """Put the checkout's src/ first on the path; the package is not installed."""
    if not (SRC / "sasvbackend" / "__init__.py").is_file():
        raise SystemExit(f"error: no package source at {SRC / 'sasvbackend'}")
    sys.path[:0] = [str(ROOT), str(SRC)]
    import sasvbackend
    if Path(sasvbackend.__file__).resolve().parent != SRC / "sasvbackend":
        raise SystemExit(f"error: imported sasvbackend from {sasvbackend.__file__}")


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_sha():
    """HEAD of the checkout when it is a git work tree, read without git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine():
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "git_sha": _git_sha(),
    }


def run_ops(session, op_name, seconds=None, count=None, trace=None):
    """Run operations for `seconds` (at least one), or exactly `count` of them.

    A failed operation is recorded as None.
    """
    outcomes, errors = [], []
    deadline = time.perf_counter() + (seconds or 0.0)

    def more():
        if count is not None:
            return len(outcomes) < count
        return not outcomes or time.perf_counter() < deadline

    while more():
        timed = trace.tracer.operation(op_name, len(outcomes)) if trace else nullcontext()
        try:
            outcomes.append(session.run(timed))
        except Exception:  # an operation's failure is counted, not fatal
            errors.append(traceback.format_exc(limit=4))
            outcomes.append(None)
    return outcomes, errors


def percentile(values, q):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(is_train, setup_s, outcomes):
    done = [o for o in outcomes if o is not None]
    ms = [o.seconds * 1e3 for o in done]
    rate = sum(o.items for o in done) / sum(o.seconds for o in done)
    p50, p90 = statistics.median(ms), percentile(ms, 90)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    gated = {
        "setup_s": (statistics.median(setup_s), "s"),
        "items_per_s": (rate, "1/s"),
        "op_ms.p50": (p50, "ms"),
        "op_ms.p90": (p90, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    if is_train:
        named = {"train.pairs_per_s": (rate, "1/s"), "train.step_ms.p50": (p50, "ms"),
                 "train.step_ms.p90": (p90, "ms"), "train.steps": (len(done), "count")}
    else:
        named = {"score.trials_per_s": (rate, "1/s"), "score.job_s.p50": (p50 / 1e3, "s"),
                 "score.job_s.p90": (p90 / 1e3, "s"), "score.jobs": (len(done), "count")}
    named.update({"setup_s": gated["setup_s"], "setup.reps": (len(setup_s), "count"),
                  "peak_rss_mb": gated["peak_rss_mb"]})
    return gated, named


def measure(args, workload, corpus_dir):
    from perfbench import workloads as wl
    from perfbench.layers import LayerTrace

    trace = LayerTrace() if args.trace else None
    if trace:
        trace.install()
    setup_s = []
    while len(setup_s) < SETUP_MIN_REPS or sum(setup_s) < SETUP_MIN_SECONDS:
        prep = None
        shutil.rmtree(corpus_dir, ignore_errors=True)
        with trace.tracer.span("bench.setup") if trace else nullcontext():
            t0 = time.perf_counter()
            prep = wl.set_up(workload, args.seed, corpus_dir)
            setup_s.append(time.perf_counter() - t0)
        wl.check_setup(prep, args.seed)
    if trace:
        trace.uninstall()

    session = workload.session(prep, args.seed)
    warmup, warmup_errors = run_ops(session, workload.op_name, count=1)
    session.reset()
    if not trace:
        outcomes, errors = run_ops(session, workload.op_name, seconds=args.seconds)
        phases = [warmup, outcomes]
    else:
        untraced, errors = run_ops(session, workload.op_name, seconds=args.seconds / 2)
        session.reset()
        trace.install()
        try:
            outcomes, traced_errors = run_ops(session, workload.op_name,
                                              count=len(untraced), trace=trace)
        finally:
            trace.uninstall()
        errors += traced_errors
        phases = [warmup, untraced, outcomes]

    attempted = sum(len(p) for p in phases)
    failed = sum(o is None for p in phases for o in p)
    errors = warmup_errors + errors
    if all(o is None for o in outcomes):
        sys.stderr.write("".join(errors[:3]))
        raise SystemExit(f"error: all {len(outcomes)} timed operations failed")

    is_train = isinstance(workload, wl.TrainWorkload)
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine(),
              "attempted": attempted, "failed": failed, "ops_failed_frac": failed / attempted,
              "errors": errors[:3]}
    if not trace:
        gated, named = end_to_end(is_train, setup_s, outcomes)
        report["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in named.items()}
        result_metrics = {k: {"value": v, "unit": u} for k, (v, u) in gated.items()}
    else:
        untraced_s = sum(o.seconds for o in untraced if o is not None)
        layers = trace.summary(outcomes, untraced_s)
        report["layers"] = layers
        result_metrics = {k: {"value": layers[k], "unit": unit}
                          for k, unit in per_layer_units().items()}
    return report, result_metrics, attempted, failed, trace


def per_layer_units():
    """Name -> unit of the per-layer metrics BENCHMARK.json lists."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        return {m["name"]: m["unit"] for m in json.load(f)["per_layer"]}


def main(argv=None):
    import_package()
    from perfbench.workloads import WORKLOADS

    args = parse_args(argv, sorted(WORKLOADS))

    workload = WORKLOADS[args.workload]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    corpus_dir = WORK / tag
    results = WORK / "results"
    try:
        report, metrics, attempted, failed, trace = measure(args, workload, corpus_dir)
    finally:
        shutil.rmtree(corpus_dir, ignore_errors=True)
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{tag}.json").write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    if trace:
        trace.tracer.write_tsv(results / f"{tag}.spans.tsv")
    print(json.dumps(report, indent=1))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
