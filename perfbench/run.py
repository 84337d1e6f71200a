"""Benchmark for thermact: cross-validation time, per-recording classify latency
and per-layer costs.

    python3 perfbench/run.py --workload loso --seed 42 --seconds 50 --trace 0

Workloads are described in workloads.py and README.md. With ``--trace 0`` the
result carries the end-to-end metrics of BENCHMARK.json; with ``--trace 1``
the per-layer ones. The last line of standard output is the result object;
the line before it is the run context. The exit code is 0 only when every
operation succeeded and every correctness check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("loso", "classify")
BLAS_ENV = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
# Layer metrics that are times; their span names are the metric names minus "_s".
LAYER_TIMES = (
    "classifier.train_s", "classifier.predict_s",
    "core.load_manifest_s", "core.load_sequences_s", "core.read_sequence_s",
    "preprocess.estimate_background_s", "preprocess.subtract_s", "preprocess.resample_s",
    "features.extract_s", "evaluate.split_score_s", "synth.generate_s",
)
LAYER_COUNTS = (
    "classifier.train_calls", "classifier.problems", "classifier.train_rows",
    "classifier.predict_rows", "core.files", "core.frames", "core.input_bytes",
    "preprocess.frames_out", "features.rows",
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Corpus shape; the defaults are the corpus every reported figure refers to.
    parser.add_argument("--subjects", type=int, default=8, help=argparse.SUPPRESS)
    parser.add_argument("--reps", type=int, default=3, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def declared_metrics(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def end_to_end(outcome) -> dict[str, float]:
    accuracy, sensitivity, specificity = outcome.quality
    return {
        "op_p50_ms": 1000.0 * statistics.median(outcome.latencies),
        "accuracy": accuracy,
        "fall_sensitivity": sensitivity,
        "fall_specificity": specificity,
        "setup_s": statistics.median(outcome.setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(outcome) -> dict[str, float]:
    """Medians over traced passes (one evaluate call, or one sweep of the held-out
    recordings). A layer a workload uses only in set-up reports its set-up cost."""
    tracer = outcome.tracer
    passes = list(outcome.traced_walls)
    setups = [f"setup{r}" for r in range(len(outcome.setup))]

    def value(get, median=statistics.median):
        v = median(get(p) for p in passes)
        return v if v else median(get(s) for s in setups)

    totals = {p: tracer.pass_totals(p) for p in passes + setups}
    metrics = {
        name: value(lambda p, span=name[:-2]: totals[p].get(span, 0.0)) for name in LAYER_TIMES
    }
    metrics.update(
        {
            name: value(lambda p, c=name: tracer.counts[p][c], statistics.median_low)
            for name in LAYER_COUNTS
        }
    )
    metrics["classifier.objective_mean"] = outcome.objective_mean
    metrics["residual_s"] = statistics.median(
        wall - tracer.top_level_seconds(p) for p, wall in outcome.traced_walls.items()
    )
    metrics["trace.overhead_frac"] = (
        statistics.median(outcome.traced_walls.values())
        / statistics.median(outcome.untraced_walls)
        - 1.0
    )
    return metrics


def tail(latencies: list[float]) -> dict:
    """The highest of p99.9/p99/p90/p50 with at least ten samples beyond it."""
    n = len(latencies)
    for pct in (99.9, 99.0, 90.0, 50.0):
        if n * (100.0 - pct) / 100.0 >= 10:
            cut = statistics.quantiles(latencies, n=1000, method="inclusive")[int(pct * 10) - 1]
            return {"percentile": pct, "ms": 1000.0 * cut, "samples": n}
    return {"percentile": None, "ms": None, "samples": n}


def percentiles(latencies: list[float]) -> dict | None:
    if len(latencies) < 2:
        return None
    cuts = statistics.quantiles(latencies, n=20)
    return {f"p{5 * (i + 1)}": 1000.0 * cuts[i] for i in (0, 1, 4, 9, 14, 17, 18)}


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text(encoding="utf-8").strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode("utf-8") + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def blas_info(np) -> str | None:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except Exception:  # older numpy has no dict mode; the context is informational
        return None
    return f"{blas.get('name')} {blas.get('version')}"


def main(argv=None) -> int:
    args = parse_args(argv)
    package = ROOT / "src" / "thermact"
    if not (package / "__init__.py").is_file():
        print(f"perfbench: no thermact sources under {package}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np
    import thermact
    import workloads

    if Path(thermact.__file__).resolve().parent != package.resolve():
        print(f"perfbench: imported thermact from {thermact.__file__}, not {package}", file=sys.stderr)
        return 2

    load_start = os.getloadavg()[0]
    scratch = ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        settings = workloads.Settings(
            seed=args.seed, seconds=args.seconds, trace=bool(args.trace), work=work,
            subjects=args.subjects, reps=args.reps,
        )
        outcome = workloads.run(args.workload, settings)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()  # only if no other run is using it
        except OSError:
            pass

    declared = declared_metrics(bool(args.trace))
    metrics = {}
    if outcome.quality is not None and outcome.latencies:
        computed = per_layer(outcome) if args.trace else end_to_end(outcome)
        missing = set(declared) - set(computed)
        if missing:
            raise SystemExit(f"perfbench: no value computed for {sorted(missing)}")
        metrics = {
            name: {"value": computed[name], "unit": unit} for name, unit in declared.items()
        }
    if args.trace:
        spans_dir = ROOT / ".perfbench_out"
        spans_dir.mkdir(exist_ok=True)
        outcome.tracer.dump(spans_dir / f"spans-{args.workload}-{args.seed}.json")

    for key, message in outcome.failures.items():
        print(f"perfbench: FAILED {key}: {message}", file=sys.stderr)
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "corpus": {"subjects": args.subjects, "sessions": args.reps},
        "model_digest": outcome.digest,
        "predictions_digest": outcome.predictions_digest,
        "operations": len(outcome.latencies),
        "ops_per_s": len(outcome.latencies) / sum(outcome.latencies) if outcome.latencies else None,
        "headline_eval_s": outcome.headline_s,
        "tail": tail(outcome.latencies),
        "percentiles_ms": percentiles(outcome.latencies),
        "latencies_ms": [1000.0 * t for t in outcome.latencies] if len(outcome.latencies) <= 64 else None,
        "setup_s": outcome.setup,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(np),
        "blas_env": {name: os.environ.get(name) for name in BLAS_ENV},
        "loadavg_1m": [load_start, os.getloadavg()[0]],
        "commit": git_commit(),
        "source_sha256": source_digest(),
    }
    failed = len(outcome.failures)
    print(json.dumps({"context": context}))
    print(json.dumps({
        "correct": failed == 0 and bool(metrics),
        "attempted": max(outcome.attempted, failed, 1),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 and metrics else 1


if __name__ == "__main__":
    sys.exit(main())
