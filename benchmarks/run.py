"""capsroute benchmark: recordings -> spectrogram images -> five-fold train/eval/report.

Usage (from the repository root):

    python3 benchmarks/run.py --workload capsnet-fz32 --seed 1 --seconds 30 --trace 0
    python3 benchmarks/run.py --workload all

``--trace 0`` sets up the corpus three times (``setup_s`` is the median plus
the import time) and then runs whole pipelines in a closed loop, one caller,
until the next one would end after ``--seconds``, each followed by more
``eval`` calls (at least three and 2 s in all); the end-to-end metrics are
medians over those pipelines (and eval calls). ``--trace 1`` sets up once, runs an untraced, a traced and
another untraced pipeline, checks that all three leave byte-identical
experiment directories and reports the per-layer metrics of the traced one.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. Corpora and experiment directories
live under ``.bench_work/`` in the repository root and are removed at exit;
traced runs leave their spans under ``.bench_out/``.
"""

from __future__ import annotations

import os
import sys
import time

_IMPORT_START = time.perf_counter()
_NPROC = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (os.cpu_count() or 1)
# Folds run serially and BLAS gets one thread (never more than nproc): on a
# shared 2-core machine two BLAS threads made capsnet pipeline times spread
# 20% of the median over four seeds, one thread 8%. Both must be set before
# NumPy loads.
BLAS_THREADS = 1
os.environ["CAPSROUTE_THREADS"] = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
SRC = ROOT / "src"

DEFAULT_SEED = 1
DEFAULT_SECONDS = 30
SETUP_REPEATS = 3
EVAL_MIN_CALLS = 3
EVAL_MIN_S = 2.0
END_TO_END_UNITS = {
    "setup_s": "s",
    "pipeline_s": "s",
    "train_img_per_s": "img/s",
    "eval_img_per_s": "img/s",
    "peak_rss_mb": "MB",
}


def _import_program() -> float:
    """Import capsroute from this checkout's ``src/``; returns the import time in seconds."""
    if not (SRC / "capsroute" / "__init__.py").is_file():
        print(f"benchmark: no capsroute sources under {SRC}", file=sys.stderr)
        sys.exit(3)
    sys.path.insert(0, str(SRC))
    import capsroute.cli  # noqa: F401  (timed: NumPy and every capsroute module)

    if Path(capsroute.cli.__file__).resolve().parent != SRC / "capsroute":
        print(f"benchmark: imported capsroute from {capsroute.cli.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(3)
    return time.perf_counter() - _IMPORT_START


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "capsroute_threads": int(os.environ["CAPSROUTE_THREADS"]),
        "nproc": _NPROC,
        "seed": seed,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_untraced(workload, seed: int, seconds: float, work: Path, import_s: float, ledger) -> tuple[dict, dict]:
    from pipeline import fold_image_counts, rerun_eval, run_pipeline, set_up, tree_digest

    corpora = [work / f"corpus{i}" for i in range(SETUP_REPEATS)]
    setup_times = [set_up(ledger, c, seed) for c in corpora]
    digests = [tree_digest(c) for c in corpora]
    ledger.check(all(d == digests[0] for d in digests), "repeated set-ups of one seed wrote different corpora")
    manifest = corpora[-1] / "recordings.csv"

    results = []
    iterations = []
    images = None
    deadline = time.perf_counter() + seconds
    while True:
        start = time.perf_counter()
        result = run_pipeline(ledger, workload, manifest, work, seed)
        if result is None:
            break
        rerun_eval(ledger, workload, work, seed, result, EVAL_MIN_CALLS, EVAL_MIN_S)
        if images is None:
            images = fold_image_counts(work / "dataset" / "dataset.csv", workload, seed)
        if results:
            ledger.check(result.files == results[0].files, "a repeated pipeline of one seed wrote different bytes")
        results.append(result)
        iterations.append(time.perf_counter() - start)
        if time.perf_counter() + statistics.median(iterations) > deadline:
            break
    if not results:
        return {}, {}

    train_images, test_images = images
    metrics = {
        "setup_s": import_s + statistics.median(setup_times),
        "pipeline_s": statistics.median(r.pipeline_s for r in results),
        "train_img_per_s": statistics.median(workload.epochs * train_images / r.stage_s["train"] for r in results),
        "eval_img_per_s": test_images / statistics.median(t for r in results for t in r.eval_s),
        "peak_rss_mb": peak_rss_mb(),
    }
    record = {
        "pipelines": len(results),
        "pipeline_s_all": [r.pipeline_s for r in results],
        "eval_calls": sum(len(r.eval_s) for r in results),
        "setup_s_all": setup_times,
        "import_s": import_s,
        "accuracy": results[0].accuracy,
        "numerics": results[0].numerics,
        "final_losses": results[0].final_losses,
    }
    return metrics, record


def run_traced(workload, seed: int, work: Path, ledger) -> tuple[dict, dict]:
    from pipeline import run_pipeline, set_up
    from spans import Tracer

    set_up(ledger, work / "corpus", seed)
    manifest = work / "corpus" / "recordings.csv"
    before = run_pipeline(ledger, workload, manifest, work, seed)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_pipeline(ledger, workload, manifest, work, seed)
    finally:
        tracer.uninstall()
    # a second untraced pipeline, so that a drift in machine speed during the
    # run does not show up as tracing overhead
    after = run_pipeline(ledger, workload, manifest, work, seed)
    if before is None or traced is None or after is None:
        return {}, {}
    ledger.check(traced.files == before.files == after.files, "the traced pipeline wrote different bytes than the untraced ones")

    metrics = tracer.layer_metrics()
    untraced_s = (before.pipeline_s + after.pipeline_s) / 2
    metrics["trace.overhead_share"] = traced.pipeline_s / untraced_s - 1.0
    out = ROOT / ".bench_out" / f"spans-{workload.name}-seed{seed}.jsonl.gz"
    tracer.write(out)
    record = {
        "spans": len(tracer.spans),
        "spans_file": str(out.relative_to(ROOT)),
        "untraced_pipeline_s": [before.pipeline_s, after.pipeline_s],
        "traced_pipeline_s": traced.pipeline_s,
        "accuracy": traced.accuracy,
        "numerics": traced.numerics,
        "final_losses": traced.final_losses,
        "self_ms": tracer.self_ms(),
    }
    return metrics, record


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    import_s = _import_program()
    from pipeline import Ledger
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    ledger = Ledger()
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=ROOT / ".bench_work"))
    try:
        if trace:
            values, record = run_traced(workload, seed, work, ledger)
        else:
            values, record = run_untraced(workload, seed, seconds, work, import_s, ledger)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units = layer_units() if trace else END_TO_END_UNITS
    metrics = {k: {"value": values[k], "unit": unit} for k, unit in units.items() if k in values}
    correct = ledger.failed == 0 and len(metrics) == len(units)
    error_rate = ledger.failed / max(ledger.attempted, 1)
    for problem in ledger.problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    print(f"workload {name} seed {seed} trace {int(trace)}")
    for key, m in metrics.items():
        print(f"  {key:36s} {m['value']:.6g} {m['unit']}")
    if not trace and "accuracy" in record:
        print(f"  {'accuracy':36s} {record['accuracy']:.6g} ratio")
    print(f"  {'error_rate':36s} {error_rate:.6g} ratio ({ledger.failed} of {ledger.attempted} operations failed)")
    print("record " + json.dumps({"workload": name, "trace": int(trace), "env": environment(seed), **record}))
    print(json.dumps({"correct": correct, "attempted": ledger.attempted, "failed": ledger.failed, "metrics": metrics}))
    return 0 if correct else 1


def layer_units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in its own process (so peak RSS is per workload), one after another."""
    from workloads import WORKLOADS

    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(int(trace))]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"benchmark: workload {name} printed no result (exit {proc.returncode})", file=sys.stderr)
            return 1
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}/{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    sys.path.insert(0, str(BENCH_DIR))
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)} or 'all'")
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
