"""Set-up and one recordings-to-report pipeline through ``capsroute.cli.main``.

Every CLI stage call and every output check is one operation; a failed one
is counted against the run (``Ledger``) and makes the result incorrect.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import shutil
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from capsroute.cli import main as cli_main
from capsroute.experiment import plan_for
from capsroute.signal import load_dataset

from workloads import CAPSNET_MIN_ACCURACY, FOLDS, MINUTES, SUBJECTS, Workload


@dataclass
class Ledger:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)
        return ok

    def stage(self, argv: list[str]) -> bool:
        """Run one CLI stage with its stdout captured; returns whether it exited 0."""
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli_main(argv)
        except Exception:  # a stage that raises is a failed operation, not a crashed benchmark
            traceback.print_exc(file=sys.stderr)
            code = "exception"
        return self.check(code == 0, f"capsroute {argv[0]} exited {code}")


@dataclass
class PipelineResult:
    pipeline_s: float
    stage_s: dict[str, float]
    files: dict[str, str]  # artifact name -> sha256
    accuracy: float
    final_losses: list[float]
    numerics: str  # sha256 over aggregate.csv and the curves
    eval_s: list[float] = field(default_factory=list)


def set_up(ledger: Ledger, corpus_dir: Path, seed: int) -> float:
    """``synth`` the corpus into ``corpus_dir``; returns its wall time in seconds."""
    start = time.perf_counter()
    ledger.stage(["synth", "--subjects", SUBJECTS, "--minutes", MINUTES, "--seed", str(seed), "--out", str(corpus_dir)])
    return time.perf_counter() - start


def tree_digest(root: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(root.iterdir())}


def fold_image_counts(dataset_csv: Path, workload: Workload, seed: int) -> tuple[int, int]:
    """(train images per epoch over all folds after augmentation, test images over all folds).

    The split arguments are the CLI defaults, which the workloads do not override.
    """
    plan = plan_for(load_dataset(dataset_csv), seed, FOLDS, 0.8, "holdout", False)
    factor = 3 if workload.augment else 1
    train = sum(len(f.train_indices) for f in plan.folds) * factor
    test = sum(len(f.test_indices) for f in plan.folds)
    return train, test


def run_pipeline(ledger: Ledger, workload: Workload, manifest: Path, work: Path, seed: int) -> PipelineResult | None:
    """prepare -> train -> eval -> report into fresh ``work/dataset`` and ``work/experiment``.

    The paths are the same on every call, so repeated pipelines of one seed
    must leave byte-identical experiment directories (the config snapshot
    records the dataset path).
    """
    dataset_dir, exp_dir = work / "dataset", work / "experiment"
    for d in (dataset_dir, exp_dir):
        shutil.rmtree(d, ignore_errors=True)
    run_flags = workload.run_flags(str(dataset_dir / "dataset.csv"), str(exp_dir), seed)
    stages = [
        ("prepare", ["prepare", "--manifest", str(manifest), "--channels", workload.channels, "--out", str(dataset_dir)]),
        ("train", ["train"] + run_flags),
        ("eval", ["eval"] + run_flags),
        ("report", ["report"] + run_flags),
    ]
    stage_s = {}
    start = time.perf_counter()
    for name, argv in stages:
        t0 = time.perf_counter()
        if not ledger.stage(argv):
            return None
        stage_s[name] = time.perf_counter() - t0
    pipeline_s = time.perf_counter() - start
    return _check_outputs(ledger, workload, exp_dir, pipeline_s, stage_s)


def rerun_eval(ledger: Ledger, workload: Workload, work: Path, seed: int, result: PipelineResult, min_calls: int, min_s: float) -> None:
    """Time ``eval`` again on the finished experiment; it must rewrite the same bytes.

    Eval takes 0.2 to 1.5 s, so its metric is the median of at least
    ``min_calls`` calls that together last at least ``min_s`` seconds, the
    pipeline's own call included.
    """
    run_flags = workload.run_flags(str(work / "dataset" / "dataset.csv"), str(work / "experiment"), seed)
    while len(result.eval_s) < min_calls or sum(result.eval_s) < min_s:
        t0 = time.perf_counter()
        if not ledger.stage(["eval"] + run_flags):
            return
        result.eval_s.append(time.perf_counter() - t0)
    ledger.check(tree_digest(work / "experiment") == result.files, "re-running eval changed the experiment directory")


def _check_outputs(ledger: Ledger, workload: Workload, exp_dir: Path, pipeline_s: float, stage_s: dict) -> PipelineResult:
    files = tree_digest(exp_dir)
    missing = workload.expected_files ^ set(files)
    ledger.check(not missing, f"artifact set differs from the expected {len(workload.expected_files)} files: {sorted(missing)}")

    numerics = hashlib.sha256()
    final_losses = []
    finite = True
    for i in range(FOLDS):
        curve = exp_dir / f"curve_fold{i}.csv"
        if not curve.exists():
            finite = False
            continue
        numerics.update(curve.read_bytes())
        with open(curve, newline="") as fh:
            losses = [float(row["mean_loss"]) for row in csv.DictReader(fh)]
        finite &= bool(losses) and all(math.isfinite(v) for v in losses)
        final_losses.append(losses[-1] if losses else math.nan)
    ledger.check(finite, "a curve holds a non-finite or missing loss")

    accuracy = math.nan
    aggregate = exp_dir / "aggregate.csv"
    if aggregate.exists():
        numerics.update(aggregate.read_bytes())
        with open(aggregate, newline="") as fh:
            rows = {row["metric"]: row["mean"] for row in csv.DictReader(fh)}
        accuracy = float(rows.get("Accuracy", "nan"))
    if workload.model == "capsnet":
        ledger.check(accuracy >= CAPSNET_MIN_ACCURACY, f"capsnet accuracy {accuracy} < {CAPSNET_MIN_ACCURACY}")
    return PipelineResult(pipeline_s, stage_s, files, accuracy, final_losses, numerics.hexdigest(), [stage_s["eval"]])
