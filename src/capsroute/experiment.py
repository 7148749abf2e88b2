"""Five-fold holdout experiments: orchestration, report files, staged reruns.

An experiment directory is reproducible byte-for-byte from its config
snapshot and its output path (the snapshot omits ``out_dir``): split plans
derive from the dataset labels and the seed, training is deterministic per
fold, and every emitted file uses fixed formatting.

Stages (train -> eval -> report) can run separately through the stage
functions; ``run_experiment`` runs all three in turn, as the CLI does, so
every fold is scored from its checkpoint. Every stage takes the run's
``RunSettings``: it loads ``settings.dataset``, writes to ``settings.out_dir``
and takes the split keys from the settings.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .augment import audit_lineage, expand_dataset
from .config import ConfigError, RunSettings, read_config_file
from .metrics import TABLE_COLUMNS, ConfusionMatrix, MetricsReport, aggregate, metrics, normalize_confusion
from .signal import Label, SpectrogramImage, atomic_write, load_dataset, read_rows, write_rows
from .splits import SplitPlan, make_splits
from .tensor import NumericError
from .training import _keep_freed_heap, evaluate, images_to_arrays, load_model, save_model, train_model

__all__ = [
    "FoldOutcome",
    "ExperimentReport",
    "ExperimentError",
    "worker_count",
    "plan_for",
    "run_experiment",
    "stage_train",
    "stage_eval",
    "stage_report",
]


class ExperimentError(RuntimeError):
    pass


@dataclass
class FoldOutcome:
    fold: int
    confusion: ConfusionMatrix
    report: MetricsReport
    curve: list[dict]


@dataclass
class ExperimentReport:
    folds: list[FoldOutcome]
    aggregate: dict


def worker_count() -> int:
    """Fold-level parallelism cap from CAPSROUTE_THREADS (default 1); raises ConfigError unless it is a positive integer."""
    raw = os.environ.get("CAPSROUTE_THREADS", "1")
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ConfigError([f"CAPSROUTE_THREADS must be a positive integer, got {raw!r}"])
    return workers


def _fmt(value) -> str:
    if value is None:
        return ""
    return repr(float(value))


def plan_for(images: Sequence[SpectrogramImage], seed: int, folds: int, train_frac: float, split_mode: str, subject_grouped: bool) -> SplitPlan:
    _, labels = images_to_arrays(images)
    groups = [img.subject_id for img in images] if subject_grouped else None
    return make_splits(labels, k=folds, train_frac=train_frac, seed=seed, mode=split_mode, groups=groups)


def _check_snapshot(path: Path, settings: RunSettings) -> None:
    """Refuse to use a directory's outputs under settings other than the ones it was trained with."""
    try:
        stored = read_config_file(path)
    except ConfigError as exc:  # the snapshot is a run file, so a missing or damaged one is a data error
        raise ExperimentError(str(exc)) from exc
    wanted = {key: value.strip() for key, value in settings.snapshot_values().items()}  # stripped, as read_config_file reads
    differing = sorted(key for key in stored.keys() | wanted.keys() if stored.get(key) != wanted.get(key))
    if differing:
        raise ExperimentError(f"settings differ from {path} in: {', '.join(differing)}")


def _fold_seed(seed: int, fold: int) -> int:
    return int(np.random.default_rng((seed, 0xF0, fold)).integers(0, 2**31))


def _train_one_fold(fold_idx: int, images, plan: SplitPlan, settings: RunSettings, out_dir: Path) -> list[dict]:
    fold = plan.folds[fold_idx]
    train_images = [images[i] for i in fold.train_indices]
    fold_cfg = replace(settings, seed=_fold_seed(settings.seed, fold_idx))
    if settings.augment:
        train_images, lineage = expand_dataset(train_images, settings.augment_factor, fold_cfg.seed ^ 0x5EED)
        audit_lineage(lineage, fold.train_indices, fold.test_indices)
        columns = ("parent_path", "parent_index", "copy_index", "seed")
        write_rows(out_dir / f"augmented_fold{fold_idx}.csv", columns, ([r[c] for c in columns] for r in lineage))
    params, curve = train_model(train_images, fold_cfg)
    save_model(out_dir / f"model_fold{fold_idx}.ckpt", params)
    rows = ((r["epoch"], _fmt(r["mean_loss"]), _fmt(r["train_accuracy"])) for r in curve)
    write_rows(out_dir / f"curve_fold{fold_idx}.csv", ("epoch", "mean_loss", "train_accuracy"), rows)
    return curve


# ---------------------------------------------------------------------------
# file emission
# ---------------------------------------------------------------------------


_TRUE_CLASS = "true\\predicted"
# confusion file columns in written order: the true class, then the count predicted as each class
_CONFUSION_COLUMNS = {_TRUE_CLASS: Label, "Alert": int, "Drowsy": int}


def _read_confusion(path: Path) -> ConfusionMatrix:
    """One Alert row and one Drowsy row, each read by its class name; anything else raises."""
    rows = read_rows(path, _CONFUSION_COLUMNS)
    by_class = {row[_TRUE_CLASS]: row for row in rows}
    if len(rows) != 2 or len(by_class) != 2:
        raise ExperimentError(f"{path} must hold one Alert row and one Drowsy row, got {[row[_TRUE_CLASS].value for row in rows]}")
    alert, drowsy = by_class[Label.ALERT], by_class[Label.DROWSY]
    return ConfusionMatrix(tn=alert["Alert"], fp=alert["Drowsy"], fn=drowsy["Alert"], tp=drowsy["Drowsy"])


# ---------------------------------------------------------------------------
# stages
# ---------------------------------------------------------------------------


def _plan(settings: RunSettings) -> tuple[list[SpectrogramImage], SplitPlan]:
    images = load_dataset(settings.dataset)
    plan = plan_for(images, settings.seed, settings.folds, settings.train_frac, settings.split_mode, settings.subject_grouped)
    return images, plan


# everything a run writes in out_dir but config.snapshot; a new train stage
# deletes them first, so no later stage reads an earlier run's files (a
# checkpoint of a fold the new run does not have, say) as this run's
_RUN_OUTPUTS = (
    "model_fold*.ckpt", "curve_fold*.csv", "augmented_fold*.csv", "confusion_fold*.csv", "report.csv", "aggregate.csv"
)


def stage_train(settings: RunSettings) -> list[list[dict]]:
    """Train every fold; writes checkpoints, curves, and the config snapshot.

    First deletes every fold file, confusion and report an earlier run left in
    ``out_dir``, once ``CAPSROUTE_THREADS`` and the dataset have been read, so a
    bad value or a malformed dataset leaves that run as it was. Returns each
    fold's per-epoch curve.
    """
    workers = worker_count()
    images, plan = _plan(settings)
    out_dir = Path(settings.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for pattern in _RUN_OUTPUTS:
        for path in out_dir.glob(pattern):
            path.unlink()
    with atomic_write(out_dir / "config.snapshot", "w", encoding="utf-8") as fh:
        fh.write(settings.snapshot())

    def work(i):
        return _train_one_fold(i, images, plan, settings, out_dir)

    if workers > 1:
        _keep_freed_heap()  # before the pool starts, so its threads share the main arena's kept heap
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(work, range(settings.folds)))
    return [work(i) for i in range(settings.folds)]


def stage_eval(settings: RunSettings) -> list[ConfusionMatrix]:
    """Evaluate each fold's checkpoint; writes confusion files and report.csv.

    Checkpoints read from ``out_dir`` are scored only if these settings match
    its ``config.snapshot``, so the split plan is the one they were trained on.
    """
    out_dir = Path(settings.out_dir)
    images, plan = _plan(settings)
    confusions = []
    for i, fold in enumerate(plan.folds):
        ckpt = out_dir / f"model_fold{i}.ckpt"
        if not ckpt.exists():
            raise ExperimentError(f"missing checkpoint {ckpt}; run the train stage first")
        stored_kind, params = load_model(ckpt)
        if stored_kind != settings.kind:
            raise ExperimentError(f"{ckpt} holds a {stored_kind} model but the config requests {settings.kind}")
        if i == 0:  # after the kind check, which names the model the directory holds
            _check_snapshot(out_dir / "config.snapshot", settings)
        if images[0].pixels.shape != params.input_hw:  # load_dataset gives every image one shape
            raise ExperimentError(f"{ckpt} takes {params.input_hw} images but {settings.dataset} holds {images[0].pixels.shape}")
        test_images = [images[j] for j in fold.test_indices]
        try:
            with np.errstate(all="ignore"):  # an op that overflows raises NumericError; NumPy need not warn first
                cm = evaluate(params, test_images)
        except NumericError as exc:  # finite weights whose scores are not: bad input, like a NaN weight
            raise ExperimentError(f"{ckpt} cannot be scored: {exc}") from exc
        rows = [("Alert", cm.tn, cm.fp), ("Drowsy", cm.fn, cm.tp)]
        write_rows(out_dir / f"confusion_fold{i}.csv", list(_CONFUSION_COLUMNS), rows)
        confusions.append(cm)
    rows = ((i, *map(_fmt, metrics(cm).as_row())) for i, cm in enumerate(confusions))
    write_rows(out_dir / "report.csv", ("fold", *TABLE_COLUMNS), rows)
    return confusions


def stage_report(settings: RunSettings) -> dict:
    """Aggregate fold metrics; writes aggregate.csv and normalized confusions.

    Like ``stage_eval``, it refuses settings that differ from ``config.snapshot``.
    """
    out_dir = Path(settings.out_dir)
    confusions = []
    for i in range(settings.folds):
        path = out_dir / f"confusion_fold{i}.csv"
        if not path.exists():
            raise ExperimentError(f"missing {path}; run the eval stage first")
        confusions.append(_read_confusion(path))
    _check_snapshot(out_dir / "config.snapshot", settings)
    reports = [metrics(cm) for cm in confusions]
    agg = aggregate(reports)
    rows = ((column, *map(_fmt, agg[column])) for column in TABLE_COLUMNS)
    write_rows(out_dir / "aggregate.csv", ("metric", "mean", "std"), rows)
    for i, cm in enumerate(confusions):
        rows = ((name, *map(_fmt, row)) for name, row in zip(("Alert", "Drowsy"), normalize_confusion(cm)))
        write_rows(out_dir / f"confusion_fold{i}_normalized.csv", list(_CONFUSION_COLUMNS), rows)
    return agg


def run_experiment(settings: RunSettings) -> ExperimentReport:
    """The train, eval and report stages in turn, as the CLI runs them."""
    curves = stage_train(settings)
    confusions = stage_eval(settings)
    agg = stage_report(settings)
    outcomes = [
        FoldOutcome(fold=i, confusion=cm, report=metrics(cm), curve=curves[i])
        for i, cm in enumerate(confusions)
    ]
    return ExperimentReport(folds=outcomes, aggregate=agg)
