"""Confusion counts and the derived metric suite, drowsy as the positive class.

Metrics with a zero denominator are undefined (None), never zero-filled, and
are excluded from aggregation so they cannot bias fold means.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

__all__ = ["TABLE_COLUMNS", "ConfusionMatrix", "MetricsReport", "MetricsError", "metrics", "normalize_confusion", "aggregate"]

# column order follows the published results table
TABLE_COLUMNS = ("Accuracy", "F1", "Sensitivity", "Specificity", "Precision")


class MetricsError(ValueError):
    pass


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int
    fn: int
    fp: int
    tn: int

    def __post_init__(self):
        for name in ("tp", "fn", "fp", "tn"):
            if getattr(self, name) < 0:
                raise MetricsError(f"confusion count {name} must be non-negative")

    @property
    def total(self) -> int:
        return self.tp + self.fn + self.fp + self.tn

    def as_grid(self) -> np.ndarray:
        """Rows are true [Alert, Drowsy], columns predicted [Alert, Drowsy]."""
        return np.array([[self.tn, self.fp], [self.fn, self.tp]], dtype=np.float64)


@dataclass(frozen=True)
class MetricsReport:
    accuracy: Optional[float]
    f1: Optional[float]
    sensitivity: Optional[float]
    specificity: Optional[float]
    precision: Optional[float]

    def as_row(self) -> tuple:
        return (self.accuracy, self.f1, self.sensitivity, self.specificity, self.precision)


def _ratio(num: int, den: int) -> Optional[float]:
    return num / den if den > 0 else None


def metrics(cm: ConfusionMatrix) -> MetricsReport:
    """Accuracy, F1, sensitivity, specificity, precision from the counts."""
    accuracy = _ratio(cm.tp + cm.tn, cm.total)
    sensitivity = _ratio(cm.tp, cm.tp + cm.fn)
    specificity = _ratio(cm.tn, cm.tn + cm.fp)
    precision = _ratio(cm.tp, cm.tp + cm.fp)
    if precision is None or sensitivity is None or precision + sensitivity == 0:
        f1 = None
    else:
        f1 = 2.0 * precision * sensitivity / (precision + sensitivity)
    return MetricsReport(accuracy=accuracy, f1=f1, sensitivity=sensitivity, specificity=specificity, precision=precision)


def normalize_confusion(cm: ConfusionMatrix) -> np.ndarray:
    """Row-stochastic 2x2 matrix (each true class normalized to 1).

    A true class with no images has an undefined row: both its cells are
    None, so the matrix is then an object array.
    """
    grid = cm.as_grid()
    sums = grid.sum(axis=1, keepdims=True)
    if sums.all():
        return grid / sums
    return np.array([row / total if total else (None, None) for row, total in zip(grid, sums[:, 0])], dtype=object)


def aggregate(per_fold: Sequence[MetricsReport]) -> dict[str, tuple[Optional[float], Optional[float]]]:
    """Mean and sample standard deviation per metric over defined fold values.

    Ordered as TABLE_COLUMNS. A metric undefined in every fold has an
    undefined (None) mean and std; with a single defined value the std is
    undefined.
    """
    if len(per_fold) < 2:
        raise MetricsError(f"aggregation needs at least 2 folds, got {len(per_fold)}")
    out: dict[str, tuple[Optional[float], Optional[float]]] = {}
    for column, values in zip(TABLE_COLUMNS, zip(*(r.as_row() for r in per_fold))):
        defined = [v for v in values if v is not None]
        if not defined:
            out[column] = (None, None)
            continue
        mean = sum(defined) / len(defined)
        if len(defined) >= 2:
            var = sum((v - mean) ** 2 for v in defined) / (len(defined) - 1)
            std = math.sqrt(var)
        else:
            std = None
        out[column] = (mean, std)
    return out
