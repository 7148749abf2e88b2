"""Stratified train/test split plans for the five-fold holdout protocol.

Default mode draws k independent stratified random holdouts (each fold its
own 80/20 draw with a fold-derived seed). A strict-partition mode is kept
behind ``mode="partition"`` for the conventional disjoint-test-chunks k-fold
reading. An optional subject grouping keeps a subject's images on one side:
grouped holdout draws whole groups per fold, grouped partition gives each fold
a disjoint chunk of the groups as its test side.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

__all__ = ["Fold", "SplitPlan", "SplitError", "make_splits"]


class SplitError(ValueError):
    pass


@dataclass(frozen=True)
class Fold:
    train_indices: np.ndarray
    test_indices: np.ndarray


@dataclass(frozen=True)
class SplitPlan:
    folds: list[Fold]


def _per_class_train_counts(class_sizes: dict, train_frac: float, n_train_total: int) -> dict:
    """Largest-remainder apportionment keeping each class within one sample of exact."""
    exact = {c: train_frac * n for c, n in class_sizes.items()}
    base = {c: int(np.floor(v)) for c, v in exact.items()}
    leftover = n_train_total - sum(base.values())
    if leftover < 0:
        raise SplitError("train fraction apportionment underflow")
    order = sorted(class_sizes, key=lambda c: (-(exact[c] - base[c]), c))
    counts = dict(base)
    for c in order[:leftover]:
        counts[c] += 1
    return counts


def make_splits(
    labels: Sequence[int],
    k: int = 5,
    train_frac: float = 0.8,
    seed: int = 0,
    mode: str = "holdout",
    groups: Optional[Sequence[str]] = None,
) -> SplitPlan:
    """Build k stratified train/test folds over ``labels`` (0/1 class indices)."""
    labels = np.asarray(labels, dtype=np.int64)
    n = len(labels)
    if not 0.0 < train_frac < 1.0:
        raise SplitError(f"train_frac must be in (0, 1), got {train_frac}")
    if mode not in ("holdout", "partition"):
        raise SplitError(f"mode must be holdout or partition, got {mode!r}")
    class_indices = {c: np.flatnonzero(labels == c) for c in np.unique(labels)}
    for c, idx in class_indices.items():
        if len(idx) < k:
            raise SplitError(f"class {c} has only {len(idx)} samples, fewer than k={k}")

    if groups is not None:
        groups = np.asarray(groups)
        if len(groups) != n:
            raise SplitError("groups must parallel labels")
        if mode == "partition":
            return _grouped_partition(groups, k, seed)
        return _grouped_holdout(labels, groups, k, train_frac, seed)

    folds = []
    if mode == "holdout":
        n_train_total = int(round(train_frac * n))
        counts = _per_class_train_counts({c: len(v) for c, v in class_indices.items()}, train_frac, n_train_total)
        for i in range(k):
            rng = np.random.default_rng((seed, i))
            train_parts, test_parts = [], []
            for c in sorted(class_indices):
                perm = rng.permutation(class_indices[c])
                train_parts.append(perm[: counts[c]])
                test_parts.append(perm[counts[c] :])
            folds.append(_fold(train_parts, test_parts))
    else:
        rng = np.random.default_rng((seed,))
        permuted = {c: rng.permutation(idx) for c, idx in class_indices.items()}
        for i in range(k):
            train_parts, test_parts = [], []
            for c in sorted(permuted):
                chunks = np.array_split(permuted[c], k)
                test_parts.append(chunks[i])
                train_parts.append(np.concatenate([ch for j, ch in enumerate(chunks) if j != i]))
            folds.append(_fold(train_parts, test_parts))
    return SplitPlan(folds=folds)


def _fold(train_parts, test_parts) -> Fold:
    train = np.sort(np.concatenate(train_parts))
    test = np.sort(np.concatenate(test_parts))
    if not (len(train) and len(test)):  # too few images for train_frac
        raise SplitError(f"a fold needs train and test images, got {len(train)} and {len(test)}")
    return Fold(train_indices=train, test_indices=test)


def _grouped_partition(groups: np.ndarray, k: int, seed: int) -> SplitPlan:
    """Shuffled groups in k disjoint chunks; fold i tests chunk i's images."""
    unique = np.unique(groups)
    if len(unique) < k:
        raise SplitError(f"grouped partition needs at least k={k} groups, got {len(unique)}")
    chunks = np.array_split(np.random.default_rng((seed,)).permutation(unique), k)
    folds = []
    for chunk in chunks:
        in_test = np.isin(groups, chunk)
        folds.append(Fold(train_indices=np.flatnonzero(~in_test), test_indices=np.flatnonzero(in_test)))
    return SplitPlan(folds=folds)


def _grouped_holdout(labels: np.ndarray, groups: np.ndarray, k: int, train_frac: float, seed: int) -> SplitPlan:
    """Whole-group assignment: greedy fill toward the train target per fold."""
    unique = sorted(set(groups.tolist()))
    members = {g: np.flatnonzero(groups == g) for g in unique}
    target = train_frac * len(labels)
    folds = []
    if len(unique) < 2:
        raise SplitError("grouped splits need at least two distinct groups")
    for i in range(k):
        rng = np.random.default_rng((seed, i, 0x6))
        order = list(rng.permutation(unique))
        train_groups, filled = [], 0
        for g in order[:-1]:  # always leave at least one group for the test side
            if filled < target:
                train_groups.append(g)
                filled += len(members[g])
        if not train_groups:
            train_groups.append(order[0])
        train = np.sort(np.concatenate([members[g] for g in train_groups]))
        test = np.sort(np.setdiff1d(np.arange(len(labels)), train))
        folds.append(Fold(train_indices=train, test_indices=test))
    return SplitPlan(folds=folds)
