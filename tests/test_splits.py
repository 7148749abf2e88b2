"""Split plans: stratification, determinism, disjointness, modes."""

import numpy as np
import pytest

from capsroute.splits import SplitError, make_splits


def balanced_labels(n):
    return np.array([0, 1] * (n // 2))


class TestHoldout:
    def test_920_balanced_arithmetic(self):
        labels = balanced_labels(920)
        plan = make_splits(labels, k=5, train_frac=0.8, seed=0)
        assert len(plan.folds) == 5
        for fold in plan.folds:
            assert len(fold.train_indices) == 736
            assert len(fold.test_indices) == 184
            assert (labels[fold.train_indices] == 0).sum() == 368
            assert (labels[fold.train_indices] == 1).sum() == 368
            assert (labels[fold.test_indices] == 0).sum() == 92

    def test_same_seed_identical_plan(self):
        labels = balanced_labels(100)
        a = make_splits(labels, seed=7)
        b = make_splits(labels, seed=7)
        for fa, fb in zip(a.folds, b.folds):
            np.testing.assert_array_equal(fa.train_indices, fb.train_indices)
            np.testing.assert_array_equal(fa.test_indices, fb.test_indices)

    def test_different_seed_differs(self):
        labels = balanced_labels(100)
        a = make_splits(labels, seed=7)
        b = make_splits(labels, seed=8)
        assert any(
            not np.array_equal(fa.train_indices, fb.train_indices) for fa, fb in zip(a.folds, b.folds)
        )

    def test_disjoint_and_covering(self):
        labels = balanced_labels(104)
        plan = make_splits(labels, k=5, seed=3)
        for fold in plan.folds:
            train, test = set(fold.train_indices.tolist()), set(fold.test_indices.tolist())
            assert train & test == set()
            assert train | test == set(range(104))

    def test_folds_are_independent_draws(self):
        labels = balanced_labels(200)
        plan = make_splits(labels, k=5, seed=1)
        test_sets = [set(f.test_indices.tolist()) for f in plan.folds]
        # independent holdouts almost surely overlap somewhere (a partition would not)
        assert any(a & b for i, a in enumerate(test_sets) for b in test_sets[i + 1 :])

    def test_stratification_within_one_sample(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            n0 = int(rng.integers(20, 100))
            n1 = int(rng.integers(20, 100))
            labels = np.array([0] * n0 + [1] * n1)
            plan = make_splits(labels, k=5, train_frac=0.8, seed=int(rng.integers(1000)))
            for fold in plan.folds:
                got0 = (labels[fold.train_indices] == 0).sum()
                assert abs(got0 - 0.8 * n0) < 1.0
                assert len(fold.train_indices) == round(0.8 * (n0 + n1))

    def test_too_few_samples_per_class(self):
        with pytest.raises(SplitError):
            make_splits(np.array([0, 0, 0, 1, 1, 1]), k=5)

    @pytest.mark.parametrize(
        "labels, train_frac, sizes",
        [([0, 0], 0.8, "2 and 0"), ([0, 0, 1, 1], 0.9, "4 and 0"), ([0, 0, 1, 1], 0.1, "0 and 4")],
        ids=["one-class", "no-test-image", "no-train-image"],
    )
    def test_fold_without_train_or_test_images(self, labels, train_frac, sizes):
        with pytest.raises(SplitError, match=f"a fold needs train and test images, got {sizes}"):
            make_splits(np.array(labels), k=2, train_frac=train_frac)


class TestPartitionMode:
    def test_each_sample_tested_once(self):
        labels = balanced_labels(100)
        plan = make_splits(labels, k=5, seed=2, mode="partition")
        seen = np.concatenate([f.test_indices for f in plan.folds])
        assert sorted(seen.tolist()) == list(range(100))

    def test_partition_is_8020_when_divisible(self):
        labels = balanced_labels(100)
        plan = make_splits(labels, k=5, seed=2, mode="partition")
        for fold in plan.folds:
            assert len(fold.train_indices) == 80
            assert len(fold.test_indices) == 20

    def test_unknown_mode(self):
        with pytest.raises(SplitError):
            make_splits(balanced_labels(100), mode="bogus")


class TestGrouped:
    def test_groups_never_straddle(self):
        labels = np.array([0, 0, 0, 1, 1, 1] * 10)
        groups = [f"subj{i // 6}" for i in range(60)]
        plan = make_splits(labels, k=5, seed=5, groups=groups)
        for fold in plan.folds:
            train_groups = {groups[i] for i in fold.train_indices}
            test_groups = {groups[i] for i in fold.test_indices}
            assert train_groups & test_groups == set()

    def test_grouped_partition_tests_every_image_once(self):
        labels = np.array([0, 0, 0, 1, 1, 1] * 10)
        groups = [f"subj{i // 6}" for i in range(60)]
        plan = make_splits(labels, k=5, seed=5, mode="partition", groups=groups)
        tested = np.concatenate([fold.test_indices for fold in plan.folds])
        np.testing.assert_array_equal(np.sort(tested), np.arange(60))
        for fold in plan.folds:
            np.testing.assert_array_equal(np.sort(np.concatenate([fold.train_indices, fold.test_indices])), np.arange(60))
            train_groups = {groups[i] for i in fold.train_indices}
            test_groups = {groups[i] for i in fold.test_indices}
            assert train_groups & test_groups == set()

    def test_grouped_partition_needs_k_groups(self):
        labels = np.array([0, 1] * 20)
        groups = [f"subj{i % 4}" for i in range(40)]
        with pytest.raises(SplitError, match="at least k=5 groups"):
            make_splits(labels, k=5, mode="partition", groups=groups)
