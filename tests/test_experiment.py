"""Experiment orchestration: artifacts, staging, determinism, augmentation."""

from pathlib import Path

import pytest

from capsroute.config import RunSettings
from capsroute.experiment import (
    ExperimentError,
    run_experiment,
    stage_eval,
    stage_report,
    stage_train,
    worker_count,
)
from capsroute.signal import write_dataset
from test_training import toy_images


@pytest.fixture(scope="module")
def toy_dataset(tmp_path_factory):
    return write_dataset(toy_images(40, hw=(12, 12), seed=0), tmp_path_factory.mktemp("toy"))


def quick_settings(dataset, out_dir, **kw):
    defaults = dict(kind="mlp", epochs=3, batch_size=8, seed=4)
    defaults.update(kw)
    return RunSettings(dataset=dataset, out_dir=out_dir, **defaults)


EXPECTED_FILES = (
    ["config.snapshot", "report.csv", "aggregate.csv"]
    + [f"model_fold{i}.ckpt" for i in range(5)]
    + [f"curve_fold{i}.csv" for i in range(5)]
    + [f"confusion_fold{i}.csv" for i in range(5)]
    + [f"confusion_fold{i}_normalized.csv" for i in range(5)]
)


@pytest.fixture(scope="module")
def result(toy_dataset, tmp_path_factory):
    out = tmp_path_factory.mktemp("exp")
    report = run_experiment(quick_settings(toy_dataset, out))
    return report, out


class TestRunExperiment:
    def test_all_artifacts_written(self, result):
        _, out = result
        for name in EXPECTED_FILES:
            assert (out / name).exists(), name

    def test_exactly_five_confusions(self, result):
        report, _ = result
        assert len(report.folds) == 5
        for outcome in report.folds:
            assert outcome.confusion.total == 8  # 20% of 40

    def test_aggregate_in_table_order(self, result):
        report, out = result
        assert list(report.aggregate.keys()) == ["Accuracy", "F1", "Sensitivity", "Specificity", "Precision"]
        header = (out / "report.csv").read_text().splitlines()[0]
        assert header == "fold,Accuracy,F1,Sensitivity,Specificity,Precision"

    def test_report_rows_match_outcomes(self, result):
        report, out = result
        lines = (out / "report.csv").read_text().strip().splitlines()[1:]
        assert len(lines) == 5
        first_acc = float(lines[0].split(",")[1])
        assert first_acc == pytest.approx(report.folds[0].report.accuracy)

    def test_normalized_rows_sum_to_one(self, result):
        _, out = result
        for i in range(5):
            lines = (out / f"confusion_fold{i}_normalized.csv").read_text().strip().splitlines()[1:]
            for line in lines:
                vals = [float(v) for v in line.split(",")[1:]]
                assert sum(vals) == pytest.approx(1.0, abs=1e-12)

    def test_snapshot_contains_resolved_config(self, result):
        _, out = result
        text = (out / "config.snapshot").read_text()
        assert "model=mlp\n" in text
        assert "epochs=3\n" in text
        assert "folds=5\n" in text
        assert "out_dir" not in text  # snapshot identifies the run, not its location


class TestDeterminism:
    def test_reruns_are_byte_identical(self, toy_dataset, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run_experiment(quick_settings(toy_dataset, a))
        run_experiment(quick_settings(toy_dataset, b))
        names_a = sorted(p.name for p in a.iterdir())
        names_b = sorted(p.name for p in b.iterdir())
        assert names_a == names_b
        for name in names_a:
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_different_seed_changes_artifacts(self, toy_dataset, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run_experiment(quick_settings(toy_dataset, a, seed=1))
        run_experiment(quick_settings(toy_dataset, b, seed=2))
        assert (a / "model_fold0.ckpt").read_bytes() != (b / "model_fold0.ckpt").read_bytes()


class TestStaging:
    def test_staged_equals_one_shot(self, toy_dataset, tmp_path):
        one, staged = tmp_path / "one", quick_settings(toy_dataset, tmp_path / "staged")
        run_experiment(quick_settings(toy_dataset, one))
        stage_train(staged)
        stage_eval(staged)
        stage_report(staged)
        for name in EXPECTED_FILES:
            assert (one / name).read_bytes() == (staged.out_dir / name).read_bytes(), name

    def test_eval_without_train_fails(self, toy_dataset, tmp_path):
        with pytest.raises(ExperimentError, match="train stage"):
            stage_eval(quick_settings(toy_dataset, tmp_path / "empty"))

    def test_report_without_eval_fails(self, toy_dataset, tmp_path):
        with pytest.raises(ExperimentError, match="eval stage"):
            stage_report(quick_settings(toy_dataset, tmp_path / "empty"))


class TestAugmentedRun:
    def test_lineage_files_written_and_audited(self, toy_dataset, tmp_path):
        out = tmp_path / "aug"
        report = run_experiment(quick_settings(toy_dataset, out, augment=True, augment_factor=2, epochs=2))
        for i in range(5):
            lineage = (out / f"augmented_fold{i}.csv").read_text().strip().splitlines()
            assert lineage[0] == "parent_path,parent_index,copy_index,seed"
            assert len(lineage) == 1 + 32  # factor 2 on 32 train images
        assert len(report.folds) == 5

    def test_augmented_training_set_size(self, toy_dataset, tmp_path):
        out = tmp_path / "aug3"
        run_experiment(quick_settings(toy_dataset, out, augment=True, augment_factor=3, epochs=1))
        lineage = (out / "augmented_fold0.csv").read_text().strip().splitlines()
        assert len(lineage) - 1 == 2 * 32


class TestGroupedRun:
    def test_subject_grouped_runs(self, toy_dataset, tmp_path):
        report = run_experiment(quick_settings(toy_dataset, tmp_path / "grp", epochs=1, subject_grouped=True))
        assert len(report.folds) == 5


class TestWorkerCount:
    def test_default_is_one(self, monkeypatch):
        monkeypatch.delenv("CAPSROUTE_THREADS", raising=False)
        assert worker_count() == 1

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("CAPSROUTE_THREADS", "3")
        assert worker_count() == 3

    def test_garbage_env_falls_back(self, monkeypatch):
        monkeypatch.setenv("CAPSROUTE_THREADS", "lots")
        assert worker_count() == 1

    def test_parallel_run_matches_sequential(self, toy_dataset, tmp_path, monkeypatch):
        monkeypatch.delenv("CAPSROUTE_THREADS", raising=False)
        seq = tmp_path / "seq"
        run_experiment(quick_settings(toy_dataset, seq, epochs=2))
        monkeypatch.setenv("CAPSROUTE_THREADS", "4")
        par = tmp_path / "par"
        run_experiment(quick_settings(toy_dataset, par, epochs=2))
        for name in EXPECTED_FILES:
            assert (seq / name).read_bytes() == (par / name).read_bytes(), name


class TestSnapshotText:
    def test_sorted_key_value_lines(self):
        text = quick_settings("ds.csv", "out").snapshot()
        keys = [line.split("=")[0] for line in text.strip().splitlines()]
        assert keys == sorted(keys)
        assert f"dataset={Path('ds.csv').resolve()}\n" in text  # the absolute path, so a rerun finds it from anywhere
