"""CLI commands, config precedence, and exit-code categories."""

import csv
import random
import re
import shutil
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from capsroute import signal
from capsroute.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from capsroute.cli import EXIT_CONFIG, EXIT_DATA, EXIT_OK, _settings_from_args, build_parser, main, read_config_file
from capsroute.config import KEYS, resolve_run_settings
from capsroute.signal import load_dataset, save_recording
from capsroute.tensor import tensor_fields
from capsroute.training import save_model
from reduced import reduced_mlp


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli_corpus")
    assert main(["synth", "--subjects", "2,2", "--minutes", "0.5", "--seed", "3", "--out", str(out)]) == EXIT_OK
    return out


@pytest.fixture(scope="module")
def corpus_seed1(tmp_path_factory):
    """Six subjects of one minute: 24 images per channel set, so a 2-fold run is quick."""
    out = tmp_path_factory.mktemp("cli_corpus_seed1")
    assert main(["synth", "--subjects", "3,3", "--minutes", "1", "--seed", "1", "--out", str(out)]) == EXIT_OK
    return out


def _prepare(corpus, channels, out):
    assert main(["prepare", "--manifest", str(corpus / "recordings.csv"), "--channels", channels, "--out", str(out)]) == EXIT_OK
    return out / "dataset.csv"


@pytest.fixture(scope="module")
def dataset_dir(corpus_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("cli_dataset")
    code = main(["prepare", "--manifest", str(corpus_dir / "recordings.csv"), "--channels", "fz", "--out", str(out)])
    assert code == EXIT_OK
    return out


class TestSynth:
    def test_file_and_manifest_counts(self, corpus_dir):
        manifest = (corpus_dir / "recordings.csv").read_text().strip().splitlines()
        f32_files = list(corpus_dir.glob("*.f32"))
        assert len(f32_files) == 8  # 2 channels x 4 subjects
        assert len(manifest) - 1 == 8

    def test_deterministic_under_seed(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["synth", "--subjects", "1,1", "--minutes", "0.5", "--seed", "9", "--out", str(a)])
        main(["synth", "--subjects", "1,1", "--minutes", "0.5", "--seed", "9", "--out", str(b)])
        for f in sorted(a.iterdir()):
            assert f.read_bytes() == (b / f.name).read_bytes()

    def test_bad_subjects_spec(self, tmp_path):
        assert main(["synth", "--subjects", "banana", "--out", str(tmp_path)]) == EXIT_CONFIG

    @pytest.mark.parametrize("minutes", ["0.1", "nan", "inf"])
    def test_unusable_minutes_is_data_error(self, tmp_path, capsys, minutes):
        assert main(["synth", "--subjects", "1,1", "--minutes", minutes, "--out", str(tmp_path / "c")]) == EXIT_DATA
        assert capsys.readouterr().err.startswith("data error: duration must be finite")

    # 1e12 minutes fails its first allocation at once; 1e20 is past the largest array NumPy can describe
    @pytest.mark.parametrize("minutes", ["1e12", "1e20"])
    def test_minutes_too_long_to_hold_is_data_error(self, tmp_path, capsys, minutes):
        assert main(["synth", "--subjects", "1,1", "--minutes", minutes, "--out", str(tmp_path / "c")]) == EXIT_DATA
        assert capsys.readouterr().err.startswith("data error: cannot synthesize")

    def test_negative_seed_is_config_error(self, tmp_path, capsys):
        assert main(["synth", "--subjects", "1,1", "--minutes", "0.5", "--seed", "-1", "--out", str(tmp_path / "c")]) == EXIT_CONFIG
        assert "--seed must be >= 0, got -1" in capsys.readouterr().err
        assert not (tmp_path / "c").exists()

    def test_interrupted_rerun_leaves_no_manifest(self, tmp_path, monkeypatch):
        out = tmp_path / "corpus"
        assert main(["synth", "--subjects", "2,2", "--minutes", "0.5", "--seed", "3", "--out", str(out)]) == EXIT_OK
        assert sorted(p.suffix for p in out.iterdir()) == [".csv"] + [".f32"] * 8  # no temp manifest left
        calls = []

        def failing_save(path, samples):
            calls.append(path)
            if len(calls) == 3:
                raise OSError("disk full")
            save_recording(path, samples)

        monkeypatch.setattr(signal, "save_recording", failing_save)
        with pytest.raises(OSError, match="disk full"):
            main(["synth", "--subjects", "2,2", "--minutes", "0.5", "--seed", "4", "--out", str(out)])
        assert not (out / "recordings.csv").exists()  # two new and six old recordings: nothing may name them
        assert not list(out.glob("*.tmp"))
        code = main(["prepare", "--manifest", str(out / "recordings.csv"), "--channels", "fz", "--out", str(tmp_path / "d")])
        assert code == EXIT_DATA


class TestPrepare:
    def test_fz_images(self, dataset_dir):
        images = load_dataset(dataset_dir / "dataset.csv")
        assert len(images) == 8  # 4 Fz recordings x 2 segments at 0.5 min
        assert all(img.pixels.shape == (32, 32) for img in images)

    def test_fzpz_images(self, corpus_dir, tmp_path):
        out = tmp_path / "fzpz"
        code = main(["prepare", "--manifest", str(corpus_dir / "recordings.csv"), "--channels", "fzpz", "--out", str(out)])
        assert code == EXIT_OK
        images = load_dataset(out / "dataset.csv")
        assert all(img.pixels.shape == (64, 32) for img in images)

    def test_idempotent(self, corpus_dir, tmp_path):
        out = tmp_path / "rerun"
        args = ["prepare", "--manifest", str(corpus_dir / "recordings.csv"), "--channels", "fz", "--out", str(out)]
        main(args)
        first = {p.name: p.read_bytes() for p in out.iterdir()}
        main(args)
        second = {p.name: p.read_bytes() for p in out.iterdir()}
        assert first == second

    def test_missing_manifest(self, tmp_path):
        code = main(["prepare", "--manifest", str(tmp_path / "nope.csv"), "--channels", "fz", "--out", str(tmp_path / "o")])
        assert code == EXIT_DATA

    def test_csv_recording_that_is_not_text(self, tmp_path, capsys):
        (tmp_path / "r.csv").write_bytes(b"\xff\xfe\x00\x01")
        (tmp_path / "recordings.csv").write_text("subject_id,pvt,channel,kss,path\ns0,PVT1,Fz,2,r.csv\n")
        code = main(["prepare", "--manifest", str(tmp_path / "recordings.csv"), "--channels", "fz", "--out", str(tmp_path / "o")])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error:") and str(tmp_path / "r.csv") in err

    def test_signalling_nan_recording_is_data_error_without_a_warning(self, tmp_path, capsys):
        # a signalling NaN warns when cast to float64, so it must be refused before the cast
        raw = np.full(16, 1.5, dtype="<f4").tobytes()
        (tmp_path / "r.f32").write_bytes(raw[:8] + b"\x01\x00\x80\x7f" + raw[12:])
        (tmp_path / "recordings.csv").write_text("subject_id,pvt,channel,kss,path\ns0,PVT1,Fz,2,r.f32\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["prepare", "--manifest", str(tmp_path / "recordings.csv"), "--channels", "fz", "--out", str(tmp_path / "o")])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error:") and str(tmp_path / "r.f32") in err and "non-finite" in err

    def test_multi_column_csv_recording_is_data_error(self, tmp_path, capsys):
        (tmp_path / "r.csv").write_text("1.5,9\n-2.5,x\n")
        (tmp_path / "recordings.csv").write_text("subject_id,pvt,channel,kss,path\ns0,PVT1,Fz,2,r.csv\n")
        code = main(["prepare", "--manifest", str(tmp_path / "recordings.csv"), "--channels", "fz", "--out", str(tmp_path / "o")])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "non-numeric CSV sample" in err

    @pytest.mark.parametrize(
        "row", ["a00,PVT1,Fz,1", "a00,PVT1,Fz", "a00,PVT1,Fz,1,a00_PVT1_Fz.f32,extra"], ids=["no-path", "no-kss-or-path", "sixth-cell"]
    )
    def test_recordings_row_with_missing_or_extra_cell_is_data_error(self, tmp_path, capsys, row):
        manifest = tmp_path / "recordings.csv"
        manifest.write_text(f"subject_id,pvt,channel,kss,path\n{row}\n")
        code = main(["prepare", "--manifest", str(manifest), "--channels", "fz", "--out", str(tmp_path / "o")])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error:") and f"{manifest} line 2: expected 5 cells" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("channels", ["fz", "fzpz"])
    def test_duplicate_recording_is_data_error(self, corpus_dir, tmp_path, capsys, channels):
        header, *rows = (corpus_dir / "recordings.csv").read_text().splitlines(keepends=True)
        # absolute paths, so the copied manifest still names the corpus files
        rows = [f"{fields},{corpus_dir / name}" for fields, name in (row.rsplit(",", 1) for row in rows)]
        assert ",Fz," in rows[0]
        manifest = tmp_path / "recordings.csv"
        manifest.write_text(header + "".join(rows) + rows[0])
        code = main(["prepare", "--manifest", str(manifest), "--channels", channels, "--out", str(tmp_path / "o")])
        assert code == EXIT_DATA
        assert "duplicate Fz recording" in capsys.readouterr().err


def _run_args(dataset_dir, out, extra=()):
    return [
        "--dataset",
        str(dataset_dir / "dataset.csv"),
        "--out",
        str(out),
        "--model",
        "mlp",
        "--epochs",
        "25",
        "--folds",
        "2",
        "--seed",
        "1",
        *extra,
    ]


class TestTrainEvalReport:
    @pytest.mark.parametrize("command", ["train", "eval", "report"])
    def test_negative_seed_is_config_error(self, dataset_dir, tmp_path, capsys, command):
        assert main([command, *_run_args(dataset_dir, tmp_path / "run", ["--seed", "-1"])]) == EXIT_CONFIG
        assert "config error: seed must be >= 0, got -1" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train", "eval", "report"])
    def test_nul_in_dataset_path_is_config_error(self, dataset_dir, tmp_path, capsys, command):
        args = [*_run_args(dataset_dir, tmp_path / "run"), "--dataset", f"{dataset_dir}/x\0.csv"]
        assert main([command, *args]) == EXIT_CONFIG
        assert "config error: dataset must be a path without a NUL byte" in capsys.readouterr().err

    def test_full_staged_pipeline(self, dataset_dir, tmp_path):
        out = tmp_path / "run"
        assert main(["train", *_run_args(dataset_dir, out)]) == EXIT_OK
        assert (out / "model_fold0.ckpt").exists()
        assert (out / "config.snapshot").exists()
        assert main(["eval", *_run_args(dataset_dir, out)]) == EXIT_OK
        assert (out / "report.csv").exists()
        assert main(["report", *_run_args(dataset_dir, out)]) == EXIT_OK
        agg = (out / "aggregate.csv").read_text().splitlines()
        assert agg[0] == "metric,mean,std"
        assert [line.split(",")[0] for line in agg[1:]] == ["Accuracy", "F1", "Sensitivity", "Specificity", "Precision"]
        assert (out / "confusion_fold0_normalized.csv").exists()

    def test_report_prints_table_order(self, dataset_dir, tmp_path, capsys):
        out = tmp_path / "run2"
        main(["train", *_run_args(dataset_dir, out)])
        main(["eval", *_run_args(dataset_dir, out)])
        capsys.readouterr()
        main(["report", *_run_args(dataset_dir, out)])
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "metric,mean,std"
        assert [ln.split(",")[0] for ln in lines[1:]] == ["Accuracy", "F1", "Sensitivity", "Specificity", "Precision"]

    def test_eval_before_train_is_data_error(self, dataset_dir, tmp_path):
        assert main(["eval", *_run_args(dataset_dir, tmp_path / "fresh")]) == EXIT_DATA

    def test_eval_wrong_model_kind_refused(self, dataset_dir, tmp_path, capsys):
        out = tmp_path / "mixed"
        assert main(["train", *_run_args(dataset_dir, out)]) == EXIT_OK  # mlp checkpoints
        assert main(["eval", *_run_args(dataset_dir, out), "--model", "cnn"]) == EXIT_DATA
        assert "mlp model" in capsys.readouterr().err

    def test_models_accept_identical_dataset_inputs(self, dataset_dir, tmp_path):
        for model in ("cnn", "capsnet"):
            out = tmp_path / model
            args = _run_args(dataset_dir, out) + ["--model", model, "--epochs", "1"]
            assert main(["train", *args]) == EXIT_OK
            assert main(["eval", *args]) == EXIT_OK

    def test_config_file_with_flag_override(self, dataset_dir, tmp_path):
        out = tmp_path / "cfgrun"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# run configuration\n"
            f"dataset={dataset_dir / 'dataset.csv'}\n"
            f"out_dir={out}\n"
            "model=mlp\n"
            "epochs=7\n"
            "folds=2\n"
            "seed=1\n"
        )
        assert main(["train", "--config", str(cfg), "--epochs", "2"]) == EXIT_OK
        snapshot = (out / "config.snapshot").read_text()
        assert "epochs=2\n" in snapshot  # flag wins over file
        assert "model=mlp\n" in snapshot
        curve = (out / "curve_fold0.csv").read_text().strip().splitlines()
        assert len(curve) - 1 == 2

    def test_unknown_config_key_listed(self, dataset_dir, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("dataset=x\nout_dir=y\nbogus_key=1\nepochs=0\ndropout_keep=2\nl2_beta=-1\naugment_factor=0\n")
        assert main(["train", "--config", str(cfg)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        # all problems listed, not just the first
        for key in ("bogus_key", "epochs", "dropout_keep", "l2_beta", "augment_factor"):
            assert key in err

    def test_eval_of_truncated_checkpoint_is_data_error(self, dataset_dir, tmp_path, capsys):
        out = tmp_path / "cut"
        assert main(["train", *_run_args(dataset_dir, out)]) == EXIT_OK
        ckpt = out / "model_fold0.ckpt"
        ckpt.write_bytes(ckpt.read_bytes()[:12])
        assert main(["eval", *_run_args(dataset_dir, out)]) == EXIT_DATA
        assert "truncated" in capsys.readouterr().err

    def test_eval_with_other_settings_refused(self, dataset_dir, tmp_path, capsys):
        out = tmp_path / "seeded"
        assert main(["train", *_run_args(dataset_dir, out)]) == EXIT_OK  # --seed 1
        assert main(["eval", *_run_args(dataset_dir, out), "--seed", "2"]) == EXIT_DATA
        assert "in: seed" in capsys.readouterr().err
        assert not (out / "report.csv").exists()

    def test_report_with_other_settings_refused(self, dataset_dir, tmp_path, capsys):
        out = tmp_path / "seeded"
        assert main(["train", *_run_args(dataset_dir, out)]) == EXIT_OK  # --seed 1
        assert main(["eval", *_run_args(dataset_dir, out)]) == EXIT_OK
        assert main(["report", *_run_args(dataset_dir, out), "--seed", "2"]) == EXIT_DATA
        assert "in: seed" in capsys.readouterr().err
        assert not (out / "aggregate.csv").exists()

    def test_report_after_retrain_needs_new_eval(self, dataset_dir, tmp_path, capsys):
        out = tmp_path / "retrained"
        assert main(["train", *_run_args(dataset_dir, out)]) == EXIT_OK  # --seed 1
        assert main(["eval", *_run_args(dataset_dir, out)]) == EXIT_OK
        assert main(["report", *_run_args(dataset_dir, out)]) == EXIT_OK
        assert main(["train", *_run_args(dataset_dir, out), "--seed", "2"]) == EXIT_OK
        assert not list(out.glob("confusion_fold*.csv")) and not (out / "report.csv").exists()
        assert not (out / "aggregate.csv").exists()
        capsys.readouterr()
        assert main(["report", *_run_args(dataset_dir, out), "--seed", "2"]) == EXIT_DATA
        assert "run the eval stage first" in capsys.readouterr().err

    def test_retrain_with_fewer_folds_leaves_no_extra_fold(self, dataset_dir, tmp_path):
        out, fresh = tmp_path / "shrunk", tmp_path / "fresh"
        assert main(["train", *_run_args(dataset_dir, out), "--folds", "3", "--epochs", "1"]) == EXIT_OK
        assert main(["train", *_run_args(dataset_dir, out), "--epochs", "1"]) == EXIT_OK  # --folds 2
        assert main(["train", *_run_args(dataset_dir, fresh), "--epochs", "1"]) == EXIT_OK
        assert sorted(p.name for p in out.iterdir()) == sorted(p.name for p in fresh.iterdir())

    @pytest.mark.parametrize(
        "row, bad", [("Alert,x,1", "bad Alert 'x'"), ("Alert,1", "['Alert', '1']")], ids=["not-a-count", "short-row"]
    )
    def test_malformed_confusion_is_data_error(self, dataset_dir, tmp_path, capsys, row, bad):
        out = tmp_path / "confused"
        assert main(["train", *_run_args(dataset_dir, out)]) == EXIT_OK
        assert main(["eval", *_run_args(dataset_dir, out)]) == EXIT_OK
        confusion = out / "confusion_fold1.csv"
        header, _, drowsy = confusion.read_text().splitlines()
        confusion.write_text(f"{header}\n{row}\n{drowsy}\n")
        assert main(["report", *_run_args(dataset_dir, out)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error:") and f"{confusion} line 2:" in err and bad in err
        assert not (out / "aggregate.csv").exists()

    def test_confusion_rows_are_read_by_class_name(self, dataset_dir, tmp_path, capsys):
        out = tmp_path / "swapped"
        for command in ("train", "eval"):
            assert main([command, *_run_args(dataset_dir, out)]) == EXIT_OK
        confusion = out / "confusion_fold0.csv"
        header, alert, drowsy = confusion.read_text().splitlines()[0], "Alert,2,0", "Drowsy,1,1"
        confusion.write_text(f"{header}\n{alert}\n{drowsy}\n")
        assert main(["report", *_run_args(dataset_dir, out)]) == EXIT_OK
        in_order = (out / "aggregate.csv").read_bytes()
        confusion.write_text(f"{header}\n{drowsy}\n{alert}\n")
        assert main(["report", *_run_args(dataset_dir, out)]) == EXIT_OK
        assert (out / "aggregate.csv").read_bytes() == in_order
        for rows in ((alert, alert), (alert,), (alert, drowsy, drowsy)):
            confusion.write_text("\n".join((header, *rows)) + "\n")
            capsys.readouterr()
            assert main(["report", *_run_args(dataset_dir, out)]) == EXIT_DATA
            err = capsys.readouterr().err
            assert err.startswith("data error:") and f"{confusion} must hold one Alert row and one Drowsy row" in err

    @pytest.mark.parametrize("keep", ["two-alert", "one-alert"])
    def test_dataset_too_small_to_split_is_data_error(self, dataset_dir, tmp_path, capsys, keep):
        small = tmp_path / "small"
        shutil.copytree(dataset_dir, small)
        header, *rows = (small / "dataset.csv").read_text().splitlines(keepends=True)
        alert = [row for row in rows if ",Alert," in row]
        # two Alert images leave no test image at train_frac 0.8; one Alert image is fewer than the two folds
        rows = alert[:2] if keep == "two-alert" else alert[:1] + [row for row in rows if ",Drowsy," in row]
        (small / "dataset.csv").write_text(header + "".join(rows))
        assert main(["train", *_run_args(small, tmp_path / "run")]) == EXIT_DATA
        assert capsys.readouterr().err.startswith("data error:")

    def test_nul_in_dataset_image_path_is_data_error(self, dataset_dir, tmp_path, capsys):
        broken = tmp_path / "broken"
        shutil.copytree(dataset_dir, broken)
        header, first, *rest = (broken / "dataset.csv").read_text().splitlines(keepends=True)
        (broken / "dataset.csv").write_text(header + "x\0" + first + "".join(rest))
        assert main(["train", *_run_args(broken, tmp_path / "run")]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error:") and f"{broken / 'dataset.csv'} line 2: bad image_path 'x\\x00" in err

    def test_augmented_lineage_of_subject_with_comma_reads_back(self, corpus_dir, tmp_path):
        header, *rows = (corpus_dir / "recordings.csv").read_text().splitlines(keepends=True)
        # absolute paths, so the copied manifest still names the corpus files
        rows = [f"{fields},{corpus_dir / name}" for fields, name in (row.rsplit(",", 1) for row in rows)]
        manifest = tmp_path / "recordings.csv"
        manifest.write_text(header + "".join(row.replace("a00,", '"a,00",', 1) for row in rows))
        assert main(["prepare", "--manifest", str(manifest), "--channels", "fz", "--out", str(tmp_path / "ds")]) == EXIT_OK
        out = tmp_path / "run"
        assert main(["train", *_run_args(tmp_path / "ds", out, ["--epochs", "1", "--augment"])]) == EXIT_OK
        with open(out / "augmented_fold0.csv", newline="", encoding="utf-8") as fh:
            lineage = list(csv.reader(fh))
        assert lineage[0] == ["parent_path", "parent_index", "copy_index", "seed"]
        assert all(len(row) == 4 for row in lineage)
        assert any("a,00" in row[0] for row in lineage[1:])

    def test_eval_accepts_other_spelling_of_dataset_path(self, dataset_dir, tmp_path, monkeypatch, capsys):
        out = tmp_path / "spelled"
        monkeypatch.chdir(dataset_dir.parent)
        relative = Path(dataset_dir.name) / "dataset.csv"
        assert main(["train", *_run_args(dataset_dir, out), "--dataset", str(relative)]) == EXIT_OK
        assert main(["eval", *_run_args(dataset_dir, out)]) == EXIT_OK  # absolute path
        by_absolute = (out / "report.csv").read_bytes()
        assert main(["eval", *_run_args(dataset_dir, out), "--dataset", str(relative)]) == EXIT_OK
        assert (out / "report.csv").read_bytes() == by_absolute
        # a copy of the dataset is another file
        shutil.copytree(dataset_dir, tmp_path / "copy")
        assert main(["eval", *_run_args(tmp_path / "copy", out)]) == EXIT_DATA
        assert "in: dataset" in capsys.readouterr().err

    def test_dataset_path_ending_in_a_space_matches_its_snapshot(self, dataset_dir, tmp_path):
        spaced = tmp_path / "spaced"
        shutil.copytree(dataset_dir, spaced)
        (spaced / "dataset.csv").rename(spaced / "dataset.csv ")
        args = [*_run_args(spaced, tmp_path / "run"), "--dataset", str(spaced / "dataset.csv ")]
        for command in ("train", "eval", "report"):
            assert main([command, *args]) == EXIT_OK

    def test_same_relative_spelling_from_another_directory_is_another_dataset(self, dataset_dir, corpus_seed1, tmp_path, monkeypatch, capsys):
        shutil.copytree(dataset_dir, tmp_path / "a" / "ds")
        _prepare(corpus_seed1, "fz", tmp_path / "b" / "ds")  # another corpus under the same relative path
        args = [*_run_args(dataset_dir, tmp_path / "run", ["--epochs", "1"]), "--dataset", str(Path("ds") / "dataset.csv")]
        monkeypatch.chdir(tmp_path / "a")
        assert main(["train", *args]) == EXIT_OK
        monkeypatch.chdir(tmp_path / "b")
        capsys.readouterr()
        assert main(["eval", *args]) == EXIT_DATA
        assert capsys.readouterr().err.rstrip().endswith("in: dataset")
        assert not (tmp_path / "run" / "report.csv").exists()

    def test_metric_undefined_in_every_fold_is_an_empty_cell(self, corpus_seed1, tmp_path):
        # one epoch of this CNN predicts Alert for every test image: no fold has a precision or an F1
        dataset = _prepare(corpus_seed1, "fzpz", tmp_path / "fzpz")
        out = tmp_path / "run"
        args = ["--dataset", str(dataset), "--out", str(out), "--model", "cnn", "--epochs", "1", "--folds", "2", "--batch-size", "8", "--precision", "float32"]
        for command in ("train", "eval", "report"):
            assert main([command, *args]) == EXIT_OK
        rows = (out / "aggregate.csv").read_text(encoding="utf-8").splitlines()
        assert "F1,," in rows and "Precision,," in rows
        assert all(row.count(",") == 2 for row in rows)

    def test_fold_without_images_of_a_class_has_empty_normalized_row(self, corpus_seed1, tmp_path):
        # subject-grouped 2-fold holdout of 3+3 subjects: one fold tests only Drowsy subjects, the other only Alert ones
        dataset = _prepare(corpus_seed1, "fz", tmp_path / "fz")
        out = tmp_path / "run"
        args = ["--dataset", str(dataset), "--out", str(out), "--model", "mlp", "--epochs", "1", "--folds", "2", "--subject-grouped"]
        for command in ("train", "eval", "report"):
            assert main([command, *args]) == EXIT_OK
        empty_rows = [
            row
            for i in range(2)
            for row in (out / f"confusion_fold{i}_normalized.csv").read_text(encoding="utf-8").splitlines()
            if row.endswith(",,")
        ]
        assert sorted(empty_rows) == ["Alert,,", "Drowsy,,"]

    def test_malformed_dataset_is_data_error(self, dataset_dir, tmp_path, capsys):
        broken = tmp_path / "broken"
        shutil.copytree(dataset_dir, broken)
        pgm = sorted(broken.glob("*.pgm"))[0]
        pgm.write_bytes(pgm.read_bytes().replace(b"\n32 32\n", b"\nx 32\n", 1))
        assert main(["train", *_run_args(broken, tmp_path / "run")]) == EXIT_DATA
        assert "malformed PGM size line" in capsys.readouterr().err

    def test_path_naming_a_directory_is_data_error(self, corpus_dir, dataset_dir, tmp_path, capsys):
        broken = tmp_path / "broken"
        shutil.copytree(dataset_dir, broken)
        header, first, *rest = (broken / "dataset.csv").read_text().splitlines(keepends=True)
        (broken / "dataset.csv").write_text(header + first[first.index(",") :] + "".join(rest))
        assert main(["train", *_run_args(broken, tmp_path / "run")]) == EXIT_DATA
        assert "is a directory" in capsys.readouterr().err
        recordings = tmp_path / "recordings.csv"
        header, first, *rest = (corpus_dir / "recordings.csv").read_text().splitlines(keepends=True)
        recordings.write_text(header + first[: first.rindex(",") + 1] + "\n")
        assert main(["prepare", "--manifest", str(recordings), "--channels", "fz", "--out", str(tmp_path / "ds")]) == EXIT_DATA
        assert "is a directory" in capsys.readouterr().err

    def test_recording_path_too_long_is_data_error(self, corpus_dir, tmp_path, capsys):
        recordings = tmp_path / "recordings.csv"
        header, first, *rest = (corpus_dir / "recordings.csv").read_text().splitlines(keepends=True)
        name = "x" * 300 + ".f32"
        recordings.write_text(header + first[: first.rindex(",") + 1] + name + "\n" + "".join(rest))
        assert main(["prepare", "--manifest", str(recordings), "--channels", "fz", "--out", str(tmp_path / "ds")]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error: cannot read recording") and name in err

    def test_image_path_too_long_is_data_error(self, dataset_dir, tmp_path, capsys):
        broken = tmp_path / "broken"
        shutil.copytree(dataset_dir, broken)
        header, first, *rest = (broken / "dataset.csv").read_text().splitlines(keepends=True)
        name = "x" * 300 + ".pgm"
        (broken / "dataset.csv").write_text(header + name + first[first.index(",") :] + "".join(rest))
        assert main(["train", *_run_args(broken, tmp_path / "run")]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error: cannot read PGM") and name in err

    def test_non_finite_checkpoint_is_data_error(self, dataset_dir, tmp_path, capsys):
        out = tmp_path / "poisoned"
        assert main(["train", *_run_args(dataset_dir, out)]) == EXIT_OK
        ckpt = out / "model_fold0.ckpt"
        arrays, fingerprint = load_checkpoint(ckpt)
        arrays["fc1_w"][0, 0] = float("nan")
        save_checkpoint(ckpt, arrays, fingerprint)
        assert main(["eval", *_run_args(dataset_dir, out)]) == EXIT_DATA
        assert "'fc1_w'" in capsys.readouterr().err
        assert not (out / "report.csv").exists()

    def test_oversized_checkpoint_architecture_is_data_error(self, dataset_dir, tmp_path, capsys):
        out = tmp_path / "huge"
        assert main(["train", *_run_args(dataset_dir, out)]) == EXIT_OK
        ckpt = out / "model_fold0.ckpt"
        arrays, fingerprint = load_checkpoint(ckpt)
        # fc1_w of 512 x 2**48 float64 zeros is 1 EiB, beyond any address space, so the allocation fails at once
        save_checkpoint(ckpt, arrays, {**fingerprint, "input_hw": [2**24, 2**24]})
        assert main(["eval", *_run_args(dataset_dir, out)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error:") and str(ckpt) in err
        assert not (out / "report.csv").exists()

    def test_checkpoint_whose_scores_overflow_is_data_error(self, dataset_dir, tmp_path, capsys):
        out = tmp_path / "overflow"
        assert main(["train", *_run_args(dataset_dir, out)]) == EXIT_OK
        ckpt = out / "model_fold0.ckpt"
        arrays, fingerprint = load_checkpoint(ckpt)
        arrays["fc1_w"][0, :3] = 1.5e308  # finite, but the hidden unit's sum is not
        save_checkpoint(ckpt, arrays, fingerprint)
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["eval", *_run_args(dataset_dir, out)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error:") and str(ckpt) in err and "Warning" not in err
        assert not (out / "report.csv").exists()

    def test_reduced_width_model_is_neither_saved_nor_scored(self, dataset_dir, tmp_path, capsys):
        out = tmp_path / "narrow"
        assert main(["train", *_run_args(dataset_dir, out)]) == EXIT_OK
        ckpt = out / "model_fold0.ckpt"
        narrow = reduced_mlp((32, 32), np.random.default_rng(0), hidden=3)
        with pytest.raises(CheckpointError, match="differs in: hidden$"):
            save_model(tmp_path / "narrow.ckpt", narrow)
        assert not (tmp_path / "narrow.ckpt").exists()
        # the checkpoint such a model got before save_model refused it
        fingerprint = {"arch": "mlp-v1", "input_hw": [32, 32], "hidden": 3, "dtype": "float64"}
        save_checkpoint(ckpt, {name: p.data for name, p in tensor_fields(narrow)}, fingerprint)
        capsys.readouterr()
        assert main(["eval", *_run_args(dataset_dir, out)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error:") and str(ckpt) in err and err.rstrip().endswith("differs in: hidden")

    @pytest.mark.parametrize(
        "command, name",
        [("eval", "config.snapshot"), ("report", "config.snapshot"), ("report", "confusion_fold0.csv")],
        ids=["eval-snapshot", "report-snapshot", "report-confusion"],
    )
    def test_binary_run_file_is_data_error(self, dataset_dir, tmp_path, capsys, command, name):
        out = tmp_path / "binary"
        assert main(["train", *_run_args(dataset_dir, out)]) == EXIT_OK
        assert main(["eval", *_run_args(dataset_dir, out)]) == EXIT_OK
        (out / name).write_bytes(b"\xff\xfe" * 32)
        capsys.readouterr()
        assert main([command, *_run_args(dataset_dir, out)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error:") and str(out / name) in err

    def test_images_of_two_sizes_are_data_error(self, dataset_dir, tmp_path, capsys):
        mixed = tmp_path / "mixed"
        shutil.copytree(dataset_dir, mixed)
        pgm = sorted(mixed.glob("*.pgm"))[1]
        pgm.write_bytes(b"P5\n16 32\n255\n" + bytes(16 * 32))
        assert main(["train", *_run_args(mixed, tmp_path / "run")]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error:") and str(pgm) in err

    def test_eval_of_dataset_rebuilt_at_other_size_is_data_error(self, corpus_dir, tmp_path, capsys):
        ds, out = tmp_path / "ds", tmp_path / "run"
        prepare = ["prepare", "--manifest", str(corpus_dir / "recordings.csv"), "--out", str(ds), "--channels"]
        assert main([*prepare, "fz"]) == EXIT_OK
        assert main(["train", *_run_args(ds, out)]) == EXIT_OK
        assert main([*prepare, "fzpz"]) == EXIT_OK  # same dataset.csv path, 64x32 images
        capsys.readouterr()
        assert main(["eval", *_run_args(ds, out)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "(32, 32)" in err and "(64, 32)" in err
        assert not (out / "report.csv").exists()

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["train", "--config", "{dir}"], EXIT_CONFIG),
            (["train", "--config", "{missing}"], EXIT_CONFIG),
            (["prepare", "--manifest", "{dir}", "--channels", "fz", "--out", "{out}"], EXIT_DATA),
            (["train", "--dataset", "{dir}", "--out", "{out}", "--model", "mlp"], EXIT_DATA),
        ],
        ids=["config-dir", "config-missing", "manifest-dir", "dataset-dir"],
    )
    def test_unreadable_argument_path(self, tmp_path, capsys, argv, code):
        paths = {"dir": tmp_path, "missing": tmp_path / "nope.cfg", "out": tmp_path / "out"}
        assert main([arg.format(**paths) for arg in argv]) == code
        assert str(tmp_path) in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["prepare", "--manifest", "{binary}", "--channels", "fz", "--out", "{out}"],
            ["train", "--dataset", "{binary}", "--out", "{out}", "--model", "mlp"],
        ],
        ids=["manifest", "dataset"],
    )
    def test_binary_argument_file_is_data_error(self, tmp_path, capsys, argv):
        binary = tmp_path / "bin.csv"
        binary.write_bytes(random.Random(0).randbytes(100))
        with pytest.raises(UnicodeDecodeError):
            binary.read_text(encoding="utf-8")
        assert main([arg.format(binary=binary, out=tmp_path / "out") for arg in argv]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error:") and str(binary) in err

    @pytest.mark.parametrize("command", ["synth", "prepare", "train"])
    def test_out_naming_a_file_is_data_error(self, corpus_dir, dataset_dir, tmp_path, capsys, command):
        out = tmp_path / "taken"
        out.write_text("not a directory\n")
        argv = {
            "synth": ["synth", "--subjects", "1,1", "--minutes", "0.5", "--out", str(out)],
            "prepare": ["prepare", "--manifest", str(corpus_dir / "recordings.csv"), "--channels", "fz", "--out", str(out)],
            "train": ["train", *_run_args(dataset_dir, out)],
        }[command]
        assert main(argv) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error:") and str(out) in err
        assert out.read_text() == "not a directory\n"

    def test_missing_required_settings(self, capsys):
        assert main(["train", "--model", "mlp"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "dataset" in err and "out_dir" in err

    def test_snapshot_reproducibility(self, dataset_dir, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["train", *_run_args(dataset_dir, out_a)])
        # rerun from the snapshot alone (as a config file) into a second dir
        snapshot = (out_a / "config.snapshot").read_text()
        cfg = tmp_path / "fromsnap.cfg"
        cfg.write_text(snapshot.replace("model=", "model="))
        assert main(["train", "--config", str(cfg), "--out", str(out_b)]) == EXIT_OK
        assert (out_a / "model_fold0.ckpt").read_bytes() == (out_b / "model_fold0.ckpt").read_bytes()


class TestConfigSchema:
    NON_DEFAULT = {
        "dataset": Path("data/ds.csv"),
        "model": "cnn",
        "seed": 7,
        "epochs": 3,
        "batch_size": 5,
        "learning_rate": 0.02,
        "precision": "float32",
        "augment": True,
        "augment_factor": 2,
        "early_stop_train_acc": 0.9,
        "folds": 3,
        "train_frac": 0.6,
        "split_mode": "partition",
        "subject_grouped": True,
    }

    def test_every_snapshot_key_is_covered(self):
        snapshot_keys = {key.name for key in KEYS.values() if key.snapshot}
        assert snapshot_keys == set(self.NON_DEFAULT)
        assert all(key.default != self.NON_DEFAULT[key.name] for key in KEYS.values() if key.snapshot)

    @pytest.mark.parametrize("values", [{"dataset": Path("ds.csv")}, NON_DEFAULT], ids=["defaults", "non-defaults"])
    def test_snapshot_round_trips_as_config_file(self, tmp_path, values):
        out = tmp_path / "out"
        settings = resolve_run_settings({}, {**values, "out_dir": out})
        snapshot = settings.snapshot()
        assert "out_dir" not in {line.split("=")[0] for line in snapshot.splitlines()}
        cfg = tmp_path / "run.cfg"
        cfg.write_text(snapshot)
        assert resolve_run_settings(read_config_file(cfg), {"out_dir": out}) == settings

    def test_every_key_has_a_flag(self, tmp_path):
        # the non-default values given as flags alone resolve as they do given as settings
        argv = ["train", "--out", str(tmp_path)]
        for key in KEYS.values():
            if key.snapshot:
                value = self.NON_DEFAULT[key.name]
                argv += [key.option] if value is True else [key.option, str(value)]
        settings = _settings_from_args(build_parser().parse_args(argv))
        assert settings == resolve_run_settings({}, {**self.NON_DEFAULT, "out_dir": tmp_path})

    def test_readme_config_example_resolves(self, tmp_path):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(re.search(r"```\n(dataset=runs/fz/dataset\.csv\n.*?)```", readme, re.DOTALL).group(1), encoding="utf-8")
        settings = resolve_run_settings(read_config_file(cfg), {})
        assert (settings.kind, settings.epochs, settings.augment, settings.split_mode) == ("capsnet", 30, True, "holdout")


# the damage done to a run file: byte flips, truncation, duplicated or deleted spans and inserted tokens
_TOKENS = (b",", b'"', b"\0", b"\n", b"\r")


def _damage(data, raw: bytes) -> bytes:
    for _ in range(data.draw(st.integers(1, 3), label="damages")):
        at = data.draw(st.integers(0, len(raw)), label="at")
        end = data.draw(st.integers(at, len(raw)), label="end")
        kind = data.draw(st.sampled_from(["flip", "truncate", "duplicate", "delete", "insert"]), label="kind")
        if kind == "flip" and at < len(raw):
            raw = raw[:at] + bytes([raw[at] ^ data.draw(st.integers(1, 255), label="mask")]) + raw[at + 1 :]
        elif kind == "truncate":
            raw = raw[:at]
        elif kind == "duplicate":
            raw = raw[:end] + raw[at:end] + raw[end:]
        elif kind == "delete":
            raw = raw[:at] + raw[end:]
        elif kind == "insert":
            raw = raw[:at] + data.draw(st.sampled_from(_TOKENS), label="token") + raw[at:]
    return raw


@pytest.fixture(scope="module")
def trained_run(corpus_dir, dataset_dir, tmp_path_factory):
    """Copies of the corpus and dataset, an mlp run on the copy (2 folds, 1 epoch) through report, and its config file.

    The corpus copy also holds its first recording as CSV text and a manifest, ``recordings_csv.csv``, that names it.
    """
    root = tmp_path_factory.mktemp("trained")
    shutil.copytree(corpus_dir, root / "corpus")
    f32 = min((root / "corpus").glob("*.f32"))
    f32.with_suffix(".csv").write_text("".join(f"{x!r}\n" for x in np.fromfile(f32, "<f4").tolist()), encoding="utf-8")
    manifest = (root / "corpus" / "recordings.csv").read_text(encoding="utf-8")
    (root / "corpus" / "recordings_csv.csv").write_text(manifest.replace(f32.name, f32.with_suffix(".csv").name), encoding="utf-8")
    shutil.copytree(dataset_dir, root / "ds")
    run = _run_args(root / "ds", root / "run", ["--epochs", "1", "--seed", "0"])
    for command in ("train", "eval", "report"):
        assert main([command, *run]) == EXIT_OK
    (root / "run.cfg").write_text(f"out_dir={root / 'run'}\n" + (root / "run" / "config.snapshot").read_text())
    return root, run


class TestDamagedRunFiles:
    """A damaged run file exits 0, 2 or 3 and raises nothing, whatever the damage."""

    @pytest.mark.parametrize(
        "kind", ["recordings", "recording", "csv-recording", "dataset", "pgm", "checkpoint", "confusion", "snapshot", "config"]
    )
    @settings(max_examples=40, deadline=None, derandomize=True, database=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_damaged_run_file_exits_0_2_or_3(self, trained_run, tmp_path, kind, data):
        root, run = trained_run
        out = tmp_path / "run"  # eval and report write here, so the trained run stays as it was
        shutil.copytree(root / "run", out, dirs_exist_ok=True)
        run = [*run, "--out", str(out)]
        manifest = root / "corpus" / "recordings.csv"
        prepare = ["prepare", "--manifest", str(manifest), "--channels", "fzpz", "--out", str(tmp_path / "ds")]
        prepare_csv = ["prepare", "--manifest", str(root / "corpus" / "recordings_csv.csv"), "--channels", "fzpz", "--out", str(tmp_path / "ds")]
        target, argv = {
            "recordings": (manifest, prepare),
            "recording": (min((root / "corpus").glob("*.f32")), prepare),
            "csv-recording": (min((root / "corpus").glob("*.f32")).with_suffix(".csv"), prepare_csv),
            "dataset": (root / "ds" / "dataset.csv", ["eval", *run]),
            "pgm": (min((root / "ds").glob("*.pgm")), ["eval", *run]),
            "checkpoint": (out / "model_fold0.ckpt", ["eval", *run]),
            "confusion": (out / "confusion_fold0.csv", ["report", *run]),
            "snapshot": (out / "config.snapshot", ["report", *run]),
            "config": (root / "run.cfg", ["report", "--config", str(root / "run.cfg")]),
        }[kind]
        original = target.read_bytes()
        # a checkpoint is damaged in its first 4 KiB only: its JSON header, then the first weights
        head = 4096 if kind == "checkpoint" else len(original)
        target.write_bytes(_damage(data, original[:head]) + original[head:])
        try:
            assert main(argv) in (EXIT_OK, EXIT_CONFIG, EXIT_DATA)
        finally:
            target.write_bytes(original)
