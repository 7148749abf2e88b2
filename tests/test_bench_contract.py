"""The program interface that ``benchmarks/`` binds to.

The benchmark calls ``experiment.plan_for`` positionally and traces the
stage, dataset and optimizer functions at the module names its callers bind.
A changed signature or a lost binding fails here, before a benchmark run does.
"""

import sys
from pathlib import Path

import pytest

from capsroute.cli import EXIT_OK, main
from capsroute.signal import write_dataset
from test_training import toy_images

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))

import pipeline  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


@pytest.fixture(scope="module")
def toy_csv(tmp_path_factory):
    return write_dataset(toy_images(40, hw=(12, 12), seed=0), tmp_path_factory.mktemp("toy"))


def test_fold_image_counts(toy_csv):
    # five 80/20 holdout folds of 40 images: 32 train and 8 test each
    assert pipeline.fold_image_counts(toy_csv, WORKLOADS["capsnet-fz32"], seed=1) == (160, 40)


def test_traced_stages_record_layers(toy_csv, tmp_path):
    flags = ["--dataset", str(toy_csv), "--out", str(tmp_path / "run"), "--model", "mlp", "--epochs", "1", "--folds", "2"]
    tracer = spans.Tracer()
    tracer.install()
    try:
        codes = [main([stage, *flags]) for stage in ("train", "eval", "report")]
    finally:
        tracer.uninstall()
    assert codes == [EXIT_OK] * 3
    metrics = tracer.layer_metrics()
    for name in ("experiment.stage_train_s", "signal.load_dataset_s", "optim.adam_step.calls"):
        assert metrics[name] > 0, name
    assert metrics["optim.alloc_bytes_per_step"] == 0  # Adam returns the very arrays it was given
