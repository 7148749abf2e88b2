"""The benchmark's workloads: one corpus recipe and three model configurations.

Every workload runs the same closed loop with one caller in one process:
``synth`` once per set-up, then ``prepare`` -> ``train`` -> ``eval`` ->
``report`` through ``capsroute.cli.main``, each stage starting when the
previous one returns. Folds run serially (``CAPSROUTE_THREADS=1``), so a
pipeline's wall time is the sum of its folds.

Corpus size. The paper's corpus is ``--subjects 10,10 --minutes 10``
(920 images). On a 2-core machine one five-fold CNN epoch over it takes
about 50 s, while a run has about 45 s for set-up and measurement together,
so that the repeated runs of all three workloads fit in under an hour. The benchmark
therefore keeps the subject count and the five-fold protocol and shortens
the recordings to 2 minutes: 9 segments per subject, 180 images, 144 train
and 36 test images per fold. Every shape, kernel and code path is the same
as at 920 images; only the number of batches changes.
"""

from __future__ import annotations

from dataclasses import dataclass

SUBJECTS = "10,10"
MINUTES = "2"
FOLDS = 5
BATCH_SIZE = 32
# Acceptance criterion 8's gate. At 180 images capsnet folds reach it after
# 3 to 6 epochs depending on the seed, so capsnet-fz32 keeps the criterion's
# 8 epochs.
CAPSNET_MIN_ACCURACY = 0.95


@dataclass(frozen=True)
class Workload:
    name: str
    model: str
    channels: str  # "fz" (32x32) or "fzpz" (64x32, Fz over Pz)
    precision: str
    augment: bool
    epochs: int
    why: str

    @property
    def expected_files(self) -> set[str]:
        """The experiment directory's full artifact set (23 files, 28 with lineage)."""
        names = {"config.snapshot", "report.csv", "aggregate.csv"}
        for i in range(FOLDS):
            names |= {
                f"model_fold{i}.ckpt",
                f"curve_fold{i}.csv",
                f"confusion_fold{i}.csv",
                f"confusion_fold{i}_normalized.csv",
            }
            if self.augment:
                names.add(f"augmented_fold{i}.csv")
        return names

    def run_flags(self, dataset: str, out_dir: str, seed: int) -> list[str]:
        flags = [
            "--dataset", dataset,
            "--out", out_dir,
            "--model", self.model,
            "--seed", str(seed),
            "--epochs", str(self.epochs),
            "--batch-size", str(BATCH_SIZE),
            "--precision", self.precision,
            "--folds", str(FOLDS),
        ]
        return flags + (["--augment"] if self.augment else ["--no-augment"])


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="capsnet-fz32",
            model="capsnet",
            channels="fz",
            precision="float32",
            augment=False,
            epochs=8,
            why=(
                "capsnet on 32x32 Fz float32, the acceptance config: 9x9/s2 conv2d backward, routing einsum2 "
                "and Adam over 2.3M params; no pool, dropout or augmentation (control for pool changes)"
            ),
        ),
        Workload(
            name="cnn-fzpz64",
            model="cnn",
            channels="fzpz",
            precision="float32",
            augment=False,
            epochs=1,
            why=(
                "CNN on 64x32 FzPz float32: overlapping 4x2/s2 maxpool2d, padded 3x3 conv2d on large maps "
                "and a 4096->512 head; no routing (control for capsule changes)"
            ),
        ),
        Workload(
            name="mlp-aug-fzpz64",
            model="mlp",
            channels="fzpz",
            precision="float64",
            augment=True,
            epochs=4,
            why=(
                "MLP on 64x32 FzPz float64 with 3x augmentation: adam_step, affine, expand_dataset and "
                "float64 checkpoints; no conv, pool or routing (control for those)"
            ),
        ),
    )
}
