"""Training loops for the three model kinds, checkpointing, and evaluation."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Optional, Sequence, Union

import numpy as np

from .capsnet import CapsNetParams, capsnet_forward, capsule_forward, total_loss
from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .cnn import CnnParams, cnn_forward, cnn_loss
from .metrics import ConfusionMatrix
from .mlp import MlpParams, mlp_forward
from .optim import adam_init, adam_step
from .signal import Label, SpectrogramImage
from .tensor import NumericError, cross_entropy_logits, no_grad

if TYPE_CHECKING:  # config imports MODEL_KINDS from here
    from .config import TrainConfig

__all__ = [
    "TrainingError",
    "LeakageError",
    "Model",
    "MODELS",
    "MODEL_KINDS",
    "images_to_arrays",
    "train_model",
    "predict",
    "evaluate",
    "save_model",
    "load_model",
]

ModelParams = Union[CapsNetParams, CnnParams, MlpParams]


class TrainingError(RuntimeError):
    pass


class LeakageError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# model registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Model:
    """One model kind. ``params`` is its Params class (``init``, ``from_fingerprint``,
    ``fingerprint``, ``named_parameters``, the ``ARCH`` tag); pixels are uint8 [B, H, W]."""

    params: type
    init: Callable[[TrainConfig, tuple, np.random.Generator], ModelParams]
    loss: Callable[..., tuple]  # (params, pixels, labels, dropout rng) -> (loss tensor, predicted classes)
    predict: Callable[[ModelParams, np.ndarray], np.ndarray]  # (params, pixels) -> predicted classes


# The model functions are looked up as this module's globals at call time, so
# a caller that rebinds them here (a profiler, a test) sees every call.


def _capsnet_loss(params: CapsNetParams, px: np.ndarray, labels: np.ndarray, dropout_rng):
    out = capsnet_forward(px, params, mode="train", labels=labels)
    target = (px.astype(params.conv1_w.dtype) / 255.0).reshape(px.shape[0], -1)
    return total_loss(target, out.v, out.reconstruction, labels), out.predictions


def _cnn_loss(params: CnnParams, px: np.ndarray, labels: np.ndarray, dropout_rng):
    logits = cnn_forward(px, params, training=True, rng=dropout_rng)
    return cnn_loss(logits, labels, params), logits.data.argmax(axis=-1)


def _mlp_loss(params: MlpParams, px: np.ndarray, labels: np.ndarray, dropout_rng):
    logits = mlp_forward(px, params)
    return cross_entropy_logits(logits, labels), logits.data.argmax(axis=-1)


MODELS: dict[str, Model] = {
    "capsnet": Model(
        CapsNetParams,
        init=lambda cfg, input_hw, rng: CapsNetParams.init(input_hw, rng, dtype=cfg.dtype),
        loss=_capsnet_loss,
        predict=lambda params, px: capsule_forward(px, params).predictions,
    ),
    "cnn": Model(
        CnnParams,
        init=lambda cfg, input_hw, rng: CnnParams.init(
            input_hw, rng, dtype=cfg.dtype, dropout_keep=cfg.dropout_keep, l2_beta=cfg.l2_beta
        ),
        loss=_cnn_loss,
        predict=lambda params, px: cnn_forward(px, params, training=False).data.argmax(axis=-1),
    ),
    "mlp": Model(
        MlpParams,
        init=lambda cfg, input_hw, rng: MlpParams.init(input_hw, rng, dtype=cfg.dtype),
        loss=_mlp_loss,
        predict=lambda params, px: mlp_forward(px, params).data.argmax(axis=-1),
    ),
}
MODEL_KINDS = tuple(MODELS)
_KIND_BY_ARCH = {model.params.ARCH: kind for kind, model in MODELS.items()}


def images_to_arrays(images: Sequence[SpectrogramImage]) -> tuple[np.ndarray, np.ndarray]:
    """Stack pixels to [N, H, W] uint8 and labels to [N] (Alert 0, Drowsy 1)."""
    if not images:
        raise TrainingError("empty image list")
    shape = images[0].pixels.shape
    for i, img in enumerate(images):
        if img.pixels.shape != shape:
            raise TrainingError(f"image {i} has shape {img.pixels.shape}, expected {shape}")
    pixels = np.stack([img.pixels for img in images])
    labels = np.array([1 if img.label == Label.DROWSY else 0 for img in images], dtype=np.int64)
    return pixels, labels


def train_model(train_images: Sequence[SpectrogramImage], cfg: TrainConfig) -> tuple[ModelParams, list[dict]]:
    """Adam-driven epochs over shuffled mini-batches; deterministic in cfg.seed.

    Returns trained parameters and the per-epoch curve (mean loss, train
    accuracy). A non-finite loss aborts with the offending epoch and batch.
    """
    pixels, labels = images_to_arrays(train_images)
    n = len(labels)
    model = MODELS[cfg.kind]
    params = model.init(cfg, pixels.shape[1:], np.random.default_rng((cfg.seed, 0x1)))
    named = params.named_parameters()
    state = adam_init([p.data for _, p in named], lr=cfg.learning_rate, beta1=cfg.beta1, beta2=cfg.beta2, eps=cfg.eps)
    shuffle_rng = np.random.default_rng((cfg.seed, 0x2))
    dropout_rng = np.random.default_rng((cfg.seed, 0x3))

    curve = []
    for epoch in range(cfg.epochs):
        perm = shuffle_rng.permutation(n)
        loss_sum = 0.0
        correct = 0
        for batch_start in range(0, n, cfg.batch_size):
            idx = perm[batch_start : batch_start + cfg.batch_size]
            try:
                loss, preds = model.loss(params, pixels[idx], labels[idx], dropout_rng)
                for _, p in named:
                    p.zero_grad()
                loss.backward()
            except NumericError as exc:
                raise TrainingError(f"non-finite value at epoch {epoch} batch {batch_start // cfg.batch_size}: {exc}") from exc
            new_data, state = adam_step([p.data for _, p in named], [p.grad for _, p in named], state)
            for (_, p), d in zip(named, new_data):
                p.data = d
            loss_sum += loss.item() * len(idx)
            correct += int((preds == labels[idx]).sum())
        mean_loss = loss_sum / n
        accuracy = correct / n
        if not np.isfinite(mean_loss):
            raise TrainingError(f"non-finite epoch loss at epoch {epoch}")
        curve.append({"epoch": epoch, "mean_loss": mean_loss, "train_accuracy": accuracy})
        if cfg.early_stop_train_acc is not None and accuracy >= cfg.early_stop_train_acc:
            break
    return params, curve


def predict(params: ModelParams, pixels: np.ndarray, batch_size: int = 128) -> np.ndarray:
    """Class indices for [N, H, W] pixels; inference mode, no recorded graph."""
    model = MODELS[_KIND_BY_ARCH[params.ARCH]]
    with no_grad():
        preds = [model.predict(params, pixels[start : start + batch_size]) for start in range(0, len(pixels), batch_size)]
    return np.concatenate(preds)


def evaluate(
    params: ModelParams,
    test_images: Sequence[SpectrogramImage],
    train_paths: Optional[set] = None,
) -> ConfusionMatrix:
    """Confusion counts over the test images, drowsy positive.

    When ``train_paths`` is given, any test image whose source path appears
    there is a lineage violation.
    """
    if train_paths is not None:
        for img in test_images:
            if img.source_path and img.source_path in train_paths:
                raise LeakageError(f"test image {img.source_path} appears in the training lineage")
    pixels, labels = images_to_arrays(test_images)
    preds = predict(params, pixels)
    tp = int(((preds == 1) & (labels == 1)).sum())
    fn = int(((preds == 0) & (labels == 1)).sum())
    fp = int(((preds == 1) & (labels == 0)).sum())
    tn = int(((preds == 0) & (labels == 0)).sum())
    return ConfusionMatrix(tp=tp, fn=fn, fp=fp, tn=tn)


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------


def save_model(path: Path, params: ModelParams) -> None:
    save_checkpoint(path, {name: p.data for name, p in params.named_parameters()}, params.fingerprint())


def load_model(path: Union[Path, str]) -> tuple[str, ModelParams]:
    """Rebuild a model and its kind from a checkpoint, validating the stored fingerprint."""
    arrays, fp = load_checkpoint(path)
    arch = fp.get("arch")
    kind = _KIND_BY_ARCH.get(arch) if isinstance(arch, str) else None
    if kind is None:
        raise CheckpointError(f"unknown architecture {arch!r} in {path}")
    try:
        params = MODELS[kind].params.from_fingerprint(fp)
    except (ValueError, MemoryError) as exc:  # a geometry the architecture cannot build or allocate
        raise CheckpointError(f"{path}: {exc}") from exc
    if params.fingerprint() != fp:
        raise CheckpointError(f"rebuilt fingerprint disagrees with stored one for {path}")
    for name, p in params.named_parameters():
        if name not in arrays:
            raise CheckpointError(f"checkpoint {path} is missing tensor {name!r}")
        if arrays[name].shape != p.data.shape:
            raise CheckpointError(f"tensor {name!r} has shape {arrays[name].shape}, expected {p.data.shape}")
        if not np.isfinite(arrays[name]).all():
            raise CheckpointError(f"tensor {name!r} in {path} holds a non-finite value")
        p.data = arrays[name].astype(p.data.dtype, copy=False)
    return kind, params
