"""Training loops for the three model kinds, checkpointing, and evaluation."""

from __future__ import annotations

import ctypes
import functools
import json
import platform
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Optional, Sequence, Union

import numpy as np

from .capsnet import CapsNetParams, capsnet_forward, capsule_forward, classify, total_loss
from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .cnn import CnnParams, cnn_forward, cnn_loss
from .metrics import ConfusionMatrix
from .mlp import MlpParams, mlp_forward
from .optim import adam_init, adam_step
from .signal import Label, SpectrogramImage
from .tensor import NumericError, cross_entropy_logits, finite_checks_off, image_batch, no_grad, tensor_fields

if TYPE_CHECKING:  # config imports MODEL_KINDS from here
    from .config import TrainConfig

__all__ = [
    "TrainingError",
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


# ---------------------------------------------------------------------------
# model registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Model:
    """One model kind. ``params`` is its Params class: a dataclass of ``Tensor`` fields (read
    through ``tensor_fields``) plus ``init``, ``fingerprint`` and the ``ARCH`` tag; pixels are uint8 [B, H, W]."""

    params: type
    loss: Callable[..., tuple]  # (params, pixels, labels, dropout rng) -> (loss tensor, predicted classes)
    predict: Callable[[ModelParams, np.ndarray], np.ndarray]  # (params, pixels) -> predicted classes


# The model functions are looked up as this module's globals at call time, so
# a caller that rebinds them here (a profiler, a test) sees every call.


def _capsnet_loss(params: CapsNetParams, px: np.ndarray, labels: np.ndarray, dropout_rng):
    v, reconstruction = capsnet_forward(px, params, labels)
    target = image_batch(px, params.conv1_w.dtype, params.input_hw).reshape(px.shape[0], -1)
    return total_loss(target, v, reconstruction, labels), classify(v)[1]


def _cnn_loss(params: CnnParams, px: np.ndarray, labels: np.ndarray, dropout_rng):
    logits = cnn_forward(px, params, dropout_rng)
    return cnn_loss(logits, labels, params), logits.data.argmax(axis=-1)


def _mlp_loss(params: MlpParams, px: np.ndarray, labels: np.ndarray, dropout_rng):
    logits = mlp_forward(px, params)
    return cross_entropy_logits(logits, labels), logits.data.argmax(axis=-1)


MODELS: dict[str, Model] = {
    "capsnet": Model(
        CapsNetParams,
        loss=_capsnet_loss,
        predict=lambda params, px: classify(capsule_forward(px, params))[1],
    ),
    "cnn": Model(
        CnnParams,
        loss=_cnn_loss,
        predict=lambda params, px: cnn_forward(px, params).data.argmax(axis=-1),
    ),
    "mlp": Model(
        MlpParams,
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


# glibc's mallopt parameters (malloc.h) and the values a train step wants: the
# mmap threshold at the 32 MiB cap that glibc's dynamic threshold stops at, and
# a trim threshold no step reaches. Setting either one switches the dynamic
# threshold off, so both are set or neither: with only the trim threshold set,
# the mmap threshold stays at 128 KiB and every larger array is mapped and
# faulted in afresh on each call. One arena: a thread started after the call
# allocates from the main arena too, and so reuses the heap it keeps.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD, _M_ARENA_MAX = -1, -3, -8
_MMAP_THRESHOLD = 32 << 20
_TRIM_THRESHOLD = 1 << 30


@functools.cache
def _keep_freed_heap() -> None:
    """Keep the memory a step frees for the next step instead of handing it back to the kernel.

    Backward frees a step's graph as it walks it, so glibc would trim the top
    of the heap after each step and the next step would fault the same pages
    in again. Threads started after this call share the main arena, whose
    heap is kept; a thread already attached to another arena stays there, so
    ``stage_train`` calls this before it starts fold threads. Runs once per
    process, on glibc only; outputs do not depend on it."""
    if platform.libc_ver()[0] != "glibc":
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    if mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD):  # returns 0, having set nothing, if refused
        mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)
    mallopt(_M_ARENA_MAX, 1)


def _all_finite(a: np.ndarray) -> bool:
    """Whether every cell of ``a`` is finite, without a mask of its size.

    A NaN or Inf cell makes the sum of squares NaN or Inf, so a finite sum
    proves every cell finite in one read of ``a``; a sum that overflows is
    settled cell by cell.
    """
    flat = a.reshape(-1)
    return bool(np.isfinite(np.dot(flat, flat))) or bool(np.isfinite(a).all())


def _non_finite(loss, named) -> Optional[str]:
    """What of a step's loss and parameter gradients holds a NaN or Inf, or None."""
    if not _all_finite(loss.data):
        return "the loss"
    return next((f"the gradient of {name}" for name, p in named if not _all_finite(p.grad)), None)


def train_model(train_images: Sequence[SpectrogramImage], cfg: TrainConfig) -> tuple[ModelParams, list[dict]]:
    """Adam-driven epochs over shuffled mini-batches; deterministic in cfg.seed.

    Returns trained parameters and the per-epoch curve (mean loss, train
    accuracy). Each batch's forward and backward run without the per-op
    finiteness checks; its loss and parameter gradients are checked once,
    before Adam writes into the parameters. A batch that fails reruns from
    the same dropout draws with the checks on, and aborts with the epoch,
    batch and offending op.
    """
    _keep_freed_heap()
    pixels, labels = images_to_arrays(train_images)
    n = len(labels)
    model = MODELS[cfg.kind]
    params = model.params.init(pixels.shape[1:], np.random.default_rng((cfg.seed, 0x1)), dtype=cfg.dtype)
    named = tensor_fields(params)
    state = adam_init([p.data for _, p in named], lr=cfg.learning_rate)
    shuffle_rng = np.random.default_rng((cfg.seed, 0x2))
    dropout_rng = np.random.default_rng((cfg.seed, 0x3))

    def step(idx):
        for _, p in named:  # the last step's gradients, freed before this forward allocates
            p.zero_grad()
        loss, preds = model.loss(params, pixels[idx], labels[idx], dropout_rng)
        loss.backward()
        return loss, preds

    curve = []
    for epoch in range(cfg.epochs):
        perm = shuffle_rng.permutation(n)
        loss_sum = 0.0
        correct = 0
        for batch_start in range(0, n, cfg.batch_size):
            idx = perm[batch_start : batch_start + cfg.batch_size]
            draws = dropout_rng.bit_generator.state
            with finite_checks_off():
                loss, preds = step(idx)
                bad = _non_finite(loss, named)
            if bad is not None:
                where = f"epoch {epoch} batch {batch_start // cfg.batch_size}"
                dropout_rng.bit_generator.state = draws
                try:
                    with np.errstate(all="ignore"):  # the error to raise is the op's, not NumPy's warning
                        step(idx)
                except NumericError as exc:
                    raise TrainingError(f"non-finite value at {where}: {exc}") from exc
                raise TrainingError(f"non-finite value at {where}: {bad}")
            _, state = adam_step([p.data for _, p in named], [p.grad for _, p in named], state)  # in place
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


EVAL_BATCH = 128


def predict(params: ModelParams, pixels: np.ndarray) -> np.ndarray:
    """Class indices for [N, H, W] pixels, ``EVAL_BATCH`` at a time; inference mode, no recorded graph."""
    model = MODELS[_KIND_BY_ARCH[params.ARCH]]
    with no_grad():
        preds = [model.predict(params, pixels[start : start + EVAL_BATCH]) for start in range(0, len(pixels), EVAL_BATCH)]
    return np.concatenate(preds)


def evaluate(params: ModelParams, test_images: Sequence[SpectrogramImage]) -> ConfusionMatrix:
    """Confusion counts over the test images, drowsy positive.

    Train/test disjointness is the caller's: folds from ``make_splits`` over a
    ``load_dataset`` list (which lists each image once) share no image.
    """
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


def _paper_model(fp: dict, path) -> tuple[str, ModelParams]:
    """The kind and zero-filled params of the paper model that ``fp`` names at its input
    size and dtype; refuses ``fp`` unless it equals that model's fingerprint as JSON."""
    arch, hw, dtype = fp.get("arch"), fp.get("input_hw"), fp.get("dtype")
    kind = _KIND_BY_ARCH.get(arch) if isinstance(arch, str) else None
    if kind is None:
        raise CheckpointError(f"unknown architecture {arch!r} in {path}")
    if not (isinstance(hw, list) and len(hw) == 2 and all(type(n) is int and n > 0 for n in hw)):
        raise CheckpointError(f"{path}: input_hw {hw!r} is not two positive ints")
    if dtype not in ("float32", "float64"):  # a tuple: membership must not hash a JSON list
        raise CheckpointError(f"{path}: dtype {dtype!r} is not float32 or float64")
    try:
        params = MODELS[kind].params.init(tuple(hw), None, getattr(np, dtype))
    except (ValueError, MemoryError) as exc:  # an input size the architecture cannot build or allocate
        raise CheckpointError(f"{path}: {exc}") from exc
    paper = params.fingerprint()
    # compared as JSON text, so 512.0 or true is not 512 or 1; a key on one side only differs
    keys = fp.keys() | paper.keys()
    differ = sorted(k for k in keys if k not in fp or k not in paper or json.dumps(fp[k]) != json.dumps(paper[k]))
    if differ:
        raise CheckpointError(f"{path}: not the paper's {kind} model at {hw} {dtype}; its fingerprint differs in: {', '.join(differ)}")
    return kind, params


def save_model(path: Path, params: ModelParams) -> None:
    """Write ``params`` to a checkpoint; refuses, before writing, a model that ``load_model`` would refuse."""
    fp = params.fingerprint()
    _paper_model(fp, path)
    save_checkpoint(path, {name: p.data for name, p in tensor_fields(params)}, fp)


def load_model(path: Union[Path, str]) -> tuple[str, ModelParams]:
    """Rebuild a model and its kind from a checkpoint, which must hold one of the paper's models."""
    arrays, fp = load_checkpoint(path)
    kind, params = _paper_model(fp, path)
    for name, p in tensor_fields(params):
        if name not in arrays:
            raise CheckpointError(f"checkpoint {path} is missing tensor {name!r}")
        stored = arrays[name]
        # a float64 tensor cast to a float32 model could overflow to inf after the finiteness check
        if (stored.shape, stored.itemsize) != (p.data.shape, p.data.itemsize):
            raise CheckpointError(f"tensor {name!r} has shape {stored.shape} of {stored.dtype}, expected {p.data.shape} of {p.data.dtype}")
        if not np.isfinite(stored).all():
            raise CheckpointError(f"tensor {name!r} in {path} holds a non-finite value")
        p.data = stored.astype(p.data.dtype, copy=False)
    return kind, params
