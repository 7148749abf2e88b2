"""CNN comparison model: three size-preserving conv blocks with zero-padded
max pooling, a 512-wide fully connected head with dropout, and L2-regularized
softmax cross-entropy.

Pooling windows are 2x2 for 32x32 inputs and 4x2 for 64x32 inputs (the larger
window along the frequency-stacked axis), stride 2 with zero padding, so every
block exactly halves both spatial extents.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .tensor import Tensor, affine, conv2d, cross_entropy_logits, dropout, image_batch, maxpool2d, pad2d, parameter, relu, sum_of_squares

__all__ = ["CnnParams", "cnn_forward", "cnn_loss"]

# the published widths and head settings, fixed for every run; fingerprint() records them
FILTERS = (32, 64, 128)  # of the three conv blocks
FC_HIDDEN = 512
DROPOUT_KEEP = 0.5
L2_BETA = 0.001


@dataclass
class CnnParams:
    conv1_w: Tensor
    conv1_b: Tensor
    conv2_w: Tensor
    conv2_b: Tensor
    conv3_w: Tensor
    conv3_b: Tensor
    fc1_w: Tensor
    fc1_b: Tensor
    out_w: Tensor
    out_b: Tensor
    input_hw: tuple

    ARCH = "cnn-v1"

    @classmethod
    def init(cls, input_hw: tuple = (32, 32), rng: Optional[np.random.Generator] = None, dtype=np.float64) -> "CnnParams":
        """Truncated-normal weights drawn from ``rng`` (zeros without one) and zero biases."""
        ph, pw = input_hw
        for _ in range(3):
            ph = -(-ph // 2)
            pw = -(-pw // 2)
        f1, f2, f3 = FILTERS
        flat = f3 * ph * pw

        return cls(
            conv1_w=parameter((f1, 1, 3, 3), rng, dtype),
            conv1_b=parameter(f1, None, dtype),
            conv2_w=parameter((f2, f1, 3, 3), rng, dtype),
            conv2_b=parameter(f2, None, dtype),
            conv3_w=parameter((f3, f2, 3, 3), rng, dtype),
            conv3_b=parameter(f3, None, dtype),
            fc1_w=parameter((FC_HIDDEN, flat), rng, dtype),
            fc1_b=parameter(FC_HIDDEN, None, dtype),
            out_w=parameter((2, FC_HIDDEN), rng, dtype),
            out_b=parameter(2, None, dtype),
            input_hw=tuple(input_hw),
        )

    @property
    def pool_window(self) -> tuple:
        h, w = self.input_hw
        return (4, 2) if h == 2 * w else (2, 2)

    def weight_tensors(self) -> list[Tensor]:
        return [self.conv1_w, self.conv2_w, self.conv3_w, self.fc1_w, self.out_w]

    def fingerprint(self) -> dict:
        return {
            "arch": self.ARCH,
            "input_hw": list(self.input_hw),
            "filters": [int(self.conv1_w.shape[0]), int(self.conv2_w.shape[0]), int(self.conv3_w.shape[0])],
            "fc_hidden": int(self.fc1_w.shape[0]),
            "pool_window": list(self.pool_window),
            "dropout_keep": DROPOUT_KEEP,
            "l2_beta": L2_BETA,
            "dtype": str(self.conv1_w.dtype),
        }


def _block(x: Tensor, kernels: Tensor, bias: Tensor, pool_window: tuple) -> Tensor:
    padded = pad2d(x, (1, 1, 1, 1))
    # max commutes with ReLU, zero-extension cells included, so pooling first gives the
    # same values and gradients while the ReLU runs on a quarter of the cells
    return relu(maxpool2d(conv2d(padded, kernels, bias, stride=1), pool_window, stride=2))


def cnn_forward(image: np.ndarray, params: CnnParams, rng: Optional[np.random.Generator] = None) -> Tensor:
    """[B, H, W] images to [B, 2] logits: three conv/pool blocks, flatten, FC head.

    Dropout acts exactly when an ``rng`` is given, as in training. It uses
    inverted scaling, so inference applies no rescale and is deterministic.
    """
    px = image_batch(image, params.conv1_w.dtype, params.input_hw)
    x = Tensor(px[..., None])

    x = _block(x, params.conv1_w, params.conv1_b, params.pool_window)
    x = _block(x, params.conv2_w, params.conv2_b, params.pool_window)
    x = _block(x, params.conv3_w, params.conv3_b, params.pool_window)
    # fc1_w's columns are in (c, h, w) order
    flat = x.transpose((0, 3, 1, 2)).reshape(x.shape[0], x.shape[1] * x.shape[2] * x.shape[3])
    hidden = relu(affine(flat, params.fc1_w, params.fc1_b))
    if rng is not None:
        hidden = dropout(hidden, DROPOUT_KEEP, rng)
    return affine(hidden, params.out_w, params.out_b)


def cnn_loss(logits: Tensor, labels, params: CnnParams) -> Tensor:
    """Softmax cross-entropy plus L2_BETA * sum of squared weights (biases excluded)."""
    return cross_entropy_logits(logits, labels) + L2_BETA * sum_of_squares(params.weight_tensors())
