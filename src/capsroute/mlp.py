"""Shallow baseline: one 512-unit hidden layer on raw pixels."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .tensor import Tensor, affine, image_batch, parameter, relu

__all__ = ["MlpParams", "mlp_forward"]

HIDDEN = 512


@dataclass
class MlpParams:
    fc1_w: Tensor
    fc1_b: Tensor
    out_w: Tensor
    out_b: Tensor
    input_hw: tuple

    ARCH = "mlp-v1"

    @classmethod
    def init(cls, input_hw: tuple = (32, 32), rng: Optional[np.random.Generator] = None, dtype=np.float64) -> "MlpParams":
        """Truncated-normal weights drawn from ``rng`` (zeros without one) and zero biases."""
        pixels = input_hw[0] * input_hw[1]
        return cls(
            fc1_w=parameter((HIDDEN, pixels), rng, dtype),
            fc1_b=parameter(HIDDEN, None, dtype),
            out_w=parameter((2, HIDDEN), rng, dtype),
            out_b=parameter(2, None, dtype),
            input_hw=tuple(input_hw),
        )

    def fingerprint(self) -> dict:
        return {
            "arch": self.ARCH,
            "input_hw": list(self.input_hw),
            "hidden": int(self.fc1_w.shape[0]),
            "dtype": str(self.fc1_w.dtype),
        }


def mlp_forward(image: np.ndarray, params: MlpParams) -> Tensor:
    """[B, H, W] images to [B, 2] logits."""
    px = image_batch(image, params.fc1_w.dtype, params.input_hw)
    flat = Tensor(px.reshape(px.shape[0], -1))
    hidden = relu(affine(flat, params.fc1_w, params.fc1_b))
    return affine(hidden, params.out_w, params.out_b)
