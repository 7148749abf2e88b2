"""Reduced-width models, small enough for finite-difference gradient checks.

``init`` builds only the paper's widths. These helpers build the same
parameter dataclasses at narrower widths, drawing the weights from ``rng`` in
field order with zero biases, as ``init`` does.
"""

from __future__ import annotations

from dataclasses import fields

import numpy as np

from capsroute.capsnet import N_CLASSES, STRIDE, CapsNetParams
from capsroute.cnn import CnnParams
from capsroute.mlp import MlpParams
from capsroute.tensor import parameter

__all__ = ["reduced_capsnet", "reduced_cnn", "reduced_mlp"]


def _build(cls, input_hw: tuple, rng: np.random.Generator, dtype, shapes: dict):
    """``cls`` with each weight (a field ending ``_w``) drawn from ``rng`` and each bias zero."""
    tensors = {f.name: parameter(shapes[f.name], rng if f.name.endswith("_w") else None, dtype) for f in fields(cls) if f.name in shapes}
    return cls(**tensors, input_hw=tuple(input_hw))


def reduced_capsnet(input_hw: tuple, rng: np.random.Generator, dtype=np.float64) -> CapsNetParams:
    """A 2x3x3 then a 4x3x3 conv, one type of 4-dim primary capsules, two 3-dim class capsules, a 6 -> 7 decoder."""
    h2, w2 = (((n - 3) // STRIDE + 1 - 3) // STRIDE + 1 for n in input_hw)
    pixels = input_hw[0] * input_hw[1]
    shapes = {
        "conv1_w": (2, 3, 3, 1),
        "conv1_b": 2,
        "conv2_w": (4, 3, 3, 2),
        "conv2_b": 4,
        "routing_w": (h2 * w2, N_CLASSES, 3, 4),
        "dec1_w": (6, N_CLASSES * 3),
        "dec1_b": 6,
        "dec2_w": (7, 6),
        "dec2_b": 7,
        "dec3_w": (pixels, 7),
        "dec3_b": pixels,
    }
    return _build(CapsNetParams, input_hw, rng, dtype, shapes)


def reduced_cnn(input_hw: tuple, rng: np.random.Generator, filters: tuple = (2, 3, 4), fc_hidden: int = 5, dtype=np.float64) -> CnnParams:
    """Three 3x3 conv blocks of ``filters`` channels and a ``fc_hidden``-wide head."""
    ph, pw = (-(-n // 8) for n in input_hw)  # three halvings, rounding up
    f1, f2, f3 = filters
    shapes = {
        "conv1_w": (f1, 3, 3, 1),
        "conv1_b": f1,
        "conv2_w": (f2, 3, 3, f1),
        "conv2_b": f2,
        "conv3_w": (f3, 3, 3, f2),
        "conv3_b": f3,
        "fc1_w": (fc_hidden, f3 * ph * pw),
        "fc1_b": fc_hidden,
        "out_w": (2, fc_hidden),
        "out_b": 2,
    }
    return _build(CnnParams, input_hw, rng, dtype, shapes)


def reduced_mlp(input_hw: tuple, rng: np.random.Generator, hidden: int, dtype=np.float64) -> MlpParams:
    """One ``hidden``-wide layer."""
    pixels = input_hw[0] * input_hw[1]
    shapes = {"fc1_w": (hidden, pixels), "fc1_b": hidden, "out_w": (2, hidden), "out_b": 2}
    return _build(MlpParams, input_hw, rng, dtype, shapes)
