"""Training-set expansion by randomized image transformations.

Transforms apply in a fixed order (zoom, shift, rotate, brightness, coarse
dropout) so a run is reproducible from the config seed alone. Geometric ops
resample bilinearly through one composed mapping; out-of-frame lookups clamp
to the nearest border pixel.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Sequence

import numpy as np

from .signal import SpectrogramImage, sample_bilinear_clamped

__all__ = [
    "AugmentError",
    "apply_geometric",
    "apply_brightness",
    "drop_blocks",
    "coarse_dropout",
    "augment_one",
    "expand_dataset",
    "audit_lineage",
]

# the fixed recipe; a run sets only whether to augment and the expansion factor
ZOOM_RANGE = 0.15  # zoom drawn from 1 +- this
WIDTH_SHIFT = 0.15  # column shift drawn from +- this times the width
HEIGHT_SHIFT = 0.10  # row shift drawn from +- this times the height
ROTATION_DEG = 10.0
BRIGHTNESS_RANGE = (0.5, 1.5)
COARSE_PIXEL_FRAC = 0.02  # share of downscaled cells a dropout zeroes
COARSE_APPLY_PROB = (0.2, 0.5)  # range of the per-image dropout probability
COARSE_DOWNSCALE = 0.5  # dropout grid scale; 0.5 gives 2x2 blocks


class AugmentError(ValueError):
    pass


def apply_geometric(pixels: np.ndarray, zoom: float, shift_cols: float, shift_rows: float, angle_deg: float) -> np.ndarray:
    """Zoom about the center, translate, then rotate; identity parameters copy exactly."""
    h, w = pixels.shape
    cr, cc = (h - 1) / 2.0, (w - 1) / 2.0
    out_r, out_c = np.meshgrid(np.arange(h, dtype=np.float64), np.arange(w, dtype=np.float64), indexing="ij")
    theta = np.deg2rad(angle_deg)
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    # invert rotate(shift(zoom(p))): un-rotate about center, un-shift, un-zoom
    dr = out_r - cr
    dc = out_c - cc
    ur = cos_t * dr + sin_t * dc
    uc = -sin_t * dr + cos_t * dc
    src_r = cr + (ur - shift_rows) / zoom
    src_c = cc + (uc - shift_cols) / zoom
    sampled = sample_bilinear_clamped(pixels, src_r, src_c)
    return np.clip(np.rint(sampled), 0, 255).astype(np.uint8)


def apply_brightness(pixels: np.ndarray, factor: float) -> np.ndarray:
    return np.clip(np.rint(pixels.astype(np.float64) * factor), 0, 255).astype(np.uint8)


def drop_blocks(pixels: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Zero round(frac * cells) blocks on the downscaled grid (2x2 squares at full size)."""
    h, w = pixels.shape
    block = int(round(1.0 / COARSE_DOWNSCALE))
    gh, gw = h // block, w // block
    n_cells = gh * gw
    n_drop = int(round(COARSE_PIXEL_FRAC * n_cells))
    if n_drop == 0:
        return pixels.copy()
    cells = rng.choice(n_cells, size=n_drop, replace=False)
    out = pixels.copy()
    for cell in cells:
        r, c = (int(cell) // gw) * block, (int(cell) % gw) * block
        out[r : r + block, c : c + block] = 0
    return out


def coarse_dropout(image: SpectrogramImage, rng: np.random.Generator) -> SpectrogramImage:
    """Apply block dropout with a probability drawn from ``COARSE_APPLY_PROB``."""
    p_apply = rng.uniform(*COARSE_APPLY_PROB)
    if rng.random() >= p_apply:
        return replace(image, pixels=image.pixels.copy())
    return replace(image, pixels=drop_blocks(image.pixels, rng))


def augment_one(image: SpectrogramImage, rng: np.random.Generator) -> SpectrogramImage:
    """One randomized copy; label and provenance are preserved."""
    zoom = rng.uniform(1.0 - ZOOM_RANGE, 1.0 + ZOOM_RANGE)
    h, w = image.pixels.shape
    shift_cols = rng.uniform(-WIDTH_SHIFT, WIDTH_SHIFT) * w
    shift_rows = rng.uniform(-HEIGHT_SHIFT, HEIGHT_SHIFT) * h
    angle = rng.uniform(-ROTATION_DEG, ROTATION_DEG)
    brightness = rng.uniform(*BRIGHTNESS_RANGE)
    pixels = apply_geometric(image.pixels, zoom, shift_cols, shift_rows, angle)
    pixels = apply_brightness(pixels, brightness)
    out = replace(image, pixels=pixels)
    return coarse_dropout(out, rng)


def expand_dataset(train_images: Sequence[SpectrogramImage], factor: int, seed: int) -> tuple[list[SpectrogramImage], list[dict]]:
    """Originals plus ``factor - 1`` augmented copies each, with lineage rows.

    Refuses a factor below 1. The caller passes only a fold's train side;
    ``audit_lineage`` checks that no copy descends from a test image.
    """
    if factor < 1:
        raise AugmentError(f"expansion factor must be >= 1, got {factor}")
    images = list(train_images)
    lineage = []
    for copy_index in range(1, factor):
        for i, img in enumerate(train_images):
            stream_seed = (seed, i, copy_index)
            rng = np.random.default_rng(stream_seed)
            images.append(augment_one(img, rng))
            lineage.append(
                {
                    "parent_path": img.source_path if img.source_path else f"mem:{i}",
                    "parent_index": i,
                    "copy_index": copy_index,
                    "seed": seed,
                }
            )
    return images, lineage


def audit_lineage(lineage: Sequence[dict], train_indices: Sequence[int], test_indices: Sequence[int]) -> None:
    """Every augmented image's ancestor must sit in the train side of its fold.

    ``parent_index`` in a lineage row is a position within the fold's train
    list; it maps through ``train_indices`` to a dataset-level index which must
    never appear in ``test_indices``.
    """
    test_set = set(int(i) for i in test_indices)
    train_indices = list(train_indices)
    for row in lineage:
        local = int(row["parent_index"])
        if not 0 <= local < len(train_indices):
            raise AugmentError(f"lineage row points outside the train list: {local}")
        dataset_index = int(train_indices[local])
        if dataset_index in test_set:
            raise AugmentError(f"augmented copy descends from test image {dataset_index}")
