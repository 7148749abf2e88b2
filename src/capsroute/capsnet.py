"""Capsule network: conv stem, primary capsules, routing-by-agreement, decoder.

The conv stem (valid padding, stride 2) feeds a primary capsule layer of
16-dim vectors, which vote for two 10-dim secondary capsules through five
unrolled routing iterations. Secondary capsule lengths are class scores; a
three-layer decoder reconstructs the input from the masked true capsule
as a 0.0005-weighted regularizer.

Gradients flow through every routing iteration, all ordinary recorded
operations; the last iteration adds no agreement, since nothing reads it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .tensor import Tensor, affine, conv2d, einsum2, image_batch, parameter, relu, sigmoid, softmax_axis

__all__ = [
    "SQUASH_EPS",
    "STRIDE",
    "ROUTING_ITERATIONS",
    "CapsNetParams",
    "squash",
    "primary_capsules",
    "votes",
    "dynamic_routing",
    "classify",
    "margin_loss",
    "decoder_input",
    "decode",
    "total_loss",
    "capsule_forward",
    "capsnet_forward",
]

SQUASH_EPS = 1e-9
_NORM_GUARD = 1e-30  # keeps sqrt differentiable at exactly-zero vectors
# the paper's widths; fingerprint() records them, and load_model refuses a checkpoint of any other
CONV1_FILTERS = 64
CONV1_KERNEL = 5
CONV2_FILTERS = 128
CONV2_KERNEL = 9
CAPSULE_DIM = 16
SECONDARY_DIM = 10
DECODER_HIDDEN = (512, 1024)
STRIDE = 2  # of both stem convs
ROUTING_ITERATIONS = 5
MARGIN_POS = 0.9
MARGIN_NEG = 0.1
MARGIN_LAMBDA = 0.5
RECON_SCALE = 5e-4
N_CLASSES = 2


@dataclass
class CapsNetParams:
    conv1_w: Tensor
    conv1_b: Tensor
    conv2_w: Tensor
    conv2_b: Tensor
    routing_w: Tensor  # [P, 2, secondary_dim, capsule_dim]
    dec1_w: Tensor
    dec1_b: Tensor
    dec2_w: Tensor
    dec2_b: Tensor
    dec3_w: Tensor
    dec3_b: Tensor
    input_hw: tuple

    ARCH = "capsnet-v2"

    @classmethod
    def init(cls, input_hw: tuple = (32, 32), rng: Optional[np.random.Generator] = None, dtype=np.float64) -> "CapsNetParams":
        """Truncated-normal weights drawn from ``rng`` (zeros without one) and zero biases."""
        h2, w2 = (((n - CONV1_KERNEL) // STRIDE + 1 - CONV2_KERNEL) // STRIDE + 1 for n in input_hw)
        if h2 < 1 or w2 < 1:
            raise ValueError(f"input {input_hw} too small for the conv stem")
        num_primary = h2 * w2 * (CONV2_FILTERS // CAPSULE_DIM)
        pixels = input_hw[0] * input_hw[1]

        d1, d2 = DECODER_HIDDEN
        return cls(
            conv1_w=parameter((CONV1_FILTERS, CONV1_KERNEL, CONV1_KERNEL, 1), rng, dtype),
            conv1_b=parameter(CONV1_FILTERS, None, dtype),
            conv2_w=parameter((CONV2_FILTERS, CONV2_KERNEL, CONV2_KERNEL, CONV1_FILTERS), rng, dtype),
            conv2_b=parameter(CONV2_FILTERS, None, dtype),
            routing_w=parameter((num_primary, N_CLASSES, SECONDARY_DIM, CAPSULE_DIM), rng, dtype),
            dec1_w=parameter((d1, N_CLASSES * SECONDARY_DIM), rng, dtype),
            dec1_b=parameter(d1, None, dtype),
            dec2_w=parameter((d2, d1), rng, dtype),
            dec2_b=parameter(d2, None, dtype),
            dec3_w=parameter((pixels, d2), rng, dtype),
            dec3_b=parameter(pixels, None, dtype),
            input_hw=tuple(input_hw),
        )

    @property
    def num_primary(self) -> int:
        return self.routing_w.shape[0]

    def fingerprint(self) -> dict:
        return {
            "arch": self.ARCH,
            "input_hw": list(self.input_hw),
            "conv1": [int(s) for s in self.conv1_w.shape] + [STRIDE],
            "conv2": [int(s) for s in self.conv2_w.shape] + [STRIDE],
            "capsule_dim": int(self.routing_w.shape[3]),
            "secondary_dim": int(self.routing_w.shape[2]),
            "num_primary": int(self.num_primary),
            "decoder_hidden": [int(self.dec1_w.shape[0]), int(self.dec2_w.shape[0])],
            "routing_iterations": ROUTING_ITERATIONS,
            "dtype": str(self.conv1_w.dtype),
        }


# ---------------------------------------------------------------------------
# capsule primitives
# ---------------------------------------------------------------------------


def squash(s: Tensor) -> Tensor:
    """v = (|s|^2 / (1 + |s|^2)) * (s / (|s| + eps)) along the last axis.

    Zero vectors map to zero; output lengths are strictly below 1.
    """
    n2 = s.square().sum(axis=-1, keepdims=True)
    norm = (n2 + _NORM_GUARD).sqrt()
    scale = n2 / ((n2 + 1.0) * (norm + SQUASH_EPS))
    return s * scale


def primary_capsules(conv2_out: Tensor, capsule_dim: int = CAPSULE_DIM) -> Tensor:
    """Regroup [B, h, w, C] conv features into [B, h*w*(C/capsule_dim), capsule_dim]
    squashed capsules.

    Channels split into capsule types of ``capsule_dim`` consecutive channels;
    capsules are ordered cell-major, then by type, which is the channels-last
    order itself.
    """
    if conv2_out.ndim != 4:
        raise ValueError(f"primary capsules need [B, h, w, C] features, got {conv2_out.shape}")
    b, h, w, c = conv2_out.shape
    if c % capsule_dim != 0:
        raise ValueError(f"channel count {c} not divisible by capsule dim {capsule_dim}")
    return squash(conv2_out.reshape(b, h * w * c // capsule_dim, capsule_dim))


def votes(u: Tensor, w: Tensor) -> Tensor:
    """Per-pair predictions u_hat[b, p, j] = W[p, j] @ u[b, p] for capsules u [B, P, dim]."""
    if w.ndim != 4 or u.ndim != 3 or u.shape[2] != w.shape[3] or u.shape[1] != w.shape[0]:
        raise ValueError(f"votes needs [B, P, dim] capsules for W [P, J, D, dim]: u {u.shape}, W {w.shape}")
    return einsum2("pjdk,bpk->bpjd", w, u)


def dynamic_routing(u_hat: Tensor, iterations: int = ROUTING_ITERATIONS) -> Tensor:
    """Iterative agreement routing over votes [B, P, J, D]; returns capsules [B, J, D].

    Logits start at zero; each iteration squashes the vote sum weighted by the
    coupling softmax over the secondary index, and each but the last adds the
    vote/output agreement back onto the logits. Samples never mix.
    """
    if iterations < 1:
        raise ValueError(f"routing needs at least 1 iteration, got {iterations}")
    if u_hat.ndim != 4:
        raise ValueError(f"routing needs [B, P, J, D] votes, got {u_hat.shape}")
    b = Tensor(np.zeros(u_hat.shape[:3], dtype=u_hat.dtype))
    for i in range(iterations):
        if i:
            b = b + einsum2("bpjd,bjd->bpj", u_hat, v)
        v = squash(einsum2("bpj,bpjd->bjd", softmax_axis(b, axis=2), u_hat))
    return v


def capsule_lengths(v: Union[Tensor, np.ndarray]) -> np.ndarray:
    data = v.data if isinstance(v, Tensor) else np.asarray(v)
    return np.sqrt((data**2).sum(axis=-1))


def classify(v: Union[Tensor, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Capsule lengths as class probabilities; argmax label, ties toward class 0."""
    lengths = capsule_lengths(v)
    # reversed argmax of the reversed array would break the tie toward class 1;
    # plain argmax returns the first maximum, i.e. Alert on ties
    return lengths, lengths.argmax(axis=-1)


def _one_hot(indices: np.ndarray, n_classes: int, dtype) -> np.ndarray:
    out = np.zeros((indices.shape[0], n_classes), dtype=dtype)
    out[np.arange(indices.shape[0]), indices] = 1.0
    return out


def margin_loss(v: Tensor, labels) -> Tensor:
    """Hinge-squared loss on [B, J, D] capsule lengths against B labels, averaged over the batch.

    L = sum_k T_k max(0, 0.9 - |v_k|)^2 + 0.5 (1 - T_k) max(0, |v_k| - 0.1)^2
    """
    lab = np.asarray(labels, dtype=np.int64)
    if v.ndim != 3 or lab.shape != v.shape[:1]:
        raise ValueError(f"margin_loss needs [B, J, D] capsules and B labels, got {v.shape} and labels {lab.shape}")
    n2 = v.square().sum(axis=-1)
    length = (n2 + _NORM_GUARD).sqrt()
    onehot = _one_hot(lab, v.shape[1], v.dtype)
    t = Tensor(onehot)
    anti = Tensor(1.0 - onehot)
    pos = relu(MARGIN_POS - length).square()
    neg = relu(length - MARGIN_NEG).square()
    per_sample = (t * pos + anti * neg * MARGIN_LAMBDA).sum(axis=-1)
    return per_sample.mean()


def decoder_input(v: Tensor, mask: np.ndarray) -> Tensor:
    """Masked concatenation: capsules [B, J, D] times a [B, J] mask, flattened to [B, J*D].

    This is the one place that fixes the decoder-input convention (20-dim
    masked pair rather than the bare 10-dim winner).
    """
    m = np.asarray(mask, dtype=v.dtype)
    if v.ndim != 3 or m.shape != v.shape[:2]:
        raise ValueError(f"decoder input needs [B, J, D] capsules and a [B, J] mask, got {v.shape} and {m.shape}")
    masked = v * Tensor(m[:, :, None])
    return masked.reshape(v.shape[0], v.shape[1] * v.shape[2])


def decode(v: Tensor, mask: np.ndarray, params: CapsNetParams) -> Tensor:
    """Three affine layers (ReLU, ReLU, Sigmoid) from the masked capsule pair."""
    x = decoder_input(v, mask)
    h1 = relu(affine(x, params.dec1_w, params.dec1_b))
    h2 = relu(affine(h1, params.dec2_w, params.dec2_b))
    return sigmoid(affine(h2, params.dec3_w, params.dec3_b))


def total_loss(image, v: Tensor, reconstruction: Tensor, labels) -> Tensor:
    """Margin loss plus 0.0005 * summed squared reconstruction error, both batch means.

    ``image`` is the [B, pixels] target: scaled to [0, 1] and flattened to
    match the reconstruction.
    """
    target = np.asarray(image, dtype=reconstruction.dtype)
    if target.ndim != 2 or target.shape != reconstruction.shape:
        raise ValueError(f"image {target.shape} does not match reconstruction {reconstruction.shape}")
    margin = margin_loss(v, labels)
    per_sample = (reconstruction - Tensor(target)).square().sum(axis=-1)
    return margin + RECON_SCALE * per_sample.mean()


def capsule_forward(image: np.ndarray, params: CapsNetParams) -> Tensor:
    """Conv stem, primary capsules, votes and routing: [B, H, W] images, uint8 or [0, 1] floats,
    to [B, 2, D] capsules. This is all that class scores need: the decoder is a training regularizer.
    """
    px = image_batch(image, params.conv1_w.dtype, params.input_hw)
    x = Tensor(px[..., None])
    h1 = relu(conv2d(x, params.conv1_w, params.conv1_b, stride=STRIDE))
    h2 = relu(conv2d(h1, params.conv2_w, params.conv2_b, stride=STRIDE))
    u = primary_capsules(h2, params.routing_w.shape[3])
    return dynamic_routing(votes(u, params.routing_w))


def capsnet_forward(image: np.ndarray, params: CapsNetParams, labels) -> tuple[Tensor, Tensor]:
    """The capsule path, then the decoder on the true capsule of each of the B labels.

    Returns the capsules [B, 2, D] and the reconstruction [B, pixels] in (0, 1).
    """
    v = capsule_forward(image, params)
    mask_idx = np.asarray(labels, dtype=np.int64)
    if mask_idx.shape != v.shape[:1]:
        raise ValueError(f"the decoder mask needs one label per image: {v.shape[0]} images, labels {mask_idx.shape}")
    return v, decode(v, _one_hot(mask_idx, v.shape[1], v.dtype), params)
