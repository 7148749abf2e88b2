"""Adam optimizer with bias-corrected moment estimates.

The moments are kept as plain sums and the bias correction is folded into two
scalars, the reordered update of Kingma & Ba (arXiv:1412.6980, just before
section 2.1): the same update as Algorithm 1 in fewer elementwise passes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

__all__ = ["AdamState", "adam_init", "adam_step", "BETA1", "BETA2", "EPS"]

# Kingma & Ba's defaults (arXiv:1412.6980), which the paper trains with.
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8

# Bytes of each array that one pass of the update works on (p, g, M, V and one
# scratch buffer: 5 arrays). On a Xeon with 2 MiB of L2 per core, 64 KiB took
# 6-18% longer than 256 KiB for the capsnet, CNN and MLP parameter sets; 128,
# 384 and 512 KiB ran within 5% of it either way.
CHUNK_BYTES = 256 * 1024


@dataclass
class AdamState:
    """Per-parameter moment sums, the step count and the learning rate.

    ``first_moment`` holds M = m / (1 - BETA1) and ``second_moment`` holds
    V = v / (1 - BETA2), where m and v are Algorithm 1's moment estimates:
    M <- BETA1 * M + g and V <- BETA2 * V + g * g. ``step_count`` strictly
    increases by 1 per update.
    """

    first_moment: list[np.ndarray]
    second_moment: list[np.ndarray]
    step_count: int = 0
    lr: float = 1e-3


def adam_init(params: Sequence[np.ndarray], lr: float = 1e-3) -> AdamState:
    return AdamState([np.zeros_like(p) for p in params], [np.zeros_like(p) for p in params], lr=lr)


def adam_step(params: Sequence[np.ndarray], grads: Sequence[np.ndarray], state: AdamState) -> tuple[list[np.ndarray], AdamState]:
    """One bias-corrected Adam update, in place: returns the given param arrays
    and a state with the same moment arrays, both updated, and ``step_count`` + 1.

    Params and moments must be C-contiguous and writeable; every check runs
    before the first write, so a rejected call changes nothing. Each parameter
    is updated ``CHUNK_BYTES`` of each array at a time, so one chunk of ``p``,
    ``g``, ``M`` and ``V`` stays in cache through all 10 elementwise ops:

        M <- BETA1 * M + g
        V <- BETA2 * V + g * g
        p <- p - alpha * M / (sqrt(V) + eps)

    with k = sqrt((1 - BETA2) / (1 - BETA2**t)), alpha = lr * (1 - BETA1) /
    ((1 - BETA1**t) * k) and eps = EPS / k, which is Algorithm 1's update with
    m_hat and v_hat written out. The ops and their order per element do not
    depend on the chunking, so the result is that of the unblocked formula bit
    for bit.

    V sums up to 1 / (1 - BETA2) = 1000 squared gradients, so it stays finite
    while every gradient cell is below sqrt(max / (1 - BETA2)) in magnitude:
    5.8e17 in float32 and 4.2e152 in float64.
    """
    if not len(params) == len(grads) == len(state.first_moment) == len(state.second_moment):
        raise ValueError("adam_step requires matching params/grads/state lengths")
    for p, g, m, v in zip(params, grads, state.first_moment, state.second_moment):
        if not p.shape == g.shape == m.shape == v.shape:
            raise ValueError(f"adam_step shape mismatch: param {p.shape}, grad {g.shape}, moments {m.shape}, {v.shape}")
        if not p.dtype == g.dtype == m.dtype == v.dtype:
            raise ValueError(f"adam_step dtype mismatch: param {p.dtype}, grad {g.dtype}, moments {m.dtype}, {v.dtype}")
        if not all(a.flags.c_contiguous and a.flags.writeable for a in (p, m, v)):
            raise ValueError(f"adam_step updates in place: param and moments of shape {p.shape} must be C-contiguous and writeable")

    t = state.step_count + 1
    k = math.sqrt((1.0 - BETA2) / (1.0 - BETA2**t))  # sqrt(v_hat) = k * sqrt(V)
    alpha = float(state.lr) * (1.0 - BETA1) / ((1.0 - BETA1**t) * k)  # Python floats: a NumPy scalar slows float32
    eps = EPS / k
    scratch = {}
    for p, g, m, v in zip(params, grads, state.first_moment, state.second_moment):
        step = CHUNK_BYTES // p.itemsize
        if p.dtype not in scratch:
            scratch[p.dtype] = np.empty(step, p.dtype)
        flat = [a.reshape(-1) for a in (p, g, m, v)]  # views: p, m and v are C-contiguous
        for lo in range(0, p.size, step):
            pc, gc, mc, vc = (a[lo : lo + step] for a in flat)
            s = scratch[p.dtype][: len(pc)]
            mc *= BETA1
            mc += gc
            np.multiply(gc, gc, out=s)
            vc *= BETA2
            vc += s
            np.sqrt(vc, out=s)
            s += eps
            np.divide(mc, s, out=s)
            s *= alpha
            pc -= s
    return list(params), replace(state, step_count=t)
