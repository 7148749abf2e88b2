"""Adam optimizer with bias-corrected moment estimates."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

__all__ = ["AdamState", "adam_init", "adam_step", "BETA1", "BETA2", "EPS"]

# Kingma & Ba's defaults (arXiv:1412.6980), which the paper trains with.
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8

# Bytes of each array that one pass of the update works on (p, g, m, v and two
# scratch buffers). On a Xeon with 2 MiB of L2 per core, 256 KiB was the fastest
# of 64, 128 and 256 KiB for the capsnet, CNN and MLP parameter sets in both
# dtypes (64 KiB took 6-18% longer, 128 KiB 0-6%).
CHUNK_BYTES = 256 * 1024


@dataclass
class AdamState:
    """Per-parameter moment estimates, the step count and the learning rate.

    ``step_count`` strictly increases by 1 per update.
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
    ``g``, ``m`` and ``v`` stays in cache through every elementwise op. The ops
    and their order per element are those of the unblocked formula, so the
    result is the same bit for bit.
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
    c1, c2 = 1.0 - BETA1**t, 1.0 - BETA2**t
    scratch = {}
    for p, g, m, v in zip(params, grads, state.first_moment, state.second_moment):
        step = CHUNK_BYTES // p.itemsize
        if p.dtype not in scratch:
            scratch[p.dtype] = (np.empty(step, p.dtype), np.empty(step, p.dtype))
        flat = [a.reshape(-1) for a in (p, g, m, v)]  # views: p, m and v are C-contiguous
        for lo in range(0, p.size, step):
            pc, gc, mc, vc = (a[lo : lo + step] for a in flat)
            s1, s2 = (s[: len(pc)] for s in scratch[p.dtype])
            mc *= BETA1
            np.multiply(gc, 1.0 - BETA1, out=s1)
            mc += s1
            vc *= BETA2
            np.multiply(gc, 1.0 - BETA2, out=s1)
            s1 *= gc
            vc += s1
            np.divide(mc, c1, out=s1)  # m_hat
            np.divide(vc, c2, out=s2)  # v_hat
            np.sqrt(s2, out=s2)
            s2 += EPS
            s1 *= state.lr
            s1 /= s2
            pc -= s1
    return list(params), replace(state, step_count=t)
