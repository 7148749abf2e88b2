"""Central finite-difference gradient checking.

The numeric side never touches the recorded-graph machinery beyond calling
the loss function, so it stays an independent oracle for the analytic path.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from capsroute.tensor import Tensor

__all__ = ["numeric_gradient", "check_gradients"]


def numeric_gradient(loss_fn: Callable[[], Tensor], param: Tensor, index: tuple, h: float = 1e-6) -> float:
    """d loss / d param[index] by central differences, restoring param afterwards."""
    orig = param.data[index]
    step = h * max(1.0, abs(float(orig)))
    param.data[index] = orig + step
    f_plus = loss_fn().item()
    param.data[index] = orig - step
    f_minus = loss_fn().item()
    param.data[index] = orig
    return (f_plus - f_minus) / (2.0 * step)


def check_gradients(
    loss_fn: Callable[[], Tensor],
    params: Sequence[tuple[str, Tensor]],
    rng: np.random.Generator,
    samples_per_param: int = 20,
    tol: float = 1e-4,
) -> dict[str, float]:
    """Compare analytic gradients against central differences.

    For each named parameter, checks ``samples_per_param`` randomly chosen
    coordinates with relative error |analytic - numeric| / max(1, |numeric|).
    Returns the worst relative error per parameter name; raises AssertionError
    if any exceeds ``tol``.
    """
    for _, p in params:
        p.zero_grad()
    loss = loss_fn()
    loss.backward()
    analytic = {name: p.grad.copy() if p.grad is not None else np.zeros_like(p.data) for name, p in params}

    worst: dict[str, float] = {}
    for name, p in params:
        err = 0.0
        n = min(samples_per_param, p.size)
        flat_choices = rng.choice(p.size, size=n, replace=False)
        for flat in flat_choices:
            index = np.unravel_index(int(flat), p.shape)
            num = numeric_gradient(loss_fn, p, index)
            ana = float(analytic[name][index])
            err = max(err, abs(ana - num) / max(1.0, abs(num)))
        worst[name] = err
        if err > tol:
            raise AssertionError(f"gradient check failed for {name!r}: relative error {err:.3e} > {tol:.1e}")
    return worst
