"""Central finite-difference gradient checking.

The numeric side never touches the recorded-graph machinery beyond calling
the loss function, so it stays an independent oracle for the analytic path.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from capsroute.tensor import Tensor

__all__ = ["numeric_gradient", "check_gradients", "check_directional"]


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


def check_directional(
    loss_fn: Callable[[], Tensor],
    params: Sequence[tuple[str, Tensor]],
    rng: np.random.Generator,
    tol: float = 1e-7,
    draws: int = 20,
) -> dict[str, float]:
    """Compare each parameter's analytic gradient along a random unit direction d with central differences.

    Full-width models have too many coordinates to check one by one. The step
    is h = 1e-5 * max(1, max|p|), and the error is relative as in
    ``check_gradients``. Along a smooth stretch, the one-sided differences
    over the four half-steps from -h to h change linearly. Where they do not,
    a kink (a ReLU or max-pool switch) lies within +-h and may shift the
    central difference by as much as the departure; so a new direction is
    drawn, up to ``draws`` in all, and the tolerance is never widened.
    Returns the worst relative error per parameter name; raises
    AssertionError if one exceeds ``tol`` or every draw meets a kink.
    """
    for _, p in params:
        p.zero_grad()
    loss = loss_fn()
    loss.backward()
    f0 = loss.item()
    analytic = {name: p.grad.copy() if p.grad is not None else np.zeros_like(p.data) for name, p in params}

    worst: dict[str, float] = {}
    for name, p in params:
        orig = p.data
        h = 1e-5 * max(1.0, float(np.abs(orig).max()))
        for _ in range(draws):
            d = rng.standard_normal(p.shape)
            d /= np.linalg.norm(d)
            f = {0: f0}
            for k in (-2, -1, 1, 2):
                p.data = orig + (k * h / 2) * d
                f[k] = loss_fn().item()
            p.data = orig
            s = [(f[k] - f[k - 1]) / (h / 2) for k in (-1, 0, 1, 2)]  # one-sided differences, left to right
            num = (f[2] - f[-2]) / (2.0 * h)
            departure = max(abs(s[2] - 2.0 * s[1] + s[0]), abs(s[3] - 2.0 * s[2] + s[1]))
            if departure <= tol / 2 * max(1.0, abs(num)):
                break
        else:
            raise AssertionError(f"every one of {draws} directions for {name!r} meets a kink within +-{h:.1e}")
        err = abs(float((analytic[name] * d).sum()) - num) / max(1.0, abs(num))
        worst[name] = err
        if err > tol:
            raise AssertionError(f"directional gradient check failed for {name!r}: relative error {err:.3e} > {tol:.1e}")
    return worst
