"""Dense tensors with recorded forward kernels and reverse-mode differentiation.

Every operation is pure: it allocates a fresh output tensor and, when gradients
are enabled, records a backward closure. A computation record is confined to
the thread that built it; parameter tensors may be shared read-only across
threads for inference.

All kernels fail fast on NaN/Inf, naming the offending operation.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Callable, Iterable, Optional, Sequence, Union

import numpy as np

__all__ = [
    "Tensor",
    "NumericError",
    "GraphError",
    "no_grad",
    "grad_enabled",
    "relu",
    "sigmoid",
    "softmax_axis",
    "affine",
    "conv2d",
    "pad2d",
    "maxpool2d",
    "einsum2",
    "dropout",
    "cross_entropy_logits",
    "truncated_normal",
    "parameter",
    "image_batch",
]


class NumericError(RuntimeError):
    """A kernel produced or received a NaN/Inf value."""


class GraphError(RuntimeError):
    """Backward was invoked on a tensor that cannot support it."""


_local = threading.local()


def grad_enabled() -> bool:
    return getattr(_local, "grad_enabled", True)


@contextmanager
def no_grad():
    """Disable recording of backward closures (inference mode)."""
    prev = grad_enabled()
    _local.grad_enabled = False
    try:
        yield
    finally:
        _local.grad_enabled = prev


def _require_finite(arr: np.ndarray, op: str) -> None:
    if not np.isfinite(arr).all():
        raise NumericError(f"non-finite value produced by op '{op}'")


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcast gradient back down to the operand's shape."""
    if grad.shape == shape:
        return grad
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


ArrayLike = Union[np.ndarray, float, int, Sequence]


class Tensor:
    """n-dimensional real array with an optional gradient slot.

    ``requires_grad`` marks leaves whose ``grad`` is wanted; interior nodes
    created by operations carry the recorded backward closure.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn", "_op")

    def __init__(self, data: ArrayLike, requires_grad: bool = False):
        arr = np.asarray(data)
        if not np.issubdtype(arr.dtype, np.floating):
            arr = arr.astype(np.float64)
        _require_finite(arr, "leaf")
        self.data = arr
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = requires_grad
        self._parents: tuple = ()
        self._backward_fn: Optional[Callable[[np.ndarray], None]] = None
        self._op = "leaf"

    # -- construction of op results ------------------------------------

    @classmethod
    def _result(
        cls,
        data: np.ndarray,
        parents: Iterable["Tensor"],
        backward_fn: Optional[Callable[[np.ndarray], None]],
        op: str,
    ) -> "Tensor":
        _require_finite(data, op)
        out = cls.__new__(cls)
        out.data = data
        out.grad = None
        out._op = op
        if grad_enabled() and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = tuple(parents)
            out._backward_fn = backward_fn
        else:
            out.requires_grad = False
            out._parents = ()
            out._backward_fn = None
        return out

    def _accumulate(self, grad: np.ndarray, op: str) -> None:
        # ``grad`` may be shared (one array handed to both operands of an add,
        # a view of another gradient, a read-only broadcast), so it is never
        # written into. It is copied only when not C-contiguous: einsum2's
        # backward can hand back a transposed result, and Adam's elementwise
        # updates over a transposed gradient ran about 30% slower on capsnet;
        # conv2d's channels-last input gradient arrives transposed as well.
        _require_finite(grad, op + ".backward")
        grad = np.asarray(grad, dtype=self.data.dtype, order="C")
        self.grad = grad if self.grad is None else self.grad + grad

    # -- basic introspection --------------------------------------------

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, op={self._op!r}, requires_grad={self.requires_grad})"

    # -- arithmetic ------------------------------------------------------

    def _binary(self, other, fwd, bwd_self, bwd_other, op: str) -> "Tensor":
        if isinstance(other, Tensor):
            out_data = fwd(self.data, other.data)

            def backward(g: np.ndarray, a=self, b=other) -> None:
                if a.requires_grad:
                    a._accumulate(_unbroadcast(bwd_self(g, a.data, b.data), a.data.shape), op)
                if b.requires_grad:
                    b._accumulate(_unbroadcast(bwd_other(g, a.data, b.data), b.data.shape), op)

            return Tensor._result(out_data, (self, other), backward, op)
        const = other
        out_data = fwd(self.data, const)

        def backward_const(g: np.ndarray, a=self) -> None:
            a._accumulate(_unbroadcast(bwd_self(g, a.data, const), a.data.shape), op)

        return Tensor._result(out_data, (self,), backward_const, op)

    def __add__(self, other):
        return self._binary(
            other,
            lambda a, b: a + b,
            lambda g, a, b: g,
            lambda g, a, b: g,
            "add",
        )

    __radd__ = __add__

    def __sub__(self, other):
        return self._binary(
            other,
            lambda a, b: a - b,
            lambda g, a, b: g,
            lambda g, a, b: -g,
            "sub",
        )

    def __rsub__(self, other):
        return self._binary(
            other,
            lambda a, b: b - a,
            lambda g, a, b: -g,
            lambda g, a, b: g,
            "rsub",
        )

    def __mul__(self, other):
        return self._binary(
            other,
            lambda a, b: a * b,
            lambda g, a, b: g * b,
            lambda g, a, b: g * a,
            "mul",
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self._binary(
            other,
            lambda a, b: a / b,
            lambda g, a, b: g / b,
            lambda g, a, b: -g * a / (b * b),
            "div",
        )

    def __rtruediv__(self, other):
        return self._binary(
            other,
            lambda a, b: b / a,
            lambda g, a, b: -g * b / (a * a),
            lambda g, a, b: g / a,
            "rdiv",
        )

    def __neg__(self):
        return self * -1.0

    def square(self) -> "Tensor":
        out_data = self.data * self.data

        def backward(g: np.ndarray, a=self) -> None:
            a._accumulate(2.0 * a.data * g, "square")

        return Tensor._result(out_data, (self,), backward, "square")

    def sqrt(self) -> "Tensor":
        out_data = np.sqrt(self.data)

        def backward(g: np.ndarray, a=self, out=out_data) -> None:
            a._accumulate(g * 0.5 / out, "sqrt")

        return Tensor._result(out_data, (self,), backward, "sqrt")

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(g: np.ndarray, a=self) -> None:
            gg = g
            if axis is not None and not keepdims:
                gg = np.expand_dims(gg, axis)
            a._accumulate(np.broadcast_to(gg, a.data.shape).astype(a.data.dtype, copy=False), "sum")

        return Tensor._result(np.asarray(out_data), (self,), backward, "sum")

    def mean(self) -> "Tensor":
        return self.sum() * (1.0 / self.size)

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out_data = self.data.reshape(shape)
        orig = self.data.shape

        def backward(g: np.ndarray, a=self) -> None:
            a._accumulate(g.reshape(orig), "reshape")

        return Tensor._result(out_data, (self,), backward, "reshape")

    def transpose(self, axes: tuple) -> "Tensor":
        inverse = tuple(np.argsort(axes))

        def backward(g: np.ndarray, a=self) -> None:
            a._accumulate(g.transpose(inverse), "transpose")

        return Tensor._result(self.data.transpose(axes), (self,), backward, "transpose")

    # -- reverse-mode driver ----------------------------------------------

    def backward(self) -> None:
        """Fill ``grad`` slots of every reachable requires_grad tensor.

        The receiver must be the scalar root of a recorded computation.
        """
        if self.size != 1:
            raise GraphError(f"backward requires a scalar root, got shape {self.shape}")
        if not self._parents:
            raise GraphError("backward on a tensor not produced by a recorded computation")

        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))

        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward_fn is not None and node.grad is not None:
                node._backward_fn(node.grad)


# ---------------------------------------------------------------------------
# elementwise activations
# ---------------------------------------------------------------------------


def relu(x: Tensor) -> Tensor:
    out_data = np.maximum(x.data, 0.0)

    def backward(g: np.ndarray) -> None:
        x._accumulate(g * (x.data > 0), "relu")

    return Tensor._result(out_data, (x,), backward, "relu")


def sigmoid(x: Tensor) -> Tensor:
    # split by sign to avoid exp overflow
    d = x.data
    out_data = np.where(d >= 0, 1.0 / (1.0 + np.exp(-np.abs(d))), np.exp(-np.abs(d)) / (1.0 + np.exp(-np.abs(d))))
    out_data = out_data.astype(d.dtype, copy=False)

    def backward(g: np.ndarray, out=out_data) -> None:
        x._accumulate(g * out * (1.0 - out), "sigmoid")

    return Tensor._result(out_data, (x,), backward, "sigmoid")


def softmax_axis(x: Tensor, axis: int) -> Tensor:
    """Numerically stable softmax along ``axis``; slices sum to 1."""
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out_data = e / e.sum(axis=axis, keepdims=True)

    def backward(g: np.ndarray, out=out_data) -> None:
        inner = (g * out).sum(axis=axis, keepdims=True)
        x._accumulate((g - inner) * out, "softmax_axis")

    return Tensor._result(out_data, (x,), backward, "softmax_axis")


# ---------------------------------------------------------------------------
# affine / convolution / pooling
# ---------------------------------------------------------------------------


def affine(x: Tensor, weights: Tensor, bias: Tensor) -> Tensor:
    """out = x @ weights.T + bias for the rows of x: [B, in] -> [B, out]."""
    if weights.ndim != 2 or bias.ndim != 1 or weights.shape[0] != bias.shape[0]:
        raise ValueError(f"affine parameter shapes disagree: {weights.shape}, {bias.shape}")
    if x.ndim != 2 or x.shape[1] != weights.shape[1]:
        raise ValueError(f"affine input {x.shape} is not [B, {weights.shape[1]}] for weights {weights.shape}")
    out_data = x.data @ weights.data.T + bias.data

    def backward(g: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(g @ weights.data, "affine")
        if weights.requires_grad:
            weights._accumulate(g.T @ x.data, "affine")
        if bias.requires_grad:
            bias._accumulate(g.sum(axis=0), "affine")

    return Tensor._result(out_data, (x, weights, bias), backward, "affine")


def _taps(extent: int, stride: int, offset: int) -> slice:
    """The ``extent`` positions offset + i * stride, i = 0 .. extent - 1, as a slice."""
    return slice(offset, offset + (extent - 1) * stride + 1, stride)


def _im2col(x: np.ndarray, kh: int, kw: int, stride: int) -> np.ndarray:
    """Channel-major columns of ``x`` [N, C, H, W] for a valid kh x kw window, as one matrix.

    Returns ``cols`` [C*kh*kw, N*Ho*Wo]. Row (c, m, q) holds the cell at
    offset (m, q) of every window in channel c, ordered like a flattened
    [C_out, C, kh, kw] kernel's columns. Column n*Ho*Wo + i*Wo + j is window
    (i, j) of image n, so image n owns column block n, Ho*Wo columns wide.

    Rows lie an odd number of cache lines apart in memory: a GEMM over one
    column block reads down C*kh*kw rows, and at a power-of-two row stride
    (maps of 256 or 512 positions) those reads all fall in the same cache
    sets, which made the forward 1.5x slower at batch 128.
    """
    n, c, h, w = x.shape
    ho = (h - kh) // stride + 1
    wo = (w - kw) // stride + 1
    width = n * ho * wo
    line = max(1, 64 // x.itemsize)
    cols = np.empty((c * kh * kw, (-(-width // line) | 1) * line), dtype=x.dtype)[:, :width]
    win = np.lib.stride_tricks.sliding_window_view(x, (kh, kw), axis=(2, 3))[:, :, ::stride, ::stride]
    cols.reshape(c, kh, kw, n, ho, wo)[...] = win.transpose(1, 4, 5, 0, 2, 3)
    return cols


def _im2row(x: np.ndarray, kh: int, kw: int, stride: int) -> np.ndarray:
    """Position-major rows of ``x`` [N, C, H, W] for a valid kh x kw window: [N*Ho*Wo, C*kh*kw].

    Row n*Ho*Wo + i*Wo + j is window (i, j) of image n, its columns ordered
    (c, m, q) like a flattened [C_out, C, kh, kw] kernel's, so the copy runs
    kw cells at a time from both sides.
    """
    n, c, h, w = x.shape
    ho = (h - kh) // stride + 1
    wo = (w - kw) // stride + 1
    rows = np.empty((n * ho * wo, c * kh * kw), dtype=x.dtype)
    win = np.lib.stride_tricks.sliding_window_view(x, (kh, kw), axis=(2, 3))[:, :, ::stride, ::stride]
    rows.reshape(n, ho, wo, c, kh, kw)[...] = win.transpose(0, 2, 3, 1, 4, 5)
    return rows


def _col2im(gcols: np.ndarray, xshape: tuple, kh: int, kw: int, stride: int) -> np.ndarray:
    """Sum column gradients ``gcols`` [N, C*kh*kw, Ho*Wo], one block per image, back onto [N, C, H, W].

    Loops over the kernel offsets, so each input cell adds its terms in
    increasing kernel-offset order (m, q).
    """
    n, c, h, w = xshape
    ho = (h - kh) // stride + 1
    wo = (w - kw) // stride + 1
    g = gcols.reshape(n, c, kh, kw, ho, wo)
    gx = np.zeros(xshape, dtype=gcols.dtype)
    for m in range(kh):
        for q in range(kw):
            gx[..., _taps(ho, stride, m), _taps(wo, stride, q)] += g[:, :, m, q]
    return gx


# bytes of the source per block of a transposing copy: the block's rows stay in L1 while its columns are written
_TRANSPOSE_BLOCK_BYTES = 32 * 1024


def _transposed(a: np.ndarray) -> np.ndarray:
    """``a.T`` of a 2-D array as a new C-ordered array.

    Copies blocks of ``a``'s rows in turn: one pass over all of ``a`` per
    output row made capsnet conv2's [5184, 128] kernel gradient copy 4x
    slower (3.4 against 0.8 ms, float32).
    """
    out = np.empty(a.shape[::-1], dtype=a.dtype)
    step = max(1, _TRANSPOSE_BLOCK_BYTES // (a.shape[1] * a.itemsize))
    for r in range(0, len(a), step):
        out[:, r : r + step] = a[r : r + step].T
    return out


def _add_windows(gwin: np.ndarray, xshape: tuple, stride: int) -> np.ndarray:
    """Sum channels-last window gradients ``gwin`` [N, Ho, Wo, kh, kw, C] onto [N, C, H, W].

    Loops over the output positions, last to first, adding each position's
    whole [kh, kw*C] window at once, so each input cell adds its terms in
    increasing kernel-offset order, as ``_col2im`` does.
    """
    n, c, h, w = xshape
    _, ho, wo, kh, kw, _ = gwin.shape
    gwin = gwin.reshape(n, ho, wo, kh, kw * c)
    gx = np.zeros((n, h, w * c), dtype=gwin.dtype)
    for i in reversed(range(ho)):
        for j in reversed(range(wo)):
            gx[:, i * stride : i * stride + kh, j * stride * c : (j * stride + kw) * c] += gwin[:, i, j]
    return gx.reshape(n, h, w, c).transpose(0, 3, 1, 2)


def conv2d(x: Tensor, kernels: Tensor, bias: Tensor, stride: int = 1) -> Tensor:
    """Valid-mode 2-D cross-correlation summed over input channels, plus bias.

    ``x`` is [N, C_in, H, W]; kernels are [C_out, C_in, kh, kw]. The output is
    [N, C_out, Ho, Wo] with Ho = floor((H - kh) / stride) + 1 and likewise Wo.

    The layout of the unfolded input follows the kernel's offsets against the
    map's positions. When kh*kw > Ho*Wo (capsnet conv2), ``_im2row`` builds
    one position-major matrix [N*Ho*Wo, C*kh*kw] and the forward is one GEMM
    for the batch, ``rows @ kmat.T``. Otherwise ``_im2col`` builds one
    channel-major matrix [C*kh*kw, N*Ho*Wo] and the forward is one GEMM per
    image over its column block, all in one batched matmul. Either way each
    output is one image position's dot product over the same kernel row,
    summed in the same order whatever the other images hold, so an image's
    output and input gradient are bit-identical to a GEMM over that image
    alone, whatever its batch (the tests check this at every conv shape the
    models build).

    The kernel gradient is one GEMM over the unfolded input, summing the
    N*Ho*Wo (image, position) terms image-major. The input gradient runs one
    GEMM per image and sums the columns back in kernel-offset order
    (``_col2im``); on the position-major path it is instead one GEMM for the
    batch whose rows are channels-last windows, added position by position
    (``_add_windows``) in the same per-cell order.
    """
    if stride < 1:
        raise ValueError(f"conv2d stride must be >= 1, got {stride}")
    if x.ndim != 4:
        raise ValueError(f"conv2d input must be [N, C, H, W], got shape {x.shape}")
    cout, cin, kh, kw = kernels.shape
    n, c, h, w = x.shape
    if c != cin:
        raise ValueError(f"conv2d channels disagree: input {c}, kernels {cin}")
    if kh > h or kw > w:
        raise ValueError(f"conv2d kernel {kh}x{kw} larger than input {h}x{w}")
    if bias.shape != (cout,):
        raise ValueError(f"conv2d bias shape {bias.shape} != ({cout},)")

    ho = (h - kh) // stride + 1
    wo = (w - kw) // stride + 1
    p = ho * wo
    k = cin * kh * kw
    kmat = kernels.data.reshape(cout, k)
    by_position = kh * kw > p
    if by_position:
        rows = _im2row(x.data, kh, kw, stride)
        # With no more rows than C_out, two OpenBLAS threads split this GEMM so that they wait on
        # each other once per block of K; when both start on one core, each wait took a scheduler
        # tick (100 ms per capsnet conv2 call at batch 1, against 7 ms with zero rows added).
        padded = rows if n * p > cout else np.concatenate([rows, np.zeros((cout + 1 - n * p, k), rows.dtype)])
        res = (padded @ kmat.T)[: n * p].reshape(n, p, cout).transpose(0, 2, 1)
    else:
        cols = _im2col(x.data, kh, kw, stride)
        res = kmat @ cols.reshape(k, n, p).transpose(1, 0, 2)
    out = np.add(res, bias.data[:, None], order="C").reshape(n, cout, ho, wo)

    def backward(g: np.ndarray) -> None:
        gmat = g.reshape(n, cout, p)
        grows = gmat.transpose(0, 2, 1).reshape(n * p, cout)  # row n*P + position
        if kernels.requires_grad and by_position:
            kernels._accumulate((grows.T @ rows).reshape(kernels.shape), "conv2d")
        elif kernels.requires_grad:
            # [K, N*P] @ [N*P, C_out]: BLAS may run the transposed product, [C_out, N*P] @ [N*P, K],
            # through another kernel with another summation order when it is small (batch-3 stems)
            kernels._accumulate(_transposed(cols @ grows).reshape(kernels.shape), "conv2d")
        if bias.requires_grad:
            bias._accumulate(g.sum(axis=(0, 2, 3)), "conv2d")
        if x.requires_grad and by_position:
            # [N*P, C_out] @ [C_out, kh*kw*C] -> [N, Ho, Wo, kh, kw, C]
            gwin = grows @ kernels.data.transpose(0, 2, 3, 1).reshape(cout, k)
            x._accumulate(_add_windows(gwin.reshape(n, ho, wo, kh, kw, c), x.shape, stride), "conv2d")
        elif x.requires_grad:
            x._accumulate(_col2im(kmat.T @ gmat, x.shape, kh, kw, stride), "conv2d")

    return Tensor._result(out, (x, kernels, bias), backward, "conv2d")


def pad2d(x: Tensor, pad: tuple) -> Tensor:
    """Zero-pad the last two axes by (top, bottom, left, right)."""
    top, bottom, left, right = pad
    width = [(0, 0)] * (x.ndim - 2) + [(top, bottom), (left, right)]
    out_data = np.pad(x.data, width)
    sl = tuple([slice(None)] * (x.ndim - 2) + [slice(top, out_data.shape[-2] - bottom), slice(left, out_data.shape[-1] - right)])

    def backward(g: np.ndarray) -> None:
        x._accumulate(g[sl], "pad2d")

    return Tensor._result(out_data, (x,), backward, "pad2d")


def maxpool2d(x: Tensor, window: tuple, stride: int) -> Tensor:
    """Ceil-mode max pooling over [N, C, H, W].

    The input is zero-extended on the bottom/right so output extents are
    ceil(H / stride) x ceil(W / stride); window (i, j) covers rows
    i*stride .. i*stride + ph - 1 and columns j*stride .. j*stride + pw - 1
    of the extended input. Ties go to the first maximum in row-major window
    order. The gradient of an output flows to its window's winning cell only,
    summed where windows overlap; a zero-extension cell that wins passes
    none on.
    """
    if x.ndim != 4:
        raise ValueError(f"maxpool2d input must be [N, C, H, W], got shape {x.shape}")
    ph, pw = window
    n, c, h, w = x.shape
    ho = -(-h // stride)
    wo = -(-w // stride)
    hp = max((ho - 1) * stride + ph, h)
    wp = max((wo - 1) * stride + pw, w)
    xp = np.zeros((n, c, hp, wp), dtype=x.dtype)
    xp[:, :, :h, :w] = x.data
    # running maximum over the ph*pw taps, tap t = m * pw + q at window offset (m, q)
    out = xp[:, :, _taps(ho, stride, 0), _taps(wo, stride, 0)].copy()
    winner = np.zeros(out.shape, dtype=np.min_scalar_type(ph * pw - 1))
    better = np.empty(out.shape, dtype=bool)
    for t in range(1, ph * pw):
        tap = xp[:, :, _taps(ho, stride, t // pw), _taps(wo, stride, t % pw)]
        np.greater(tap, out, out=better)  # strict, so the first maximum keeps the window
        np.maximum(out, tap, out=out)
        np.maximum(winner, better * winner.dtype.type(t), out=winner)  # every earlier tap is < t

    def backward(g: np.ndarray) -> None:
        # flat index in the padded buffer of each window's winning cell
        tap_offset = (np.arange(ph)[:, None] * wp + np.arange(pw)).ravel()
        origin = np.arange(ho)[:, None] * (stride * wp) + np.arange(wo) * stride
        plane = np.arange(n * c).reshape(n, c, 1, 1) * (hp * wp)
        flat = (plane + origin + tap_offset[winner]).ravel()
        gxp = np.zeros(n * c * hp * wp, dtype=g.dtype)
        np.add.at(gxp, flat, g.ravel())
        x._accumulate(gxp.reshape(n, c, hp, wp)[:, :, :h, :w], "maxpool2d")

    return Tensor._result(out, (x,), backward, "maxpool2d")


# ---------------------------------------------------------------------------
# contractions / regularizers / losses
# ---------------------------------------------------------------------------


def einsum2(spec: str, a: Tensor, b: Tensor) -> Tensor:
    """Differentiable two-operand einsum.

    Restricted to specs where each operand's indices are distinct and every
    index appears in the other operand or the output, so gradients are again
    two-operand einsums.
    """
    lhs, out_idx = spec.replace(" ", "").split("->")
    sa, sb = lhs.split(",")
    for name, s, other in (("first", sa, sb), ("second", sb, sa)):
        if len(set(s)) != len(s):
            raise ValueError(f"einsum2 {name} operand repeats an index: {spec!r}")
        missing = set(s) - set(out_idx) - set(other)
        if missing:
            raise ValueError(f"einsum2 cannot differentiate {spec!r}: index {missing} summed from one side only")
    out_data = np.einsum(spec, a.data, b.data, optimize=True)

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(np.einsum(f"{out_idx},{sb}->{sa}", g, b.data, optimize=True), "einsum2")
        if b.requires_grad:
            b._accumulate(np.einsum(f"{out_idx},{sa}->{sb}", g, a.data, optimize=True), "einsum2")

    return Tensor._result(out_data, (a, b), backward, "einsum2")


def dropout(x: Tensor, keep_prob: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout: kept units scaled by 1/keep_prob so inference needs no rescale."""
    if not 0.0 < keep_prob <= 1.0:
        raise ValueError(f"dropout keep_prob must be in (0, 1], got {keep_prob}")
    if keep_prob == 1.0:
        return x
    mask = (rng.random(x.shape) < keep_prob).astype(x.data.dtype) / keep_prob

    def backward(g: np.ndarray) -> None:
        x._accumulate(g * mask, "dropout")

    return Tensor._result(x.data * mask, (x,), backward, "dropout")


def cross_entropy_logits(logits: Tensor, labels) -> Tensor:
    """Softmax cross-entropy of [B, K] logits against B int labels; scalar mean over the batch."""
    ld = logits.data
    lab = np.asarray(labels, dtype=np.int64)
    if ld.ndim != 2 or lab.shape != ld.shape[:1]:
        raise ValueError(f"cross_entropy_logits needs [B, K] logits and B labels, got {logits.shape} and labels {lab.shape}")
    shifted = ld - ld.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1)) + ld.max(axis=1)
    picked = ld[np.arange(ld.shape[0]), lab]
    out = np.asarray((lse - picked).mean(), dtype=ld.dtype)

    def backward(g: np.ndarray) -> None:
        p = np.exp(shifted)
        p /= p.sum(axis=1, keepdims=True)
        p[np.arange(ld.shape[0]), lab] -= 1.0
        p *= g / ld.shape[0]
        logits._accumulate(p, "cross_entropy_logits")

    return Tensor._result(out, (logits,), backward, "cross_entropy_logits")


# ---------------------------------------------------------------------------
# initialization
# ---------------------------------------------------------------------------


def truncated_normal(rng: np.random.Generator, shape: tuple, std: float = 0.1, dtype=np.float64) -> np.ndarray:
    """Normal(0, std) with draws beyond 2 std resampled."""
    out = rng.normal(0.0, std, size=shape)
    bad = np.abs(out) > 2.0 * std
    while bad.any():
        out[bad] = rng.normal(0.0, std, size=int(bad.sum()))
        bad = np.abs(out) > 2.0 * std
    return out.astype(dtype)


def parameter(shape, rng: Optional[np.random.Generator], dtype) -> Tensor:
    """A trainable tensor: truncated-normal (std 0.1) draws from ``rng``, or zeros without one."""
    if rng is not None:
        return Tensor(truncated_normal(rng, shape, std=0.1, dtype=dtype), requires_grad=True)
    # Zeros are finite, so they skip the NaN/Inf scan of Tensor(): it touched every page of the
    # array, and load_model, which replaces each zero-filled weight, spent a third of its time there.
    out = Tensor(np.zeros((), dtype=dtype), requires_grad=True)
    out.data = np.zeros(shape, dtype=dtype)
    return out


def image_batch(images, dtype, input_hw: tuple) -> np.ndarray:
    """Model input as a [B, H, W] ``dtype`` array.

    ``images`` is [B, H, W], uint8 (scaled to [0, 1]) or floats.
    """
    pixels = np.asarray(images)
    if pixels.ndim != 3 or pixels.shape[1:] != input_hw:
        raise ValueError(f"images {pixels.shape} are not a [B, H, W] batch of model input {input_hw}")
    if pixels.dtype == np.uint8:
        pixels = pixels.astype(dtype) / 255.0
    return pixels.astype(dtype, copy=False)
