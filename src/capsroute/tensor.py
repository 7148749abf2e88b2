"""Dense tensors with recorded forward kernels and reverse-mode differentiation.

Every operation is pure: it allocates a fresh output tensor and, when gradients
are enabled, records a backward closure. A computation record is confined to
the thread that built it; parameter tensors may be shared read-only across
threads for inference.

``backward`` consumes the record it walks: once a node's closure has run, the
node drops its gradient, closure and parent links, so each activation and
interior gradient is freed as soon as the last closure that reads it has run.
Only the leaves' gradients (and the root's) outlive the call, and the same
root cannot be walked twice.

A kernel's full-size temporaries that die before it returns (conv2d's
unfolded rows and per-offset input-gradient block, maxpool2d's zero-extended
input and gradient, the L2 term's squares) live in one scratch buffer per
thread, grown to the largest request and freed when the thread exits.
conv2d and maxpool2d size their blocks to ``UNFOLD_BYTES`` and
``POOL_BYTES`` (a block holds at least one image or kernel row), so no
forward request grows with the batch; of the backward's, a single-channel
stem's unfold and the input-gradient block do. No view of it is ever
returned, stored as a tensor's data or gradient, or kept by a backward
closure, so the next kernel may overwrite it.

All kernels fail fast on NaN/Inf, naming the offending operation. Under
``finite_checks_off`` they skip that scan, and NumPy's floating-point
warnings are silenced, so the caller must check what it keeps: training
checks each step's loss and parameter gradients once, and reruns a failed
batch with the checks on to name the op.
"""

from __future__ import annotations

import dataclasses
import math
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
    "finite_checks_off",
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
    "sum_of_squares",
    "truncated_normal",
    "parameter",
    "tensor_fields",
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


@contextmanager
def finite_checks_off():
    """Skip every kernel's NaN/Inf scan, with NumPy's floating-point warnings off too."""
    prev = getattr(_local, "check_finite", True)
    _local.check_finite = False
    try:
        with np.errstate(all="ignore"):
            yield
    finally:
        _local.check_finite = prev


def _require_finite(arr: np.ndarray, op: str) -> None:
    if getattr(_local, "check_finite", True) and not np.isfinite(arr).all():
        raise NumericError(f"non-finite value produced by op '{op}'")


def _scratch(shape: tuple, dtype) -> np.ndarray:
    """An uninitialised ``shape`` array of ``dtype`` in this thread's scratch buffer.

    Valid only until the next ``_scratch`` call on this thread, which reuses
    the same memory: it may hold what a kernel needs during its own call, and
    nothing it returns or records.
    """
    dtype = np.dtype(dtype)
    nbytes = math.prod(shape) * dtype.itemsize
    if getattr(_local, "scratch", None) is None or _local.scratch.size < nbytes:
        _local.scratch = None  # freed before its replacement is allocated
        _local.scratch = np.empty(nbytes, dtype=np.uint8)
    return _local.scratch[:nbytes].view(dtype).reshape(shape)


# Bytes of input rows that conv2d unfolds for one GEMM. 8 MiB keeps capsnet conv2's 6 MB float32
# unfold at batch 32 whole; at 2 MiB a capsnet 32x32 float32 train step ran 7% slower (faster in 8
# of 50 alternating pairs), on a Xeon with 2 MiB of L2 per core and one BLAS thread.
UNFOLD_BYTES = 8 * 2**20

# Bytes of zero-extended input that maxpool2d works through at a time, half that Xeon's L2: with
# 8 MiB blocks, close to a whole batch of 32, a cnn 64x32 float32 train step ran 4% slower (faster
# in 7 of 40 alternating pairs).
POOL_BYTES = 2**20


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

    def _accumulate(self, grad: np.ndarray, op: str, fresh: bool = False) -> None:
        # ``grad`` may be shared (one array handed to both operands of an add,
        # a view of another gradient, a read-only broadcast), so it is written
        # into only when ``fresh``: the closure has just allocated it and keeps
        # no other reference, so a second term is summed in place rather than
        # into a third array. It is copied only when not C-contiguous: einsum2's
        # backward can hand back a transposed result, and Adam's elementwise
        # updates over a transposed gradient ran about 30% slower on capsnet.
        _require_finite(grad, op + ".backward")
        grad = np.asarray(grad, dtype=self.data.dtype, order="C")
        if self.grad is None:
            self.grad = grad
        elif fresh:
            self.grad = np.add(self.grad, grad, out=grad)
        else:
            self.grad = self.grad + grad

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
        """Fill ``grad`` slots of every reachable requires_grad tensor, consuming the record.

        The receiver must be the scalar root of a recorded computation. Each
        interior node gives up its ``grad``, closure and parents once its
        closure has run; leaves keep their gradients and the root its ones.
        A second call on the same root raises ``GraphError``.
        """
        if self.size != 1:
            raise GraphError(f"backward requires a scalar root, got shape {self.shape}")
        if not self._parents:
            if self.requires_grad and self._op != "leaf":
                raise GraphError("backward on a graph that an earlier backward consumed")
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
        # topo lists every parent before its children, so a popped node holds its
        # whole gradient; once its closure has run, nothing refers to the node
        # but its caller, and what only that closure read is freed with it
        while topo:
            node = topo.pop()
            if node._backward_fn is not None and node.grad is not None:
                node._backward_fn(node.grad)
            if node._parents:
                node._parents, node._backward_fn = (), None
                if node is not self:
                    node.grad = None


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
    e = np.exp(-np.abs(d))
    out_data = np.where(d >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
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
            x._accumulate(g @ weights.data, "affine", fresh=True)
        if weights.requires_grad:
            weights._accumulate(g.T @ x.data, "affine", fresh=True)
        if bias.requires_grad:
            bias._accumulate(g.sum(axis=0), "affine", fresh=True)

    return Tensor._result(out_data, (x, weights, bias), backward, "affine")


def _taps(extent: int, stride: int, offset: int) -> slice:
    """The ``extent`` positions offset + i * stride, i = 0 .. extent - 1, as a slice."""
    return slice(offset, offset + (extent - 1) * stride + 1, stride)


def _im2row(x: np.ndarray, kh: int, kw: int, stride: int, nrows: int, m0: int = 0, m1: Optional[int] = None) -> np.ndarray:
    """Rows of ``x`` [N, H, W, C] for kernel rows m0 .. m1 - 1 of a valid kh x kw window, in the scratch.

    The result is [nrows, (m1 - m0)*kw*C]. Row n*Ho*Wo + i*Wo + j is window
    (i, j) of image n, its columns ordered (m, q, c) by kernel offset (m, q),
    then channel, so each of a window's rows is copied as one run of kw*C
    cells. The rows past N*Ho*Wo are zero.
    """
    m1 = kh if m1 is None else m1
    n, h, w, c = x.shape
    ho = (h - kh) // stride + 1
    wo = (w - kw) // stride + 1
    rows = _scratch((nrows, (m1 - m0) * kw * c), x.dtype)
    win = np.lib.stride_tricks.sliding_window_view(x, (kh, kw), axis=(1, 2))[:, ::stride, ::stride, :, m0:m1]
    rows[: n * ho * wo].reshape(n, ho, wo, m1 - m0, kw, c)[...] = win.transpose(0, 1, 2, 4, 5, 3)
    rows[n * ho * wo :] = 0
    return rows


def conv2d(x: Tensor, kernels: Tensor, bias: Tensor, stride: int = 1) -> Tensor:
    """Valid-mode 2-D cross-correlation summed over input channels, plus bias.

    ``x`` is [N, H, W, C_in]; kernels are [C_out, kh, kw, C_in]. The output is
    [N, Ho, Wo, C_out] with Ho = floor((H - kh) / stride) + 1 and likewise Wo.

    ``_im2row`` unfolds the input into rows, one per (image, output position)
    and a column per (m, q, c) kernel cell. The kernels are stored in that
    order, so ``kmat`` [C_out, kh*kw*C_in] is a view of them. The forward
    unfolds as many images at a time as fit ``UNFOLD_BYTES`` (the whole batch
    when it fits) and writes each block's GEMM, ``rows @ kmat.T``, into its
    rows of the channels-last output. Each output is one row's dot product
    with one kernel row, summed in the same order whatever the other images
    hold, so an image's output and input gradient are bit-identical to those
    of a batch of one (the tests check this at every conv shape the models
    build).

    The rows live in the scratch and die with their GEMM. The backward
    unfolds the kept input again for the kernel gradient, ``grows.T @ rows``,
    summing the N*Ho*Wo (image, position) terms image-major; with more than
    one input channel it unfolds as many kernel rows m at a time as fit
    ``UNFOLD_BYTES`` and writes each group's GEMM into its columns of the
    gradient. The input gradient takes one GEMM per kernel offset,
    ``grows @ kernels[:, m, q, :]``, and adds each straight onto the input
    cells it read, so every cell sums its terms in kernel-offset order (m, q).
    """
    if stride < 1:
        raise ValueError(f"conv2d stride must be >= 1, got {stride}")
    if x.ndim != 4:
        raise ValueError(f"conv2d input must be [N, H, W, C], got shape {x.shape}")
    cout, kh, kw, cin = kernels.shape
    n, h, w, c = x.shape
    if c != cin:
        raise ValueError(f"conv2d channels disagree: input {c}, kernels {cin}")
    if kh > h or kw > w:
        raise ValueError(f"conv2d kernel {kh}x{kw} larger than input {h}x{w}")
    if bias.shape != (cout,):
        raise ValueError(f"conv2d bias shape {bias.shape} != ({cout},)")

    ho = (h - kh) // stride + 1
    wo = (w - kw) // stride + 1
    p = ho * wo
    kmat = kernels.data.reshape(cout, kh * kw * cin)
    cell_bytes = p * kw * cin * x.dtype.itemsize  # one image's unfold of one kernel row
    block = max(1, UNFOLD_BYTES // (kh * cell_bytes))  # images unfolded at a time
    last = (n - 1) // block * block  # the last block's first image
    # With no more rows than C_out, two OpenBLAS threads split a GEMM so that they wait on each
    # other once per block of K; when both start on one core, each wait took a scheduler tick
    # (100 ms per capsnet conv2 call at batch 1, against 7 ms with zero rows added). A block's
    # zero rows land on the next block's rows, which its own GEMM then writes.
    out = np.empty((max(n * p, last * p + cout + 1), cout), dtype=np.result_type(x.data, kmat))
    for i0 in range(0, n, block):
        i1 = min(i0 + block, n)
        rows = _im2row(x.data[i0:i1], kh, kw, stride, max((i1 - i0) * p, cout + 1))
        np.matmul(rows, kmat.T, out=out[i0 * p : i0 * p + len(rows)])
    out = out[: n * p]
    out += bias.data
    out = out.reshape(n, ho, wo, cout)

    def backward(g: np.ndarray) -> None:
        grows = g.reshape(n * p, cout)  # row n*P + position
        if kernels.requires_grad:
            # a single-channel stem's unfold stays whole: split by kernel row, its GEMMs
            # summed some cells in another order (batches 3 and 8 under a 256 KiB budget)
            group = kh if cin == 1 else max(1, UNFOLD_BYTES // (max(n, 1) * cell_bytes))
            gk = np.empty(kmat.shape, dtype=np.result_type(grows, x.data))
            for m0 in range(0, kh, group):
                m1 = min(m0 + group, kh)
                rows = _im2row(x.data, kh, kw, stride, n * p, m0, m1)
                np.matmul(grows.T, rows, out=gk[:, m0 * kw * cin : m1 * kw * cin])
            kernels._accumulate(gk.reshape(kernels.shape), "conv2d", fresh=True)
        if bias.requires_grad:
            bias._accumulate(grows.sum(axis=0), "conv2d", fresh=True)
        if x.requires_grad:
            gdtype = np.result_type(grows, kernels.data)
            gx = np.zeros(x.shape, dtype=gdtype)
            gtap = _scratch((n, ho, wo, cin), gdtype)
            for m in range(kh):
                for q in range(kw):
                    np.matmul(grows, kernels.data[:, m, q, :], out=gtap.reshape(n * p, cin))
                    gx[:, _taps(ho, stride, m), _taps(wo, stride, q)] += gtap
            x._accumulate(gx, "conv2d", fresh=True)

    return Tensor._result(out, (x, kernels, bias), backward, "conv2d")


def pad2d(x: Tensor, pad: tuple) -> Tensor:
    """Zero-pad the H and W axes of [N, H, W, C] by (top, bottom, left, right)."""
    top, bottom, left, right = pad
    _, h, w, _ = x.shape
    out_data = np.pad(x.data, [(0, 0), (top, bottom), (left, right), (0, 0)])

    def backward(g: np.ndarray) -> None:
        x._accumulate(g[:, top : top + h, left : left + w], "pad2d")

    return Tensor._result(out_data, (x,), backward, "pad2d")


def maxpool2d(x: Tensor, window: tuple, stride: int) -> Tensor:
    """Ceil-mode max pooling over the H and W axes of [N, H, W, C].

    The input is zero-extended on the bottom/right so output extents are
    ceil(H / stride) x ceil(W / stride); window (i, j) covers rows
    i*stride .. i*stride + ph - 1 and columns j*stride .. j*stride + pw - 1
    of the extended input. Ties go to the first maximum in row-major window
    order. The gradient of an output flows to its window's winning cell only,
    summed where windows overlap; a zero-extension cell that wins passes
    none on.

    Forward and backward work through as many images at a time as fit
    ``POOL_BYTES`` once extended, each block's extended input and gradient
    in the scratch. Windows of different images share no cell, so the
    blocks change no bit.
    """
    if x.ndim != 4:
        raise ValueError(f"maxpool2d input must be [N, H, W, C], got shape {x.shape}")
    ph, pw = window
    n, h, w, c = x.shape
    ho = -(-h // stride)
    wo = -(-w // stride)
    hp = max((ho - 1) * stride + ph, h)
    wp = max((wo - 1) * stride + pw, w)
    block = max(1, min(n, POOL_BYTES // (hp * wp * c * x.dtype.itemsize)))  # images at a time
    out = np.empty((n, ho, wo, c), dtype=x.dtype)
    winner = np.zeros(out.shape, dtype=np.min_scalar_type(ph * pw - 1))
    for i0 in range(0, n, block):
        xp = x.data[i0 : i0 + block]
        if (hp, wp) != (h, w):
            xp = _scratch((len(xp), hp, wp, c), x.dtype)
            xp[:, :h, :w] = x.data[i0 : i0 + block]
            xp[:, h:] = 0
            xp[:, :h, w:] = 0
        # running maximum over the ph*pw taps, tap t = m * pw + q at window offset (m, q)
        top, won = out[i0 : i0 + block], winner[i0 : i0 + block]
        top[...] = xp[:, _taps(ho, stride, 0), _taps(wo, stride, 0)]
        better = np.empty(top.shape, dtype=bool)
        for t in range(1, ph * pw):
            tap = xp[:, _taps(ho, stride, t // pw), _taps(wo, stride, t % pw)]
            np.greater(tap, top, out=better)  # strict, so the first maximum keeps the window
            np.maximum(top, tap, out=top)
            np.maximum(won, better * won.dtype.type(t), out=won)  # every earlier tap is < t

    def backward(g: np.ndarray) -> None:
        # flat index in a block's extended buffer of each window's winning cell: the winning tap's
        # offset, plus the window's origin and the channel, the same for every block
        index = np.int32 if block * hp * wp * c <= np.iinfo(np.int32).max else np.intp
        tap_offset = ((np.arange(ph, dtype=index)[:, None] * wp + np.arange(pw, dtype=index)) * c).ravel()
        origin = np.arange(block, dtype=index)[:, None, None] * (hp * wp) + np.arange(ho, dtype=index)[:, None] * (stride * wp)
        base = ((origin + np.arange(wo, dtype=index) * stride) * c)[..., None] + np.arange(c, dtype=index)
        gx = np.empty(x.shape, dtype=g.dtype)
        for i0 in range(0, n, block):
            gb = g[i0 : i0 + block]
            cell = tap_offset[winner[i0 : i0 + block]]
            cell += base[: len(gb)]
            gxp = _scratch((len(gb), hp, wp, c), g.dtype)
            gxp[...] = 0
            np.add.at(gxp.reshape(-1), cell.reshape(-1), gb.reshape(-1))
            gx[i0 : i0 + block] = gxp[:, :h, :w]
        x._accumulate(gx, "maxpool2d", fresh=True)

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


def sum_of_squares(tensors: Sequence[Tensor]) -> Tensor:
    """Scalar sum of every cell's square over ``tensors``, recorded as one node.

    Its value and gradients are bit for bit those of ``t.square().sum()``
    added up in order, without that chain's full-size interior nodes.
    """
    total = None
    for t in tensors:
        term = np.asarray(np.multiply(t.data, t.data, out=_scratch(t.shape, t.dtype)).sum())
        total = term if total is None else total + term

    def backward(g: np.ndarray) -> None:
        for t in tensors:
            if t.requires_grad:
                # square's backward computes (2 * w) * g; doubling is exact unless it overflows,
                # so w * (2 * g) rounds the same product once, in one pass
                t._accumulate(t.data * (2.0 * g), "sum_of_squares", fresh=True)

    return Tensor._result(np.asarray(total), tuple(tensors), backward, "sum_of_squares")


# ---------------------------------------------------------------------------
# initialization
# ---------------------------------------------------------------------------


def truncated_normal(rng: np.random.Generator, shape: tuple, std: float = 0.1, dtype=np.float64) -> np.ndarray:
    """Normal(0, std) with draws beyond 2 std resampled."""
    out = rng.normal(0.0, std, size=shape)
    flat = out.reshape(-1)
    # redraw in C order, then rescan only the redrawn cells
    idx = np.flatnonzero(np.abs(flat) > 2.0 * std)
    while idx.size:
        flat[idx] = rng.normal(0.0, std, size=idx.size)
        idx = idx[np.abs(flat[idx]) > 2.0 * std]
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


def tensor_fields(params) -> list[tuple[str, Tensor]]:
    """The ``Tensor`` fields of dataclass instance ``params`` as (name, tensor), in declaration order."""
    fields = ((f.name, getattr(params, f.name)) for f in dataclasses.fields(params))
    return [(name, value) for name, value in fields if isinstance(value, Tensor)]


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
