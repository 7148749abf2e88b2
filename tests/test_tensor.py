"""Forward kernels and reverse-mode gradients of the tensor core."""

import functools
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capsroute import capsnet, cnn, tensor
from capsroute.tensor import (
    GraphError,
    NumericError,
    Tensor,
    affine,
    conv2d,
    cross_entropy_logits,
    dropout,
    einsum2,
    finite_checks_off,
    maxpool2d,
    no_grad,
    pad2d,
    relu,
    sigmoid,
    softmax_axis,
    sum_of_squares,
    truncated_normal,
)
from gradcheck import check_gradients


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


def conv2d_direct(x, k, b, stride):
    """Quadruple-loop direct summation of the convolution definition over one [H, W, C] image."""
    cout, kh, kw, cin = k.shape
    h, w, _ = x.shape
    ho = (h - kh) // stride + 1
    wo = (w - kw) // stride + 1
    out = np.zeros((ho, wo, cout))
    for o in range(cout):
        for i in range(ho):
            for j in range(wo):
                acc = 0.0
                for c in range(cin):
                    for m in range(kh):
                        for n in range(kw):
                            acc += x[i * stride + m, j * stride + n, c] * k[o, m, n, c]
                out[i, j, o] = acc + b[o]
    return out


def conv2d_grads_direct(x, k, g, stride):
    """Input and kernel gradients of conv2d over [N, H, W, C], summed output position by kernel offset."""
    _, kh, kw, _ = k.shape
    _, ho, wo, _ = g.shape
    gx = np.zeros_like(x)
    gk = np.zeros_like(k)
    for i in range(ho):
        for j in range(wo):
            for m in range(kh):
                for n in range(kw):
                    r, c = i * stride + m, j * stride + n
                    gx[:, r, c, :] += g[:, i, j, :] @ k[:, m, n, :]
                    gk[:, m, n, :] += g[:, i, j, :].T @ x[:, r, c, :]
    return gx, gk


def conv2d_gemm_oracles(x, k, b, g, stride):
    """conv2d's output, kernel gradient and input gradient over [N, H, W, C] by per-image GEMM formulas.

    Each image's window rows are in (m, q, c) column order, as are the
    columns of the kernel matrix ``kmat`` [C_out, kh*kw*C]. The output is one
    ``rows_i @ kmat.T`` GEMM per image plus the bias, the kernel gradient an
    einsum over (image, position) rows, and the input gradient one
    ``grows_i @ k[:, m, q, :]`` GEMM per image and kernel offset, added onto
    the input in kernel-offset order (m, q).
    """
    n, h, w, c = x.shape
    cout, kh, kw, _ = k.shape
    _, ho, wo, _ = g.shape
    kmat = k.reshape(cout, -1)
    win = np.lib.stride_tricks.sliding_window_view(x, (kh, kw), axis=(1, 2))[:, ::stride, ::stride]
    rows = win.transpose(0, 1, 2, 4, 5, 3).reshape(n, ho * wo, kh * kw * c)
    out = np.stack([r @ kmat.T + b for r in rows]).reshape(g.shape)
    grows = g.reshape(n, ho * wo, cout)
    gk = np.einsum("npo,npk->ok", grows, rows, optimize=True).reshape(k.shape)
    gx = np.zeros_like(x)
    for m in range(kh):
        for q in range(kw):
            tap = np.stack([gr @ k[:, m, q, :] for gr in grows]).reshape(n, ho, wo, c)
            gx[:, m : m + (ho - 1) * stride + 1 : stride, q : q + (wo - 1) * stride + 1 : stride] += tap
    return out, gk, gx


def maxpool2d_direct(x, window, stride, g):
    """Window-by-window ceil-mode max pooling and its input gradient for output gradient ``g``.

    Each window scans its cells in row-major order and keeps the first
    maximum; cells past the input's bottom/right edge read 0 and take no
    gradient.
    """
    batch, h, w, chans = x.shape
    ph, pw = window
    ho, wo = -(-h // stride), -(-w // stride)
    out = np.zeros((batch, ho, wo, chans), dtype=x.dtype)
    gx = np.zeros_like(x)
    for b in range(batch):
        for c in range(chans):
            for i in range(ho):
                for j in range(wo):
                    best = at = None
                    for m in range(ph):
                        for n in range(pw):
                            r, q = i * stride + m, j * stride + n
                            value = x[b, r, q, c] if r < h and q < w else 0.0
                            if best is None or value > best:
                                best, at = value, (r, q)
                    out[b, i, j, c] = best
                    if at[0] < h and at[1] < w:
                        gx[b, at[0], at[1], c] += g[b, i, j, c]
    return out, gx


def affine_direct(x, w, b):
    out = np.zeros(w.shape[0])
    for m in range(w.shape[0]):
        acc = 0.0
        for n in range(w.shape[1]):
            acc += w[m, n] * x[n]
        out[m] = acc + b[m]
    return out


# ---------------------------------------------------------------------------
# conv2d
# ---------------------------------------------------------------------------


class TestConv2d:
    def test_capsnet_stem_shape_32(self):
        """64 kernels 5x5 stride 2 on 32x32x1 give 64 feature maps of 14x14."""
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(32, 32, 1))[None])
        k = Tensor(rng.normal(size=(64, 5, 5, 1)))
        b = Tensor(np.zeros(64))
        assert conv2d(x, k, b, stride=2).shape == (1, 14, 14, 64)

    def test_capsnet_stem_shape_64(self):
        """The 64x32 input variant yields 30x14 feature maps."""
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(64, 32, 1))[None])
        k = Tensor(rng.normal(size=(64, 5, 5, 1)))
        b = Tensor(np.zeros(64))
        assert conv2d(x, k, b, stride=2).shape == (1, 30, 14, 64)

    def test_identity_kernel(self):
        rng = np.random.default_rng(1)
        x = Tensor(rng.normal(size=(6, 6, 1))[None])
        k = Tensor(np.ones((1, 1, 1, 1)))
        b = Tensor(np.zeros(1))
        out = conv2d(x, k, b, stride=1)
        np.testing.assert_array_equal(out.data, x.data)

    def test_matches_direct_summation(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(6, 6, 1))
        k = rng.normal(size=(1, 3, 3, 1))
        b = rng.normal(size=1)
        got = conv2d(Tensor(x[None]), Tensor(k), Tensor(b), stride=2)
        np.testing.assert_allclose(got.data[0], conv2d_direct(x, k, b, 2), rtol=1e-12)

    def test_matches_direct_summation_multichannel(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(7, 5, 3))
        k = rng.normal(size=(4, 3, 2, 3))
        b = rng.normal(size=4)
        got = conv2d(Tensor(x[None]), Tensor(k), Tensor(b), stride=1)
        np.testing.assert_allclose(got.data[0], conv2d_direct(x, k, b, 1), rtol=1e-12)

    def test_batched_matches_per_sample(self):
        rng = np.random.default_rng(4)
        xs = rng.normal(size=(3, 8, 8, 2))
        k = rng.normal(size=(5, 3, 3, 2))
        b = rng.normal(size=5)
        batched = conv2d(Tensor(xs), Tensor(k), Tensor(b), stride=2).data
        for i in range(3):
            single = conv2d(Tensor(xs[i : i + 1]), Tensor(k), Tensor(b), stride=2).data
            np.testing.assert_array_equal(batched[i], single[0])

    # (x shape, kernel shape, stride): Ho*Wo < kh*kw (the capsnet 9x9/s2 layer), then Ho*Wo > kh*kw
    GRAD_SHAPES = [((2, 14, 14, 2), (3, 9, 9, 2), 2), ((2, 7, 6, 3), (4, 3, 2, 3), 1)]

    @pytest.mark.parametrize("xshape,kshape,stride", GRAD_SHAPES)
    def test_gradients_match_direct_summation(self, xshape, kshape, stride):
        rng = np.random.default_rng(11)
        x = Tensor(rng.normal(size=xshape), requires_grad=True)
        k = Tensor(rng.normal(size=kshape), requires_grad=True)
        b = Tensor(rng.normal(size=kshape[0]), requires_grad=True)
        out = conv2d(x, k, b, stride=stride)
        g = rng.normal(size=out.shape)
        (out * Tensor(g)).sum().backward()
        gx, gk = conv2d_grads_direct(x.data, k.data, g, stride)
        np.testing.assert_allclose(x.grad, gx, rtol=1e-12)
        np.testing.assert_allclose(k.grad, gk, rtol=1e-12)
        np.testing.assert_allclose(b.grad, g.sum(axis=(0, 1, 2)), rtol=1e-12)

    @pytest.mark.parametrize("xshape,kshape,stride", GRAD_SHAPES)
    def test_batched_input_gradient_matches_per_sample(self, xshape, kshape, stride):
        rng = np.random.default_rng(12)
        xs = rng.normal(size=(3, *xshape[1:])).astype(np.float32)
        k = Tensor(rng.normal(size=kshape).astype(np.float32))
        b = Tensor(rng.normal(size=kshape[0]).astype(np.float32))

        def input_grad(images, g):
            x = Tensor(images, requires_grad=True)
            (conv2d(x, k, b, stride=stride) * Tensor(g)).sum().backward()
            return x.grad

        g = rng.normal(size=conv2d(Tensor(xs), k, b, stride=stride).shape).astype(np.float32)
        batched = input_grad(xs, g)
        for i in range(3):
            np.testing.assert_array_equal(batched[i], input_grad(xs[i : i + 1], g[i : i + 1])[0])

    @staticmethod
    @functools.cache
    def model_conv_shapes():
        """(input [H, W, C], kernel shape, stride) of every conv2d the capsnet and the CNN run at 32x32 and 64x32."""
        shapes = []

        def spy(x, kernels, bias, stride=1):
            shapes.append((x.shape[1:], kernels.shape, stride))
            return conv2d(x, kernels, bias, stride=stride)

        with mock.patch.object(capsnet, "conv2d", spy), mock.patch.object(cnn, "conv2d", spy):
            for hw in ((32, 32), (64, 32)):
                image = np.zeros((1, *hw), dtype=np.uint8)
                capsnet.capsnet_forward(image, capsnet.CapsNetParams.init(hw, np.random.default_rng(0), np.float32), [0])
                cnn.cnn_forward(image, cnn.CnnParams.init(hw, np.random.default_rng(0), np.float32))
        return shapes

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_batch_and_position_invariant_at_model_shapes(self, dtype):
        """Each image's output and input gradient equal its batch-of-one result exactly.

        Batches of 3 to 36 images, taken at two offsets, put each image at
        other rows of the unfolded batch, at every conv shape the models
        build.
        """
        shapes = self.model_conv_shapes()
        assert len(shapes) == 10
        rng = np.random.default_rng(15)
        sizes, offsets = (3, 8, 16, 32, 36), (0, 5)
        for xshape, kshape, stride in shapes:
            k = Tensor((rng.normal(size=kshape) / np.sqrt(np.prod(kshape[1:]))).astype(dtype))
            b = Tensor(rng.normal(size=kshape[0]).astype(dtype))
            (h, w, c), (cout, kh, kw, _) = xshape, kshape
            pool = rng.normal(size=(max(sizes) + max(offsets), h, w, c)).astype(dtype)
            gpool = rng.normal(size=(len(pool), (h - kh) // stride + 1, (w - kw) // stride + 1, cout)).astype(dtype)

            def run(lo, hi):
                x = Tensor(pool[lo:hi], requires_grad=True)
                out = conv2d(x, k, b, stride=stride)
                (out * Tensor(gpool[lo:hi])).sum().backward()
                return out.data, x.grad

            singles = [run(i, i + 1) for i in range(len(pool))]
            for size in sizes:
                for offset in offsets:
                    out, gx = run(offset, offset + size)
                    want = singles[offset : offset + size]
                    where = f"{xshape} {kshape}/s{stride}, batch {size} at offset {offset}"
                    np.testing.assert_array_equal(out, np.concatenate([o for o, _ in want]), err_msg=where)
                    np.testing.assert_array_equal(gx, np.concatenate([g for _, g in want]), err_msg=where)

    @staticmethod
    def assert_equal_gemm_oracles(xshape, kshape, stride, n, dtype, rng):
        """conv2d's output and gradients for a random batch of ``n`` images equal ``conv2d_gemm_oracles`` bit for bit."""
        (h, w, _), (cout, kh, kw, _) = xshape, kshape
        ho, wo = (h - kh) // stride + 1, (w - kw) // stride + 1
        kd = (rng.normal(size=kshape) / np.sqrt(np.prod(kshape[1:]))).astype(dtype)
        bd = rng.normal(size=cout).astype(dtype)
        xd = rng.normal(size=(n, *xshape)).astype(dtype)
        g = rng.normal(size=(n, ho, wo, cout)).astype(dtype)
        x, k = Tensor(xd, requires_grad=True), Tensor(kd, requires_grad=True)
        out = conv2d(x, k, Tensor(bd), stride=stride)
        (out * Tensor(g)).sum().backward()
        want_out, want_gk, want_gx = conv2d_gemm_oracles(xd, kd, bd, g, stride)
        where = f"{xshape} {kshape}/s{stride}, batch {n}"
        np.testing.assert_array_equal(out.data, want_out, err_msg=where)
        np.testing.assert_array_equal(k.grad, want_gk, err_msg=where)
        np.testing.assert_array_equal(x.grad, want_gx, err_msg=where)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_output_and_gradients_equal_gemm_oracles_at_model_shapes(self, dtype):
        """Output, kernel and input gradients equal, bit for bit, per-image reference formulas.

        A changed summation order in any of the three fails here, at batches
        3, 8 and 36. Capsnet conv2 has no more rows than kernels at batch 3,
        and at batch 8 on 32x32 inputs, so its rows are zero-padded there.
        """
        shapes = self.model_conv_shapes()
        assert len(shapes) == 10
        rng = np.random.default_rng(16)
        for xshape, kshape, stride in shapes:
            for n in (3, 8, 36):
                self.assert_equal_gemm_oracles(xshape, kshape, stride, n, dtype, rng)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_blocks_equal_gemm_oracles_at_model_shapes(self, dtype, monkeypatch):
        """Split into blocks, a batch's output and gradients still equal the per-image formulas.

        With ``UNFOLD_BYTES`` at two kernel rows of a 36-image unfold, the
        forward unfolds 72 // kh images at a time and the kernel gradient two
        kernel rows at a time, and the last block of each is partial. That
        holds at every multi-channel conv the models build; a single-channel
        stem's kernel gradient stays one GEMM.
        """
        n, rng = 36, np.random.default_rng(17)
        shapes = [shape for shape in self.model_conv_shapes() if shape[1][3] > 1]
        assert len(shapes) == 6
        for xshape, kshape, stride in shapes:
            (h, w, c), (_, kh, kw, _) = xshape, kshape
            p = ((h - kh) // stride + 1) * ((w - kw) // stride + 1)
            monkeypatch.setattr(tensor, "UNFOLD_BYTES", 2 * n * p * kw * c * np.dtype(dtype).itemsize)
            assert n % (2 * n // kh) and kh % 2, "the last image block and kernel-row group are partial"
            self.assert_equal_gemm_oracles(xshape, kshape, stride, n, dtype, rng)

    def test_recorded_forward_holds_no_unfold(self):
        """The unfolded rows die with the forward GEMM; backward unfolds the kept input again.

        Nor does the record copy the kernels, which it reads as a view: at
        capsnet conv2's shape the bytes it holds beyond the output stay under
        a tenth of the kernels' 2.65 MB.
        """
        rng = np.random.default_rng(6)
        # (x shape, kernel shape, stride, dtype, bytes of which a tenth bounds what is held beyond the output)
        cases = [
            ((8, 20, 20, 16), (4, 3, 3, 16), 1, np.float64, (8 * 18 * 18) * (3 * 3 * 16) * 8),  # the unfold
            ((32, 14, 14, 64), (128, 9, 9, 64), 2, np.float32, 128 * 9 * 9 * 64 * 4),  # the kernels
        ]
        for xshape, kshape, stride, dtype, bound_bytes in cases:
            x = Tensor(rng.normal(size=xshape).astype(dtype), requires_grad=True)
            k = Tensor(rng.normal(size=kshape).astype(dtype), requires_grad=True)
            b = Tensor(np.zeros(kshape[0], dtype), requires_grad=True)
            conv2d(x, k, b, stride=stride).sum().backward()  # sizes this thread's scratch for the unfold
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                out = conv2d(x, k, b, stride=stride)
                held = tracemalloc.get_traced_memory()[0] - before
            finally:
                tracemalloc.stop()
            assert out._backward_fn is not None
            # the first output is 1/36 of its unfold
            assert held - out.data.nbytes < bound_bytes / 10, f"{held} B held beyond a {out.data.nbytes} B output of {xshape} {kshape}"

    def test_shape_and_stride_errors(self):
        x = Tensor(np.zeros((1, 4, 4, 1)))
        k = Tensor(np.zeros((1, 5, 5, 1)))
        b = Tensor(np.zeros(1))
        with pytest.raises(ValueError):
            conv2d(x, k, b, stride=1)  # kernel larger than input
        with pytest.raises(ValueError):
            conv2d(x, Tensor(np.zeros((1, 2, 2, 2))), b, stride=1)  # channel mismatch
        with pytest.raises(ValueError):
            conv2d(x, Tensor(np.zeros((1, 1, 2, 2))), b, stride=0)

    def test_empty_batch(self):
        """A batch of no images, which splits into no blocks, gives empty outputs and input
        gradients, and zero kernel gradients, through the conv and the pool."""
        x = Tensor(np.zeros((0, 8, 8, 3)), requires_grad=True)
        k = Tensor(np.ones((4, 3, 3, 3)), requires_grad=True)
        out = maxpool2d(conv2d(x, k, Tensor(np.zeros(4)), stride=1), (2, 2), stride=2)
        out.sum().backward()
        assert out.shape == (0, 3, 3, 4) and x.grad.shape == x.shape
        np.testing.assert_array_equal(k.grad, np.zeros(k.shape))

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(9, 9, 2))[None]
        k = rng.normal(size=(3, 4, 4, 2))
        b = rng.normal(size=3)
        a = conv2d(Tensor(x), Tensor(k), Tensor(b), stride=2).data
        c = conv2d(Tensor(x), Tensor(k), Tensor(b), stride=2).data
        assert np.array_equal(a, c)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_output_shape_closed_form(self, data):
        h = data.draw(st.integers(1, 16))
        w = data.draw(st.integers(1, 16))
        kh = data.draw(st.integers(1, h))
        kw = data.draw(st.integers(1, w))
        stride = data.draw(st.integers(1, 3))
        cin = data.draw(st.integers(1, 3))
        cout = data.draw(st.integers(1, 3))
        out = conv2d(
            Tensor(np.zeros((1, h, w, cin))),
            Tensor(np.zeros((cout, kh, kw, cin))),
            Tensor(np.zeros(cout)),
            stride=stride,
        )
        assert out.shape == (1, (h - kh) // stride + 1, (w - kw) // stride + 1, cout)


# ---------------------------------------------------------------------------
# maxpool2d
# ---------------------------------------------------------------------------


class TestMaxpool2d:
    def test_two_by_two(self):
        out = maxpool2d(Tensor([[[[1.0], [3.0]], [[2.0], [4.0]]]]), (2, 2), stride=2)
        np.testing.assert_array_equal(out.data, [[[[4.0]]]])

    def test_zero_pad_ceil_shape(self):
        x = Tensor(np.random.default_rng(0).normal(size=(8, 4, 128))[None])
        out = maxpool2d(x, (4, 2), stride=2)
        assert out.shape == (1, 4, 2, 128)

    def test_constant_input(self):
        out = maxpool2d(Tensor(np.full((1, 6, 6, 2), 3.5)), (2, 2), stride=2)
        np.testing.assert_array_equal(out.data, np.full((1, 3, 3, 2), 3.5))

    # (input case, shape, window) at stride 2. Constant and post-ReLU inputs tie within windows,
    # so the first maximum must win; all-negative inputs with odd extents let a zero-extension
    # cell win, which must pass no gradient.
    CASES = [
        ("normal", (2, 8, 6, 3), (2, 2)),
        ("normal", (2, 7, 5, 3), (2, 2)),
        ("normal", (2, 9, 5, 3), (4, 2)),
        ("constant", (1, 7, 6, 2), (2, 2)),
        ("constant", (1, 9, 5, 2), (4, 2)),
        ("relu", (2, 8, 6, 3), (2, 2)),
        ("relu", (2, 9, 5, 3), (4, 2)),
        ("negative", (1, 7, 5, 2), (2, 2)),
        ("negative", (1, 9, 5, 2), (4, 2)),
    ]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("case,shape,window", CASES)
    def test_matches_direct_loop(self, case, shape, window, dtype):
        """Values and input gradient equal the window-by-window reference exactly."""
        self.assert_matches_direct_loop(case, shape, window, dtype)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("case,shape,window", CASES)
    def test_blocks_match_direct_loop(self, case, shape, window, dtype, monkeypatch):
        """With ``POOL_BYTES`` at two zero-extended images, a batch of 5 pools in blocks of 2, 2
        and 1, and its values and input gradient still equal the reference exactly."""
        _, h, w, c = shape
        hp = max((-(-h // 2) - 1) * 2 + window[0], h)
        wp = max((-(-w // 2) - 1) * 2 + window[1], w)
        monkeypatch.setattr(tensor, "POOL_BYTES", 2 * hp * wp * c * np.dtype(dtype).itemsize)
        self.assert_matches_direct_loop(case, (5, h, w, c), window, dtype)

    @staticmethod
    def assert_matches_direct_loop(case, shape, window, dtype):
        rng = np.random.default_rng(13)
        data = {
            "normal": rng.normal(size=shape),
            "constant": np.full(shape, 2.5),
            "relu": np.maximum(rng.normal(size=shape), 0.0),
            "negative": -np.abs(rng.normal(size=shape)) - 0.1,
        }[case].astype(dtype)
        x = Tensor(data, requires_grad=True)
        out = maxpool2d(x, window, stride=2)
        g = rng.normal(size=out.shape).astype(dtype)
        (out * Tensor(g)).sum().backward()
        want_out, want_gx = maxpool2d_direct(data, window, 2, g)
        assert out.data.dtype == x.grad.dtype == dtype
        np.testing.assert_array_equal(out.data, want_out)
        np.testing.assert_array_equal(x.grad, want_gx)
        if case == "negative":
            assert (out.data == 0.0).any()  # some window's max is a zero-extension cell

    @pytest.mark.parametrize("shape, window", [((2, 8, 6, 3), (2, 2)), ((2, 9, 5, 3), (4, 2))], ids=["no-extension", "extended"])
    def test_gradient_is_copied_out_of_the_scratch(self, shape, window):
        """Without zero extension, the [:, :h, :w] slice of the gradient buffer is all of it and
        contiguous; the gradient must still be a copy, which the next kernel cannot overwrite."""
        x = Tensor(np.random.default_rng(14).normal(size=shape), requires_grad=True)
        maxpool2d(x, window, stride=2).sum().backward()
        want = x.grad.copy()
        tensor._local.scratch[...] = 255  # all-ones bytes: NaN in every float
        assert not np.shares_memory(x.grad, tensor._local.scratch)
        np.testing.assert_array_equal(x.grad, want)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_zero_pad_shape_closed_form(self, data):
        h = data.draw(st.integers(1, 16))
        w = data.draw(st.integers(1, 16))
        ph = data.draw(st.integers(1, 5))
        pw = data.draw(st.integers(1, 5))
        stride = data.draw(st.integers(1, 4))
        out = maxpool2d(Tensor(np.zeros((1, h, w, 1))), (ph, pw), stride=stride)
        assert out.shape == (1, -(-h // stride), -(-w // stride), 1)


# ---------------------------------------------------------------------------
# affine / activations / softmax
# ---------------------------------------------------------------------------


class TestAffine:
    def test_identity(self):
        x = Tensor([[1.0, -2.0, 3.0]])
        out = affine(x, Tensor(np.eye(3)), Tensor(np.zeros(3)))
        np.testing.assert_array_equal(out.data, x.data)

    def test_hand_sum(self):
        out = affine(Tensor([[2.0, 3.0]]), Tensor([[1.0, 1.0]]), Tensor([0.0]))
        np.testing.assert_array_equal(out.data, [[5.0]])

    def test_matches_double_loop(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=4)
        w = rng.normal(size=(3, 4))
        b = rng.normal(size=3)
        got = affine(Tensor(x[None]), Tensor(w), Tensor(b))
        np.testing.assert_allclose(got.data[0], affine_direct(x, w, b), rtol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            affine(Tensor(np.zeros((1, 4))), Tensor(np.zeros((3, 5))), Tensor(np.zeros(3)))


class TestActivations:
    def test_relu_values(self):
        out = relu(Tensor([-2.0, 3.0]))
        np.testing.assert_array_equal(out.data, [0.0, 3.0])

    def test_sigmoid_center(self):
        assert sigmoid(Tensor([0.0])).data[0] == 0.5

    def test_sigmoid_symmetry(self):
        x = np.random.default_rng(7).uniform(-30, 30, size=100)
        total = sigmoid(Tensor(x)).data + sigmoid(Tensor(-x)).data
        np.testing.assert_allclose(total, 1.0, atol=1e-12)

    def test_sigmoid_no_overflow(self):
        out = sigmoid(Tensor([-1000.0, 1000.0]))
        assert out.data[0] == 0.0 and out.data[1] == 1.0


class TestSoftmax:
    def test_uniform(self):
        out = softmax_axis(Tensor([0.0, 0.0]), axis=0)
        np.testing.assert_allclose(out.data, [0.5, 0.5], atol=1e-15)

    def test_direct_exponentiation(self):
        b = np.array([np.log(2.0), 0.0])
        expected = np.exp(b) / np.exp(b).sum()
        out = softmax_axis(Tensor(b), axis=0)
        np.testing.assert_allclose(out.data, expected, rtol=1e-14)
        np.testing.assert_allclose(out.data, [2.0 / 3.0, 1.0 / 3.0], rtol=1e-14)

    def test_shift_invariance(self):
        rng = np.random.default_rng(8)
        b = rng.normal(size=(4, 5))
        a = softmax_axis(Tensor(b), axis=1).data
        c = softmax_axis(Tensor(b + 123.75), axis=1).data
        np.testing.assert_allclose(a, c, atol=1e-12)

    def test_rows_sum_to_one_and_positive(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            b = rng.normal(scale=50.0, size=(6, 3))
            out = softmax_axis(Tensor(b), axis=1).data
            assert (out > 0).all()
            np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)


# ---------------------------------------------------------------------------
# backward driver
# ---------------------------------------------------------------------------


class TestBackward:
    def test_sum_gives_ones(self):
        x = Tensor(np.random.default_rng(10).normal(size=(3, 4)), requires_grad=True)
        x.sum().backward()
        np.testing.assert_array_equal(x.grad, np.ones((3, 4)))

    def test_sum_of_squares(self):
        x = Tensor([3.0], requires_grad=True)
        x.square().sum().backward()
        np.testing.assert_allclose(x.grad, [6.0], rtol=1e-15)

    def test_backward_requires_recorded_scalar(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(GraphError):
            x.backward()  # leaf, nothing recorded
        with pytest.raises(GraphError):
            (x * 2.0).backward()  # non-scalar root

    def test_grad_accumulates_through_shared_node(self):
        x = Tensor([2.0], requires_grad=True)
        y = x * 3.0
        (y + y).sum().backward()
        np.testing.assert_allclose(x.grad, [6.0])
        assert y.grad is None and y._parents == ()  # consumed only after both contributions reached it

    @pytest.mark.parametrize("shared_first", [True, False])
    def test_shared_gradient_array_is_not_written_into(self, shared_first):
        """add hands one gradient array to both operands; a later gradient of one must not reach the other."""
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, 4.0], requires_grad=True)
        c = np.array([5.0, 7.0])
        shared = ((a + b) * c).sum()
        own = (a * 3.0).sum()
        (shared + own if shared_first else own + shared).backward()
        np.testing.assert_array_equal(a.grad, c + 3.0)
        np.testing.assert_array_equal(b.grad, c)
        assert shared.grad is None and own.grad is None

    def test_backward_consumes_interior_nodes(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        c = Tensor([3.0, 4.0])
        y = (x * c).square()
        root = y.sum()
        root.backward()
        assert y.grad is None and y._backward_fn is None and y._parents == ()
        assert root._backward_fn is None and root._parents == ()
        np.testing.assert_array_equal(root.grad, 1.0)
        np.testing.assert_array_equal(x.grad, 2.0 * x.data * c.data**2)
        assert c.grad is None

    def test_second_backward_on_a_consumed_graph_raises(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        root = (x * 3.0).sum()
        root.backward()
        with pytest.raises(GraphError, match="earlier backward consumed"):
            root.backward()
        np.testing.assert_array_equal(x.grad, [3.0, 3.0])  # the refused call added nothing

    def test_no_grad_builds_no_graph(self):
        x = Tensor([1.0], requires_grad=True)
        with no_grad():
            y = x * 2.0
        assert y._parents == () and not y.requires_grad


class TestNumericGuards:
    def test_leaf_rejects_nan(self):
        with pytest.raises(NumericError):
            Tensor([np.nan])

    def test_op_rejects_inf_result(self):
        with np.errstate(divide="ignore"):
            with pytest.raises(NumericError, match="div"):
                Tensor([1.0]) / Tensor([0.0])


class TestFiniteChecksOff:
    def test_ops_pass_non_finite_values_without_a_warning(self):
        with finite_checks_off():
            out = Tensor([1.0, 0.0]) / Tensor([0.0, 0.0])
        assert np.isinf(out.data[0]) and np.isnan(out.data[1])

    def test_checks_are_back_after_an_exception(self):
        with pytest.raises(ValueError):
            with finite_checks_off():
                raise ValueError("a forward that fails for another reason")
        with pytest.raises(NumericError):
            Tensor([np.nan])


# ---------------------------------------------------------------------------
# finite-difference checks, 100 random points per differentiable op
# ---------------------------------------------------------------------------


def _weighted_sum_loss(out: Tensor, rng: np.random.Generator) -> Tensor:
    w = Tensor(rng.normal(size=out.shape))
    return (out * w).sum()


def _check_op(build_loss, n_instances=5, coords=20, seed=0):
    """Run check_gradients over several random instances; >= 100 points total."""
    for i in range(n_instances):
        rng = np.random.default_rng((seed, i))
        loss_fn, params = build_loss(rng)
        check_gradients(loss_fn, params, rng, samples_per_param=coords, tol=1e-4)


class TestFiniteDifferences:
    def test_elementwise_chain(self):
        def build(rng):
            x = Tensor(rng.uniform(0.3, 1.5, size=(4, 5)), requires_grad=True)
            y = Tensor(rng.uniform(0.3, 1.5, size=(4, 5)), requires_grad=True)

            def loss():
                out = (x * y + x - y / (x + 2.0)).square().sqrt()
                return _weighted_sum_loss(out, np.random.default_rng(99))

            return loss, [("x", x), ("y", y)]

        _check_op(build)

    def test_broadcasting(self):
        def build(rng):
            x = Tensor(rng.normal(size=(4, 3, 5)), requires_grad=True)
            s = Tensor(rng.normal(size=(3, 1)), requires_grad=True)

            def loss():
                return _weighted_sum_loss(x * s + s, np.random.default_rng(98))

            return loss, [("x", x), ("s", s)]

        _check_op(build)

    def test_relu_away_from_kink(self):
        def build(rng):
            signs = rng.choice([-1.0, 1.0], size=(6, 6))
            x = Tensor(signs * rng.uniform(0.2, 1.5, size=(6, 6)), requires_grad=True)

            def loss():
                return _weighted_sum_loss(relu(x), np.random.default_rng(97))

            return loss, [("x", x)]

        _check_op(build)

    def test_sigmoid(self):
        def build(rng):
            x = Tensor(rng.normal(scale=2.0, size=(5, 4)), requires_grad=True)

            def loss():
                return _weighted_sum_loss(sigmoid(x), np.random.default_rng(96))

            return loss, [("x", x)]

        _check_op(build)

    def test_softmax(self):
        def build(rng):
            x = Tensor(rng.normal(size=(4, 6)), requires_grad=True)

            def loss():
                return _weighted_sum_loss(softmax_axis(x, axis=1), np.random.default_rng(95))

            return loss, [("x", x)]

        _check_op(build)

    def test_affine(self):
        def build(rng):
            x = Tensor(rng.normal(size=(1, 7)), requires_grad=True)
            w = Tensor(rng.normal(size=(4, 7)), requires_grad=True)
            b = Tensor(rng.normal(size=4), requires_grad=True)

            def loss():
                return _weighted_sum_loss(affine(x, w, b), np.random.default_rng(94))

            return loss, [("x", x), ("w", w), ("b", b)]

        _check_op(build)

    def test_affine_batched(self):
        def build(rng):
            x = Tensor(rng.normal(size=(3, 7)), requires_grad=True)
            w = Tensor(rng.normal(size=(4, 7)), requires_grad=True)
            b = Tensor(rng.normal(size=4), requires_grad=True)

            def loss():
                return _weighted_sum_loss(affine(x, w, b), np.random.default_rng(93))

            return loss, [("x", x), ("w", w), ("b", b)]

        _check_op(build)

    def test_conv2d(self):
        def build(rng):
            x = Tensor(rng.normal(size=(2, 7, 6, 2)), requires_grad=True)
            k = Tensor(rng.normal(size=(3, 3, 3, 2)), requires_grad=True)
            b = Tensor(rng.normal(size=3), requires_grad=True)

            def loss():
                return _weighted_sum_loss(conv2d(x, k, b, stride=2), np.random.default_rng(92))

            return loss, [("x", x), ("k", k), ("b", b)]

        _check_op(build)

    def test_pad2d(self):
        def build(rng):
            x = Tensor(rng.normal(size=(2, 4, 5, 2)), requires_grad=True)

            def loss():
                return _weighted_sum_loss(pad2d(x, (1, 1, 2, 1)), np.random.default_rng(91))

            return loss, [("x", x)]

        _check_op(build)

    def test_maxpool2d(self):
        def build(rng):
            x = Tensor(rng.normal(size=(1, 6, 6, 2)), requires_grad=True)

            def loss():
                out = maxpool2d(x, (2, 2), stride=2)
                return _weighted_sum_loss(out, np.random.default_rng(90))

            return loss, [("x", x)]

        _check_op(build)

    def test_maxpool2d_overlapping_window(self):
        def build(rng):
            x = Tensor(rng.normal(size=(1, 8, 4, 1)), requires_grad=True)

            def loss():
                out = maxpool2d(x, (4, 2), stride=2)
                return _weighted_sum_loss(out, np.random.default_rng(89))

            return loss, [("x", x)]

        _check_op(build)

    def test_einsum2(self):
        def build(rng):
            w = Tensor(rng.normal(size=(5, 2, 3, 4)), requires_grad=True)
            u = Tensor(rng.normal(size=(5, 4)), requires_grad=True)

            def loss():
                return _weighted_sum_loss(einsum2("pjdk,pk->pjd", w, u), np.random.default_rng(88))

            return loss, [("w", w), ("u", u)]

        _check_op(build)

    def test_dropout_fixed_mask(self):
        def build(rng):
            x = Tensor(rng.normal(size=(6, 6)), requires_grad=True)

            def loss():
                out = dropout(x, 0.5, np.random.default_rng(1234))
                return _weighted_sum_loss(out, np.random.default_rng(87))

            return loss, [("x", x)]

        _check_op(build)

    def test_cross_entropy(self):
        def build(rng):
            x = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
            labels = rng.integers(0, 2, size=4)

            def loss():
                return cross_entropy_logits(x, labels)

            return loss, [("x", x)]

        _check_op(build)

    def test_sum_of_squares(self):
        def build(rng):
            tensors = [Tensor(rng.normal(size=shape), requires_grad=True) for shape in ((3, 4), (5,), (2, 2, 3))]

            def loss():
                return sum_of_squares(tensors) * 0.7

            return loss, [(f"t{i}", t) for i, t in enumerate(tensors)]

        _check_op(build)

    def test_reshape_and_sum_axis(self):
        def build(rng):
            x = Tensor(rng.normal(size=(3, 4, 2)), requires_grad=True)

            def loss():
                out = x.reshape(3, 8).sum(axis=1, keepdims=True)
                return _weighted_sum_loss(out, np.random.default_rng(86))

            return loss, [("x", x)]

        _check_op(build)


# ---------------------------------------------------------------------------
# misc
# ---------------------------------------------------------------------------


class TestEinsum2Validation:
    def test_rejects_diagonal(self):
        with pytest.raises(ValueError):
            einsum2("pp,pk->pk", Tensor(np.zeros((2, 2))), Tensor(np.zeros((2, 3))))

    def test_rejects_lone_summed_index(self):
        with pytest.raises(ValueError):
            einsum2("pq,pk->pk", Tensor(np.zeros((2, 2))), Tensor(np.zeros((2, 3))))

    def test_matches_numpy(self):
        rng = np.random.default_rng(11)
        a = rng.normal(size=(4, 2, 3))
        b = rng.normal(size=(4, 3))
        got = einsum2("pjd,pd->pj", Tensor(a), Tensor(b)).data
        np.testing.assert_allclose(got, np.einsum("pjd,pd->pj", a, b), rtol=1e-13)


def rescanning_truncated_normal(rng, shape, std, dtype):
    """Redraw every out-of-range cell, rescanning the whole array each round."""
    out = rng.normal(0.0, std, size=shape)
    bad = np.abs(out) > 2.0 * std
    while bad.any():
        out[bad] = rng.normal(0.0, std, size=int(bad.sum()))
        bad = np.abs(out) > 2.0 * std
    return out.astype(dtype)


class TestTruncatedNormal:
    def test_bounds_and_determinism(self):
        a = truncated_normal(np.random.default_rng(42), (1000,), std=0.1)
        b = truncated_normal(np.random.default_rng(42), (1000,), std=0.1)
        assert np.array_equal(a, b)
        assert np.abs(a).max() <= 0.2

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(1,), (1000,), (64, 33), (3, 4, 5, 6), (512, 700)])
    def test_equals_full_rescan_oracle(self, shape, dtype):
        for seed in range(4):
            for std in (0.1, 0.5):
                got = truncated_normal(np.random.default_rng(seed), shape, std=std, dtype=dtype)
                want = rescanning_truncated_normal(np.random.default_rng(seed), shape, std, dtype)
                assert got.dtype == dtype and got.shape == shape
                assert np.array_equal(got, want)


class TestDropout:
    def test_keep_one_is_identity(self):
        x = Tensor(np.arange(4.0))
        assert dropout(x, 1.0, np.random.default_rng(0)) is x

    def test_inverted_scaling(self):
        x = Tensor(np.ones((100, 100)))
        out = dropout(x, 0.5, np.random.default_rng(0)).data
        assert set(np.unique(out)) == {0.0, 2.0}
        assert abs(out.mean() - 1.0) < 0.05
