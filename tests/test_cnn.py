"""CNN baseline: shape traces, loss arithmetic, defaults, gradients."""

import numpy as np
import pytest

from capsroute import cnn
from capsroute.cnn import CnnParams, cnn_forward, cnn_loss
from capsroute.config import TrainConfig
from gradcheck import check_gradients
from capsroute.mlp import MlpParams, mlp_forward
from capsroute.tensor import Tensor, conv2d, cross_entropy_logits, maxpool2d, pad2d, relu, tensor_fields


def logsumexp_ce_oracle(logits, label):
    m = logits.max()
    return float(m + np.log(np.exp(logits - m).sum()) - logits[label])


class TestShapes:
    def test_trace_32x32(self):
        params = CnnParams.init((32, 32), np.random.default_rng(0))
        assert params.pool_window == (2, 2)
        assert params.fc1_w.shape == (512, 128 * 4 * 4)
        logits = cnn_forward(np.zeros((1, 32, 32), dtype=np.uint8), params)
        assert logits.shape == (1, 2)

    def test_trace_64x32(self):
        params = CnnParams.init((64, 32), np.random.default_rng(1))
        assert params.pool_window == (4, 2)
        assert params.fc1_w.shape == (512, 128 * 8 * 4)
        logits = cnn_forward(np.zeros((1, 64, 32), dtype=np.uint8), params)
        assert logits.shape == (1, 2)

    def test_pooling_halves_every_block(self):
        # ceil-division with zero padding halves exactly for both input sizes
        for h, w, window in ((32, 32, (2, 2)), (64, 32, (4, 2))):
            x = Tensor(np.random.default_rng(2).normal(size=(h, w, 1))[None])
            for _ in range(3):
                x = maxpool2d(x, window, stride=2)
                h, w = -(-h // 2), -(-w // 2)
                assert x.shape == (1, h, w, 1)
        assert (h, w) == (8, 4) or (h, w) == (4, 4)

    def test_batched(self):
        params = CnnParams.init((32, 32), np.random.default_rng(3))
        logits = cnn_forward(np.zeros((5, 32, 32), dtype=np.uint8), params)
        assert logits.shape == (5, 2)

    def test_wrong_input_size(self):
        params = CnnParams.init((32, 32), np.random.default_rng(4))
        with pytest.raises(ValueError):
            cnn_forward(np.zeros((1, 64, 32), dtype=np.uint8), params)


class TestDropoutBehavior:
    def test_inference_is_deterministic(self):
        params = CnnParams.init((32, 32), np.random.default_rng(5))
        image = np.random.default_rng(6).integers(0, 256, size=(32, 32)).astype(np.uint8)[None]
        a = cnn_forward(image, params)
        b = cnn_forward(image, params)
        np.testing.assert_array_equal(a.data, b.data)

    def test_training_dropout_changes_output(self):
        params = CnnParams.init((32, 32), np.random.default_rng(8))
        image = np.random.default_rng(9).integers(0, 256, size=(32, 32)).astype(np.uint8)[None]
        a = cnn_forward(image, params, np.random.default_rng(1))
        b = cnn_forward(image, params, np.random.default_rng(2))
        assert not np.array_equal(a.data, b.data)


@pytest.fixture(scope="module")
def small_params():
    return CnnParams.init((32, 32), np.random.default_rng(10), filters=(2, 3, 4), fc_hidden=5)


class TestCnnLoss:
    def test_symmetric_logits_give_ln2_plus_l2(self, small_params):
        logits = Tensor(np.array([[1.7, 1.7]]))
        l2 = sum(float((w.data**2).sum()) for w in small_params.weight_tensors())
        loss = cnn_loss(logits, [0], small_params)
        np.testing.assert_allclose(loss.item(), np.log(2.0) + 0.001 * l2, rtol=1e-12)

    def test_matches_logsumexp_oracle(self, small_params):
        rng = np.random.default_rng(11)
        l2 = sum(float((w.data**2).sum()) for w in small_params.weight_tensors())
        for _ in range(20):
            logits = rng.normal(scale=3.0, size=2)
            label = int(rng.integers(0, 2))
            got = cnn_loss(Tensor(logits[None]), [label], small_params).item()
            want = logsumexp_ce_oracle(logits, label) + 0.001 * l2
            np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_l2_strictly_increasing_in_weight_magnitude(self, small_params):
        logits = Tensor(np.array([[0.3, -0.2]]))
        base = cnn_loss(logits, [0], small_params).item()
        bumped = CnnParams.init((32, 32), np.random.default_rng(10), filters=(2, 3, 4), fc_hidden=5)
        bumped.fc1_w.data = bumped.fc1_w.data * 2.0
        assert cnn_loss(logits, [0], bumped).item() > base

    def test_perfect_confidence_zero_weight_limit(self):
        params = CnnParams.init((32, 32), np.random.default_rng(12), filters=(2, 2, 2), fc_hidden=3)
        for _, p in tensor_fields(params):
            p.data = np.zeros_like(p.data)
        loss = cnn_loss(Tensor(np.array([[30.0, -30.0]])), [0], params).item()
        assert loss < 1e-12


class TestL2AsOneOp:
    """``cnn_loss``'s one-node L2 term against the ``w.square().sum()`` chain it replaced."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
    @pytest.mark.parametrize("hw", [(32, 32), (64, 32)], ids=["32x32", "64x32"])
    def test_loss_and_gradients_equal_the_square_sum_chain(self, hw, dtype):
        params = CnnParams.init(hw, np.random.default_rng(17), dtype=dtype)
        pixels = np.random.default_rng(18).integers(0, 256, size=(3, *hw), dtype=np.uint8)
        labels = [0, 1, 1]

        def chain_loss(logits):
            l2 = None
            for w in params.weight_tensors():
                term = w.square().sum()
                l2 = term if l2 is None else l2 + term
            return cross_entropy_logits(logits, labels) + cnn.L2_BETA * l2

        results = []
        for loss_fn in (chain_loss, lambda logits: cnn_loss(logits, labels, params)):
            for _, p in tensor_fields(params):
                p.zero_grad()
            loss = loss_fn(cnn_forward(pixels, params, np.random.default_rng(19)))
            loss.backward()
            results.append((loss.data, [p.grad for p in params.weight_tensors()]))
        (chain_value, chain_grads), (op_value, op_grads) = results
        np.testing.assert_array_equal(op_value, chain_value)
        assert np.asarray(op_value).dtype == dtype
        for chain_grad, op_grad in zip(chain_grads, op_grads):
            np.testing.assert_array_equal(op_grad, chain_grad)


class TestBlockOrder:
    """Pooling before the ReLU, as ``cnn._block`` does, against the ReLU-then-pool order."""

    @staticmethod
    def _both_orders(x, k, b, window):
        results = []
        for block in (lambda t: maxpool2d(relu(t), window, stride=2), lambda t: relu(maxpool2d(t, window, stride=2))):
            xt, kt, bt = (Tensor(a.copy(), requires_grad=True) for a in (x, k, b))
            out = block(conv2d(pad2d(xt, (1, 1, 1, 1)), kt, bt))
            weights = np.random.default_rng(20).normal(size=out.shape).astype(x.dtype)
            (out * Tensor(weights)).sum().backward()
            results.append((out.data, xt.grad, kt.grad, bt.grad))
        return results

    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
    @pytest.mark.parametrize("window", [(2, 2), (4, 2)], ids=["2x2", "4x2"])
    @pytest.mark.parametrize("maps", ["mixed", "ties", "all-negative"])
    def test_output_and_gradients_equal(self, maps, window, dtype):
        rng = np.random.default_rng(21)
        # odd extents, so the last row and column of windows hold zero-extension cells
        x = rng.normal(size=(2, 9, 7, 3))
        k = rng.normal(size=(4, 3, 3, 3))
        b = rng.normal(size=4)
        if maps == "ties":  # small integers: many equal maxima, at zero and above it
            x, k, b = np.round(x), np.round(k), np.zeros(4)
        elif maps == "all-negative":  # every window's maximum is a zero-extension cell or negative
            b = np.full(4, -1e3)
        relu_first, pool_first = self._both_orders(x.astype(dtype), k.astype(dtype), b.astype(dtype), window)
        if maps == "all-negative":
            assert not pool_first[0].any()
        else:
            assert pool_first[0].any() and not pool_first[0].all()
        for got, want in zip(pool_first, relu_first):
            np.testing.assert_array_equal(got, want)


class TestDefaults:
    def test_published_settings(self):
        cfg = TrainConfig(kind="cnn")
        assert cfg.epochs == 500
        assert cnn.DROPOUT_KEEP == 0.5
        assert cnn.L2_BETA == 0.001
        assert cfg.batch_size == 32
        assert cfg.learning_rate == 1e-3


class TestGradients:
    def test_reduced_clone_all_groups(self):
        rng = np.random.default_rng(13)
        params = CnnParams.init((8, 8), rng, filters=(2, 3, 4), fc_hidden=5)
        image = rng.uniform(size=(8, 8))[None]

        def loss_fn():
            logits = cnn_forward(image, params)
            return cnn_loss(logits, [1], params)

        worst = check_gradients(loss_fn, tensor_fields(params), rng, samples_per_param=10, tol=1e-4)
        assert max(worst.values()) < 1e-4


class TestMlp:
    def test_hidden_width_512(self):
        params = MlpParams.init((32, 32), np.random.default_rng(14))
        assert params.fc1_w.shape == (512, 1024)
        logits = mlp_forward(np.zeros((1, 32, 32), dtype=np.uint8), params)
        assert logits.shape == (1, 2)

    def test_batched(self):
        params = MlpParams.init((32, 32), np.random.default_rng(15))
        assert mlp_forward(np.zeros((3, 32, 32), dtype=np.uint8), params).shape == (3, 2)

    def test_gradients(self):
        rng = np.random.default_rng(16)
        params = MlpParams.init((6, 6), rng, hidden=4)
        image = rng.uniform(size=(6, 6))[None]

        def loss_fn():
            from capsroute.tensor import cross_entropy_logits

            return cross_entropy_logits(mlp_forward(image, params), [0])

        worst = check_gradients(loss_fn, tensor_fields(params), rng, samples_per_param=8, tol=1e-4)
        assert max(worst.values()) < 1e-4
