"""Capsule primitives, routing-by-agreement, losses, and the full forward pass."""

import numpy as np
import pytest

from capsroute.capsnet import (
    CapsNetParams,
    capsnet_forward,
    capsule_lengths,
    classify,
    decode,
    decoder_input,
    dynamic_routing,
    margin_loss,
    primary_capsules,
    squash,
    total_loss,
    votes,
)
from gradcheck import check_gradients
from reduced import reduced_capsnet
from capsroute.tensor import Tensor, tensor_fields


# ---------------------------------------------------------------------------
# independent straight-line oracle for the routing equations
# ---------------------------------------------------------------------------


def squash_oracle(s):
    n2 = float((s**2).sum())
    n = np.sqrt(n2)
    return s * (n2 / ((1.0 + n2) * (n + 1e-9)))


def routing_oracle(u_hat, iterations):
    """Plain-loop evaluation of coupling softmax, weighted sum, squash, agreement."""
    p_count, j_count, d = u_hat.shape
    b = np.zeros((p_count, j_count))
    v = np.zeros((j_count, d))
    for _ in range(iterations):
        e = np.exp(b - b.max(axis=1, keepdims=True))
        c = e / e.sum(axis=1, keepdims=True)
        for j in range(j_count):
            s = np.zeros(d)
            for p in range(p_count):
                s += c[p, j] * u_hat[p, j]
            v[j] = squash_oracle(s)
        for p in range(p_count):
            for j in range(j_count):
                b[p, j] += float(u_hat[p, j] @ v[j])
    return v


# ---------------------------------------------------------------------------
# squash
# ---------------------------------------------------------------------------


class TestSquash:
    def test_zero_maps_to_zero(self):
        out = squash(Tensor(np.zeros(10)))
        np.testing.assert_array_equal(out.data, np.zeros(10))

    def test_unit_norm_halves(self):
        s = np.zeros(16)
        s[0] = 1.0
        out = squash(Tensor(s))
        np.testing.assert_allclose(np.linalg.norm(out.data), 0.5, rtol=1e-8)

    def test_long_vector_saturates_and_keeps_direction(self):
        rng = np.random.default_rng(0)
        s = rng.normal(size=8)
        s = 100.0 * s / np.linalg.norm(s)
        out = squash(Tensor(s)).data
        expected_len = 100.0**2 / (1 + 100.0**2)
        np.testing.assert_allclose(np.linalg.norm(out), expected_len, rtol=1e-6)
        cos = out @ s / (np.linalg.norm(out) * np.linalg.norm(s))
        np.testing.assert_allclose(cos, 1.0, rtol=1e-12)

    def test_matches_formula_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            s = rng.normal(scale=rng.uniform(0.01, 5.0), size=rng.integers(2, 12))
            np.testing.assert_allclose(squash(Tensor(s)).data, squash_oracle(s), rtol=1e-12)

    def test_norm_below_one(self):
        rng = np.random.default_rng(2)
        s = rng.normal(scale=50.0, size=(20, 16))
        lens = capsule_lengths(squash(Tensor(s)))
        assert (lens < 1.0).all()


# ---------------------------------------------------------------------------
# primary capsules / votes
# ---------------------------------------------------------------------------


class TestPrimaryCapsules:
    def test_72_capsules_for_3x3(self):
        conv_out = Tensor(np.random.default_rng(3).normal(size=(3, 3, 128))[None])
        u = primary_capsules(conv_out, 16)
        assert u.shape == (1, 72, 16)

    def test_264_capsules_for_11x3(self):
        conv_out = Tensor(np.random.default_rng(4).normal(size=(11, 3, 128))[None])
        u = primary_capsules(conv_out, 16)
        assert u.shape == (1, 264, 16)

    def test_all_norms_below_one(self):
        conv_out = Tensor(np.random.default_rng(5).normal(scale=10.0, size=(4, 4, 32))[None])
        u = primary_capsules(conv_out, 16)
        assert (capsule_lengths(u) < 1.0).all()

    def test_indivisible_channels_rejected(self):
        with pytest.raises(ValueError):
            primary_capsules(Tensor(np.zeros((1, 3, 3, 30))), 16)

    def test_channel_grouping_is_consecutive(self):
        # capsule type t at cell (i, j) reads channels [t*dim, (t+1)*dim)
        c, h, w, dim = 8, 2, 2, 4
        data = np.zeros((h, w, c))
        data[1, 0, 4:8] = [1.0, 2.0, 3.0, 4.0]  # type 1 at cell (1, 0)
        u = primary_capsules(Tensor(data[None]), dim).data[0]
        p = (1 * w + 0) * (c // dim) + 1  # cell-major, then type
        np.testing.assert_allclose(u[p], squash_oracle(np.array([1.0, 2.0, 3.0, 4.0])), rtol=1e-12)
        others = np.delete(u, p, axis=0)
        np.testing.assert_array_equal(others, np.zeros_like(others))


class TestVotes:
    def test_zero_weights_zero_votes(self):
        u = Tensor(np.random.default_rng(6).normal(size=(5, 4))[None])
        w = Tensor(np.zeros((5, 2, 3, 4)))
        np.testing.assert_array_equal(votes(u, w).data, np.zeros((1, 5, 2, 3)))

    def test_identity_padded_truncates(self):
        u_data = np.random.default_rng(7).normal(size=(3, 5))
        w = np.zeros((3, 2, 3, 5))
        w[:, :, :, :3] = np.eye(3)
        out = votes(Tensor(u_data[None]), Tensor(w)).data[0]
        for p in range(3):
            for j in range(2):
                np.testing.assert_allclose(out[p, j], u_data[p, :3], rtol=1e-15)

    def test_identity_padded_embeds(self):
        u_data = np.random.default_rng(8).normal(size=(2, 3))
        w = np.zeros((2, 2, 5, 3))
        w[:, :, :3, :] = np.eye(3)
        out = votes(Tensor(u_data[None]), Tensor(w)).data[0]
        for p in range(2):
            for j in range(2):
                np.testing.assert_allclose(out[p, j, :3], u_data[p], rtol=1e-15)
                np.testing.assert_array_equal(out[p, j, 3:], [0.0, 0.0])

    def test_matches_triple_loop(self):
        rng = np.random.default_rng(9)
        u = rng.normal(size=(6, 4))
        w = rng.normal(size=(6, 2, 3, 4))
        got = votes(Tensor(u[None]), Tensor(w)).data[0]
        for p in range(6):
            for j in range(2):
                want = np.zeros(3)
                for dd in range(3):
                    for k in range(4):
                        want[dd] += w[p, j, dd, k] * u[p, k]
                np.testing.assert_allclose(got[p, j], want, rtol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            votes(Tensor(np.zeros((1, 5, 4))), Tensor(np.zeros((5, 2, 3, 9))))


# ---------------------------------------------------------------------------
# dynamic routing
# ---------------------------------------------------------------------------


class TestDynamicRouting:
    def test_single_iteration_is_uniform_coupling(self):
        rng = np.random.default_rng(10)
        u_hat = rng.normal(size=(6, 2, 5))
        v = dynamic_routing(Tensor(u_hat[None]), iterations=1)
        for j in range(2):
            expected = squash_oracle(0.5 * u_hat[:, j, :].sum(axis=0))
            np.testing.assert_allclose(v.data[0, j], expected, rtol=1e-12)

    def test_identical_votes_symmetry(self):
        q = np.array([0.3, -0.2, 0.5])
        p_count = 8
        u_hat = np.tile(q, (p_count, 2, 1))
        v = dynamic_routing(Tensor(u_hat[None]), iterations=1)
        expected = squash_oracle((p_count / 2.0) * q)
        np.testing.assert_allclose(v.data[0, 0], expected, rtol=1e-12)
        np.testing.assert_allclose(v.data[0, 1], expected, rtol=1e-12)

    def test_matches_straight_line_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            p_count = int(rng.integers(1, 9))
            d = int(rng.integers(1, 5))
            u_hat = rng.normal(size=(p_count, 2, d))
            v = dynamic_routing(Tensor(u_hat[None]), iterations=5)
            np.testing.assert_allclose(v.data[0], routing_oracle(u_hat, 5), atol=1e-12, rtol=1e-12)

    def test_batched_matches_unbatched(self):
        rng = np.random.default_rng(13)
        u_hat = rng.normal(size=(3, 5, 2, 4))
        v_batch = dynamic_routing(Tensor(u_hat), iterations=5)
        for i in range(3):
            v_one = dynamic_routing(Tensor(u_hat[i : i + 1]), iterations=5)
            np.testing.assert_allclose(v_batch.data[i], v_one.data[0], rtol=1e-12, atol=1e-14)

    def test_zero_iterations_rejected(self):
        with pytest.raises(ValueError):
            dynamic_routing(Tensor(np.zeros((1, 3, 2, 4))), iterations=0)


# ---------------------------------------------------------------------------
# classification / losses
# ---------------------------------------------------------------------------


class TestClassify:
    def test_longer_capsule_wins(self):
        v = np.zeros((2, 10))
        v[1, 0] = 0.7
        probs, label = classify(v)
        assert label == 1
        np.testing.assert_allclose(probs, [0.0, 0.7])

    def test_tie_breaks_toward_alert(self):
        v = np.zeros((2, 10))
        v[0, 0] = 0.5
        v[1, 1] = 0.5
        _, label = classify(v)
        assert label == 0

    def test_lengths_below_one_after_squash(self):
        rng = np.random.default_rng(14)
        raw = squash(Tensor(rng.normal(scale=30.0, size=(2, 10))))
        probs, _ = classify(raw)
        assert (probs < 1.0).all()


class TestMarginLoss:
    def _v(self, len0, len1):
        v = np.zeros((2, 10))
        v[0, 0] = len0
        v[1, 0] = len1
        return Tensor(v[None])

    def test_inside_both_margins_is_zero(self):
        loss = margin_loss(self._v(0.95, 0.05), [0])
        np.testing.assert_allclose(loss.item(), 0.0, atol=1e-15)

    def test_all_zero_capsules(self):
        loss = margin_loss(self._v(0.0, 0.0), [0])
        np.testing.assert_allclose(loss.item(), 0.81, rtol=1e-10)

    def test_nonnegative(self):
        rng = np.random.default_rng(15)
        for _ in range(30):
            v = Tensor(rng.normal(size=(2, 10))[None])
            assert margin_loss(v, [int(rng.integers(0, 2))]).item() >= 0.0

    def test_batched_is_mean_of_singles(self):
        rng = np.random.default_rng(16)
        v = rng.normal(size=(3, 2, 10))
        labels = np.array([0, 1, 0])
        batched = margin_loss(Tensor(v), labels).item()
        singles = [margin_loss(Tensor(v[i : i + 1]), labels[i : i + 1]).item() for i in range(3)]
        np.testing.assert_allclose(batched, np.mean(singles), rtol=1e-12)


@pytest.fixture(scope="module")
def params():
    return CapsNetParams.init((32, 32), np.random.default_rng(17))


class TestDecoder:
    def test_masked_capsule_contributes_nothing(self, params):
        rng = np.random.default_rng(18)
        v1 = rng.normal(size=(2, 10))
        v2 = v1.copy()
        v2[1] = rng.normal(size=10)  # perturb the masked-out capsule
        mask = np.array([[1.0, 0.0]])
        out1 = decode(Tensor(v1[None]), mask, params).data
        out2 = decode(Tensor(v2[None]), mask, params).data
        np.testing.assert_array_equal(out1, out2)

    def test_output_length_matches_input_pixels(self):
        params64 = CapsNetParams.init((64, 32), np.random.default_rng(19))
        v = Tensor(np.random.default_rng(20).normal(size=(2, 10))[None])
        assert decode(v, np.array([[1.0, 0.0]]), params64).shape == (1, 2048)

    def test_zero_capsules_give_bias_path(self, params):
        out = decode(Tensor(np.zeros((1, 2, 10))), np.array([[1.0, 0.0]]), params).data
        # zero-initialized biases: every pixel is sigmoid(0) = 0.5
        np.testing.assert_allclose(out, 0.5, atol=1e-15)

    def test_decoder_input_is_masked_concatenation(self):
        v = Tensor(np.arange(20, dtype=np.float64).reshape(1, 2, 10))
        flat = decoder_input(v, np.array([[0.0, 1.0]])).data
        np.testing.assert_array_equal(flat[0, :10], np.zeros(10))
        np.testing.assert_array_equal(flat[0, 10:], np.arange(10, 20))


class TestTotalLoss:
    def test_perfect_reconstruction_leaves_margin(self):
        rng = np.random.default_rng(21)
        v = Tensor(rng.normal(scale=0.3, size=(2, 10))[None])
        image = rng.uniform(size=1024)[None]
        recon = Tensor(image.copy())
        total = total_loss(image, v, recon, [1]).item()
        np.testing.assert_allclose(total, margin_loss(v, [1]).item(), rtol=1e-12)

    def test_off_by_one_everywhere(self):
        v = Tensor(np.zeros((1, 2, 10)))
        image = np.zeros((1, 1024))
        recon = Tensor(np.ones((1, 1024)))
        total = total_loss(image, v, recon, [0]).item()
        np.testing.assert_allclose(total - margin_loss(v, [0]).item(), 0.0005 * 1024, rtol=1e-12)

    def test_total_at_least_margin(self):
        rng = np.random.default_rng(22)
        v = Tensor(rng.normal(size=(2, 10))[None])
        image = rng.uniform(size=64)[None]
        recon = Tensor(rng.uniform(size=64).clip(1e-3, 1 - 1e-3)[None])
        assert total_loss(image, v, recon, [0]).item() >= margin_loss(v, [0]).item()

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            total_loss(np.zeros((1, 100)), Tensor(np.zeros((1, 2, 10))), Tensor(np.zeros((1, 99)).clip(0.1, 0.9) + 0.5), [0])


# ---------------------------------------------------------------------------
# full forward
# ---------------------------------------------------------------------------


class TestForward:
    def test_shape_trace_32x32(self):
        params = CapsNetParams.init((32, 32), np.random.default_rng(23))
        assert params.conv1_w.shape == (64, 1, 5, 5)
        assert params.conv2_w.shape == (128, 64, 9, 9)
        assert params.num_primary == 72
        image = np.random.default_rng(24).integers(0, 256, size=(32, 32)).astype(np.uint8)
        v, reconstruction = capsnet_forward(image[None], params, [0])
        assert v.shape == (1, 2, 10)
        assert reconstruction.shape == (1, 1024)

    def test_shape_trace_64x32(self):
        params = CapsNetParams.init((64, 32), np.random.default_rng(25))
        assert params.num_primary == 264
        image = np.random.default_rng(26).integers(0, 256, size=(64, 32)).astype(np.uint8)
        v, reconstruction = capsnet_forward(image[None], params, [0])
        assert v.shape == (1, 2, 10)
        assert reconstruction.shape == (1, 2048)

    def test_deterministic(self):
        params = CapsNetParams.init((32, 32), np.random.default_rng(27))
        image = np.random.default_rng(28).integers(0, 256, size=(32, 32)).astype(np.uint8)[None]
        a_v, a_recon = capsnet_forward(image, params, [0])
        b_v, b_recon = capsnet_forward(image, params, [0])
        np.testing.assert_array_equal(a_v.data, b_v.data)
        np.testing.assert_array_equal(a_recon.data, b_recon.data)

    def test_batched_forward(self):
        params = CapsNetParams.init((32, 32), np.random.default_rng(29))
        images = np.random.default_rng(30).integers(0, 256, size=(4, 32, 32)).astype(np.uint8)
        v, reconstruction = capsnet_forward(images, params, np.array([0, 1, 0, 1]))
        assert v.shape == (4, 2, 10)
        assert reconstruction.shape == (4, 1024)
        assert classify(v)[1].shape == (4,)

    def test_train_mode_requires_labels(self):
        params = CapsNetParams.init((32, 32), np.random.default_rng(31))
        image = np.zeros((1, 32, 32), dtype=np.uint8)
        with pytest.raises(ValueError, match="one label per image"):
            capsnet_forward(image, params, [0, 1])

    def test_wrong_input_size(self):
        params = CapsNetParams.init((32, 32), np.random.default_rng(32))
        with pytest.raises(ValueError):
            capsnet_forward(np.zeros((1, 64, 32), dtype=np.uint8), params, [0])


# ---------------------------------------------------------------------------
# reduced-width full-model gradient check
# ---------------------------------------------------------------------------


class TestGradientsThroughRouting:
    def test_all_parameter_groups(self):
        rng = np.random.default_rng(33)
        params = reduced_capsnet((12, 12), rng)
        image = rng.uniform(size=(12, 12))[None]
        labels = np.array([1])

        def loss_fn():
            v, reconstruction = capsnet_forward(image, params, labels)
            return total_loss(image.reshape(1, -1), v, reconstruction, labels)

        worst = check_gradients(loss_fn, tensor_fields(params), rng, samples_per_param=10, tol=1e-4)
        assert max(worst.values()) < 1e-4
