"""Adam update arithmetic."""

import copy
import math
import warnings

import numpy as np
import pytest

from capsroute import optim
from capsroute.capsnet import CapsNetParams
from capsroute.optim import CHUNK_BYTES, adam_init, adam_step
from capsroute.tensor import tensor_fields


class TestAdamStep:
    def test_zero_gradient_leaves_params_unchanged(self):
        params = [np.array([1.0, -2.0]), np.array([[3.0]])]
        before = [p.copy() for p in params]
        state = adam_init(params)
        new_params, new_state = adam_step(params, [np.zeros(2), np.zeros((1, 1))], state)
        for p, q in zip(before, new_params):
            np.testing.assert_array_equal(p, q)
        assert new_state.step_count == 1
        assert state.step_count == 0  # input state untouched

    def test_first_step_moment_recurrence(self):
        # hand recurrence: m=0.1, v=0.001, m_hat=1, v_hat=1 -> theta = 1 - lr/(1+eps)
        params = [np.array([1.0])]
        state = adam_init(params, lr=0.001)
        new_params, _ = adam_step(params, [np.array([1.0])], state)
        expected = 1.0 - 0.001 * 1.0 / (np.sqrt(1.0) + 1e-8)
        np.testing.assert_allclose(new_params[0], [expected], rtol=1e-15)
        assert abs(new_params[0][0] - (1.0 - 0.001)) < 1e-10

    def test_determinism_with_cloned_state(self):
        rng = np.random.default_rng(0)
        params = [rng.normal(size=(3, 4))]
        grads = [rng.normal(size=(3, 4))]
        state = adam_init(params)
        p1, s1 = adam_step(copy.deepcopy(params), grads, copy.deepcopy(state))
        p2, s2 = adam_step(copy.deepcopy(params), grads, copy.deepcopy(state))
        assert p1[0] is not p2[0]
        np.testing.assert_array_equal(p1[0], p2[0])
        np.testing.assert_array_equal(s1.first_moment[0], s2.first_moment[0])

    def test_step_count_strictly_increases(self):
        params = [np.array([0.5])]
        state = adam_init(params)
        for expected in (1, 2, 3):
            params, state = adam_step(params, [np.array([0.1])], state)
            assert state.step_count == expected

    def test_shape_mismatch(self):
        state = adam_init([np.zeros(2)])
        with pytest.raises(ValueError):
            adam_step([np.zeros(2)], [np.zeros(3)], state)

    def test_descends_a_quadratic(self):
        theta = [np.array([5.0])]
        state = adam_init(theta, lr=0.1)
        for _ in range(200):
            grad = [2.0 * theta[0]]
            theta, state = adam_step(theta, grad, state)
        assert abs(theta[0][0]) < 0.5


def _oracle_step(params, grads, state):
    """The unblocked update, one full-size expression per op: moment sums, bias correction in two scalars."""
    t = state.step_count + 1
    b1, b2 = optim.BETA1, optim.BETA2
    k = math.sqrt((1.0 - b2) / (1.0 - b2**t))
    alpha = state.lr * (1.0 - b1) / ((1.0 - b1**t) * k)
    eps = optim.EPS / k
    out, ms, vs = [], [], []
    for p, g, m, v in zip(params, grads, state.first_moment, state.second_moment):
        m, v = m.copy(), v.copy()
        m *= b1
        m += g
        v *= b2
        v += g * g
        out.append(p - alpha * (m / (np.sqrt(v) + eps)))
        ms.append(m)
        vs.append(v)
    return out, ms, vs


def _textbook_step(params, grads, m, v, t, lr):
    """Kingma & Ba's Algorithm 1 as printed, with m, v, m_hat and v_hat; returns new (params, m, v)."""
    b1, b2 = optim.BETA1, optim.BETA2
    m = [b1 * mi + (1.0 - b1) * g for mi, g in zip(m, grads)]
    v = [b2 * vi + (1.0 - b2) * g**2 for vi, g in zip(v, grads)]
    m_hat = [mi / (1.0 - b1**t) for mi in m]
    v_hat = [vi / (1.0 - b2**t) for vi in v]
    params = [p - lr * mh / (np.sqrt(vh) + optim.EPS) for p, mh, vh in zip(params, m_hat, v_hat)]
    return params, m, v


def _chunk_edge_shapes(dtype):
    k = CHUNK_BYTES // np.dtype(dtype).itemsize  # elements per chunk
    return [(), (k - 1,), (k // 64, 64), (k + 1, 1), (3 * k + 7,)]


def _capsnet_shapes(dtype):
    params = CapsNetParams.init((32, 32), np.random.default_rng(0), dtype=dtype)
    return [p.data.shape for _, p in tensor_fields(params)]


class TestBlockedAdamMatchesOracle:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shapes", [_chunk_edge_shapes, _capsnet_shapes], ids=["chunk-edges", "capsnet32"])
    def test_five_steps_bit_identical_and_updated_in_place(self, dtype, shapes):
        rng = np.random.default_rng(7)
        params = [rng.normal(size=s).astype(dtype) for s in shapes(dtype)]
        state = adam_init(params, lr=0.01)
        for step in range(5):
            grads = [(rng.normal(size=p.shape) * 10.0 ** rng.integers(-6, 3, size=p.shape)).astype(dtype) for p in params]
            grads_before = [g.copy() for g in grads]
            arrays = params + state.first_moment + state.second_moment
            want_p, want_m, want_v = _oracle_step(params, grads, state)
            new_params, new_state = adam_step(params, grads, state)
            got_arrays = new_params + new_state.first_moment + new_state.second_moment
            for got, want in zip(got_arrays, want_p + want_m + want_v):
                assert got.dtype == want.dtype and got.shape == want.shape
                np.testing.assert_array_equal(got.reshape(-1).view(np.uint8), want.reshape(-1).view(np.uint8))
            for before, after in zip(grads_before, grads):
                np.testing.assert_array_equal(before, after)
            assert len(got_arrays) == len(arrays) and all(got is a for got, a in zip(got_arrays, arrays))
            assert state.step_count == step and new_state.step_count == step + 1
            params, state = new_params, new_state

    def test_dtype_mismatch(self):
        state = adam_init([np.zeros(2, np.float32)])
        with pytest.raises(ValueError):
            adam_step([np.zeros(2, np.float32)], [np.zeros(2, np.float64)], state)


class TestItIsStillAdam:
    def test_200_steps_agree_with_algorithm_1(self):
        # float64, gradients from 1e-6 to 1e2: moment sums and folded scalars are Algorithm 1 up to rounding
        rng = np.random.default_rng(11)
        textbook = [rng.normal(size=s) for s in [(40, 25), (7,), (3, 5, 11)]]
        params = [p.copy() for p in textbook]
        state = adam_init(params, lr=0.01)
        m = [np.zeros_like(p) for p in params]
        v = [np.zeros_like(p) for p in params]
        for t in range(1, 201):
            grads = [rng.choice([-1.0, 1.0], size=p.shape) * 10.0 ** rng.uniform(-6, 2, size=p.shape) for p in params]
            textbook, m, v = _textbook_step(textbook, grads, m, v, t, lr=0.01)
            params, state = adam_step(params, grads, state)
        # relative to each array's largest cell: a cell that crossed zero has no relative error of its own
        pairs = [*zip(params, textbook), *((M * (1.0 - optim.BETA1), mi) for M, mi in zip(state.first_moment, m))]
        pairs += [(V * (1.0 - optim.BETA2), vi) for V, vi in zip(state.second_moment, v)]
        for got, want in pairs:
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @staticmethod
    def _second_moment_after(grad, steps):
        """V after ``steps`` updates with one constant float32 gradient, by then within 1e-5 of its limit."""
        params = [np.zeros(4, np.float32)]
        grads = [np.full(4, grad, np.float32)]
        state = adam_init(params)
        for _ in range(steps):
            params, state = adam_step(params, grads, state)
        return state.second_moment[0]

    def test_float32_gradient_just_under_the_bound_keeps_v_finite(self):
        # the docstring's bound, sqrt(max / (1 - BETA2)) = 5.83e17 in float32; V is 1000 g^2 at its limit
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            v = self._second_moment_after(5.8e17, 12_000)
        assert np.isfinite(v).all() and v[0] > 0.999 * 1000.0 * np.float32(5.8e17) ** 2

    def test_float32_gradient_over_the_bound_overflows_v(self):
        with pytest.warns(RuntimeWarning, match="overflow"):
            v = self._second_moment_after(5.9e17, 12_000)
        assert np.isinf(v).all()


class TestInPlaceContract:
    def _call_is_rejected(self, params, state):
        grads = [np.full_like(p, 0.5) for p in params]
        arrays = params + grads + state.first_moment + state.second_moment
        before = [a.copy() for a in arrays]
        with pytest.raises(ValueError, match="C-contiguous and writeable"):
            adam_step(params, grads, state)
        for b, a in zip(before, arrays):
            np.testing.assert_array_equal(b, a)
        assert state.step_count == 0

    def test_fortran_ordered_param_raises_and_changes_nothing(self):
        params = [np.arange(6.0).reshape(2, 3), np.asfortranarray(np.arange(12.0).reshape(3, 4))]
        state = adam_init(params)
        self._call_is_rejected(params, state)

    def test_read_only_second_moment_raises_and_changes_nothing(self):
        params = [np.arange(6.0).reshape(2, 3), np.arange(4.0)]
        state = adam_init(params)
        state.second_moment[1].flags.writeable = False
        self._call_is_rejected(params, state)

    def test_gradients_may_have_any_layout(self):
        params = [np.arange(12.0).reshape(3, 4)]
        grad = np.asfortranarray(np.linspace(-1.0, 1.0, 12).reshape(3, 4))
        grad.flags.writeable = False
        want_p, want_m, want_v = _oracle_step(params, [grad], adam_init(params))
        new_params, new_state = adam_step(params, [grad], adam_init(params))
        np.testing.assert_array_equal(new_params[0], want_p[0])
        np.testing.assert_array_equal(new_state.first_moment[0], want_m[0])
        np.testing.assert_array_equal(new_state.second_moment[0], want_v[0])
