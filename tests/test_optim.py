"""Adam update arithmetic."""

import copy

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
    """The unblocked update, one full-size expression per op."""
    t = state.step_count + 1
    b1, b2 = optim.BETA1, optim.BETA2
    out, ms, vs = [], [], []
    for p, g, m, v in zip(params, grads, state.first_moment, state.second_moment):
        m, v = m.copy(), v.copy()
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        m_hat = m / (1.0 - b1**t)
        v_hat = v / (1.0 - b2**t)
        out.append(p - state.lr * m_hat / (np.sqrt(v_hat) + optim.EPS))
        ms.append(m)
        vs.append(v)
    return out, ms, vs


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
