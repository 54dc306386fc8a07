"""Tests of the autograd tape (``tape.py``): op correctness via numerical
gradient checks. The tape is the gradient oracle of the fused passes."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from tape import Tensor, check_gradients, concat, stack

from repro.errors import ModelError


def _t(rng, *shape):
    return Tensor(rng.normal(size=shape), requires_grad=True)


class TestBasicOps:
    def test_add_broadcast_gradcheck(self, rng):
        a = _t(rng, 3, 4)
        b = _t(rng, 4)
        check_gradients(lambda: (a + b).sum(), [a, b])

    def test_mul_gradcheck(self, rng):
        a, b = _t(rng, 2, 3), _t(rng, 2, 3)
        check_gradients(lambda: (a * b).sum(), [a, b])

    def test_div_gradcheck(self, rng):
        a = _t(rng, 2, 3)
        b = Tensor(rng.uniform(1.0, 2.0, size=(2, 3)), requires_grad=True)
        check_gradients(lambda: (a / b).sum(), [a, b])

    def test_pow_gradcheck(self, rng):
        a = Tensor(rng.uniform(0.5, 2.0, size=(3,)), requires_grad=True)
        check_gradients(lambda: (a**3).sum(), [a])

    def test_matmul_gradcheck(self, rng):
        a, b = _t(rng, 3, 4), _t(rng, 4, 2)
        check_gradients(lambda: (a @ b).sum(), [a, b])

    def test_matvec_gradcheck(self, rng):
        a, v = _t(rng, 3, 4), _t(rng, 4)
        check_gradients(lambda: (a @ v).sum(), [a, v])

    def test_dot_gradcheck(self, rng):
        a, b = _t(rng, 4), _t(rng, 4)
        check_gradients(lambda: a @ b, [a, b])

    def test_rsub_rdiv(self, rng):
        a = Tensor(rng.uniform(1.0, 2.0, size=(3,)), requires_grad=True)
        check_gradients(lambda: (1.0 - a).sum() + (1.0 / a).sum(), [a])

    def test_neg(self, rng):
        a = _t(rng, 3)
        check_gradients(lambda: (-a).sum(), [a])


class TestNonlinearities:
    @pytest.mark.parametrize("op", ["exp", "tanh", "sigmoid", "relu"])
    def test_elementwise_gradcheck(self, rng, op):
        a = _t(rng, 3, 3)
        check_gradients(lambda: getattr(a, op)().sum(), [a])

    def test_log_gradcheck(self, rng):
        a = Tensor(rng.uniform(0.5, 3.0, size=(4,)), requires_grad=True)
        check_gradients(lambda: a.log().sum(), [a])

    def test_sigmoid_extreme_values_stable(self):
        t = Tensor(np.array([-1000.0, 1000.0]))
        out = t.sigmoid().numpy()
        assert np.all(np.isfinite(out))
        assert out[0] < 1e-10 and out[1] > 1 - 1e-10

    def test_clip_gradient_masks_outside(self, rng):
        a = Tensor(np.array([-2.0, 0.0, 2.0]), requires_grad=True)
        a.clip(-1.0, 1.0).sum().backward()
        assert a.grad.tolist() == [0.0, 1.0, 0.0]

    def test_maximum_minimum_gradcheck(self, rng):
        a, b = _t(rng, 5), _t(rng, 5)
        check_gradients(lambda: a.maximum(b).sum() + a.minimum(b).sum(), [a, b])


class TestReductionsAndShapes:
    def test_sum_axis_keepdims(self, rng):
        a = _t(rng, 2, 3)
        check_gradients(lambda: (a.sum(axis=0, keepdims=True) ** 2).sum(), [a])

    def test_mean_gradcheck(self, rng):
        a = _t(rng, 4, 2)
        check_gradients(lambda: a.mean(), [a])

    def test_mean_axis_value(self, rng):
        a = Tensor(np.arange(6.0).reshape(2, 3))
        assert np.allclose(a.mean(axis=1).numpy(), [1.0, 4.0])

    def test_reshape_transpose_gradcheck(self, rng):
        a = _t(rng, 2, 6)
        check_gradients(lambda: (a.reshape(3, 4).T ** 2).sum(), [a])

    def test_gather_rows_gradcheck(self, rng):
        a = _t(rng, 5, 3)
        idx = np.array([0, 2, 2, 4])
        check_gradients(lambda: (a.gather_rows(idx) ** 2).sum(), [a])

    def test_gather_rows_repeated_accumulates(self):
        a = Tensor(np.ones((3, 2)), requires_grad=True)
        a.gather_rows(np.array([1, 1])).sum().backward()
        assert a.grad[1].tolist() == [2.0, 2.0]
        assert a.grad[0].tolist() == [0.0, 0.0]

    def test_select_columns_gradcheck(self, rng):
        a = _t(rng, 4, 3)
        idx = np.array([0, 1, 2, 1])
        check_gradients(lambda: (a.select_columns(idx) ** 2).sum(), [a])

    def test_select_columns_shape_validation(self, rng):
        a = _t(rng, 4, 3)
        with pytest.raises(ModelError):
            a.select_columns(np.array([0, 1]))

    def test_log_softmax_gradcheck(self, rng):
        a = _t(rng, 3, 4)
        check_gradients(lambda: (a.log_softmax() ** 2).sum(), [a])

    def test_softmax_sums_to_one(self, rng):
        a = _t(rng, 5, 3)
        probs = a.softmax().numpy()
        assert np.allclose(probs.sum(axis=1), 1.0)

    def test_concat_gradcheck(self, rng):
        a, b = _t(rng, 2, 3), _t(rng, 2, 2)
        check_gradients(lambda: (concat([a, b], axis=1) ** 2).sum(), [a, b])

    def test_stack_gradcheck(self, rng):
        a, b = _t(rng, 3), _t(rng, 3)
        check_gradients(lambda: (stack([a, b]) ** 2).sum(), [a, b])


class TestEngineSemantics:
    def test_backward_requires_scalar(self, rng):
        a = _t(rng, 3)
        with pytest.raises(ModelError):
            (a * 2).backward()

    def test_backward_with_seed_gradient(self, rng):
        a = _t(rng, 3)
        (a * 2).backward(np.ones(3))
        assert np.allclose(a.grad, 2.0)

    def test_grad_accumulates_across_backwards(self, rng):
        a = _t(rng, 2)
        (a.sum()).backward()
        (a.sum()).backward()
        assert np.allclose(a.grad, 2.0)

    def test_zero_grad(self, rng):
        a = _t(rng, 2)
        a.sum().backward()
        a.zero_grad()
        assert a.grad is None

    def test_detach_cuts_graph(self, rng):
        a = _t(rng, 2)
        (a.detach() * 3).sum().backward()
        assert a.grad is None

    def test_diamond_graph_gradient(self, rng):
        a = _t(rng, 3)
        b = a * 2
        check_gradients(lambda: (a * 2 + a * 3).sum(), [a])
        del b

    def test_item_on_non_scalar_raises(self, rng):
        with pytest.raises(ModelError):
            _t(rng, 2).item()

    @given(
        data=hnp.arrays(
            float,
            hnp.array_shapes(min_dims=1, max_dims=2, max_side=4),
            elements=st.floats(-3, 3),
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_tanh_identity_property(self, data):
        # tanh(x)^2 + sech(x)^2 == 1 surrogate: output bounded in (-1, 1)
        out = Tensor(data).tanh().numpy()
        assert np.all(np.abs(out) <= 1.0)

    @given(shape=st.tuples(st.integers(1, 4), st.integers(1, 4)))
    @settings(max_examples=20, deadline=None)
    def test_softmax_rows_normalized_property(self, shape):
        rng = np.random.default_rng(0)
        probs = Tensor(rng.normal(size=shape)).softmax(axis=-1).numpy()
        assert np.allclose(probs.sum(axis=-1), 1.0)
