"""Autograd engine: op semantics and gradient correctness."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arn import tensor
from arn.tensor import (
    DegenerateRowError,
    DimensionError,
    RankError,
    Tensor,
)

from gradtools import check_grads, finite_diff


def rand(shape, seed=0):
    return np.random.default_rng(seed).standard_normal(shape)


class TestMatmul:
    def test_identity(self):
        x = rand((2, 2), 1)
        out = tensor.matmul(Tensor(np.eye(2)), Tensor(x))
        np.testing.assert_array_equal(out.data, x)

    def test_hand_product(self):
        a = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
        b = Tensor(np.array([[1.0], [1.0]]))
        np.testing.assert_array_equal((a @ b).data, [[3.0], [7.0]])

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            tensor.matmul(Tensor(rand((2, 3))), Tensor(rand((2, 3))))

    def test_gradients_match_finite_differences(self):
        a = Tensor(rand((5, 4), 2), requires_grad=True)
        b = Tensor(rand((4, 3), 3), requires_grad=True)
        w = rand((5, 3), 4)  # weighting makes the adjoints non-trivial

        loss = tensor.sum_all(tensor.mul(a @ b, Tensor(w)))
        tensor.backward(loss)

        def f():
            with tensor.no_grad():
                return tensor.sum_all(tensor.mul(a @ b, Tensor(w))).item()

        fd = finite_diff(f, [a.data, b.data])
        assert check_grads([a.grad, b.grad], fd) < 1e-6


class TestElementwise:
    def test_sigmoid_at_zero(self):
        assert tensor.sigmoid(Tensor(np.array(0.0))).item() == 0.5

    def test_tanh_and_gelu_at_zero(self):
        assert tensor.tanh(Tensor(np.array(0.0))).item() == 0.0
        assert tensor.gelu(Tensor(np.array(0.0))).item() == 0.0

    def test_gelu_at_one_matches_erf_oracle(self):
        phi_1 = 0.5 * (1.0 + math.erf(1.0 / math.sqrt(2.0)))
        got = tensor.gelu(Tensor(np.array(1.0))).item()
        assert got == pytest.approx(1.0 * phi_1, abs=1e-12)

    def test_sigmoid_extreme_inputs_saturate_cleanly(self):
        y = tensor.sigmoid(Tensor(np.array([-1000.0, 1000.0]))).data
        np.testing.assert_allclose(y, [0.0, 1.0])

    def test_row_broadcast_add(self):
        x = rand((3, 4), 5)
        b = rand(4, 6)
        out = Tensor(x) + Tensor(b)
        np.testing.assert_allclose(out.data, x + b)

    def test_broadcast_rejects_other_shapes(self):
        with pytest.raises(DimensionError):
            tensor.add(Tensor(rand((3, 4))), Tensor(rand((3, 1))))

    def test_row_broadcast_gradient_sums_over_rows(self):
        x = Tensor(rand((3, 4), 7), requires_grad=True)
        b = Tensor(rand(4, 8), requires_grad=True)
        w = rand((3, 4), 9)
        loss = tensor.sum_all(tensor.mul(x + b, Tensor(w)))
        tensor.backward(loss)

        def f():
            with tensor.no_grad():
                return tensor.sum_all(tensor.mul(x + b, Tensor(w))).item()

        fd = finite_diff(f, [x.data, b.data])
        assert check_grads([x.grad, b.grad], fd) < 1e-6

    @pytest.mark.parametrize("op", [tensor.sigmoid, tensor.tanh, tensor.gelu,
                                    tensor.absolute])
    def test_unary_gradients(self, op):
        x = Tensor(rand((4, 5), 11) + 0.1, requires_grad=True)  # keep |x| off 0
        w = rand((4, 5), 12)
        loss = tensor.sum_all(tensor.mul(op(x), Tensor(w)))
        tensor.backward(loss)

        def f():
            with tensor.no_grad():
                return tensor.sum_all(tensor.mul(op(x), Tensor(w))).item()

        assert check_grads([x.grad], finite_diff(f, [x.data])) < 1e-6


class TestSoftmaxRows:
    def test_uniform_row(self):
        out = tensor.softmax_rows(Tensor(np.zeros((1, 3))))
        np.testing.assert_allclose(out.data, [[1 / 3] * 3])

    def test_masked_entry_is_exactly_zero(self):
        for x in (-3.0, 0.0, 7.5):
            out = tensor.softmax_rows(Tensor(np.array([[x, -np.inf]])))
            np.testing.assert_array_equal(out.data, [[1.0, 0.0]])

    def test_direct_evaluation(self):
        row = np.array([1.0, 2.0, 3.0])
        expected = np.exp(row) / np.exp(row).sum()
        out = tensor.softmax_rows(Tensor(row[None, :]))
        np.testing.assert_allclose(out.data[0], expected, rtol=1e-12)
        np.testing.assert_allclose(out.data[0], [0.09003057, 0.24472847, 0.66524096],
                                   atol=1e-7)

    def test_all_masked_row_raises(self):
        with pytest.raises(DegenerateRowError):
            tensor.softmax_rows(Tensor(np.array([[-np.inf, -np.inf]])))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 2 ** 31 - 1))
    def test_rows_sum_to_one(self, t, n, seed):
        w = 5.0 * np.random.default_rng(seed).standard_normal((t, n))
        y = tensor.softmax_rows(Tensor(w)).data
        assert np.all(y >= 0.0) and np.all(y <= 1.0)
        np.testing.assert_allclose(y.sum(axis=1), np.ones(t), atol=1e-6)

    def test_gradient(self):
        w = Tensor(rand((4, 4), 13), requires_grad=True)
        c = rand((4, 4), 14)
        loss = tensor.sum_all(tensor.mul(tensor.softmax_rows(w), Tensor(c)))
        tensor.backward(loss)

        def f():
            with tensor.no_grad():
                return tensor.sum_all(
                    tensor.mul(tensor.softmax_rows(w), Tensor(c))).item()

        assert check_grads([w.grad], finite_diff(f, [w.data])) < 1e-6

    def test_masked_gradient_skips_future(self):
        w = Tensor(rand((3, 3), 15), requires_grad=True)
        c = rand((3, 3), 16)
        loss = tensor.sum_all(
            tensor.mul(tensor.softmax_rows(tensor.causal_mask(w)), Tensor(c)))
        tensor.backward(loss)

        def f():
            with tensor.no_grad():
                return tensor.sum_all(
                    tensor.mul(tensor.softmax_rows(tensor.causal_mask(w)),
                               Tensor(c))).item()

        assert check_grads([w.grad], finite_diff(f, [w.data])) < 1e-6
        # entries above the diagonal cannot influence the loss
        assert np.all(w.grad[np.triu_indices(3, 1)] == 0.0)


class TestBackward:
    def test_polynomial(self):
        x = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
        tensor.backward(tensor.sum_all(x * x))
        np.testing.assert_allclose(x.grad, 2.0 * x.data)

    def test_matmul_adjoint(self):
        a = Tensor(rand((3, 4), 17), requires_grad=True)
        b = Tensor(rand((4, 2), 18), requires_grad=True)
        tensor.backward(tensor.sum_all(a @ b))
        np.testing.assert_allclose(a.grad, np.ones((3, 2)) @ b.data.T)
        np.testing.assert_allclose(b.grad, a.data.T @ np.ones((3, 2)))

    def test_non_scalar_raises(self):
        x = Tensor(rand((2, 2)), requires_grad=True)
        with pytest.raises(RankError):
            tensor.backward(x + x)

    def test_no_graph_raises(self):
        with pytest.raises(ValueError):
            tensor.backward(Tensor(np.array(1.0)))

    def test_two_consumers_accumulate(self):
        # grad of f(x) + g(x) equals grad f + grad g from separate graphs
        base = rand(5, 19)
        a = rand(5, 20)
        b = rand(5, 21)

        x = Tensor(base.copy(), requires_grad=True)
        f = tensor.sum_all(tensor.mul(x, Tensor(a)))
        g = tensor.sum_all(tensor.mul(tensor.tanh(x), Tensor(b)))
        tensor.backward(f + g)
        combined = x.grad.copy()

        x1 = Tensor(base.copy(), requires_grad=True)
        tensor.backward(tensor.sum_all(tensor.mul(x1, Tensor(a))))
        x2 = Tensor(base.copy(), requires_grad=True)
        tensor.backward(tensor.sum_all(tensor.mul(tensor.tanh(x2), Tensor(b))))

        np.testing.assert_allclose(combined, x1.grad + x2.grad, rtol=1e-12)

    def test_diamond_graph(self):
        # y feeds both sides of a product: dx of (x+1)*(x+2)-ish wiring
        x = Tensor(np.array([[2.0]]), requires_grad=True)
        y = x + x          # 2x
        z = tensor.mul(y, x)  # 2x^2, dz/dx = 4x = 8
        tensor.backward(tensor.sum_all(z))
        assert x.grad[0, 0] == pytest.approx(8.0)


class TestStructuralOps:
    def test_concat_and_slice_roundtrip(self):
        a = rand((2, 3), 22)
        b = rand((4, 3), 23)
        cat = tensor.concat([Tensor(a), Tensor(b)], axis=0)
        np.testing.assert_array_equal(cat.data[2:6], b)
        cat1 = tensor.concat([Tensor(a), Tensor(a)], axis=1)
        np.testing.assert_array_equal(tensor.slice_cols(cat1, 3, 6).data, a)

    def test_flip_rows(self):
        a = rand((4, 2), 24)
        np.testing.assert_array_equal(tensor.flip_rows(Tensor(a)).data, a[::-1])

    @pytest.mark.parametrize("build", [
        lambda x: tensor.concat([x, tensor.flip_rows(x)], axis=0),
        lambda x: tensor.concat([x, x], axis=1),
        lambda x: tensor.reshape(x, (1, 12)),
        lambda x: tensor.slice_cols(x, 1, 3),
    ])
    def test_structural_gradients(self, build):
        x = Tensor(rand((4, 3), 25), requires_grad=True)
        shape = build(x).shape
        w = rand(shape, 26)
        loss = tensor.sum_all(tensor.mul(build(x), Tensor(w)))
        tensor.backward(loss)

        def f():
            with tensor.no_grad():
                return tensor.sum_all(tensor.mul(build(x), Tensor(w))).item()

        assert check_grads([x.grad], finite_diff(f, [x.data])) < 1e-6

    def test_frame_and_overlap_gradients(self):
        x = Tensor(rand(11, 27), requires_grad=True)
        w = rand(11, 28)

        def build(t):
            frames = tensor.frame_rows(t, 4, 2, 6)
            return tensor.overlap_add_rows(frames, 2, 11)

        loss = tensor.sum_all(tensor.mul(build(x), Tensor(w)))
        tensor.backward(loss)

        def f():
            with tensor.no_grad():
                return tensor.sum_all(tensor.mul(build(x), Tensor(w))).item()

        assert check_grads([x.grad], finite_diff(f, [x.data])) < 1e-6

    def test_layer_norm_gradients(self):
        x = Tensor(rand((3, 5), 29), requires_grad=True)
        gamma = Tensor(1.0 + 0.1 * rand(5, 30), requires_grad=True)
        beta = Tensor(0.1 * rand(5, 31), requires_grad=True)
        w = rand((3, 5), 32)

        def build():
            return tensor.sum_all(tensor.mul(
                tensor.layer_norm_rows(x, gamma, beta, 1e-5), Tensor(w)))

        tensor.backward(build())

        def f():
            with tensor.no_grad():
                return build().item()

        fd = finite_diff(f, [x.data, gamma.data, beta.data])
        assert check_grads([x.grad, gamma.grad, beta.grad], fd) < 1e-6


class TestDropout:
    def test_eval_mode_is_identity(self):
        x = Tensor(rand((3, 3), 33))
        assert tensor.dropout_apply(x, 0.5, "eval") is x

    def test_rate_zero_is_identity(self):
        x = Tensor(rand((3, 3), 34))
        rng = np.random.default_rng(0)
        assert tensor.dropout_apply(x, 0.0, "train", rng) is x

    def test_bad_rate_rejected(self):
        x = Tensor(rand((2, 2)))
        for rate in (-0.1, 1.0, 1.5):
            with pytest.raises(ValueError):
                tensor.dropout_apply(x, rate, "train", np.random.default_rng(0))

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            tensor.dropout_apply(Tensor(rand(3)), 0.1, "test")

    def test_inverted_scaling_preserves_mean(self):
        x = Tensor(np.ones((1000, 1000)))
        out = tensor.dropout_apply(x, 0.5, "train", np.random.default_rng(35))
        assert 0.99 <= out.data.mean() <= 1.01

    def test_gradient_with_fixed_mask(self):
        x = Tensor(rand((4, 6), 36), requires_grad=True)
        w = rand((4, 6), 37)

        def build():
            rng = np.random.default_rng(99)  # same mask every evaluation
            return tensor.sum_all(tensor.mul(
                tensor.dropout_apply(x, 0.3, "train", rng), Tensor(w)))

        tensor.backward(build())

        def f():
            with tensor.no_grad():
                return build().item()

        assert check_grads([x.grad], finite_diff(f, [x.data])) < 1e-6
