"""Autograd engine: op semantics and gradient correctness."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erf, erfc

from arn import losses, model, tensor
from arn.optim import AdamState, adam_step
from arn.tensor import (
    DimensionError,
    RankError,
    Tensor,
)

from gradtools import (
    DegenerateRowError,
    SMALL_TILE,
    TILE_STEPS,
    attention_block_graph,
    attention_graph,
    causal_mask,
    check_grads,
    concat,
    direction,
    dropout_apply,
    feedforward_graph,
    finite_diff,
    flip_rows,
    frame_rows_indexed,
    gelu,
    layer_norm_whole,
    lstm_sequence_graph,
    lstm_stepwise,
    overlap_add_rows_indexed,
    rfft_magnitude_graph,
    slice_cols,
    softmax_rows,
    split_gates,
    sum_all,
    traced_peak,
    value_gate_graph,
)
from test_model import attn_params


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

        loss = sum_all(tensor.mul(a @ b, Tensor(w)))
        tensor.backward(loss)

        def f():
            with tensor.no_grad():
                return sum_all(tensor.mul(a @ b, Tensor(w))).item()

        fd = finite_diff(f, [a.data, b.data])
        assert check_grads([a.grad, b.grad], fd) < 1e-6


class TestElementwise:
    def test_sigmoid_at_zero(self):
        assert tensor.sigmoid(Tensor(np.array(0.0))).item() == 0.5

    def test_tanh_and_gelu_at_zero(self):
        assert tensor.tanh(Tensor(np.array(0.0))).item() == 0.0
        assert gelu(Tensor(np.array(0.0))).item() == 0.0

    def test_gelu_at_one_matches_erf_oracle(self):
        phi_1 = 0.5 * (1.0 + math.erf(1.0 / math.sqrt(2.0)))
        got = gelu(Tensor(np.array(1.0))).item()
        assert got == pytest.approx(1.0 * phi_1, abs=1e-12)

    def test_sigmoid_matches_logistic_float64(self):
        x = np.linspace(-40.0, 40.0, 80001)
        got = tensor._sigmoid(x)
        assert np.abs(got - 1.0 / (1.0 + np.exp(-x))).max() <= 1e-15

    def test_sigmoid_matches_logistic_float32(self):
        x = np.linspace(-40.0, 40.0, 80001).astype(np.float32)
        got = tensor._sigmoid(x)
        assert got.dtype == np.float32
        want = 1.0 / (1.0 + np.exp(-x.astype(np.float64)))
        assert np.abs(got - want).max() <= 1.2e-7

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_sigmoid_exactly_half_at_zero(self, dtype):
        np.testing.assert_array_equal(tensor._sigmoid(np.array([0.0, -0.0], dtype=dtype)),
                                      [0.5, 0.5])

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
        # the row vector is broadcast only as the right operand
        for op in (tensor.add, tensor.sub, tensor.mul):
            for left in (rand(4), rand((1, 4))):
                with pytest.raises(DimensionError):
                    op(Tensor(left), Tensor(rand((3, 4))))

    def test_row_broadcast_gradient_sums_over_rows(self):
        x = Tensor(rand((3, 4), 7), requires_grad=True)
        b = Tensor(rand(4, 8), requires_grad=True)
        w = rand((3, 4), 9)
        loss = sum_all(tensor.mul(x + b, Tensor(w)))
        tensor.backward(loss)

        def f():
            with tensor.no_grad():
                return sum_all(tensor.mul(x + b, Tensor(w))).item()

        fd = finite_diff(f, [x.data, b.data])
        assert check_grads([x.grad, b.grad], fd) < 1e-6

    @pytest.mark.parametrize("op", [tensor.sigmoid, tensor.tanh, gelu,
                                    tensor.absolute])
    def test_unary_gradients(self, op):
        x = Tensor(rand((4, 5), 11) + 0.1, requires_grad=True)  # keep |x| off 0
        w = rand((4, 5), 12)
        loss = sum_all(tensor.mul(op(x), Tensor(w)))
        tensor.backward(loss)

        def f():
            with tensor.no_grad():
                return sum_all(tensor.mul(op(x), Tensor(w))).item()

        assert check_grads([x.grad], finite_diff(f, [x.data])) < 1e-6


class TestSoftmaxRows:
    def test_uniform_row(self):
        out = softmax_rows(Tensor(np.zeros((1, 3))))
        np.testing.assert_allclose(out.data, [[1 / 3] * 3])

    def test_masked_entry_is_exactly_zero(self):
        for x in (-3.0, 0.0, 7.5):
            out = softmax_rows(Tensor(np.array([[x, -np.inf]])))
            np.testing.assert_array_equal(out.data, [[1.0, 0.0]])

    def test_direct_evaluation(self):
        row = np.array([1.0, 2.0, 3.0])
        expected = np.exp(row) / np.exp(row).sum()
        out = softmax_rows(Tensor(row[None, :]))
        np.testing.assert_allclose(out.data[0], expected, rtol=1e-12)
        np.testing.assert_allclose(out.data[0], [0.09003057, 0.24472847, 0.66524096],
                                   atol=1e-7)

    def test_all_masked_row_raises(self):
        with pytest.raises(DegenerateRowError):
            softmax_rows(Tensor(np.array([[-np.inf, -np.inf]])))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 2 ** 31 - 1))
    def test_rows_sum_to_one(self, t, n, seed):
        w = 5.0 * np.random.default_rng(seed).standard_normal((t, n))
        y = softmax_rows(Tensor(w)).data
        assert np.all(y >= 0.0) and np.all(y <= 1.0)
        np.testing.assert_allclose(y.sum(axis=1), np.ones(t), atol=1e-6)

    def test_gradient(self):
        w = Tensor(rand((4, 4), 13), requires_grad=True)
        c = rand((4, 4), 14)
        loss = sum_all(tensor.mul(softmax_rows(w), Tensor(c)))
        tensor.backward(loss)

        def f():
            with tensor.no_grad():
                return sum_all(
                    tensor.mul(softmax_rows(w), Tensor(c))).item()

        assert check_grads([w.grad], finite_diff(f, [w.data])) < 1e-6

    def test_masked_gradient_skips_future(self):
        w = Tensor(rand((3, 3), 15), requires_grad=True)
        c = rand((3, 3), 16)
        loss = sum_all(
            tensor.mul(softmax_rows(causal_mask(w)), Tensor(c)))
        tensor.backward(loss)

        def f():
            with tensor.no_grad():
                return sum_all(
                    tensor.mul(softmax_rows(causal_mask(w)),
                               Tensor(c))).item()

        assert check_grads([w.grad], finite_diff(f, [w.data])) < 1e-6
        # entries above the diagonal cannot influence the loss
        assert np.all(w.grad[np.triu_indices(3, 1)] == 0.0)


class TestBackward:
    def test_polynomial(self):
        x = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
        tensor.backward(sum_all(x * x))
        np.testing.assert_allclose(x.grad, 2.0 * x.data)

    def test_matmul_adjoint(self):
        a = Tensor(rand((3, 4), 17), requires_grad=True)
        b = Tensor(rand((4, 2), 18), requires_grad=True)
        tensor.backward(sum_all(a @ b))
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
        f = sum_all(tensor.mul(x, Tensor(a)))
        g = sum_all(tensor.mul(tensor.tanh(x), Tensor(b)))
        tensor.backward(f + g)
        combined = x.grad.copy()

        x1 = Tensor(base.copy(), requires_grad=True)
        tensor.backward(sum_all(tensor.mul(x1, Tensor(a))))
        x2 = Tensor(base.copy(), requires_grad=True)
        tensor.backward(sum_all(tensor.mul(tensor.tanh(x2), Tensor(b))))

        np.testing.assert_allclose(combined, x1.grad + x2.grad, rtol=1e-12)

    def test_swept_subgraph_cannot_be_swept_again(self):
        # y = tanh(x * w) feeds two losses; were the second pass run on the
        # kept intermediate gradients, x.grad would reach 5x the first
        # pass's gradient where 3x is right
        x = Tensor(rand(4, 22), requires_grad=True)
        w = Tensor(rand(4, 23), requires_grad=True)
        y = tensor.tanh(tensor.mul(x, w))
        first = sum_all(y)
        tensor.backward(first)
        gx, gw = x.grad.copy(), w.grad.copy()
        np.testing.assert_allclose(gx, (1 - y.data ** 2) * w.data, rtol=1e-12)
        for again in (sum_all(tensor.scale(y, 2.0)), first):
            with pytest.raises(RuntimeError, match="swept once"):
                tensor.backward(again)
            np.testing.assert_array_equal(x.grad, gx)
            np.testing.assert_array_equal(w.grad, gw)
        assert y.grad is None and first.grad is None

    def test_diamond_graph(self):
        # y feeds both sides of a product: dx of (x+1)*(x+2)-ish wiring
        x = Tensor(np.array([[2.0]]), requires_grad=True)
        y = x + x          # 2x
        z = tensor.mul(y, x)  # 2x^2, dz/dx = 4x = 8
        tensor.backward(sum_all(z))
        assert x.grad[0, 0] == pytest.approx(8.0)


def _acc_into_zeros(self, g, fresh=False):
    """``Tensor._acc`` as it was before adoption: every first gradient is
    added into new zeros."""
    if self.grad is None:
        self.grad = np.zeros_like(self.data)
    self.grad += g


class TestGradientAdoption:
    """A tensor adopts a first gradient that its op made for it alone, and
    keeps every bit that adding it into zeros gives."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_adopted_bits_equal_zeros_then_add(self, dtype):
        tiny, big = np.finfo(dtype).smallest_subnormal, np.finfo(dtype).max
        g = np.array([[-0.0, 0.0, 1.5, -2.25], [tiny, -tiny, big, -np.inf]], dtype)
        expected = np.zeros_like(g) + g
        assert not np.signbit(expected[0, 0])
        t = Tensor(np.ones_like(g), requires_grad=True)
        first = g.copy()
        t._acc(first, fresh=True)
        assert t.grad is first
        assert t.grad.tobytes() == expected.tobytes()
        second = g[::-1].copy()
        t._acc(second, fresh=True)
        assert t.grad is first and second.tobytes() == g[::-1].tobytes()
        assert t.grad.tobytes() == (expected + g[::-1]).tobytes()

    @pytest.mark.parametrize("g", [np.full((2, 3), -0.0), np.full(3, -0.0, np.float32)],
                             ids=["other_dtype", "broadcast"])
    def test_mismatched_gradient_added_into_zeros(self, g):
        t = Tensor(np.ones((2, 3), np.float32), requires_grad=True)
        t._acc(g, fresh=True)
        assert t.grad is not g and t.grad.dtype == np.float32 and t.grad.shape == (2, 3)
        assert t.grad.tobytes() == np.zeros((2, 3), np.float32).tobytes()

    def test_passed_through_gradients_not_adopted(self):
        # add hands one gradient to both operands, and mean_all a read-only
        # broadcast view: each operand gets an array of its own
        a, b = (Tensor(rand((3, 4), seed), requires_grad=True) for seed in (24, 25))
        out = tensor.add(a, b)
        g = rand((3, 4), 26)
        out.grad = g
        out._backward()
        assert a.grad is not g and b.grad is not g and a.grad is not b.grad
        x = Tensor(rand((3, 4), 27), requires_grad=True)
        tensor.backward(tensor.mean_all(x))
        assert x.grad.flags.writeable and x.grad.flags.owndata

    @pytest.mark.parametrize("causal, loss", [(True, "pcm"), (False, "mse")])
    def test_model_gradients_and_moments_bitwise(self, monkeypatch, causal, loss):
        # one recorded step with dropout, then one with every first gradient
        # added into zeros: the same gradients, moments and weights
        cfg = model.ARNConfig(width=16, frame_in=16, frame_out=8, shift=4, num_blocks=2,
                              causal=causal, dropout=0.1)
        rng = np.random.default_rng(28)
        x, s = rng.standard_normal(200), rng.standard_normal(200)

        def step():
            params = model.init_params(cfg, np.random.default_rng(29), np.float32)
            adam = AdamState.for_params(params)
            out = model.arn_forward(x, params, cfg, rng=np.random.default_rng(30))
            tensor.backward(losses.LOSS_FNS[loss](x, s, out))
            grads = {k: p.grad.tobytes() for k, p in params.items()}
            adam_step(params, adam, 1e-3)
            return grads, [{k: a.tobytes() for k, a in arrays.items()}
                            for arrays in (adam.m, adam.v, {k: p.data for k, p in params.items()})]

        adopted = step()
        monkeypatch.setattr(Tensor, "_acc", _acc_into_zeros)
        assert step() == adopted


class TestStructuralOps:
    def test_concat_and_slice_roundtrip(self):
        a = rand((2, 3), 22)
        b = rand((4, 3), 23)
        cat = concat([Tensor(a), Tensor(b)], axis=0)
        np.testing.assert_array_equal(cat.data[2:6], b)
        cat1 = concat([Tensor(a), Tensor(a)], axis=1)
        np.testing.assert_array_equal(slice_cols(cat1, 3, 6).data, a)

    def test_flip_rows(self):
        a = rand((4, 2), 24)
        np.testing.assert_array_equal(flip_rows(Tensor(a)).data, a[::-1])

    @pytest.mark.parametrize("build", [
        lambda x: concat([x, flip_rows(x)], axis=0),
        lambda x: concat([x, x], axis=1),
        lambda x: tensor.reshape(x, (1, 12)),
        lambda x: slice_cols(x, 1, 3),
    ])
    def test_structural_gradients(self, build):
        x = Tensor(rand((4, 3), 25), requires_grad=True)
        shape = build(x).shape
        w = rand(shape, 26)
        loss = sum_all(tensor.mul(build(x), Tensor(w)))
        tensor.backward(loss)

        def f():
            with tensor.no_grad():
                return sum_all(tensor.mul(build(x), Tensor(w))).item()

        assert check_grads([x.grad], finite_diff(f, [x.data])) < 1e-6

    def test_frame_and_overlap_gradients(self):
        x = Tensor(rand(11, 27), requires_grad=True)
        w = rand(11, 28)

        def build(t):
            frames = tensor.frame_rows(t, 4, 2)
            return tensor.overlap_add_rows(frames, 2, 11)

        loss = sum_all(tensor.mul(build(x), Tensor(w)))
        tensor.backward(loss)

        def f():
            with tensor.no_grad():
                return sum_all(tensor.mul(build(x), Tensor(w))).item()

        assert check_grads([x.grad], finite_diff(f, [x.data])) < 1e-6

    def test_layer_norm_gradients(self):
        x = Tensor(rand((3, 5), 29), requires_grad=True)
        gamma = Tensor(1.0 + 0.1 * rand(5, 30), requires_grad=True)
        beta = Tensor(0.1 * rand(5, 31), requires_grad=True)
        w = rand((3, 5), 32)

        def build():
            return sum_all(tensor.mul(
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
        assert dropout_apply(x, 0.5, "eval") is x

    def test_rate_zero_is_identity(self):
        x = Tensor(rand((3, 3), 34))
        rng = np.random.default_rng(0)
        assert dropout_apply(x, 0.0, "train", rng) is x

    def test_bad_rate_rejected(self):
        x = Tensor(rand((2, 2)))
        for rate in (-0.1, 1.0, 1.5):
            with pytest.raises(ValueError):
                dropout_apply(x, rate, "train", np.random.default_rng(0))

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            dropout_apply(Tensor(rand(3)), 0.1, "test")

    def test_inverted_scaling_preserves_mean(self):
        x = Tensor(np.ones((1000, 1000)))
        out = dropout_apply(x, 0.5, "train", np.random.default_rng(35))
        assert 0.99 <= out.data.mean() <= 1.01

    def test_gradient_with_fixed_mask(self):
        x = Tensor(rand((4, 6), 36), requires_grad=True)
        w = rand((4, 6), 37)

        def build():
            rng = np.random.default_rng(99)  # same mask every evaluation
            return sum_all(tensor.mul(
                dropout_apply(x, 0.3, "train", rng), Tensor(w)))

        tensor.backward(build())

        def f():
            with tensor.no_grad():
                return build().item()

        assert check_grads([x.grad], finite_diff(f, [x.data])) < 1e-6


@pytest.fixture
def small_tiles(monkeypatch):
    monkeypatch.setattr(tensor, "TILE_ROWS", SMALL_TILE)


def weighted_sum_grads(build, arrays, weights):
    """Analytic and central-difference gradients of sum(build() * weights)
    with respect to ``arrays``, which ``build`` reads afresh each call."""
    leaves = [Tensor(a, requires_grad=True) for a in arrays]

    def loss():
        return sum_all(tensor.mul(build(*leaves), Tensor(weights)))

    tensor.backward(loss())

    def f():
        with tensor.no_grad():
            return loss().item()

    return [t.grad for t in leaves], finite_diff(f, [t.data for t in leaves])


def plain_attention(q, k, v, causal):
    """``tensor.attention`` with an identity query map, no bias and a unit
    gate, so that its queries are ``q`` exactly: softmax(q k^T / sqrt(N)) v."""
    n = q.shape[-1]
    dtype = q.data.dtype
    return tensor.attention(q, Tensor(np.eye(n, dtype=dtype)), Tensor(np.zeros(n, dtype)),
                            Tensor(np.ones(n, dtype)), k, v, causal)


def fused_query_attention(x, kv, w, b, gate_q, gate_k, causal):
    """``tensor.attention`` as ``model.attention_block`` calls it: the
    query stream, the query map and the gate sigma(q) sigma(k), with one
    array as keys and values."""
    gate = tensor.sigmoid(gate_q) * tensor.sigmoid(gate_k)
    return tensor.attention(x, w, b, gate, kv, kv, causal)


@pytest.mark.usefixtures("small_tiles")
class TestRowTiledAttention:
    @pytest.mark.parametrize("causal", [False, True])
    @pytest.mark.parametrize("steps", TILE_STEPS)
    def test_matches_whole_array_graph(self, steps, causal):
        rng = np.random.default_rng(40 + steps)
        q, k, v = (rng.standard_normal((steps, 3)) for _ in range(3))
        got = plain_attention(Tensor(q), Tensor(k), Tensor(v), causal).data
        want = attention_graph(Tensor(q), Tensor(k), Tensor(v), causal).data
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("causal", [False, True])
    @pytest.mark.parametrize("steps", TILE_STEPS)
    def test_gradients(self, steps, causal):
        rng = np.random.default_rng(50 + steps)
        arrays = [rng.standard_normal((steps, 3)) for _ in range(3)]
        analytic, fd = weighted_sum_grads(
            lambda q, k, v: plain_attention(q, k, v, causal), arrays,
            rng.standard_normal((steps, 3)))
        assert check_grads(analytic, fd) < 1e-6

    def test_causal_row_ignores_later_keys(self):
        rng = np.random.default_rng(60)
        q, k, v = (rng.standard_normal((2 * SMALL_TILE + 3, 3)) for _ in range(3))
        k2, v2 = k.copy(), v.copy()
        k2[SMALL_TILE + 1:] += 5.0
        v2[SMALL_TILE + 1:] -= 5.0
        a = plain_attention(Tensor(q), Tensor(k), Tensor(v), True).data
        b = plain_attention(Tensor(q), Tensor(k2), Tensor(v2), True).data
        np.testing.assert_array_equal(a[:SMALL_TILE + 1], b[:SMALL_TILE + 1])
        assert np.abs(a[SMALL_TILE + 1:] - b[SMALL_TILE + 1:]).min() > 0.0

    @pytest.mark.parametrize("tile", [SMALL_TILE, 9, 2])
    def test_causal_mask_for_any_tile_size(self, monkeypatch, tile):
        # the cached triangle of TILE_ROWS, sliced to the tile's rows: the
        # same bits as the triu_indices mask, for full and partial tiles
        monkeypatch.setattr(tensor, "TILE_ROWS", tile)
        rng = np.random.default_rng(61 + tile)
        for rows, first in ((tile, 0), (tile, tile), (1, 2 * tile), (tile - 1 or 1, 3)):
            q, k = rng.standard_normal((rows, 3)), rng.standard_normal((first + rows, 3))
            got = tensor._attention_probs(q, k, 0.5, first, True)
            s = q @ k.T
            s *= 0.5
            s[:, first:][np.triu_indices(rows, 1)] = -np.inf
            s -= s.max(axis=1, keepdims=True)
            np.exp(s, out=s)
            s /= s.sum(axis=1, keepdims=True)
            np.testing.assert_array_equal(got, s)

    def test_bad_shapes_rejected(self):
        x = Tensor(rand((3, 2)))
        with pytest.raises(DimensionError):
            plain_attention(x, Tensor(rand((3, 4))), x, False)
        with pytest.raises(DimensionError):
            plain_attention(x, x, Tensor(rand((4, 2))), False)
        with pytest.raises(DimensionError):
            plain_attention(x, Tensor(rand((5, 2))), Tensor(rand((5, 2))), True)
        with pytest.raises(DimensionError):
            plain_attention(Tensor(rand(3)), x, x, False)
        # the query map: w of K rows, b and gate of N entries
        w, vec = Tensor(rand((2, 2))), Tensor(rand(2))
        for args in ((Tensor(rand((3, 2))), vec, vec), (w, Tensor(rand(3)), vec),
                     (w, vec, Tensor(rand((1, 2)))), (Tensor(rand(2)), vec, vec)):
            with pytest.raises(DimensionError):
                tensor.attention(x, *args, x, x, False)


@pytest.mark.usefixtures("small_tiles")
class TestFusedQueryAttention:
    """The node forms its queries (x w + b) * gate one tile at a time; the
    oracle is ``attention_block_graph``, which forms them whole."""

    @staticmethod
    def operands(steps, seed, n=4):
        """x and kv, then lin_q.w, lin_q.b, attn.q and attn.k; and the whole
        parameter dict of one attention block over those arrays."""
        p = attn_params(n, seed)
        rng = np.random.default_rng(seed + 1)
        arrays = [rng.standard_normal((steps, n)), rng.standard_normal((steps, n))]
        arrays += [p[key].data for key in ("lin_q.w", "lin_q.b", "q", "k")]
        return arrays, p

    @pytest.mark.parametrize("causal", [False, True])
    @pytest.mark.parametrize("steps", TILE_STEPS)
    def test_matches_attention_block_graph(self, steps, causal):
        (x, kv, *_), p = self.operands(steps, 100 + steps)
        got = fused_query_attention(Tensor(x), Tensor(kv), p["lin_q.w"], p["lin_q.b"],
                                    p["q"], p["k"], causal) * value_gate_graph(p)
        want = attention_block_graph(Tensor(x), Tensor(kv), Tensor(kv), p, causal)
        np.testing.assert_allclose(got.data, want.data, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("causal", [False, True])
    @pytest.mark.parametrize("steps", TILE_STEPS)
    def test_gradients_of_every_input(self, steps, causal):
        # the stream, kv, lin_q.w, lin_q.b, attn.q and attn.k
        arrays, _ = self.operands(steps, 110 + steps)
        weights = np.random.default_rng(111 + steps).standard_normal((steps, 4))
        analytic, fd = weighted_sum_grads(
            lambda *t: fused_query_attention(*t, causal), arrays, weights)
        assert check_grads(analytic, fd) < 1e-6

    def test_causal_rows_ignore_later_rows(self):
        steps = 2 * SMALL_TILE + 3
        (x, kv, *_), p = self.operands(steps, 120)
        x2, kv2 = x.copy(), kv.copy()
        x2[SMALL_TILE + 1:] += 5.0
        kv2[SMALL_TILE + 1:] -= 5.0
        a, b = (fused_query_attention(Tensor(xa), Tensor(kva), p["lin_q.w"], p["lin_q.b"],
                                      p["q"], p["k"], True).data
                for xa, kva in ((x, kv), (x2, kv2)))
        np.testing.assert_array_equal(a[:SMALL_TILE + 1], b[:SMALL_TILE + 1])
        assert np.abs(a[SMALL_TILE + 1:] - b[SMALL_TILE + 1:]).min() > 0.0


def lstm_operands(steps, seed, n_in=3, hidden=2, dtype=np.float64):
    """x, then the four gates of w_x, of b and of w_h: 13 arrays."""
    rng = np.random.default_rng(seed)
    x, w_x, b, w_h = ((scale * rng.standard_normal(shape)).astype(dtype)
                      for scale, shape in ((1.0, (steps, n_in)),
                                           (0.5, (n_in, 4 * hidden)),
                                           (0.5, (4 * hidden,)),
                                           (0.5, (hidden, 4 * hidden))))
    return [x, *split_gates(w_x), *split_gates(b), *split_gates(w_h)]


def blstm_operands(steps, seed, **kwargs):
    """x, then the 12 per-gate arrays of a forward-time and of a
    backward-time direction: 25 arrays."""
    return lstm_operands(steps, seed, **kwargs) + lstm_operands(steps, seed + 1, **kwargs)[1:]


def gated(fn, **kwargs):
    """``fn(x, w_x, b, w_h, **kwargs)`` over the 13 operands in the order
    ``lstm_operands`` gives them."""
    return lambda x, *w: fn(x, w[:4], w[4:8], w[8:], **kwargs)


def lstm_node(x, *w):
    """``tensor.lstm_sequence`` over the 13 operands of ``lstm_operands`` or
    the 25 of ``blstm_operands``: the second 12, when given, are ``bwd``."""
    return tensor.lstm_sequence(x, *[direction(w[j:j + 4], w[j + 4:j + 8], w[j + 8:j + 12])
                                     for j in range(0, len(w), 12)])


def side_by_side(fwd_fn, bwd_fn):
    """Over x and 24 operands: ``fwd_fn`` of the first 12 and ``bwd_fn`` of
    the second 12, joined column-wise as the two-direction node joins them."""
    return lambda x, *w: concat([fwd_fn(x, *w[:12]), bwd_fn(x, *w[12:])], axis=1)


def flipped_lstm(x, w_x, b, w_h):
    """The time-reversed LSTM as flip, forward LSTM, flip."""
    return flip_rows(tensor.lstm_sequence(flip_rows(x), direction(w_x, b, w_h)))


class TestLstmNode:
    """The node with ``fwd`` alone, and with ``bwd`` too: where a test is
    parametrized by ``reverse``, True checks the backward-time direction as
    the ``bwd`` columns of a two-direction call."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("steps", [1, 2, 9, 256])
    def test_reverse_bitwise_flip_within_one_tile(self, steps, dtype):
        assert steps <= tensor.TILE_ROWS
        operands = [Tensor(a) for a in blstm_operands(steps, 100 + steps, dtype=dtype)]
        got = lstm_node(*operands).data
        assert got.dtype == dtype
        np.testing.assert_array_equal(
            got[:, 2:], gated(flipped_lstm)(operands[0], *operands[13:]).data)

    @pytest.mark.parametrize("reverse", [False, True])
    @pytest.mark.parametrize("steps", TILE_STEPS)
    def test_tiles_match_whole_array_graph(self, small_tiles, steps, reverse):
        arrays = (blstm_operands if reverse else lstm_operands)(steps, 110 + steps)
        mix = Tensor(np.random.default_rng(111).standard_normal((steps, 4 if reverse else 2)))
        builds = [lstm_node, gated(lstm_sequence_graph)]
        if reverse:
            builds[1:] = [side_by_side(gated(lstm_sequence_graph),
                                       gated(lstm_sequence_graph, reverse=True)),
                          side_by_side(lstm_node, gated(flipped_lstm))]
        grads = []
        for build in builds:
            leaves = [Tensor(a, requires_grad=True) for a in arrays]
            out = build(*leaves)
            tensor.backward(sum_all(tensor.mul(out, mix)))
            grads.append([out.data] + [t.grad for t in leaves])
        for want in grads[1:]:
            for a, b in zip(grads[0], want):
                np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("recording", [True, False])
    @pytest.mark.parametrize("reverse", [False, True])
    @pytest.mark.parametrize("steps", TILE_STEPS)
    def test_float32_bitwise_stepwise_across_tiles(self, small_tiles, steps, reverse,
                                                   recording):
        # recording writes every row into one (T, 4H) buffer, evaluation
        # reuses one tile of rows: both must match the stepwise graph
        # exactly, and a direction's columns must not depend on the other's
        operands = [Tensor(a, requires_grad=recording) for a in
                    (blstm_operands if reverse else lstm_operands)(
                        steps, 140 + steps, hidden=5, dtype=np.float32)]
        got = lstm_node(*operands)
        assert got.requires_grad == recording and got.data.dtype == np.float32
        x, fwd, bwd = operands[0], operands[1:13], operands[13:]
        np.testing.assert_array_equal(got.data[:, :5], gated(lstm_stepwise)(x, *fwd))
        if reverse:
            np.testing.assert_array_equal(got.data[:, :5], lstm_node(x, *fwd).data)
            np.testing.assert_array_equal(
                got.data[:, 5:], gated(lstm_stepwise, reverse=True)(x, *bwd))

    @pytest.mark.parametrize("reverse", [False, True])
    @pytest.mark.parametrize("steps", [1, 4, 5, 7, 11])
    def test_gradients(self, small_tiles, steps, reverse):
        # every operand: x and each direction's 12 per-gate tensors
        analytic, fd = weighted_sum_grads(
            lstm_node, (blstm_operands if reverse else lstm_operands)(steps, 120 + steps),
            np.random.default_rng(121).standard_normal((steps, 4 if reverse else 2)))
        assert check_grads(analytic, fd) < 1e-6

    def test_reverse_first_row_sees_every_step(self):
        x, *w = blstm_operands(5, 130)
        y = x.copy()
        y[-1] += 1.0
        run = lambda v: lstm_node(Tensor(v), *map(Tensor, w)).data[:, 2:]
        a, c = run(x), run(y)
        assert np.abs(a[0] - c[0]).max() > 1e-8
        np.testing.assert_array_equal(run(x[1:]), a[1:])


class TestLayerNormRows:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("steps", TILE_STEPS)
    def test_forward_bitwise_whole_array(self, small_tiles, steps, dtype):
        rng = np.random.default_rng(150 + steps)
        x, g, b = (Tensor((3.0 * rng.standard_normal(shape) + 1.0).astype(dtype))
                   for shape in ((steps, 6), (6,), (6,)))
        got = tensor.layer_norm_rows(x, g, b, 1e-5).data
        assert got.dtype == dtype
        np.testing.assert_array_equal(got, layer_norm_whole(x, g, b, 1e-5).data)

    @pytest.mark.parametrize("steps", TILE_STEPS)
    def test_gradients_bitwise_whole_array(self, small_tiles, steps):
        rng = np.random.default_rng(160 + steps)
        arrays = [rng.standard_normal(shape) for shape in ((steps, 6), (6,), (6,))]
        mix = Tensor(rng.standard_normal((steps, 6)))
        grads = []
        for op in (tensor.layer_norm_rows, layer_norm_whole):
            leaves = [Tensor(a.copy(), requires_grad=True) for a in arrays]
            tensor.backward(sum_all(tensor.mul(op(*leaves, 1e-5), mix)))
            grads.append([t.grad for t in leaves])
        for a, b in zip(*grads):
            np.testing.assert_array_equal(a, b)


class TestFramingOracle:
    """Strided framing and chunked overlap-add against the index-array and
    ``np.add.at`` forms, bit for bit, forward and backward."""

    CASES = [(16000, 256, 32, 0), (16001, 512, 32, 256), (1000, 100, 30, 7),
             (64000, 512, 256, 0), (11, 4, 2, 0), (5, 8, 3, 2), (10, 3, 4, 1)]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("m, frame_len, shift, offset", CASES)
    def test_bitwise(self, m, frame_len, shift, offset, dtype):
        # independent random frames and gradients, so that each sample sums
        # different values and the order of the sums shows in the rounding
        rng = np.random.default_rng(m + frame_len)
        num_frames = math.ceil(m / shift)
        signal, prior_grad, out_weights = (rng.standard_normal(m).astype(dtype)
                                           for _ in range(3))
        frames_in, frame_weights = (
            rng.standard_normal((num_frames, frame_len)).astype(dtype) for _ in range(2))
        results = []
        for frame, overlap in ((tensor.frame_rows, tensor.overlap_add_rows),
                               (frame_rows_indexed, overlap_add_rows_indexed)):
            x = Tensor(signal.copy(), requires_grad=True)
            x.grad = prior_grad.copy()  # backward adds onto an existing gradient
            frames = frame(x, frame_len, shift)
            tensor.backward(sum_all(tensor.mul(frames, Tensor(frame_weights))))
            f = Tensor(frames_in.copy(), requires_grad=True)
            out = overlap(f, shift, m, offset)
            tensor.backward(sum_all(tensor.mul(out, Tensor(out_weights))))
            results.append((frames.data, x.grad, out.data, f.grad))
        for a, b in zip(*results):
            assert a.dtype == b.dtype
            np.testing.assert_array_equal(a, b)



@pytest.mark.usefixtures("small_tiles")
class TestRowTiledFeedforward:
    @staticmethod
    def operands(steps, seed):
        rng = np.random.default_rng(seed)
        return (rng.standard_normal((steps, 3)), rng.standard_normal((3, 8)) / 2.0,
                0.1 * rng.standard_normal(8))

    @staticmethod
    def keep(steps, seed):
        return np.random.default_rng(seed).random((steps, 8)) >= 0.3

    @pytest.mark.parametrize("masked", [False, True])
    @pytest.mark.parametrize("steps", TILE_STEPS)
    def test_matches_whole_array_graph(self, steps, masked):
        x, w, b = (Tensor(a) for a in self.operands(steps, 70 + steps))
        got = (tensor.feedforward(x, w, b, self.keep(steps, 1), 0.3) if masked
               else tensor.feedforward(x, w, b)).data
        if masked:
            want = feedforward_graph(x, w, b, 0.3, "train", np.random.default_rng(1)).data
        else:
            want = feedforward_graph(x, w, b).data
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("masked", [False, True])
    @pytest.mark.parametrize("steps", TILE_STEPS)
    def test_gradients(self, steps, masked):
        keep = self.keep(steps, 2) if masked else None
        analytic, fd = weighted_sum_grads(
            lambda x, w, b: tensor.feedforward(x, w, b, keep, 0.3),
            list(self.operands(steps, 80 + steps)),
            np.random.default_rng(3).standard_normal((steps, 2)))
        assert check_grads(analytic, fd) < 1e-6

    def test_bad_shapes_rejected(self):
        x, w, b = (Tensor(a) for a in self.operands(5, 4))
        with pytest.raises(DimensionError):
            tensor.feedforward(x, Tensor(rand((3, 6))), Tensor(rand(6)))
        with pytest.raises(DimensionError):
            tensor.feedforward(x, w, Tensor(rand(4)))
        with pytest.raises(DimensionError):
            tensor.feedforward(Tensor(rand((5, 2))), w, b)
        with pytest.raises(DimensionError):
            tensor.feedforward(x, w, b, np.ones((4, 8), dtype=bool), 0.3)
        with pytest.raises(DimensionError):
            tensor.feedforward(x, w, b, np.ones((5, 8)) / 0.7, 0.3)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_dropout_bitwise_one_product_with_scales(self, dtype):
        # zeroing, then scaling by a scalar, gives the bits of one product
        # with a (T, 4N) array of 0 and 1/(1 - rate), signed zeros included:
        # every activation is negative and row 0 is dropped whole, so its
        # output is -0
        x, w, _ = (a.astype(dtype) for a in self.operands(SMALL_TILE, 5))
        b = np.full(8, -3.0, dtype=dtype)
        keep = self.keep(SMALL_TILE, 6)
        keep[0] = False
        pre = x @ w
        pre += b
        pre *= tensor._gelu_cdf(pre.copy())
        pre *= keep.astype(dtype) / (1.0 - 0.3)
        want = (pre[:, :2] + pre[:, 2:4]) + (pre[:, 4:6] + pre[:, 6:])
        got = tensor.feedforward(Tensor(x), Tensor(w), Tensor(b), keep, 0.3).data
        assert got.dtype == dtype and np.signbit(got[0]).all()
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(np.signbit(got), np.signbit(want))


class TestNormalCdf:
    """``_gelu_cdf``, the GELU's Phi, against scipy: in float64 within two
    ulp of the erf form 0.5 (1 + erf(z / sqrt 2)), an ulp taken at
    max(Phi, 1/2), below which the erf form itself is only that accurate;
    in float32 within 1e-7 absolute of float64's Phi."""

    # even steps over [-12, 12], and around the split at |z| = 1, the
    # clip at 8.6 and zero
    GRID = np.concatenate([np.linspace(-12.0, 12.0, 240_001),
                           *(sign * np.linspace(0.99, 1.01, 20_001) for sign in (1, -1)),
                           *(sign * np.linspace(8.5, 8.7, 2_001) for sign in (1, -1)),
                           *(sign * np.geomspace(1e-300, 1e-2, 601) for sign in (1, -1)),
                           [0.0, -0.0]])

    def test_float64_within_two_ulp_of_erf_form(self):
        z = self.GRID
        want = 0.5 * (1.0 + erf(z / math.sqrt(2.0)))
        got = tensor._gelu_cdf(z)
        assert got.dtype == np.float64
        ulps = np.abs(got - want) / np.spacing(np.maximum(want, 0.5))
        assert ulps.max() <= 2.0, z[ulps.argmax()]

    def test_float32_within_1e7_of_float64_phi(self):
        # the float32 grid, ten times finer, and every float32 within 0.01
        # of the split, where the error peaks (7.1e-8 near 0.9995)
        split = np.arange(np.float32(0.99).view(np.int32), np.float32(1.01).view(np.int32))
        split = split.view(np.float32)
        z = np.concatenate([np.linspace(-12.0, 12.0, 2_400_001, dtype=np.float32),
                            split, -split, self.GRID.astype(np.float32)])
        want = 0.5 * erfc(-z.astype(np.float64) / math.sqrt(2.0))
        got = tensor._gelu_cdf(z)
        assert got.dtype == np.float32
        err = np.abs(got - want)
        assert err.max() <= 1e-7, z[err.argmax()]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_in_place_and_chunked_give_the_same_bits(self, dtype):
        # several of the kernel's pieces and a partial one, against slices
        # that end elsewhere: each element's bits depend on it alone,
        # written in place or not
        z = (3.0 * rand((3 * tensor._CDF_CHUNK_BYTES // 8 + 5, 2), 41)).astype(dtype)
        whole = tensor._gelu_cdf(z)
        sliced = np.concatenate([tensor._gelu_cdf(z[lo:lo + 997])
                                 for lo in range(0, len(z), 997)])
        np.testing.assert_array_equal(whole, sliced)
        tensor._gelu_cdf(z, out=z)
        np.testing.assert_array_equal(z, whole)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_non_finite_and_signed_zero(self, dtype):
        # no warning either: the suite turns numpy's into errors
        z = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0], dtype=dtype)
        np.testing.assert_array_equal(tensor._gelu_cdf(z), [np.nan, 1.0, 0.0, 0.5, 0.5])

    def test_holds_two_scratch_pieces(self):
        # besides ``out``, two scratch arrays of _CDF_CHUNK_BYTES, whatever
        # the input's size; a temporary as large as the input would pass it
        z = rand(64 * tensor._CDF_CHUNK_BYTES // 8, 42)
        slack = 4096
        assert traced_peak(lambda: tensor._gelu_cdf(z, out=z)) <= (
            2 * tensor._CDF_CHUNK_BYTES + slack)
        assert traced_peak(lambda: tensor._gelu_cdf(z)) <= (
            z.nbytes + 2 * tensor._CDF_CHUNK_BYTES + slack)


class TestFeedforwardBackwardBits:
    """At full tile size, where a tile spans several sub-blocks."""

    @pytest.mark.parametrize("masked", [False, True])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_gradients_bitwise_whole_tile_formula(self, dtype, masked):
        # the backward pass forms each tile's gradient in place, a sub-block
        # at a time, with the bits of the whole-tile formula: the output's
        # gradient tiled over the four chunks, masked and scaled, times
        # Phi(z) + z phi(z). Some pre-activations are far negative, so
        # dropped entries keep their signed zeros
        steps, n = 2 * tensor.TILE_ROWS + 37, 64
        assert max(tensor._SUB_ROWS, tensor._SUB_ELEMENTS // (4 * n)) < tensor.TILE_ROWS
        rng = np.random.default_rng(97)
        xd = (2.0 * rng.standard_normal((steps, n))).astype(dtype)
        wd = (rng.standard_normal((n, 4 * n)) / 4.0).astype(dtype)
        bd = rng.standard_normal(4 * n).astype(dtype)
        bd[:n] -= 40.0
        g = rng.standard_normal((steps, n)).astype(dtype)
        keep = rng.random((steps, 4 * n)) >= 0.3 if masked else None
        x, w, b = (Tensor(a, requires_grad=True) for a in (xd, wd, bd))
        out = tensor.feedforward(x, w, b, keep, 0.3)
        out.grad = g
        out._backward()
        inv_keep = dtype(1) / dtype(1.0 - 0.3)
        dx, dw, db = np.zeros_like(xd), np.zeros_like(wd), np.zeros_like(bd)
        for lo, hi in tensor._row_tiles(steps):
            pre = xd[lo:hi] @ wd
            pre += bd
            dpre = np.tile(g[lo:hi], 4)
            if masked:
                dpre *= keep[lo:hi]
                dpre *= inv_keep
            dpre *= (tensor._gelu_cdf(pre)
                     + pre * np.exp(-0.5 * pre * pre) * tensor._INV_SQRT_2PI)
            dx[lo:hi] = dpre @ wd.T
            dw += xd[lo:hi].T @ dpre
            db += dpre.sum(axis=0)
        for got, want in ((x.grad, dx), (w.grad, dw), (b.grad, db)):
            assert got.dtype == dtype and got.tobytes() == want.tobytes()


def _handover_cases(steps, n, rng):
    """Per op that can write into an operand: its operands, a call over
    their tensors that hands that operand over or not, and its index.
    ``attention`` and ``feedforward`` take the operand as ``into``; without
    it, the call adds their output to it as a separate op."""
    def r(*shape):
        return rng.standard_normal(shape)

    def attend(t, into=None):
        return tensor.attention(*t[:5], t[4], True, t[5], into)

    def ff(t, into=None):
        return tensor.feedforward(*t[:3], keep, 0.3, into)

    keep = rng.random((steps, 4 * n)) >= 0.3
    return {
        "add": ([r(steps, n), r(n)], lambda t, o: tensor.add(*t, overwrite=o), 0),
        "layer_norm_rows": ([r(steps, n), r(n), r(n)],
                            lambda t, o: tensor.layer_norm_rows(*t, 1e-5, o), 0),
        # the output goes into the query stream itself, as in the model
        "attention": ([r(steps, n), r(n, n), r(n), r(n), r(steps, n), r(1, n)],
                      lambda t, o: attend(t, t[0]) if o else tensor.add(attend(t), t[0]),
                      0),
        "feedforward": ([r(steps, n), r(n, 4 * n), r(4 * n), r(steps, n)],
                        lambda t, o: ff(t, t[3]) if o else tensor.add(ff(t), t[3]), 3),
    }


@pytest.mark.usefixtures("small_tiles")
class TestHandOver:
    """A caller hands an op one operand's array, with ``overwrite=True`` or
    as ``into``. Under ``no_grad`` the op writes its output into that array,
    with the bits of the output it allocates otherwise; while recording, or
    when not handed over, every operand is left as it was."""

    @pytest.mark.parametrize("op", ["add", "layer_norm_rows", "attention", "feedforward"])
    def test_written_into_only_under_no_grad(self, op):
        arrays, call, handed = _handover_cases(2 * SMALL_TILE + 3, 6,
                                               np.random.default_rng(97))[op]

        def run(hand_over, record):
            leaves = [Tensor(a.copy(), requires_grad=record) for a in arrays]
            if record:
                out = call(leaves, hand_over)
                assert out.requires_grad
            else:
                with tensor.no_grad():
                    out = call(leaves, hand_over)
            return [t.data for t in leaves], out.data

        want = run(False, True)[1]
        for hand_over, record in ((True, True), (False, False)):
            given, got = run(hand_over, record)
            assert got.tobytes() == want.tobytes()
            assert all(g.tobytes() == a.tobytes() for g, a in zip(given, arrays))
        given, got = run(True, False)
        assert got is given[handed]
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("op", ["add", "layer_norm_rows", "attention", "feedforward"])
    def test_array_of_another_dtype_not_written_into(self, op):
        # a float32 operand cannot hold the op's float64 output
        arrays, call, handed = _handover_cases(2 * SMALL_TILE + 3, 6,
                                               np.random.default_rng(98))[op]
        arrays[handed] = arrays[handed].astype(np.float32)
        leaves = [Tensor(a.copy()) for a in arrays]
        with tensor.no_grad():
            got = call(leaves, True).data
        assert got.dtype == np.float64
        assert leaves[handed].data.tobytes() == arrays[handed].tobytes()


    def test_attention_output_gate_wider_than_its_tile(self):
        # float32 operands with a float64 output gate and stream: the tile
        # is gated in float32 in place but in float64 as a recorded product,
        # so the stream is not written into, and both paths give one result
        rng = np.random.default_rng(99)
        steps, n = 2 * SMALL_TILE + 3, 6
        narrow = [rng.standard_normal(shape).astype(np.float32)
                  for shape in ((steps, n), (n, n), (n,), (n,), (steps, n))]
        gate, stream = rng.standard_normal((1, n)), rng.standard_normal((steps, n))

        def run(hand_over, record):
            leaves = [Tensor(a.copy(), requires_grad=record)
                      for a in (*narrow, gate, stream)]
            x, w, b, g, k, out_gate, into = leaves
            if hand_over:
                return into.data, tensor.attention(x, w, b, g, k, k, True, out_gate, into)
            return into.data, tensor.add(
                tensor.attention(x, w, b, g, k, k, True, out_gate), into)

        want = run(False, True)[1].data
        with tensor.no_grad():
            given, got = run(True, False)
        assert got.data is not given and given.tobytes() == stream.tobytes()
        assert got.data.dtype == np.float64 and got.data.tobytes() == want.tobytes()


class TestRfftMagnitude:
    """The rfft node against the basis-matrix graph it replaced, on framed
    signals with a random positive window."""

    # (fft_size, win_len, hop, signal length): the PCM loss's setting, a
    # window shorter than the FFT, an odd FFT with no Nyquist bin, and a
    # signal shorter than one window
    CASES = [(512, 512, 256, 1500), (32, 16, 8, 100), (33, 33, 11, 120),
             (512, 512, 256, 300)]

    @staticmethod
    def run(op, signal, window, n, hop, weights):
        x = Tensor(signal.copy(), requires_grad=True)
        frames = tensor.frame_rows(x, window.size, hop)
        out = op(frames, window, n)
        tensor.backward(sum_all(tensor.mul(out, Tensor(weights))))
        return out.data, x.grad

    @pytest.mark.parametrize("n, win_len, hop, m", CASES)
    def test_matches_basis_graph(self, n, win_len, hop, m):
        rng = np.random.default_rng(n + win_len + m)
        signal = rng.standard_normal(m)
        window = rng.uniform(0.5, 1.5, win_len)
        weights = rng.standard_normal((math.ceil(m / hop), n // 2 + 1))
        got = self.run(tensor.rfft_magnitude, signal, window, n, hop, weights)
        want = self.run(rfft_magnitude_graph, signal, window, n, hop, weights)
        for a, b in zip(got, want):
            assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()

    @pytest.mark.parametrize("n, win_len", [(16, 12), (9, 9)])
    def test_gradients(self, n, win_len):
        rng = np.random.default_rng(n)
        window = rng.uniform(0.5, 1.5, win_len)
        analytic, fd = weighted_sum_grads(
            lambda f: tensor.rfft_magnitude(f, window, n),
            [rng.standard_normal((3, win_len))], rng.standard_normal((3, n // 2 + 1)))
        assert check_grads(analytic, fd) < 1e-6

    def test_float32_matches_float64_graph(self):
        n, win_len, hop, m = self.CASES[0]
        rng = np.random.default_rng(7)
        signal = rng.standard_normal(m).astype(np.float32)
        window = rng.uniform(0.5, 1.5, win_len).astype(np.float32)
        weights = rng.standard_normal((math.ceil(m / hop), n // 2 + 1)).astype(np.float32)
        got = self.run(tensor.rfft_magnitude, signal, window, n, hop, weights)
        want = self.run(rfft_magnitude_graph, signal.astype(np.float64),
                        window.astype(np.float64), n, hop, weights.astype(np.float64))
        for a, b in zip(got, want):
            assert a.dtype == np.float32
            assert np.abs(a - b).max() <= 1e-5 * np.abs(b).max()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_keeps_sign_planes_not_the_spectrum(self, dtype):
        frames = Tensor(rand((64, 512), 8).astype(dtype), requires_grad=True)
        window = np.ones(512, dtype=dtype)
        tracemalloc.start()
        try:
            out = tensor.rfft_magnitude(frames, window, 512)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        # the output, two float16 sign planes and the node's own objects
        assert held <= out.data.nbytes + 2 * 2 * out.data.size + 4096

    def test_nan_frame_gives_nan_gradient(self):
        frames = Tensor(rand((3, 8), 9), requires_grad=True)
        frames.data[1, 2] = np.nan
        tensor.backward(sum_all(tensor.rfft_magnitude(frames, np.ones(8), 8)))
        assert np.isnan(frames.grad[1]).all() and np.isfinite(frames.grad[[0, 2]]).all()

    def test_bad_shapes_rejected(self):
        frames = Tensor(rand((3, 8)))
        with pytest.raises(DimensionError):
            tensor.rfft_magnitude(frames, np.ones(7), 8)
        with pytest.raises(DimensionError):
            tensor.rfft_magnitude(frames, np.ones(8), 7)
        with pytest.raises(DimensionError):
            tensor.rfft_magnitude(Tensor(rand(8)), np.ones(8), 8)


class TestRowTiledMemory:
    """The fused ops never allocate a whole (T, T) or (T, 4N) array that
    they do not keep: their traced peak stays below one such array at
    T = 2048, and a recording LSTM holds what its backward pass reads."""

    STEPS, WIDTH = 2048, 8

    @pytest.mark.parametrize("causal", [False, True])
    def test_attention_below_one_score_matrix(self, causal):
        rng = np.random.default_rng(90)
        q, k, v = (Tensor(rng.standard_normal((self.STEPS, self.WIDTH)),
                          requires_grad=True) for _ in range(3))
        bound = self.STEPS * self.STEPS * 8
        with tensor.no_grad():
            assert traced_peak(lambda: plain_attention(q, k, v, causal)) < bound
        assert traced_peak(lambda: tensor.backward(
            sum_all(plain_attention(q, k, v, causal)))) < bound
        assert q.grad.shape == k.grad.shape == v.grad.shape == (self.STEPS, self.WIDTH)

    def test_causal_attention_backward_holds_two_score_tiles(self):
        # a tile's probabilities and their gradient, the input gradients,
        # one row chunk of the softmax's row sums and the tile's queries;
        # forming ds * p whole would add a third (TILE_ROWS, S) array
        steps, width = 1000, 16
        rng = np.random.default_rng(93)
        q, k, v = (Tensor(rng.standard_normal((steps, width)), requires_grad=True)
                   for _ in range(3))
        out = plain_attention(q, k, v, True)
        out.grad = rng.standard_normal((steps, width))
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            out._backward()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        bound = (2 * tensor.TILE_ROWS * steps + 3 * steps * width
                 + tensor._SUB_ROWS * steps) * 8 + 16384
        assert peak - start <= bound
        assert q.grad.shape == k.grad.shape == v.grad.shape == (steps, width)

    @pytest.mark.parametrize("reverse", [False, True])
    def test_recording_lstm_keeps_only_activations_cells_and_output(self, reverse):
        # with ``reverse``, a two-direction node
        h, dirs = self.WIDTH, 2 if reverse else 1
        operands = [Tensor(a, requires_grad=True) for a in
                    (blstm_operands if reverse else lstm_operands)(
                        self.STEPS, 92, n_in=h, hidden=h)]
        # each direction's (T, 4H) gate activations and (T, H) cell states,
        # and the (T, H) columns of the output; then O(H) scratch, and numpy's
        # ufunc buffer, which the bias's broadcast over a tile's rows goes
        # through
        kept = dirs * (4 * h + h + h) * self.STEPS * 8
        scratch = 64 * 4 * h * 8 + np.getbufsize() * 8
        peak = traced_peak(lambda: lstm_node(*operands))
        assert peak <= kept + scratch

    def test_lstm_backward_holds_gradients_dz_and_time_arrays(self):
        # one recorded LSTM node's backward at T = 64, N = H = 256, float32:
        # above its start, the gradients of x and of every gate's weights
        # and bias, dz, and eight (T, H) arrays of slack for BPTT's work
        # arrays. The packed (K, 4H) copy that x's gradient goes through is
        # freed before the weights' gradients are made. A packed (K, 4H) or
        # (H, 4H) weight gradient beside the per-gate ones fails the bound
        steps, n = 64, 256
        rng = np.random.default_rng(94)
        arrays = [rng.standard_normal(shape).astype(np.float32) * 0.1 for shape in
                  [(steps, n)] + [(n, n)] * 4 + [(n,)] * 4 + [(n, n)] * 4]
        leaves = [Tensor(a, requires_grad=True) for a in arrays]
        out = lstm_node(*leaves)
        out.grad = rng.standard_normal((steps, n)).astype(np.float32)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            out._backward()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        grads = sum(a.nbytes for a in arrays)
        dz = steps * 4 * n * 4
        assert peak - start <= grads + dz + 8 * steps * n * 4
        assert all(t.grad is not None and t.grad.shape == t.data.shape for t in leaves)

    @pytest.mark.parametrize("masked", [False, True])
    def test_feedforward_below_one_hidden_activation(self, masked):
        rng = np.random.default_rng(91)
        n = self.WIDTH
        x = Tensor(rng.standard_normal((self.STEPS, n)), requires_grad=True)
        w = Tensor(rng.standard_normal((n, 4 * n)), requires_grad=True)
        b = Tensor(rng.standard_normal(4 * n), requires_grad=True)
        keep = rng.random((self.STEPS, 4 * n)) >= 0.1 if masked else None
        bound = self.STEPS * 4 * n * 8
        with tensor.no_grad():
            assert traced_peak(lambda: tensor.feedforward(x, w, b, keep, 0.1)) < bound
        out = tensor.feedforward(x, w, b, keep, 0.1)
        out.grad = np.ones_like(out.data)
        assert traced_peak(out._backward) < bound
        assert x.grad.shape == (self.STEPS, n) and w.grad.shape == (n, 4 * n)

    # under ``no_grad`` and handed its output array, an op holds only its
    # tiles' scratch; T ends on a ragged tile
    SCRATCH_STEPS, SCRATCH_WIDTH = 2 * tensor.TILE_ROWS + 37, 64

    @pytest.mark.parametrize("masked", [False, True])
    def test_feedforward_holds_one_hidden_tile(self, masked):
        # the call's one (TILE_ROWS, 4N) pre-activation tile, one sub-block
        # of the GELU's CDF and numpy's ufunc buffer, which the bias's
        # broadcast and the mask's cast go through; the previous tile's
        # pre-activation or a whole-tile CDF would pass it
        steps, n = self.SCRATCH_STEPS, self.SCRATCH_WIDTH
        sub_rows = max(tensor._SUB_ROWS, tensor._SUB_ELEMENTS // (4 * n))
        assert sub_rows < tensor.TILE_ROWS
        rng = np.random.default_rng(94)
        x, w, b, into = (Tensor(rng.standard_normal(shape)) for shape in
                         ((steps, n), (n, 4 * n), 4 * n, (steps, n)))
        keep = rng.random((steps, 4 * n)) >= 0.1 if masked else None
        with tensor.no_grad():
            peak = traced_peak(lambda: tensor.feedforward(x, w, b, keep, 0.1, into))
        tile = tensor.TILE_ROWS * 4 * n * 8
        assert peak <= tile + sub_rows * 4 * n * 8 + np.getbufsize() * 8 + 8192

    @pytest.mark.parametrize("masked", [False, True])
    def test_feedforward_backward_holds_one_hidden_tile(self, masked):
        # the input gradients, the call's one (TILE_ROWS, 4N) tile, which
        # turns from pre-activation into its gradient in place, one
        # sub-block of the GELU derivative's temporary and of the scaled
        # output gradient, and numpy's ufunc buffer, which the mask's cast
        # goes through; the output gradient tiled four times beside the
        # pre-activation, or a whole-tile derivative, would pass it
        steps, n = self.SCRATCH_STEPS, self.SCRATCH_WIDTH
        sub_rows = max(tensor._SUB_ROWS, tensor._SUB_ELEMENTS // (4 * n))
        assert sub_rows < tensor.TILE_ROWS
        rng = np.random.default_rng(96)
        x, w, b = (Tensor(rng.standard_normal(shape), requires_grad=True) for shape in
                   ((steps, n), (n, 4 * n), 4 * n))
        keep = rng.random((steps, 4 * n)) >= 0.1 if masked else None
        out = tensor.feedforward(x, w, b, keep, 0.1)
        out.grad = rng.standard_normal((steps, n))
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            out._backward()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        grads = (steps * n + n * 4 * n + 4 * n) * 8
        tile = tensor.TILE_ROWS * 4 * n * 8
        sub = sub_rows * (4 * n + n) * 8
        assert peak - start <= grads + tile + sub + np.getbufsize() * 8 + 16384
        assert x.grad.shape == (steps, n) and w.grad.shape == (n, 4 * n)

    @pytest.mark.parametrize("masked", [False, True])
    def test_feedforward_backward_weight_product_one_chunk_wide(self, masked):
        # with K = 4n input columns, into gradients already present (as from
        # an earlier utterance, so accumulating makes no copy): the input
        # gradients, the call's one (TILE_ROWS, 4n) tile, and the larger of
        # one sub-block's temporaries and the scaled output gradient's sub-
        # block beside a (K, n) product; a (K, 4n) product into dw, as large
        # as dw, or a (rows, K) product into dx, would pass it
        steps, n = self.SCRATCH_STEPS, self.SCRATCH_WIDTH
        k = 4 * n
        sub_rows = max(tensor._SUB_ROWS, tensor._SUB_ELEMENTS // (4 * n))
        rng = np.random.default_rng(98)
        x, w, b = (Tensor(rng.standard_normal(shape), requires_grad=True) for shape in
                   ((steps, k), (k, 4 * n), 4 * n))
        for t in (x, w, b):
            t.grad = np.zeros_like(t.data)
        keep = rng.random((steps, 4 * n)) >= 0.1 if masked else None
        out = tensor.feedforward(x, w, b, keep, 0.1)
        out.grad = rng.standard_normal((steps, n))
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            out._backward()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        grads = (steps * k + k * 4 * n + 4 * n) * 8
        tile = tensor.TILE_ROWS * 4 * n * 8
        scratch = max(sub_rows * (4 * n + n), sub_rows * n + k * n) * 8
        assert k * 4 * n * 8 > scratch + np.getbufsize() * 8 + 16384
        assert peak - start <= grads + tile + scratch + np.getbufsize() * 8 + 16384

    def test_feedforward_backward_adopts_its_gradients(self):
        # below one tile's rows and with K = 4n input columns, so that dw
        # outweighs the tile: the input gradients, handed over, not copied,
        # the call's one (T, 4n) tile, and one chunk's (K, n) weight product
        # beside the contiguous copies of its operands that the product
        # makes, (K, T) and (T, n). A copy of dw, made by adding it into new
        # zeros, would pass it
        steps, n = 64, self.SCRATCH_WIDTH
        k = 4 * n
        rng = np.random.default_rng(99)
        x, w, b = (Tensor(rng.standard_normal(shape), requires_grad=True) for shape in
                   ((steps, k), (k, 4 * n), 4 * n))
        out = tensor.feedforward(x, w, b)
        out.grad = rng.standard_normal((steps, n))
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            out._backward()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        grads = (steps * k + k * 4 * n + 4 * n) * 8
        tile = steps * 4 * n * 8
        scratch = (k * n + k * steps + steps * n) * 8 + np.getbufsize() * 8 + 16384
        assert tile + scratch < k * 4 * n * 8
        assert peak - start <= grads + tile + scratch
        assert (x.grad.shape, w.grad.shape, b.grad.shape) == ((steps, k), (k, 4 * n), (4 * n,))

    @pytest.mark.parametrize("causal", [False, True])
    def test_attention_holds_one_score_tile(self, causal):
        # the largest tile's (rows, S) probabilities, the call's query and
        # output tiles, each row's maximum and sum, and numpy's ufunc
        # buffer, which the maximum's broadcast goes through; a second
        # output tile, the previous one or a gated copy, would pass it
        steps, n = self.SCRATCH_STEPS, self.SCRATCH_WIDTH
        rng = np.random.default_rng(95)
        x, kv, into = (Tensor(rng.standard_normal((steps, n))) for _ in range(3))
        w, b, gate = (Tensor(rng.standard_normal(shape)) for shape in ((n, n), n, n))
        out_gate = Tensor(rng.standard_normal((1, n)))
        tensor._upper_triangle(tensor.TILE_ROWS)     # the cached causal mask
        with tensor.no_grad():
            peak = traced_peak(lambda: tensor.attention(x, w, b, gate, kv, kv, causal,
                                                        out_gate, into))
        scores = max((hi - lo) * (hi if causal else steps)
                     for lo, hi in tensor._row_tiles(steps))
        tiles = 2 * tensor.TILE_ROWS * n + 2 * tensor.TILE_ROWS
        assert peak <= (scores + tiles) * 8 + np.getbufsize() * 8 + 8192
