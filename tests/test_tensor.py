"""Autograd engine: op semantics and gradient correctness."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arn import tensor
from arn.tensor import (
    DimensionError,
    RankError,
    Tensor,
)

from gradtools import (
    DegenerateRowError,
    SMALL_TILE,
    TILE_STEPS,
    attention_graph,
    causal_mask,
    check_grads,
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
    traced_peak,
)


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

    @pytest.mark.parametrize("op", [tensor.sigmoid, tensor.tanh, gelu,
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
        loss = tensor.sum_all(tensor.mul(softmax_rows(w), Tensor(c)))
        tensor.backward(loss)

        def f():
            with tensor.no_grad():
                return tensor.sum_all(
                    tensor.mul(softmax_rows(w), Tensor(c))).item()

        assert check_grads([w.grad], finite_diff(f, [w.data])) < 1e-6

    def test_masked_gradient_skips_future(self):
        w = Tensor(rand((3, 3), 15), requires_grad=True)
        c = rand((3, 3), 16)
        loss = tensor.sum_all(
            tensor.mul(softmax_rows(causal_mask(w)), Tensor(c)))
        tensor.backward(loss)

        def f():
            with tensor.no_grad():
                return tensor.sum_all(
                    tensor.mul(softmax_rows(causal_mask(w)),
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
        np.testing.assert_array_equal(slice_cols(cat1, 3, 6).data, a)

    def test_flip_rows(self):
        a = rand((4, 2), 24)
        np.testing.assert_array_equal(flip_rows(Tensor(a)).data, a[::-1])

    @pytest.mark.parametrize("build", [
        lambda x: tensor.concat([x, flip_rows(x)], axis=0),
        lambda x: tensor.concat([x, x], axis=1),
        lambda x: tensor.reshape(x, (1, 12)),
        lambda x: slice_cols(x, 1, 3),
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
            return tensor.sum_all(tensor.mul(
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
        return tensor.sum_all(tensor.mul(build(*leaves), Tensor(weights)))

    tensor.backward(loss())

    def f():
        with tensor.no_grad():
            return loss().item()

    return [t.grad for t in leaves], finite_diff(f, [t.data for t in leaves])


@pytest.mark.usefixtures("small_tiles")
class TestRowTiledAttention:
    @pytest.mark.parametrize("causal", [False, True])
    @pytest.mark.parametrize("steps", TILE_STEPS)
    def test_matches_whole_array_graph(self, steps, causal):
        rng = np.random.default_rng(40 + steps)
        q, k, v = (rng.standard_normal((steps, 3)) for _ in range(3))
        got = tensor.attention(Tensor(q), Tensor(k), Tensor(v), causal).data
        want = attention_graph(Tensor(q), Tensor(k), Tensor(v), causal).data
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("causal", [False, True])
    @pytest.mark.parametrize("steps", TILE_STEPS)
    def test_gradients(self, steps, causal):
        rng = np.random.default_rng(50 + steps)
        arrays = [rng.standard_normal((steps, 3)) for _ in range(3)]
        analytic, fd = weighted_sum_grads(
            lambda q, k, v: tensor.attention(q, k, v, causal), arrays,
            rng.standard_normal((steps, 3)))
        assert check_grads(analytic, fd) < 1e-6

    def test_causal_row_ignores_later_keys(self):
        rng = np.random.default_rng(60)
        q, k, v = (rng.standard_normal((2 * SMALL_TILE + 3, 3)) for _ in range(3))
        k2, v2 = k.copy(), v.copy()
        k2[SMALL_TILE + 1:] += 5.0
        v2[SMALL_TILE + 1:] -= 5.0
        a = tensor.attention(Tensor(q), Tensor(k), Tensor(v), True).data
        b = tensor.attention(Tensor(q), Tensor(k2), Tensor(v2), True).data
        np.testing.assert_array_equal(a[:SMALL_TILE + 1], b[:SMALL_TILE + 1])
        assert np.abs(a[SMALL_TILE + 1:] - b[SMALL_TILE + 1:]).min() > 0.0

    def test_bad_shapes_rejected(self):
        x = Tensor(rand((3, 2)))
        with pytest.raises(DimensionError):
            tensor.attention(x, Tensor(rand((3, 4))), x, False)
        with pytest.raises(DimensionError):
            tensor.attention(x, x, Tensor(rand((4, 2))), False)
        with pytest.raises(DimensionError):
            tensor.attention(x, Tensor(rand((5, 2))), Tensor(rand((5, 2))), True)
        with pytest.raises(DimensionError):
            tensor.attention(Tensor(rand(3)), x, x, False)


def lstm_operands(steps, seed, n_in=3, hidden=2, dtype=np.float64):
    rng = np.random.default_rng(seed)
    return [(scale * rng.standard_normal(shape)).astype(dtype) for scale, shape in (
        (1.0, (steps, n_in)), (0.5, (n_in, 4 * hidden)), (0.5, (4 * hidden,)),
        (0.5, (hidden, 4 * hidden)))]


def flipped_lstm(x, w_x, b, w_h):
    """The time-reversed LSTM as flip, forward LSTM, flip."""
    return flip_rows(tensor.lstm_sequence(flip_rows(x), w_x, b, w_h))


class TestLstmNode:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("steps", [1, 2, 9, 256])
    def test_reverse_bitwise_flip_within_one_tile(self, steps, dtype):
        assert steps <= tensor.TILE_ROWS
        operands = [Tensor(a) for a in lstm_operands(steps, 100 + steps, dtype=dtype)]
        got = tensor.lstm_sequence(*operands, reverse=True).data
        assert got.dtype == dtype
        np.testing.assert_array_equal(got, flipped_lstm(*operands).data)

    @pytest.mark.parametrize("reverse", [False, True])
    @pytest.mark.parametrize("steps", TILE_STEPS)
    def test_tiles_match_whole_array_graph(self, small_tiles, steps, reverse):
        arrays = lstm_operands(steps, 110 + steps)
        mix = Tensor(np.random.default_rng(111).standard_normal((steps, 2)))
        grads = []
        for build in (lambda *t: tensor.lstm_sequence(*t, reverse=reverse),
                      lambda *t: lstm_sequence_graph(*t, reverse=reverse),
                      flipped_lstm if reverse else tensor.lstm_sequence):
            leaves = [Tensor(a, requires_grad=True) for a in arrays]
            out = build(*leaves)
            tensor.backward(tensor.sum_all(tensor.mul(out, mix)))
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
        # reuses one tile of rows: both must match the stepwise graph exactly
        operands = [Tensor(a, requires_grad=recording) for a in
                    lstm_operands(steps, 140 + steps, hidden=5, dtype=np.float32)]
        got = tensor.lstm_sequence(*operands, reverse=reverse)
        assert got.requires_grad == recording and got.data.dtype == np.float32
        np.testing.assert_array_equal(got.data, lstm_stepwise(*operands, reverse=reverse))

    @pytest.mark.parametrize("reverse", [False, True])
    @pytest.mark.parametrize("steps", [1, 4, 5, 7, 11])
    def test_gradients(self, small_tiles, steps, reverse):
        analytic, fd = weighted_sum_grads(
            lambda *t: tensor.lstm_sequence(*t, reverse=reverse),
            lstm_operands(steps, 120 + steps),
            np.random.default_rng(121).standard_normal((steps, 2)))
        assert check_grads(analytic, fd) < 1e-6

    def test_reverse_first_row_sees_every_step(self):
        x, w_x, b, w_h = lstm_operands(5, 130)
        y = x.copy()
        y[-1] += 1.0
        run = lambda v: tensor.lstm_sequence(Tensor(v), Tensor(w_x), Tensor(b),
                                             Tensor(w_h), reverse=True).data
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
            tensor.backward(tensor.sum_all(tensor.mul(op(*leaves, 1e-5), mix)))
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
            frames = frame(x, frame_len, shift, num_frames)
            tensor.backward(tensor.sum_all(tensor.mul(frames, Tensor(frame_weights))))
            f = Tensor(frames_in.copy(), requires_grad=True)
            out = overlap(f, shift, m, offset)
            tensor.backward(tensor.sum_all(tensor.mul(out, Tensor(out_weights))))
            results.append((frames.data, x.grad, out.data, f.grad))
        for a, b in zip(*results):
            assert a.dtype == b.dtype
            np.testing.assert_array_equal(a, b)

    def test_signal_longer_than_frames_cover(self):
        x = Tensor(rand(20, 170), requires_grad=True)
        frames = tensor.frame_rows(x, 4, 2, 3)
        np.testing.assert_array_equal(frames.data,
                                      frame_rows_indexed(x, 4, 2, 3).data)
        tensor.backward(tensor.sum_all(frames))
        np.testing.assert_array_equal(x.grad, [1, 1, 2, 2, 2, 2, 1, 1] + [0] * 12)


@pytest.mark.usefixtures("small_tiles")
class TestRowTiledFeedforward:
    @staticmethod
    def operands(steps, seed):
        rng = np.random.default_rng(seed)
        return (rng.standard_normal((steps, 3)), rng.standard_normal((3, 8)) / 2.0,
                0.1 * rng.standard_normal(8))

    @staticmethod
    def mask(steps, seed):
        keep = np.random.default_rng(seed).random((steps, 8)) >= 0.3
        return keep / 0.7

    @pytest.mark.parametrize("masked", [False, True])
    @pytest.mark.parametrize("steps", TILE_STEPS)
    def test_matches_whole_array_graph(self, steps, masked):
        x, w, b = (Tensor(a) for a in self.operands(steps, 70 + steps))
        got = tensor.feedforward(x, w, b, self.mask(steps, 1) if masked else None).data
        if masked:
            want = feedforward_graph(x, w, b, 0.3, "train", np.random.default_rng(1)).data
        else:
            want = feedforward_graph(x, w, b).data
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("masked", [False, True])
    @pytest.mark.parametrize("steps", TILE_STEPS)
    def test_gradients(self, steps, masked):
        mask = self.mask(steps, 2) if masked else None
        analytic, fd = weighted_sum_grads(
            lambda x, w, b: tensor.feedforward(x, w, b, mask),
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
            tensor.feedforward(x, w, b, np.ones((4, 8)))


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
        frames = tensor.frame_rows(x, window.size, hop, math.ceil(signal.size / hop))
        out = op(frames, window, n)
        tensor.backward(tensor.sum_all(tensor.mul(out, Tensor(weights))))
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
        tensor.backward(tensor.sum_all(tensor.rfft_magnitude(frames, np.ones(8), 8)))
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
            assert traced_peak(lambda: tensor.attention(q, k, v, causal)) < bound
        assert traced_peak(lambda: tensor.backward(
            tensor.sum_all(tensor.attention(q, k, v, causal)))) < bound
        assert q.grad.shape == k.grad.shape == v.grad.shape == (self.STEPS, self.WIDTH)

    @pytest.mark.parametrize("reverse", [False, True])
    def test_recording_lstm_keeps_only_activations_cells_and_output(self, reverse):
        rng = np.random.default_rng(92)
        h = self.WIDTH
        x, w_x, b, w_h = (Tensor(rng.standard_normal(shape), requires_grad=True)
                          for shape in ((self.STEPS, h), (h, 4 * h), (4 * h,),
                                        (h, 4 * h)))
        # the (T, 4H) gate activations, the (T, H) cell states and the (T, H)
        # output; then O(H) scratch, and numpy's ufunc buffer, which the
        # bias's broadcast over a tile's rows goes through
        kept = (4 * h + h + h) * self.STEPS * 8
        scratch = 64 * 4 * h * 8 + np.getbufsize() * 8
        peak = traced_peak(lambda: tensor.lstm_sequence(x, w_x, b, w_h, reverse))
        assert peak <= kept + scratch

    @pytest.mark.parametrize("masked", [False, True])
    def test_feedforward_below_one_hidden_activation(self, masked):
        rng = np.random.default_rng(91)
        n = self.WIDTH
        x = Tensor(rng.standard_normal((self.STEPS, n)), requires_grad=True)
        w = Tensor(rng.standard_normal((n, 4 * n)), requires_grad=True)
        b = Tensor(rng.standard_normal(4 * n), requires_grad=True)
        mask = (rng.random((self.STEPS, 4 * n)) >= 0.1) / 0.9 if masked else None
        bound = self.STEPS * 4 * n * 8
        with tensor.no_grad():
            assert traced_peak(lambda: tensor.feedforward(x, w, b, mask)) < bound
        out = tensor.feedforward(x, w, b, mask)
        out.grad = np.ones_like(out.data)
        assert traced_peak(out._backward) < bound
        assert x.grad.shape == (self.STEPS, n) and w.grad.shape == (n, 4 * n)
