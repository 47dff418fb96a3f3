"""Network building blocks: layer norm, LSTM/BLSTM, gated attention,
feedforward, block wiring, and the full forward pass."""

import gc
import math
import weakref

import numpy as np
import pytest

from arn import losses, model, tensor
from arn.model import (
    ARNConfig,
    ConfigurationError,
    attention_block,
    arn_block_forward,
    arn_forward,
    blstm_sequence,
    feedforward_block,
    init_params,
    layer_norm,
    lstm_sequence,
    rnn_sequence,
    zeros_params,
)
from arn.tensor import Tensor

from gradtools import (
    SMALL_TILE,
    TILE_STEPS,
    attention_block_graph,
    check_grads,
    feedforward_graph,
    finite_diff,
    lstm_graph_step,
    lstm_step,
    traced_peak,
)


def toy_cfg(**overrides):
    base = dict(width=8, frame_in=8, frame_out=8, shift=4, num_blocks=1,
                causal=True, dropout=0.0)
    return ARNConfig(**{**base, **overrides})


class TestConfig:
    def test_full_size_presets(self):
        causal = ARNConfig.causal_16k()
        assert (causal.width, causal.frame_in, causal.frame_out) == (1024, 512, 256)
        assert causal.causal and causal.num_blocks == 4
        nc = ARNConfig.noncausal_16k()
        assert (nc.frame_in, nc.frame_out) == (256, 256)
        assert not nc.causal

    def test_geometry_validation(self):
        with pytest.raises(ConfigurationError):
            toy_cfg(shift=16, frame_out=8)      # J > L_out
        with pytest.raises(ConfigurationError):
            toy_cfg(frame_out=16, frame_in=8)   # L_out > L_in
        with pytest.raises(ConfigurationError):
            toy_cfg(width=7, causal=False)      # odd width BLSTM
        with pytest.raises(ConfigurationError):
            toy_cfg(dropout=1.0)

    def test_round_trips_through_dict(self):
        cfg = toy_cfg(causal=False, width=6)
        assert ARNConfig.from_dict(cfg.to_dict()) == cfg


class TestLayerNorm:
    def test_constant_row_maps_to_beta(self):
        x = Tensor(np.full((2, 4), 3.7))
        gamma = Tensor(np.ones(4))
        beta = Tensor(np.zeros(4))
        out = layer_norm(x, gamma, beta, 1e-5)
        np.testing.assert_allclose(out.data, 0.0, atol=1e-9)

    def test_direct_evaluation(self):
        out = layer_norm(Tensor(np.array([[1.0, 2.0, 3.0]])),
                         Tensor(np.ones(3)), Tensor(np.zeros(3)), eps=0.0)
        root = math.sqrt(1.5)  # 1 / sqrt(var) with var = 2/3
        np.testing.assert_allclose(out.data, [[-root, 0.0, root]], atol=1e-12)

    def test_zero_gain_yields_beta(self):
        x = Tensor(np.random.default_rng(0).standard_normal((3, 5)))
        beta = Tensor(np.random.default_rng(1).standard_normal(5))
        out = layer_norm(x, Tensor(np.zeros(5)), beta, 1e-5)
        np.testing.assert_allclose(out.data, np.broadcast_to(beta.data, (3, 5)))


def lstm_weights(n_in, hidden, seed=None, dtype=np.float64):
    w = {}
    rng = np.random.default_rng(seed)
    for gate in "ifgo":
        for key, shape in ((f"w_{gate}x", (n_in, hidden)),
                           (f"w_{gate}h", (hidden, hidden)),
                           (f"b_{gate}", (hidden,))):
            data = np.zeros(shape) if seed is None else 0.5 * rng.standard_normal(shape)
            w[key] = Tensor(data.astype(dtype), requires_grad=True)
    return w


def sequence_grad_error(run, x, weights, seed):
    """Largest relative gap between the recorded gradients of
    sum(run(x) * mix), for a random ``mix``, and central differences, over
    ``x`` and every tensor of the weight dicts."""
    with tensor.no_grad():
        shape = run(x).shape
    mix = Tensor(np.random.default_rng(seed).standard_normal(shape))

    def build():
        return tensor.sum_all(tensor.mul(run(x), mix))

    tensor.backward(build())

    def f():
        with tensor.no_grad():
            return build().item()

    leaves = [x] + [w[k] for w in weights for k in sorted(w)]
    return check_grads([t.grad for t in leaves],
                       finite_diff(f, [t.data for t in leaves]))


class TestLstm:
    def test_zero_parameters_fixed_point(self):
        w = lstm_weights(3, 4)
        h, c = lstm_step(Tensor(np.random.default_rng(2).standard_normal((1, 3))),
                         Tensor(np.zeros((1, 4))), Tensor(np.zeros((1, 4))), w)
        np.testing.assert_array_equal(h.data, np.zeros((1, 4)))
        np.testing.assert_array_equal(c.data, np.zeros((1, 4)))

    def test_scalar_accumulator(self):
        # H=1, block-input weight 1, forget bias large: c += 0.5*tanh(x_t)
        w = lstm_weights(1, 1)
        w["w_gx"] = Tensor(np.array([[1.0]]))
        w["b_f"] = Tensor(np.array([40.0]))
        h = Tensor(np.zeros((1, 1)))
        c = Tensor(np.zeros((1, 1)))
        xs = [0.3, -1.2, 2.0, 0.7]
        expected_c = 0.0
        for x_t in xs:
            h, c = lstm_step(Tensor(np.array([[x_t]])), h, c, w)
            expected_c += 0.5 * math.tanh(x_t)
            assert c.data[0, 0] == pytest.approx(expected_c, abs=1e-9)
            assert h.data[0, 0] == pytest.approx(0.5 * math.tanh(expected_c), abs=1e-9)

    def test_sequence_matches_stepwise_reference(self):
        w = lstm_weights(4, 3, seed=3)
        x = np.random.default_rng(4).standard_normal((6, 4))
        fused = lstm_sequence(Tensor(x), w)
        h = Tensor(np.zeros((1, 3)))
        c = Tensor(np.zeros((1, 3)))
        for t in range(6):
            h, c = lstm_step(Tensor(x[t:t + 1]), h, c, w)
            np.testing.assert_allclose(fused.data[t], h.data[0], atol=1e-12)

    def test_sequence_gradients(self):
        w = lstm_weights(3, 3, seed=5)
        x = Tensor(np.random.default_rng(6).standard_normal((4, 3)),
                   requires_grad=True)
        run = lambda v: lstm_sequence(v, w)
        assert sequence_grad_error(run, x, [w], seed=7) < 1e-5

    @pytest.mark.parametrize("steps", [1, 7])
    def test_sequence_gradients_one_and_many_steps(self, steps):
        w = lstm_weights(3, 2, seed=30 + steps)
        x = Tensor(np.random.default_rng(31).standard_normal((steps, 3)),
                   requires_grad=True)
        run = lambda v: lstm_sequence(v, w)
        assert sequence_grad_error(run, x, [w], seed=32) < 1e-5

    def test_one_step_recurrent_weights_get_zero_gradient(self):
        # with a single step h_{t-1} is the zero state: w_h gets an all-zero
        # gradient, not none, and the packing concat's backward still runs
        w = lstm_weights(3, 2, seed=33)
        x = Tensor(np.random.default_rng(34).standard_normal((1, 3)))
        tensor.backward(tensor.sum_all(lstm_sequence(x, w)))
        for gate in "ifgo":
            np.testing.assert_array_equal(w[f"w_{gate}h"].grad, np.zeros((2, 2)))
        assert np.abs(w["w_ix"].grad).max() > 0

    @pytest.mark.parametrize("steps", [1, 2, 9])
    def test_fused_op_bit_identical_to_stepwise_graph_float32(self, steps):
        rng = np.random.default_rng(35 + steps)
        hidden = 5
        x, w_x, b, w_h = (
            Tensor((scale * rng.standard_normal(shape)).astype(np.float32),
                   requires_grad=True)
            for scale, shape in ((1.0, (steps, 3)), (0.5, (3, 4 * hidden)),
                                 (0.5, (4 * hidden,)), (0.5, (hidden, 4 * hidden))))
        fused = tensor.lstm_sequence(x, w_x, b, w_h)
        assert fused.data.dtype == np.float32
        z_in = x.data @ w_x.data + b.data  # one tile: the op's own projection
        h = Tensor(np.zeros((1, hidden), dtype=np.float32))
        c = Tensor(np.zeros((1, hidden), dtype=np.float32))
        for t in range(steps):
            h, c = lstm_graph_step(Tensor(z_in[t:t + 1]), h, c, w_h)
            np.testing.assert_array_equal(fused.data[t], h.data[0])

    def test_float32_sequence_matches_per_gate_steps(self):
        w = lstm_weights(4, 3, seed=36, dtype=np.float32)
        x = np.random.default_rng(37).standard_normal((8, 4)).astype(np.float32)
        fused = lstm_sequence(Tensor(x), w)
        h = Tensor(np.zeros((1, 3), dtype=np.float32))
        c = Tensor(np.zeros((1, 3), dtype=np.float32))
        for t in range(8):
            h, c = lstm_step(Tensor(x[t:t + 1]), h, c, w)
            np.testing.assert_allclose(fused.data[t], h.data[0], atol=1e-6)

    def test_fused_op_rejects_bad_shapes(self):
        x, b = Tensor(np.zeros((3, 4))), Tensor(np.zeros(8))
        w_x, w_h = Tensor(np.zeros((4, 8))), Tensor(np.zeros((2, 8)))
        with pytest.raises(tensor.DimensionError):
            tensor.lstm_sequence(x, w_x, b, Tensor(np.zeros((2, 6))))
        with pytest.raises(tensor.DimensionError):
            tensor.lstm_sequence(x, Tensor(np.zeros((4, 12))), b, w_h)
        with pytest.raises(tensor.DimensionError):
            tensor.lstm_sequence(x, w_x, Tensor(np.zeros(6)), w_h)
        with pytest.raises(tensor.DimensionError):
            tensor.lstm_sequence(Tensor(np.zeros(4)), w_x, b, w_h)
        with pytest.raises(tensor.DimensionError):
            tensor.lstm_sequence(Tensor(np.zeros((0, 4))), w_x, b, w_h)


class TestBlstm:
    def test_zero_weights_zero_output(self):
        fwd, bwd = lstm_weights(4, 2), lstm_weights(4, 2)
        out = blstm_sequence(Tensor(np.random.default_rng(8).standard_normal((5, 4))),
                             fwd, bwd)
        np.testing.assert_array_equal(out.data, np.zeros((5, 4)))

    def test_direction_swap_symmetry(self):
        fwd, bwd = lstm_weights(4, 2, seed=9), lstm_weights(4, 2, seed=10)
        x = np.random.default_rng(11).standard_normal((7, 4))
        a = blstm_sequence(Tensor(x), fwd, bwd)
        b = blstm_sequence(Tensor(x[::-1].copy()), bwd, fwd)
        for t in range(7):
            np.testing.assert_allclose(a.data[t, 2:], b.data[6 - t, :2], atol=1e-12)

    def test_future_perturbation_reaches_first_output(self):
        fwd, bwd = lstm_weights(3, 2, seed=12), lstm_weights(3, 2, seed=13)
        x = np.random.default_rng(14).standard_normal((5, 3))
        y = x.copy()
        y[-1] += 1.0
        a = blstm_sequence(Tensor(x), fwd, bwd)
        b = blstm_sequence(Tensor(y), fwd, bwd)
        assert np.abs(a.data[0] - b.data[0]).max() > 1e-8

    @pytest.mark.parametrize("steps", [1, 7])
    def test_gradients(self, steps):
        fwd, bwd = lstm_weights(3, 2, seed=40), lstm_weights(3, 2, seed=41)
        x = Tensor(np.random.default_rng(42).standard_normal((steps, 3)),
                   requires_grad=True)
        run = lambda v: blstm_sequence(v, fwd, bwd)
        assert sequence_grad_error(run, x, [fwd, bwd], seed=43) < 1e-5

    def test_rnn_dispatch_validates_config(self):
        causal_params = init_params(toy_cfg(), np.random.default_rng(0))
        nc_params = init_params(toy_cfg(causal=False), np.random.default_rng(0))
        x = Tensor(np.zeros((3, 8)))
        block_causal = {k.split(".", 1)[1]: v for k, v in causal_params.items()
                        if k.startswith("block0.")}
        block_nc = {k.split(".", 1)[1]: v for k, v in nc_params.items()
                    if k.startswith("block0.")}
        with pytest.raises(ConfigurationError):
            rnn_sequence(x, block_causal, toy_cfg(causal=False))
        with pytest.raises(ConfigurationError):
            rnn_sequence(x, block_nc, toy_cfg())


def attn_params(n, seed, dtype=np.float64):
    rng = np.random.default_rng(seed)
    p = {"q": rng.standard_normal(n), "k": rng.standard_normal(n),
         "v": rng.standard_normal(n)}
    for lin in ("lin_q", "lin_v_sig", "lin_v_tanh"):
        p[f"{lin}.w"] = rng.standard_normal((n, n)) / math.sqrt(n)
        p[f"{lin}.b"] = 0.1 * rng.standard_normal(n)
    return {k: Tensor(v.astype(dtype), requires_grad=True) for k, v in p.items()}


def numpy_v_gate(p):
    """The value gate sigma(Lin(v)) * tanh(Lin(v)) from raw arrays."""
    v = p["v"].data
    sig = 1.0 / (1.0 + np.exp(-(v @ p["lin_v_sig.w"].data + p["lin_v_sig.b"].data)))
    return sig * np.tanh(v @ p["lin_v_tanh.w"].data + p["lin_v_tanh.b"].data)


def naive_attention(q, k, v, p, causal):
    """Triple-loop scalar reference for the gated attention block."""
    steps, n = q.shape

    def sig(a):
        return 1.0 / (1.0 + math.exp(-a))

    def lin(w, b, row):
        return [sum(row[i] * w[i, j] for i in range(n)) + b[j] for j in range(n)]

    gate_k = [sig(p["k"][j]) for j in range(n)]
    gate_q = [sig(p["q"][j]) for j in range(n)]
    vs = lin(p["lin_v_sig.w"], p["lin_v_sig.b"], p["v"])
    vt = lin(p["lin_v_tanh.w"], p["lin_v_tanh.b"], p["v"])
    gate_v = [sig(vs[j]) * math.tanh(vt[j]) for j in range(n)]

    kp = [[k[t][j] * gate_k[j] for j in range(n)] for t in range(steps)]
    qp = [[w * g for w, g in zip(lin(p["lin_q.w"], p["lin_q.b"], q[t]), gate_q)]
          for t in range(steps)]
    vp = [[v[t][j] * gate_v[j] for j in range(n)] for t in range(steps)]

    out = np.zeros((steps, n))
    for i in range(steps):
        scores = []
        for j in range(steps):
            if causal and j > i:
                scores.append(None)  # masked: exp contributes exactly zero
            else:
                scores.append(sum(qp[i][d] * kp[j][d] for d in range(n))
                              / math.sqrt(n))
        finite = [s for s in scores if s is not None]
        peak = max(finite)
        weights = [0.0 if s is None else math.exp(s - peak) for s in scores]
        total = sum(weights)
        for j in range(steps):
            share = weights[j] / total
            for d in range(n):
                out[i, d] += share * vp[j][d]
    return out


class TestAttention:
    def test_single_step_returns_gated_value(self):
        n = 4
        p = attn_params(n, 15)
        row = np.random.default_rng(16).standard_normal((1, n))
        out = attention_block(Tensor(row), Tensor(row), Tensor(row), p,
                              causal=False)
        np.testing.assert_allclose(out.data, row * numpy_v_gate(p), atol=1e-12)

    def test_causal_first_row_ignores_second(self):
        n = 3
        p = attn_params(n, 17)
        rng = np.random.default_rng(18)
        base = rng.standard_normal((2, n))
        other = base.copy()
        other[1] = rng.standard_normal(n)
        a = attention_block(Tensor(base), Tensor(base), Tensor(base), p,
                            causal=True)
        b = attention_block(Tensor(other), Tensor(other), Tensor(other), p,
                            causal=True)
        np.testing.assert_allclose(a.data[0], base[0] * numpy_v_gate(p),
                                   atol=1e-12)
        np.testing.assert_array_equal(a.data[0], b.data[0])

    @pytest.mark.parametrize("causal", [False, True])
    def test_matches_naive_reference(self, causal):
        rng = np.random.default_rng(19 if causal else 20)
        for _ in range(10):
            steps = int(rng.integers(1, 8))
            n = int(rng.integers(1, 7))
            p = attn_params(n, int(rng.integers(1 << 30)))
            q = rng.standard_normal((steps, n))
            k = rng.standard_normal((steps, n))
            v = rng.standard_normal((steps, n))
            got = attention_block(Tensor(q), Tensor(k), Tensor(v), p,
                                  causal=causal)
            want = naive_attention(q, k, v,
                                   {key: t.data for key, t in p.items()}, causal)
            np.testing.assert_allclose(got.data, want, atol=1e-6)

    @pytest.mark.parametrize("causal", [False, True])
    @pytest.mark.parametrize("steps", TILE_STEPS)
    def test_tiles_match_whole_array_graph(self, monkeypatch, steps, causal):
        monkeypatch.setattr(tensor, "TILE_ROWS", SMALL_TILE)
        n = 5
        p = attn_params(n, 24 + steps)
        rng = np.random.default_rng(25 + steps)
        q, k, v = (rng.standard_normal((steps, n)) for _ in range(3))
        got = attention_block(Tensor(q), Tensor(k), Tensor(v), p, causal).data
        graph = attention_block_graph(Tensor(q), Tensor(k), Tensor(v), p, causal).data
        loop = naive_attention(q, k, v, {key: t.data for key, t in p.items()}, causal)
        assert np.abs(got - graph).max() <= 1e-6
        assert np.abs(got - loop).max() <= 1e-6

    @pytest.mark.parametrize("causal", [False, True])
    @pytest.mark.parametrize("steps", TILE_STEPS)
    def test_folded_gates_match_whole_array_graph(self, monkeypatch, steps, causal):
        # keys and values differ here, so the folding is checked for each
        monkeypatch.setattr(tensor, "TILE_ROWS", SMALL_TILE)
        n = 4
        rng = np.random.default_rng(70 + steps)
        arrays = [rng.standard_normal((steps, n)) for _ in range(3)]
        mix = Tensor(rng.standard_normal((steps, n)))
        results = []
        for block in (attention_block, attention_block_graph):
            p = attn_params(n, 71)
            qkv = [Tensor(a, requires_grad=True) for a in arrays]
            out = block(*qkv, p, causal)
            tensor.backward(tensor.sum_all(tensor.mul(out, mix)))
            results.append([out.data] + [t.grad for t in qkv]
                           + [p[k].grad for k in sorted(p)])
        for got, want in zip(*results):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("causal", [False, True])
    def test_gradients(self, causal):
        n = 3
        p = attn_params(n, 72)
        rng = np.random.default_rng(73)
        q, kv = (Tensor(rng.standard_normal((5, n)), requires_grad=True)
                 for _ in range(2))
        mix = Tensor(rng.standard_normal((5, n)))

        def build():
            return tensor.sum_all(tensor.mul(attention_block(q, kv, kv, p, causal), mix))

        tensor.backward(build())

        def f():
            with tensor.no_grad():
                return build().item()

        leaves = [q, kv] + [p[k] for k in sorted(p)]
        fd = finite_diff(f, [t.data for t in leaves])
        assert check_grads([t.grad for t in leaves], fd) < 1e-5

    def test_empty_sequence_rejected(self):
        p = attn_params(3, 21)
        empty = Tensor(np.zeros((0, 3)))
        with pytest.raises(tensor.DimensionError):
            attention_block(empty, empty, empty, p, causal=False)

    def test_eval_gate_matches_train_gate(self):
        # recorded (training) and unrecorded (evaluation) passes agree
        n = 5
        p = attn_params(n, 22)
        x = np.random.default_rng(23).standard_normal((4, n))
        train_out = attention_block(Tensor(x), Tensor(x), Tensor(x), p,
                                    causal=False)
        assert train_out.requires_grad
        with tensor.no_grad():
            eval_out = attention_block(Tensor(x), Tensor(x), Tensor(x), p,
                                       causal=False)
        assert eval_out._backward is None
        np.testing.assert_allclose(train_out.data, eval_out.data, atol=1e-12)


class TestFeedforward:
    def test_zero_parameters_zero_output(self):
        n = 4
        out = feedforward_block(
            Tensor(np.random.default_rng(26).standard_normal((3, n))),
            Tensor(np.zeros((n, 4 * n))), Tensor(np.zeros(4 * n)),
            dropout_rate=0.0)
        np.testing.assert_array_equal(out.data, np.zeros((3, n)))

    def test_rate_zero_train_equals_eval(self):
        n = 5
        rng = np.random.default_rng(27)
        x = Tensor(rng.standard_normal((4, n)))
        w = Tensor(rng.standard_normal((n, 4 * n)))
        b = Tensor(rng.standard_normal(4 * n))
        train = feedforward_block(x, w, b, 0.0, np.random.default_rng(0))
        evald = feedforward_block(x, w, b, 0.0)
        np.testing.assert_array_equal(train.data, evald.data)

    @pytest.mark.parametrize("steps", TILE_STEPS)
    def test_dropout_draws_match_whole_array_graph(self, monkeypatch, steps):
        monkeypatch.setattr(tensor, "TILE_ROWS", SMALL_TILE)
        n = 3
        rng = np.random.default_rng(29)
        x = Tensor(rng.standard_normal((steps, n)))
        w = Tensor(rng.standard_normal((n, 4 * n)))
        b = Tensor(rng.standard_normal(4 * n))
        ours, theirs = np.random.default_rng(7), np.random.default_rng(7)
        got = feedforward_block(x, w, b, 0.3, ours)
        want = feedforward_graph(x, w, b, 0.3, "train", theirs)
        np.testing.assert_allclose(got.data, want.data, rtol=0, atol=1e-12)
        assert ours.random() == theirs.random()  # same draws, same stream position
        evald = feedforward_block(x, w, b, 0.3)
        np.testing.assert_allclose(evald.data, feedforward_graph(x, w, b).data,
                                   rtol=0, atol=1e-12)
        assert ours.random() == theirs.random()  # no generator, no draws

    def test_bad_dropout_arguments_rejected(self):
        x, w, b = Tensor(np.zeros((2, 2))), Tensor(np.zeros((2, 8))), Tensor(np.zeros(8))
        for rate in (-0.1, 1.0):
            with pytest.raises(ValueError):
                feedforward_block(x, w, b, rate, np.random.default_rng(0))

    def test_gradients(self):
        n = 6
        rng = np.random.default_rng(28)
        x = Tensor(rng.standard_normal((3, n)), requires_grad=True)
        w = Tensor(rng.standard_normal((n, 4 * n)) / math.sqrt(n),
                   requires_grad=True)
        b = Tensor(0.1 * rng.standard_normal(4 * n), requires_grad=True)
        mix = rng.standard_normal((3, n))

        def build():
            return tensor.sum_all(tensor.mul(
                feedforward_block(x, w, b, 0.0), Tensor(mix)))

        tensor.backward(build())

        def f():
            with tensor.no_grad():
                return build().item()

        fd = finite_diff(f, [x.data, w.data, b.data])
        assert check_grads([x.grad, w.grad, b.grad], fd) < 1e-5


def block_view(params, i=0):
    return {k.split(".", 1)[1]: v for k, v in params.items()
            if k.startswith(f"block{i}.")}


class TestBlock:
    def test_zero_init_fixed_point(self):
        cfg = toy_cfg()
        params = zeros_params(cfg, dtype=np.float64)
        out = arn_block_forward(Tensor(np.zeros((4, cfg.width))),
                                block_view(params), cfg)
        np.testing.assert_array_equal(out.data, np.zeros((4, cfg.width)))

    @pytest.mark.parametrize("steps", [1, 2, 17])
    def test_shape_preserved(self, steps):
        cfg = toy_cfg()
        params = init_params(cfg, np.random.default_rng(29), dtype=np.float64)
        x = np.random.default_rng(30).standard_normal((steps, cfg.width))
        out = arn_block_forward(Tensor(x), block_view(params), cfg)
        assert out.shape == (steps, cfg.width)

    def test_causal_rows_unaffected_by_future(self):
        cfg = toy_cfg(width=8)
        params = init_params(cfg, np.random.default_rng(31), dtype=np.float32)
        rng = np.random.default_rng(32)
        x = rng.standard_normal((10, cfg.width)).astype(np.float32)
        for t in (0, 3, 8):
            y = x.copy()
            y[t + 1:] += rng.standard_normal(y[t + 1:].shape).astype(np.float32)
            a = arn_block_forward(Tensor(x), block_view(params), cfg)
            b = arn_block_forward(Tensor(y), block_view(params), cfg)
            assert np.abs(a.data[: t + 1] - b.data[: t + 1]).max() <= 1e-6


class TestFullForward:
    def test_zero_params_zero_output(self):
        cfg = toy_cfg(num_blocks=2)
        params = zeros_params(cfg, dtype=np.float64)
        x = np.random.default_rng(33).standard_normal(50)
        out = model.enhance(x, params, cfg)
        np.testing.assert_array_equal(out, np.zeros(50))

    @pytest.mark.parametrize("m", [100, 16000, 64001])
    def test_output_length_matches_input(self, m):
        cfg = toy_cfg(width=4, frame_in=16, frame_out=16, shift=16)
        params = init_params(cfg, np.random.default_rng(34), dtype=np.float32)
        out = model.enhance(np.random.default_rng(35).standard_normal(m), params, cfg)
        assert out.shape == (m,)

    def test_causal_samples_identical_under_future_noise(self):
        cfg = toy_cfg(width=8, frame_in=16, frame_out=8, shift=4)
        params = init_params(cfg, np.random.default_rng(36), dtype=np.float32)
        rng = np.random.default_rng(37)
        x = rng.standard_normal(120).astype(np.float32)
        for t0 in (4, 10, 20):  # 0-based frame indices
            span_end = t0 * cfg.shift + cfg.frame_in
            y = x.copy()
            y[span_end:] = rng.standard_normal(len(x) - span_end)
            a = model.enhance(x, params, cfg)
            b = model.enhance(y, params, cfg)
            guard = t0 * cfg.shift + cfg.frame_out
            np.testing.assert_array_equal(a[:guard], b[:guard])

    def test_noncausal_output_depends_on_future(self):
        cfg = toy_cfg(width=8, frame_in=8, frame_out=8, shift=8, causal=False)
        params = init_params(cfg, np.random.default_rng(38), dtype=np.float64)
        rng = np.random.default_rng(39)
        x = rng.standard_normal(64)
        y = x.copy()
        y[-8:] += rng.standard_normal(8)
        a = model.enhance(x, params, cfg)
        b = model.enhance(y, params, cfg)
        assert np.abs(a[:8] - b[:8]).max() > 1e-9

    def test_eval_mode_is_deterministic(self):
        cfg = toy_cfg(dropout=0.5)
        params = init_params(cfg, np.random.default_rng(40), dtype=np.float32)
        x = np.random.default_rng(41).standard_normal(40)
        a = model.enhance(x, params, cfg)
        b = model.enhance(x, params, cfg)
        np.testing.assert_array_equal(a, b)


class TestEndToEndGradients:
    def test_noncausal_model_gradients(self):
        # the BLSTM path, differentiated end to end through overlap-add
        from arn.losses import mse_loss
        cfg = toy_cfg(width=6, causal=False, num_blocks=1)
        params = init_params(cfg, np.random.default_rng(47), dtype=np.float64)
        rng = np.random.default_rng(48)
        x = rng.standard_normal(20)
        s = rng.standard_normal(20)

        def build():
            return mse_loss(s, arn_forward(x, params, cfg))

        tensor.backward(build())

        def f():
            with tensor.no_grad():
                return build().item()

        names = sorted(params)
        fd = finite_diff(f, [params[k].data for k in names])
        assert check_grads([params[k].grad for k in names], fd) < 1e-5


class TestParameters:
    def test_toy_parameter_count(self):
        cfg = toy_cfg(width=16, frame_in=8, frame_out=8, num_blocks=2)
        params = init_params(cfg, np.random.default_rng(44))
        n = 16
        per_block = (5 * 2 * n              # layer norms
                     + 4 * (2 * n * n + n)  # lstm gates
                     + 3 * n + 3 * (n * n + n)   # attention vectors + linears
                     + 4 * n * n + 4 * n)   # feedforward
        expected = (8 * n + n) + 2 * per_block + (n * 8 + 8)
        assert model.param_count(params) == expected

    def test_v_gate_matches_parameters(self):
        # one row of ones attends only to itself, so the output is the gate
        cfg = toy_cfg(num_blocks=2)
        params = init_params(cfg, np.random.default_rng(45), dtype=np.float64)
        ones = Tensor(np.ones((1, cfg.width)))
        for i in range(cfg.num_blocks):
            p = {k.split("attn.", 1)[1]: v for k, v in params.items()
                 if k.startswith(f"block{i}.attn.")}
            with tensor.no_grad():
                out = attention_block(ones, ones, ones, p, cfg.causal)
            np.testing.assert_allclose(out.data.reshape(-1), numpy_v_gate(p),
                                       atol=1e-12)

    def test_init_respects_dtype(self):
        params = init_params(toy_cfg(), np.random.default_rng(46), dtype=np.float32)
        assert all(p.data.dtype == np.float32 for p in params.values())


class TestGraphFreeing:
    """A recorded graph holds no reference cycle: with the cyclic collector
    off, dropping the loss frees every node, whether or not backward ran."""

    @pytest.mark.parametrize("causal", [True, False])
    @pytest.mark.parametrize("run_backward", [True, False])
    def test_graph_freed_on_del_without_collector(self, causal, run_backward):
        cfg = toy_cfg(causal=causal, num_blocks=2, dropout=0.1)
        params = init_params(cfg, np.random.default_rng(47), dtype=np.float64)
        rng = np.random.default_rng(48)
        x = rng.standard_normal(64)
        s = rng.standard_normal(64)
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            loss = losses.pcm_loss(x, s, arn_forward(x, params, cfg, rng=rng))
            if run_backward:
                loss.backward()
            nodes, stack, seen = [], [loss], set()
            while stack:
                node = stack.pop()
                if node._backward is None or id(node) in seen:
                    continue
                seen.add(id(node))
                nodes.append(weakref.ref(node))
                stack.extend(node._parents)
            assert len(nodes) > 50
            inner = weakref.ref(loss._parents[0])
            del loss, node, stack
            assert inner() is None
            assert [r for r in nodes if r() is not None] == []
        finally:
            if was_enabled:
                gc.enable()


class TestEvalMemory:
    """Outside recording, the whole forward pass holds a bounded number of
    (T, N) arrays: each node keeps no whole-sequence intermediates, and each
    block drops its locals after their last reader."""

    STEPS, WIDTH, SHIFT, TILE = 2048, 64, 8, 16
    # the traced peak of model.enhance measured 6.0 (causal) and 5.7
    # (non-causal) (T, N) float32 arrays; one array of headroom on top
    MAX_ARRAYS = 7

    @pytest.mark.parametrize("causal", [True, False])
    def test_enhance_peak_in_whole_arrays(self, monkeypatch, causal):
        monkeypatch.setattr(tensor, "TILE_ROWS", self.TILE)
        cfg = toy_cfg(width=self.WIDTH, frame_in=32 if causal else 16, frame_out=16,
                      shift=self.SHIFT, num_blocks=2, causal=causal)
        params = init_params(cfg, np.random.default_rng(80))
        x = np.random.default_rng(81).standard_normal(self.STEPS * self.SHIFT)
        peak = traced_peak(lambda: model.enhance(x, params, cfg))
        assert peak <= self.MAX_ARRAYS * self.STEPS * self.WIDTH * 4

    @pytest.mark.parametrize("reverse", [False, True])
    def test_lstm_node_holds_no_projection(self, monkeypatch, reverse):
        monkeypatch.setattr(tensor, "TILE_ROWS", self.TILE)
        hidden = self.WIDTH
        rng = np.random.default_rng(82)
        x, w_x, b, w_h = (Tensor(rng.standard_normal(shape).astype(np.float32),
                                 requires_grad=True)
                          for shape in ((self.STEPS, hidden), (hidden, 4 * hidden),
                                        (4 * hidden,), (hidden, 4 * hidden)))
        with tensor.no_grad():
            peak = traced_peak(lambda: tensor.lstm_sequence(x, w_x, b, w_h, reverse))
        assert peak < self.STEPS * 4 * hidden * 4
