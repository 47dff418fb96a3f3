"""Network building blocks: layer norm, LSTM/BLSTM, gated attention,
feedforward, block wiring, and the full forward pass."""

import collections
import contextlib
import gc
import json
import math
import os
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from arn import losses, model, tensor
from arn.model import (
    ARNConfig,
    ConfigurationError,
    attention_block,
    arn_block_forward,
    arn_forward,
    feedforward_block,
    init_params,
    layer_norm,
    rnn_sequence,
)
from arn.tensor import Tensor
from perfbench.tracing import SPANS, Tracer

from gradtools import (
    SMALL_TILE,
    TILE_STEPS,
    attention_block_graph,
    check_grads,
    feedforward_graph,
    finite_diff,
    lstm_graph_step,
    lstm_step,
    split_gates,
    sum_all,
    traced_peak,
)


ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"


def toy_cfg(**overrides):
    base = dict(width=8, frame_in=8, frame_out=8, shift=4, num_blocks=1,
                causal=True, dropout=0.0)
    return ARNConfig(**{**base, **overrides})


def preset(name, **overrides):
    """A shipped preset: the ``model`` block of ``configs/<name>.json``."""
    blob = json.loads((CONFIGS / f"{name}.json").read_text())
    return ARNConfig.from_dict({**blob["model"], **overrides})


def zero_params(cfg, dtype):
    """All-zero weights and biases, layer-norm gain 1: the model's fixed point."""
    return {name: Tensor(np.full(shape, float(".ln" in name and name.endswith(".g")),
                                 dtype=dtype), requires_grad=True)
            for name, shape in model.param_shapes(cfg).items()}


class TestConfig:
    def test_full_size_presets(self):
        causal = preset("causal_16k")
        assert (causal.width, causal.frame_in, causal.frame_out) == (1024, 512, 256)
        assert causal.causal and causal.num_blocks == 4
        assert causal == ARNConfig()  # the defaults are the causal preset
        nc = preset("noncausal_16k")
        assert (nc.frame_in, nc.frame_out) == (256, 256)
        assert not nc.causal

    def test_geometry_validation(self):
        with pytest.raises(ConfigurationError):
            toy_cfg(shift=16, frame_out=8)      # J > L_out
        with pytest.raises(ConfigurationError):
            toy_cfg(frame_out=16, frame_in=8)   # L_out > L_in
        with pytest.raises(ConfigurationError):
            toy_cfg(width=7, causal=False)      # odd width BLSTM
        for rate in (-0.1, 1.0):
            with pytest.raises(ConfigurationError):
                toy_cfg(dropout=rate)

    @pytest.mark.parametrize("field, value", [("width", "big"), ("causal", 1),
                                              ("shift", 4.5), ("num_blocks", True),
                                              ("dropout", "0.1")])
    def test_value_of_wrong_type_rejected(self, field, value):
        with pytest.raises(ConfigurationError, match=f"{field} must be of type"):
            ARNConfig(**{field: value})

    def test_int_passes_for_float(self):
        assert toy_cfg(dropout=0).dropout == 0

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


def lstm_node(x, *directions):
    """``tensor.lstm_sequence`` over weight dicts as ``lstm_weights`` makes
    them: one direction, or a forward-time and a backward-time one."""
    return tensor.lstm_sequence(x, *(model._lstm_gates(w) for w in directions))


def sequence_grad_error(run, x, weights, seed):
    """Largest relative gap between the recorded gradients of
    sum(run(x) * mix), for a random ``mix``, and central differences, over
    ``x`` and every tensor of the weight dicts."""
    with tensor.no_grad():
        shape = run(x).shape
    mix = Tensor(np.random.default_rng(seed).standard_normal(shape))

    def build():
        return sum_all(tensor.mul(run(x), mix))

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
        fused = lstm_node(Tensor(x), w)
        h = Tensor(np.zeros((1, 3)))
        c = Tensor(np.zeros((1, 3)))
        for t in range(6):
            h, c = lstm_step(Tensor(x[t:t + 1]), h, c, w)
            np.testing.assert_allclose(fused.data[t], h.data[0], atol=1e-12)

    def test_sequence_gradients(self):
        w = lstm_weights(3, 3, seed=5)
        x = Tensor(np.random.default_rng(6).standard_normal((4, 3)),
                   requires_grad=True)
        run = lambda v: lstm_node(v, w)
        assert sequence_grad_error(run, x, [w], seed=7) < 1e-5

    @pytest.mark.parametrize("steps", [1, 7])
    def test_sequence_gradients_one_and_many_steps(self, steps):
        w = lstm_weights(3, 2, seed=30 + steps)
        x = Tensor(np.random.default_rng(31).standard_normal((steps, 3)),
                   requires_grad=True)
        run = lambda v: lstm_node(v, w)
        assert sequence_grad_error(run, x, [w], seed=32) < 1e-5

    def test_one_step_recurrent_weights_get_zero_gradient(self):
        # with a single step h_{t-1} is the zero state: each gate's w_h gets
        # an all-zero gradient, not none
        w = lstm_weights(3, 2, seed=33)
        x = Tensor(np.random.default_rng(34).standard_normal((1, 3)))
        tensor.backward(sum_all(lstm_node(x, w)))
        for gate in "ifgo":
            np.testing.assert_array_equal(w[f"w_{gate}h"].grad, np.zeros((2, 2)))
        assert np.abs(w["w_ix"].grad).max() > 0

    @pytest.mark.parametrize("steps", [1, 2, 9])
    def test_fused_op_bit_identical_to_stepwise_graph_float32(self, steps):
        rng = np.random.default_rng(35 + steps)
        hidden = 5
        x, w_x, b, w_h = (
            (scale * rng.standard_normal(shape)).astype(np.float32)
            for scale, shape in ((1.0, (steps, 3)), (0.5, (3, 4 * hidden)),
                                 (0.5, (4 * hidden,)), (0.5, (hidden, 4 * hidden))))
        fused = tensor.lstm_sequence(
            Tensor(x, requires_grad=True),
            [[Tensor(a, requires_grad=True) for a in split_gates(packed)]
             for packed in (w_x, b, w_h)])
        assert fused.data.dtype == np.float32
        z_in = x @ w_x + b  # one tile: the op's own projection
        w_h = Tensor(w_h)
        h = Tensor(np.zeros((1, hidden), dtype=np.float32))
        c = Tensor(np.zeros((1, hidden), dtype=np.float32))
        for t in range(steps):
            h, c = lstm_graph_step(Tensor(z_in[t:t + 1]), h, c, w_h)
            np.testing.assert_array_equal(fused.data[t], h.data[0])

    def test_float32_sequence_matches_per_gate_steps(self):
        w = lstm_weights(4, 3, seed=36, dtype=np.float32)
        x = np.random.default_rng(37).standard_normal((8, 4)).astype(np.float32)
        fused = lstm_node(Tensor(x), w)
        h = Tensor(np.zeros((1, 3), dtype=np.float32))
        c = Tensor(np.zeros((1, 3), dtype=np.float32))
        for t in range(8):
            h, c = lstm_step(Tensor(x[t:t + 1]), h, c, w)
            np.testing.assert_allclose(fused.data[t], h.data[0], atol=1e-6)

    def test_fused_op_rejects_bad_shapes(self):
        x = Tensor(np.zeros((3, 4)))
        gates = lambda shape: [Tensor(np.zeros(shape)) for _ in range(4)]
        w_x, b, w_h = gates((4, 2)), gates(2), gates((2, 2))
        tensor.lstm_sequence(x, (w_x, b, w_h))
        tensor.lstm_sequence(x, (w_x, b, w_h), (w_x, b, w_h))
        with pytest.raises(tensor.DimensionError):
            tensor.lstm_sequence(x, (w_x, b, w_h[:3] + [Tensor(np.zeros((2, 3)))]))
        with pytest.raises(tensor.DimensionError):
            tensor.lstm_sequence(x, (gates((4, 3)), b, w_h))
        with pytest.raises(tensor.DimensionError):
            tensor.lstm_sequence(x, (w_x, b[:3] + [Tensor(np.zeros(3))], w_h))
        with pytest.raises(tensor.DimensionError):
            tensor.lstm_sequence(x, (w_x[:3], b, w_h))
        with pytest.raises(tensor.DimensionError):
            tensor.lstm_sequence(x, (w_x, b))
        with pytest.raises(tensor.DimensionError):
            tensor.lstm_sequence(x, ([Tensor(np.zeros((4, 8)))] * 4, b, w_h))
        # with K == H the input and recurrent weights are checked apart
        square = Tensor(np.zeros((3, 2)))
        with pytest.raises(tensor.DimensionError):
            tensor.lstm_sequence(square, (gates((2, 3)), b, w_h))
        with pytest.raises(tensor.DimensionError):
            tensor.lstm_sequence(Tensor(np.zeros(4)), (w_x, b, w_h))
        with pytest.raises(tensor.DimensionError):
            tensor.lstm_sequence(Tensor(np.zeros((0, 4))), (w_x, b, w_h))
        # the backward-time direction is checked too, against the same H
        with pytest.raises(tensor.DimensionError):
            tensor.lstm_sequence(x, (w_x, b, w_h), (w_x, b, w_h[:3]))
        with pytest.raises(tensor.DimensionError):
            tensor.lstm_sequence(x, (w_x, b, w_h), (gates((4, 3)), gates(3), gates((3, 3))))


    @pytest.mark.parametrize("recording", [False, True])
    def test_function_directions_give_tuple_bits(self, monkeypatch, recording):
        # each direction as a function that returns its weights: outside
        # recording, the backward direction's is called only after the
        # forward direction's loop has returned; recording, both are called
        # first. The output, and recording the gradients, are those of the
        # tuple form, bitwise
        events = []
        run = tensor._lstm_run

        def running(*args):
            events.append(("run", args[5]))
            return run(*args)
        monkeypatch.setattr(tensor, "_lstm_run", running)
        x = np.random.default_rng(52).standard_normal((9, 4)).astype(np.float32)
        results = []
        for lazy in (False, True):
            events.clear()
            weights = [lstm_weights(4, 3, seed=seed, dtype=np.float32) for seed in (50, 51)]
            leaf = Tensor(x, requires_grad=True)

            def direction(j, w):
                def gates():
                    events.append(("call", j))
                    return model._lstm_gates(w)
                return gates if lazy else model._lstm_gates(w)
            with contextlib.ExitStack() as stack:
                if not recording:
                    stack.enter_context(tensor.no_grad())
                out = tensor.lstm_sequence(leaf, *(direction(j, w)
                                                   for j, w in enumerate(weights)))
            order = [("call", 0), ("run", False), ("call", 1), ("run", True)]
            if not lazy:
                order = [("run", False), ("run", True)]
            elif recording:
                order = [("call", 0), ("call", 1), ("run", False), ("run", True)]
            assert events == order
            got = [out.data]
            if recording:
                tensor.backward(tensor.mean_all(out))
                got += [leaf.grad] + [t.grad for w in weights for t in w.values()]
            results.append(got)
        for a, b in zip(*results):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("recording", [False, True])
    def test_function_direction_checked_when_called(self, recording):
        x = Tensor(np.zeros((3, 4)))
        gates = lambda shape: [Tensor(np.zeros(shape)) for _ in range(4)]
        w_x, b, w_h = gates((4, 2)), gates(2), gates((2, 2))
        with contextlib.ExitStack() as stack:
            if not recording:
                stack.enter_context(tensor.no_grad())
            tensor.lstm_sequence(x, lambda: (w_x, b, w_h), lambda: (w_x, b, w_h))
            with pytest.raises(tensor.DimensionError):
                tensor.lstm_sequence(x, (w_x, b, w_h), lambda: (w_x, b, w_h[:3]))
            with pytest.raises(tensor.DimensionError):
                tensor.lstm_sequence(x, lambda: (w_x, b, w_h),
                                     lambda: (gates((4, 3)), gates(3), gates((3, 3))))
            with pytest.raises(tensor.DimensionError):
                tensor.lstm_sequence(x, lambda: (gates((3, 2)), b, w_h))
            # input weights by gate: checked as each gate's are called for
            tensor.lstm_sequence(x, (lambda j: w_x[j], b, w_h))
            with pytest.raises(tensor.DimensionError):
                tensor.lstm_sequence(x, (lambda j: gates((4, 3 if j == 2 else 2))[j], b, w_h))

    @pytest.mark.parametrize("recording", [False, True])
    def test_input_weights_by_gate_give_list_bits(self, monkeypatch, recording):
        # w_x as a function of the gate's index, on an input of three
        # tiles: outside recording it is called for each tile and gate in
        # turn, recording for each gate once, before anything runs. The
        # output, and recording the gradients, are those of the list form,
        # bitwise
        monkeypatch.setattr(tensor, "TILE_ROWS", 4)
        x = np.random.default_rng(53).standard_normal((10, 4)).astype(np.float32)
        results, calls = [], []
        for by_gate in (False, True):
            w = lstm_weights(4, 3, seed=54, dtype=np.float32)
            w_x, b, w_h = model._lstm_gates(w)
            if by_gate:
                def gate_x(j, w_x=w_x):
                    calls.append(j)
                    return w_x[j]
                w_x = gate_x
            leaf = Tensor(x, requires_grad=True)
            with contextlib.ExitStack() as stack:
                if not recording:
                    stack.enter_context(tensor.no_grad())
                out = tensor.lstm_sequence(leaf, (w_x, b, w_h))
            got = [out.data]
            if recording:
                tensor.backward(tensor.mean_all(out))
                got += [leaf.grad] + [t.grad for t in w.values()]
            results.append(got)
        assert calls == [0, 1, 2, 3] * (1 if recording else 3)
        for plain, lazy in zip(*results):
            assert plain.tobytes() == lazy.tobytes()


class TestBlstm:
    def test_zero_weights_zero_output(self):
        fwd, bwd = lstm_weights(4, 2), lstm_weights(4, 2)
        out = lstm_node(Tensor(np.random.default_rng(8).standard_normal((5, 4))),
                        fwd, bwd)
        np.testing.assert_array_equal(out.data, np.zeros((5, 4)))

    def test_direction_swap_symmetry(self):
        fwd, bwd = lstm_weights(4, 2, seed=9), lstm_weights(4, 2, seed=10)
        x = np.random.default_rng(11).standard_normal((7, 4))
        a = lstm_node(Tensor(x), fwd, bwd)
        b = lstm_node(Tensor(x[::-1].copy()), bwd, fwd)
        for t in range(7):
            np.testing.assert_allclose(a.data[t, 2:], b.data[6 - t, :2], atol=1e-12)

    def test_future_perturbation_reaches_first_output(self):
        fwd, bwd = lstm_weights(3, 2, seed=12), lstm_weights(3, 2, seed=13)
        x = np.random.default_rng(14).standard_normal((5, 3))
        y = x.copy()
        y[-1] += 1.0
        a = lstm_node(Tensor(x), fwd, bwd)
        b = lstm_node(Tensor(y), fwd, bwd)
        assert np.abs(a.data[0] - b.data[0]).max() > 1e-8

    @pytest.mark.parametrize("steps", [1, 7])
    def test_gradients(self, steps):
        fwd, bwd = lstm_weights(3, 2, seed=40), lstm_weights(3, 2, seed=41)
        x = Tensor(np.random.default_rng(42).standard_normal((steps, 3)),
                   requires_grad=True)
        run = lambda v: lstm_node(v, fwd, bwd)
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
            tensor.backward(sum_all(tensor.mul(out, mix)))
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
            return sum_all(tensor.mul(attention_block(q, kv, kv, p, causal), mix))

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

    def test_gradients(self):
        n = 6
        rng = np.random.default_rng(28)
        x = Tensor(rng.standard_normal((3, n)), requires_grad=True)
        w = Tensor(rng.standard_normal((n, 4 * n)) / math.sqrt(n),
                   requires_grad=True)
        b = Tensor(0.1 * rng.standard_normal(4 * n), requires_grad=True)
        mix = rng.standard_normal((3, n))

        def build():
            return sum_all(tensor.mul(
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
        params = zero_params(cfg, np.float64)
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
        params = zero_params(cfg, np.float64)
        x = np.random.default_rng(33).standard_normal(50)
        out = model.enhance(x, params, cfg)
        np.testing.assert_array_equal(out, np.zeros(50))

    def test_missing_block_parameters_named(self):
        params = init_params(toy_cfg(num_blocks=1), np.random.default_rng(60))
        with pytest.raises(ConfigurationError, match=r"'block1\.'"):
            arn_forward(np.zeros(40), params, toy_cfg(num_blocks=2))

    def test_extra_block_parameters_named(self):
        params = init_params(toy_cfg(num_blocks=2), np.random.default_rng(61))
        with pytest.raises(ConfigurationError, match=r"extra under \['block1\.'\]"):
            model.enhance(np.zeros(40), params, toy_cfg(num_blocks=1))

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


def counting(fn, calls):
    """``fn`` that first counts the call under its name in ``calls``."""
    def counted(*args, **kwargs):
        calls[fn.__name__] += 1
        return fn(*args, **kwargs)
    return counted


class TestLayerSpans:
    """``perfbench/tracing.py`` times each layer by wrapping the ``arn.model``
    functions its ``SPANS`` names. Each must stay one call per block, or a
    refactor could move a layer's time out of its span unnoticed: into no
    span at all, or into ``model.frame_io_s``, which is the forward pass
    outside the blocks."""

    @pytest.mark.parametrize("causal", [True, False])
    def test_each_model_span_called_per_block(self, monkeypatch, causal):
        calls = collections.Counter()
        for module, names in SPANS.values():
            if module == "arn.model":
                for name in names:
                    monkeypatch.setattr(model, name,
                                        counting(getattr(model, name), calls))
        cfg = toy_cfg(num_blocks=3, causal=causal)
        params = init_params(cfg, np.random.default_rng(87))
        model.enhance(np.random.default_rng(88).standard_normal(200), params, cfg)
        blocks = cfg.num_blocks
        assert calls == {"arn_forward": 1, "arn_block_forward": blocks,
                         "rnn_sequence": blocks, "attention_block": blocks,
                         "feedforward_block": blocks, "layer_norm": 5 * blocks}


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


def graph_of(loss):
    """Every recorded node reachable from ``loss``, the loss included."""
    nodes, stack, seen = [], [loss], set()
    while stack:
        node = stack.pop()
        if node._backward is None or id(node) in seen:
            continue
        seen.add(id(node))
        nodes.append(node)
        stack.extend(node._parents)
    return nodes


def model_loss(causal, seed, samples=64, **overrides):
    """A PCM loss over a recorded two-block toy forward pass in float64."""
    cfg = toy_cfg(causal=causal, num_blocks=2, **overrides)
    params = init_params(cfg, np.random.default_rng(seed), dtype=np.float64)
    rng = np.random.default_rng(seed + 1)
    x = rng.standard_normal(samples)
    s = rng.standard_normal(samples)
    return params, losses.pcm_loss(x, s, arn_forward(x, params, cfg, rng=rng))


class TestGraphFreeing:
    """A recorded graph holds no reference cycle: with the cyclic collector
    off, dropping the loss frees every node, whether or not backward ran."""

    @pytest.mark.parametrize("causal", [True, False])
    @pytest.mark.parametrize("run_backward", [True, False])
    def test_graph_freed_on_del_without_collector(self, causal, run_backward):
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            _, loss = model_loss(causal, 47, dropout=0.1)
            # the nodes are collected before backward, which unlinks them
            nodes = [weakref.ref(node) for node in graph_of(loss)]
            assert len(nodes) > 50
            inner = weakref.ref(loss._parents[0])
            if run_backward:
                tensor.backward(loss)
            del loss
            assert inner() is None
            assert [r for r in nodes if r() is not None] == []
        finally:
            if was_enabled:
                gc.enable()


class TestSweepReleasesGraph:
    """``backward`` frees each node once its closure has run, and a swept
    graph cannot be swept again."""

    @pytest.mark.parametrize("causal", [True, False])
    def test_backward_peak_below_the_graph(self, causal):
        # a sweep that keeps every gradient and closure to its end peaks
        # about 1.5x the live graph above it here
        cfg = toy_cfg(width=16, frame_in=16, frame_out=16, shift=8, num_blocks=2,
                      causal=causal)
        params = init_params(cfg, np.random.default_rng(49), dtype=np.float64)
        rng = np.random.default_rng(50)
        x = rng.standard_normal(4000)
        s = rng.standard_normal(4000)
        tracemalloc.start()
        try:
            loss = losses.pcm_loss(x, s, arn_forward(x, params, cfg))
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            tensor.backward(loss)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - start < 0.75 * start
        assert all(p.grad is not None for p in params.values())

    @pytest.mark.parametrize("causal", [True, False])
    def test_non_leaf_tensors_keep_data_but_no_grad(self, causal):
        params, loss = model_loss(causal, 51, dropout=0.1)
        nodes = graph_of(loss)
        data = [node.data.copy() for node in nodes]
        tensor.backward(loss)
        for node, before in zip(nodes, data):
            assert node.grad is None
            assert node._parents == ()
            np.testing.assert_array_equal(node.data, before)
        assert all(p.grad is not None for p in params.values())

    @pytest.mark.parametrize("causal", [True, False])
    def test_second_loss_on_a_swept_graph_raises(self, causal):
        cfg = toy_cfg(causal=causal, num_blocks=2)
        params = init_params(cfg, np.random.default_rng(52), dtype=np.float64)
        rng = np.random.default_rng(53)
        x = rng.standard_normal(64)
        s = rng.standard_normal(64)
        out = arn_forward(x, params, cfg)
        mse, pcm = losses.mse_loss(s, out), losses.pcm_loss(x, s, out)
        tensor.backward(mse)
        first = {k: p.grad.copy() for k, p in params.items()}
        for again in (pcm, mse):
            with pytest.raises(RuntimeError, match="swept once"):
                tensor.backward(again)
            for k, p in params.items():
                np.testing.assert_array_equal(p.grad, first[k])


class TestRecordedLstmMemory:
    """A recorded LSTM keeps what its backward pass reads and nothing the
    size of its weights: the parameters are read where they lie."""

    STEPS, WIDTH = 64, 64

    @pytest.mark.parametrize("reverse", [False, True])
    def test_keeps_activations_cells_and_output_only(self, reverse):
        # with ``reverse``, a two-direction node
        h, dirs = self.WIDTH, 2 if reverse else 1
        ws = [lstm_weights(h, h, seed=84 + j) for j in range(dirs)]
        x = Tensor(np.random.default_rng(85).standard_normal((self.STEPS, h)),
                   requires_grad=True)
        # each direction's (T, 4H) gate activations and (T, H) cell states,
        # and its (T, H) columns of the output; a packed copy of the input
        # and recurrent weights would add (2 H + 1) 4H entries, more than
        # all three
        kept = dirs * (4 * h + h + h) * self.STEPS * 8
        tracemalloc.start()
        try:
            out = lstm_node(x, *ws)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.requires_grad
        assert held <= kept + 8192
        # while a direction's loop runs: its packed recurrent weights, and
        # O(H) scratch and numpy's ufunc buffer, as for the node alone
        assert peak <= kept + h * 4 * h * 8 + 64 * 4 * h * 8 + np.getbufsize() * 8

    def test_recorded_blstm_holds_its_output_once(self):
        # 6 (T, N) arrays: each direction's (T, 2N) gate activations and
        # (T, N/2) cell states, and the one (T, N) output that both
        # directions write; a separate output per direction, joined by a
        # copy, holds a seventh
        n = self.WIDTH
        cfg = toy_cfg(width=n, causal=False)
        block = model._sub(init_params(cfg, np.random.default_rng(86), np.float64), "block0.")
        x = Tensor(np.random.default_rng(87).standard_normal((self.STEPS, n)),
                   requires_grad=True)
        tracemalloc.start()
        try:
            out = rnn_sequence(x, block, cfg)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert graph_of(out) == [out] and out.shape == (self.STEPS, n)
        assert held <= 6 * self.STEPS * n * 8 + 8192


class TestEvalMemory:
    """Outside recording, the whole forward pass holds a bounded number of
    (T, N) arrays: each node keeps no whole-sequence intermediates, and each
    block drops its locals after their last reader."""

    STEPS, WIDTH, SHIFT, TILE = 2048, 64, 8, 16
    # the traced peak of model.enhance measured 2.49 (causal and non-causal)
    # (T, N) float32 arrays: two whole arrays, the waveform's copies and one
    # tile's scratch. Where an op allocates its output instead of writing
    # into the array it last reads (as before, 3.48 and 3.49: inside the
    # attention node, its output beside the query stream and the keys and
    # values), a third whole array passes this bound
    MAX_ARRAYS = 3

    @pytest.mark.parametrize("causal", [True, False])
    def test_enhance_peak_in_whole_arrays(self, monkeypatch, causal):
        monkeypatch.setattr(tensor, "TILE_ROWS", self.TILE)
        cfg = toy_cfg(width=self.WIDTH, frame_in=32 if causal else 16, frame_out=16,
                      shift=self.SHIFT, num_blocks=2, causal=causal)
        params = init_params(cfg, np.random.default_rng(80))
        x = np.random.default_rng(81).standard_normal(self.STEPS * self.SHIFT)
        peak = traced_peak(lambda: model.enhance(x, params, cfg))
        assert peak <= self.MAX_ARRAYS * self.STEPS * self.WIDTH * 4

    @pytest.mark.parametrize("causal", [True, False])
    def test_attention_node_holds_no_queries(self, monkeypatch, causal):
        # the output, then for one tile its queries, the product before the
        # gate, its scores and its rows of the output, and numpy's ufunc
        # buffer: a whole (T, N) query array is larger than this scratch
        monkeypatch.setattr(tensor, "TILE_ROWS", self.TILE)
        n = self.WIDTH
        rng = np.random.default_rng(86)
        x, kv = (Tensor(rng.standard_normal((self.STEPS, n)).astype(np.float32),
                        requires_grad=True) for _ in range(2))
        w, b, gate = (Tensor(rng.standard_normal(shape).astype(np.float32),
                             requires_grad=True) for shape in ((n, n), n, n))
        with tensor.no_grad():
            peak = traced_peak(lambda: tensor.attention(x, w, b, gate, kv, kv, causal))
        scratch = 2 * self.TILE * (self.STEPS + n) * 4 + np.getbufsize() * 8
        assert scratch < self.STEPS * n * 4
        assert peak <= self.STEPS * n * 4 + scratch

    @pytest.mark.parametrize("reverse", [False, True])
    def test_lstm_node_holds_no_projection(self, monkeypatch, reverse):
        # one (TILE_ROWS, 4H) tile of the projection, the (T, H) output,
        # O(H) vectors and numpy's ufunc buffer, which the bias's broadcast
        # goes through: no (T, 4H) array and no copy of the weights, since
        # H > TILE_ROWS here and each step reads w_h per gate where it lies;
        # at this width an (H, 4H) array is larger than the vectors and the
        # buffer together. With ``reverse``, a two-direction node: its
        # (T, 2H) output and one direction's scratch, freed before the other
        # direction runs
        monkeypatch.setattr(tensor, "TILE_ROWS", self.TILE)
        hidden, dirs = 2 * self.WIDTH, 2 if reverse else 1
        ws = [lstm_weights(hidden, hidden, seed=82 + j, dtype=np.float32)
              for j in range(dirs)]
        x = Tensor(np.random.default_rng(83).standard_normal(
            (self.STEPS, hidden)).astype(np.float32), requires_grad=True)
        with tensor.no_grad():
            peak = traced_peak(lambda: lstm_node(x, *ws))
        assert hidden > self.TILE
        bound = ((self.TILE + 16) * 4 * hidden * 4
                 + dirs * self.STEPS * hidden * 4 + np.getbufsize() * 8)
        assert hidden * 4 * hidden * 4 > 16 * 4 * hidden * 4 + np.getbufsize() * 8
        assert peak <= bound

    def test_blstm_holds_output_and_one_directions_scratch(self, monkeypatch):
        # the (T, N) output, and one direction's (TILE_ROWS, 2N) tile and
        # vectors, and numpy's ufunc buffer, with N/2 > TILE_ROWS, so no
        # packed recurrent weights; two whole (T, N) arrays, such as two
        # directions' outputs joined by a copy, exceed this
        monkeypatch.setattr(tensor, "TILE_ROWS", self.TILE)
        n = 2 * self.WIDTH
        cfg = toy_cfg(width=n, causal=False)
        block = model._sub(init_params(cfg, np.random.default_rng(88)), "block0.")
        x = Tensor(np.random.default_rng(89).standard_normal(
            (self.STEPS, n)).astype(np.float32))
        with tensor.no_grad():
            peak = traced_peak(lambda: rnn_sequence(x, block, cfg))
        assert n // 2 > self.TILE
        bound = self.STEPS * n * 4 + (self.TILE + 16) * 2 * n * 4 + np.getbufsize() * 8
        assert bound < 1.5 * self.STEPS * n * 4
        assert peak <= bound


def holding(fn, held):
    """``fn`` that keeps every argument of every call in ``held``."""
    def kept(*args, **kwargs):
        held.append((args, kwargs))
        return fn(*args, **kwargs)
    return kept


class TestInPlaceEnhance:
    """Outside recording, the last reader of each (T, N) array writes its
    output into it, and the LSTM's step reads its recurrent weights per
    gate above ``TILE_ROWS``. ``enhance`` must still give, bit for bit, the
    recorded forward pass, in which every op allocates its output, and must
    never write into an array that its caller holds."""

    TILE = 16

    @staticmethod
    def recorded(x, params, cfg) -> np.ndarray:
        out = arn_forward(x, params, cfg)
        assert out.requires_grad
        return out.data

    @pytest.mark.parametrize("causal", [True, False])
    @pytest.mark.parametrize("width", [16, 64])
    # one tile of frames, three, and a last tile of 5 rows
    @pytest.mark.parametrize("steps", [16, 48, 37])
    def test_enhance_bitwise_equals_recorded_forward(self, monkeypatch, causal, width,
                                                     steps):
        monkeypatch.setattr(tensor, "TILE_ROWS", self.TILE)
        cfg = toy_cfg(width=width, num_blocks=2, causal=causal)
        # width 16 steps through the packed recurrent weights, width 64 per gate
        hidden = width if causal else width // 2
        assert (hidden <= self.TILE) == (width == 16)
        params = init_params(cfg, np.random.default_rng(90 + width), np.float32)
        x = np.random.default_rng(91 + steps).standard_normal(
            steps * cfg.shift).astype(np.float32)
        got = model.enhance(x, params, cfg)
        assert got.dtype == np.float32
        assert got.tobytes() == self.recorded(x, params, cfg).tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("dirs", [1, 2])
    def test_lstm_step_products_agree(self, monkeypatch, dtype, dirs):
        # TILE_ROWS above H packs w_h into one (H, 4H) product per step,
        # below H makes four per-gate products; with 16 steps each takes
        # one input-projection tile either way. Whether the two products
        # round alike depends on how the BLAS splits them, so the outputs,
        # all in (-1, 1), are compared to rounding
        steps, rng = 16, np.random.default_rng(93)
        for hidden in (32, 50):
            ws = [lstm_weights(hidden, hidden, seed=94 + j, dtype=dtype) for j in range(dirs)]
            x = Tensor(rng.standard_normal((steps, hidden)).astype(dtype))
            outs = []
            for tile in (64, 16):
                monkeypatch.setattr(tensor, "TILE_ROWS", tile)
                with tensor.no_grad():
                    outs.append(lstm_node(x, *ws).data)
            np.testing.assert_allclose(outs[1], outs[0], rtol=0,
                                       atol=16 * np.finfo(dtype).eps)

    @pytest.mark.parametrize("holder", ["none", "held", "tracer"])
    @pytest.mark.parametrize("causal", [True, False])
    def test_callers_arrays_unchanged(self, monkeypatch, holder, causal):
        # "held" keeps every argument of every traced model function for the
        # whole run; perfbench's tracer holds them for the length of a call
        monkeypatch.setattr(tensor, "TILE_ROWS", self.TILE)
        cfg = toy_cfg(width=16, num_blocks=2, causal=causal)
        params = init_params(cfg, np.random.default_rng(95), np.float32)
        # float32, so that enhance reads this array itself and not a copy
        x = np.random.default_rng(96).standard_normal(150).astype(np.float32)
        want = self.recorded(x, params, cfg).tobytes()
        before = {k: p.data.tobytes() for k, p in params.items()}
        x_before = x.tobytes()
        held, tracer = [], None
        if holder == "held":
            for module, names in SPANS.values():
                if module == "arn.model":
                    for name in names:
                        monkeypatch.setattr(model, name, holding(getattr(model, name), held))
        elif holder == "tracer":
            tracer = Tracer().install()
        try:
            outs = [model.enhance(x, params, cfg) for _ in range(2)]
        finally:
            if tracer is not None:
                tracer.uninstall()
        assert (holder == "held") == bool(held)
        assert x.tobytes() == x_before
        assert {k: p.data.tobytes() for k, p in params.items()} == before
        assert outs[0].tobytes() == outs[1].tobytes() == want


def arrays_held(loss) -> list:
    """Every array a recorded graph holds: each node's data, and each array
    or tensor data that a backward closure captures, through nested
    closures, tuples and lists."""
    found, seen = [], set()
    stack = [obj for node in graph_of(loss) for obj in (node.data, node._backward)]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            found.append(obj)
        elif isinstance(obj, Tensor):
            stack.append(obj.data)
        elif isinstance(obj, (tuple, list)):
            stack.extend(obj)
        elif callable(obj) and getattr(obj, "__closure__", None):
            stack.extend(cell.cell_contents for cell in obj.__closure__
                         if cell.cell_contents is not None)
    return found


@pytest.fixture(scope="module")
def demo_config(tmp_path_factory) -> dict:
    """The config.json that ``scripts/make_demo_data.py`` writes."""
    out = tmp_path_factory.mktemp("demo")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      os.environ.get("PYTHONPATH")]))}
    subprocess.run([sys.executable, str(ROOT / "scripts" / "make_demo_data.py"),
                    "--out", str(out), "--speech-utterances", "1", "--noises", "1"],
                   check=True, capture_output=True, env=env, timeout=120)
    return json.loads((out / "config.json").read_text())


class TestGraphBudget:
    """The recorded graph of one utterance of a training step at the demo
    config: its size, and no packed copy of the LSTM weights in it. A change
    that brings back per-call weight copies fails here."""

    @staticmethod
    def utterance_term(blob, **overrides):
        """One utterance's loss term as a training step records and sweeps
        it: the forward pass, the PCM loss, and the scaling by 1/B."""
        cfg = ARNConfig.from_dict({**blob["model"], **overrides})
        params = init_params(cfg, np.random.default_rng(62))
        rng = np.random.default_rng(63)
        n = blob["mixing"]["target_len"]
        x, s = (rng.standard_normal(n).astype(np.float32) for _ in range(2))
        s_hat = model.arn_forward(x, params, cfg, rng=np.random.default_rng(64))
        term = losses.pcm_loss(x, s, s_hat)
        return cfg, params, tensor.scale(term, 1.0 / blob["train"]["batch"])

    def test_sixty_three_nodes_per_utterance(self, demo_config):
        # 62 for one utterance's forward pass and PCM loss, and one to scale
        # its term by 1/B before the sweep; the query projection, its bias
        # and its gate are inside the attention node, not three nodes of
        # their own, and the recurrent layer is one node, causal or not
        for causal in (True, False):
            _, _, term = self.utterance_term(demo_config, causal=causal)
            assert len(graph_of(term)) == 63

    @pytest.mark.parametrize("causal", [True, False])
    def test_no_packed_lstm_weights_reachable(self, demo_config, causal):
        cfg, params, term = self.utterance_term(demo_config, causal=causal)
        n = cfg.width
        hidden = n if causal else n // 2
        packed = {(n, 4 * hidden), (hidden, 4 * hidden)}
        leaves = [p.data for p in params.values()]
        copies = [a.shape for a in arrays_held(term) if a.shape in packed
                  and not any(a is d or a.base is d for d in leaves)]
        assert copies == []

