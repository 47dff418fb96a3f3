"""Attentive recurrent network for time-domain speech enhancement.

One block is: layer norm -> RNN, one ``tensor.lstm_sequence`` node (an
LSTM when causal; otherwise a BLSTM, whose two directions write the halves
of one output) -> two parallel layer norms feeding a gated single-head
attention (residual back onto the query stream) -> two parallel layer norms
feeding a feedforward block (residual onto the second stream). The full
network frames a 1-D waveform into ceil(M / shift) rows, projects them to
width N, stacks blocks, projects back to output frames, and overlap-adds.

Causal operation uses a unidirectional LSTM plus an attention mask that
zeroes the contribution of future frames; with an input frame wider than
the output frame, each output frame is emitted over the trailing part of
its input frame's span so that every predicted sample lies within already
observed input.

Parameters live in a flat ordered dict of named tensors; one helper,
``_sub``, derives each block's and each layer's view by name prefix.

Outside recording, each (T, N) array is dropped after its last reader. The
frame rows, each block's input and the attention's keys and values are
passed on by their only reference, so that the callee frees them: after
the input projection, after the block's first layer norm, and before the
value gate's product. The queries are formed one tile at a time inside
the attention node. ``enhance`` thus holds at most three (T, N) arrays at
once, plus one tile's scratch: inside the attention node, the query
stream, the keys and values, and the node's output.

One forward pass serves training and enhancement. Feedforward dropout runs
only when a generator is passed as ``rng``; whether the pass is recorded
for backward is decided by ``tensor.no_grad``, as for every op. ``enhance``
is the forward pass without a generator, under ``no_grad``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict

import numpy as np

from . import tensor
from .tensor import Tensor


class ConfigurationError(ValueError):
    """Model configuration and supplied structures disagree."""


@dataclass(frozen=True)
class ARNConfig:
    """Architecture hyperparameters.

    Defaults are the full-size causal system at 16 kHz: width 1024,
    32 ms input frames, 16 ms output frames, 2 ms shift, four blocks. The
    presets, causal and non-causal, are the ``model`` blocks of configs/*.json.
    """

    width: int = 1024          # hidden size N
    frame_in: int = 512        # input frame length in samples
    frame_out: int = 256       # output frame length in samples
    shift: int = 32            # frame hop J in samples
    num_blocks: int = 4
    causal: bool = True
    dropout: float = 0.05      # feedforward block only
    ln_eps: float = 1e-5

    def __post_init__(self):
        if self.width < 1 or self.num_blocks < 1:
            raise ConfigurationError("width and num_blocks must be positive")
        if not (1 <= self.shift <= self.frame_out <= self.frame_in):
            raise ConfigurationError(
                f"need shift <= frame_out <= frame_in, got "
                f"J={self.shift} L_out={self.frame_out} L_in={self.frame_in}")
        if not self.causal and self.width % 2 != 0:
            raise ConfigurationError("bidirectional RNN needs an even width")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigurationError("dropout must be in [0, 1)")
        if not 0.0 < self.ln_eps < math.inf:
            raise ConfigurationError(
                f"ln_eps must be finite and positive, got {self.ln_eps}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ARNConfig":
        return cls(**d)


# ---------------------------------------------------------------------------
# parameter table
# ---------------------------------------------------------------------------

_GATES = ("i", "f", "g", "o")


def _lstm_shapes(prefix: str, n_in: int, hidden: int) -> dict:
    shapes = {}
    for gate in _GATES:
        shapes[f"{prefix}w_{gate}x"] = (n_in, hidden)
        shapes[f"{prefix}w_{gate}h"] = (hidden, hidden)
        shapes[f"{prefix}b_{gate}"] = (hidden,)
    return shapes


def param_shapes(cfg: ARNConfig) -> dict:
    """Name -> shape for every trainable tensor, in canonical order."""
    n = cfg.width
    shapes = {"input_proj.w": (cfg.frame_in, n), "input_proj.b": (n,)}
    for i in range(cfg.num_blocks):
        b = f"block{i}."
        for j in range(5):
            shapes[f"{b}ln{j}.g"] = (n,)
            shapes[f"{b}ln{j}.b"] = (n,)
        if cfg.causal:
            shapes.update(_lstm_shapes(f"{b}lstm.", n, n))
        else:
            half = n // 2
            shapes.update(_lstm_shapes(f"{b}blstm.fwd.", n, half))
            shapes.update(_lstm_shapes(f"{b}blstm.bwd.", n, half))
        shapes[f"{b}attn.q"] = (n,)
        shapes[f"{b}attn.k"] = (n,)
        shapes[f"{b}attn.v"] = (n,)
        for lin in ("lin_q", "lin_v_sig", "lin_v_tanh"):
            shapes[f"{b}attn.{lin}.w"] = (n, n)
            shapes[f"{b}attn.{lin}.b"] = (n,)
        shapes[f"{b}ff.w"] = (n, 4 * n)
        shapes[f"{b}ff.b"] = (4 * n,)
    shapes["output_proj.w"] = (n, cfg.frame_out)
    shapes["output_proj.b"] = (cfg.frame_out,)
    return shapes


def init_params(cfg: ARNConfig, rng: np.random.Generator,
                dtype=np.float32) -> dict:
    """Fresh parameters: weights/vectors uniform in +-1/sqrt(fan_in),
    layer-norm gain 1 / offset 0, biases 0."""
    params = {}
    for name, shape in param_shapes(cfg).items():
        leaf = name.rsplit(".", 1)[-1]
        if ".ln" in name:
            data = np.ones(shape) if leaf == "g" else np.zeros(shape)
        elif leaf == "b" or leaf.startswith("b_"):
            data = np.zeros(shape)
        else:
            bound = 1.0 / math.sqrt(shape[0])
            data = rng.uniform(-bound, bound, size=shape)
        params[name] = Tensor(data.astype(dtype), requires_grad=True)
    return params


def param_count(params: dict) -> int:
    return sum(p.data.size for p in params.values())


def _prefixes(names) -> list:
    """The distinct first components of dotted names, e.g. ``'block1.'``."""
    return sorted({name.split(".", 1)[0] + "." for name in names})


def _sub(params: dict, prefix: str) -> dict:
    view = {k[len(prefix):]: v for k, v in params.items() if k.startswith(prefix)}
    if not view:
        raise ConfigurationError(f"no parameters under prefix {prefix!r}")
    return view


# ---------------------------------------------------------------------------
# building blocks
# ---------------------------------------------------------------------------

def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float) -> Tensor:
    return tensor.layer_norm_rows(x, gamma, beta, eps)


def _lstm_gates(w: dict) -> tuple:
    """One LSTM direction's ``(w_x, b, w_h)``, each its four per-gate
    tensors in gate order i, f, g, o, as ``tensor.lstm_sequence`` takes them."""
    return ([w[f"w_{g}x"] for g in _GATES], [w[f"b_{g}"] for g in _GATES],
            [w[f"w_{g}h"] for g in _GATES])


def rnn_sequence(x: Tensor, block_params: dict, cfg: ARNConfig) -> Tensor:
    """The block's LSTM, or BLSTM when not causal, as one recorded node."""
    prefixes = ("lstm.",) if cfg.causal else ("blstm.fwd.", "blstm.bwd.")
    return tensor.lstm_sequence(x, *(_lstm_gates(_sub(block_params, p)) for p in prefixes))


def _v_gate_graph(p: dict) -> Tensor:
    n = p["v"].shape[0]
    v_row = tensor.reshape(p["v"], (1, n))
    sig = tensor.sigmoid(v_row @ p["lin_v_sig.w"] + p["lin_v_sig.b"])
    tnh = tensor.tanh(v_row @ p["lin_v_tanh.w"] + p["lin_v_tanh.b"])
    return sig * tnh


def attention_block(q: Tensor, k: Tensor, v: Tensor, p: dict, causal: bool) -> Tensor:
    """Single-head attention with per-vector gating.

    Keys are gated by sigma of a trainable vector, queries pass through a
    linear map gated the same way, and values are scaled by the gate
    sigma(Lin(v)) * tanh(Lin(v)) of the third trainable vector ``v``. The
    value gate depends on no input, only on the parameters; it is recomputed
    on every call, so training optimizes it and evaluation sees its current
    value.

    Both key and value gates scale columns, so they are folded out of the
    (T, N) operands: softmax(q_g (k s)^T) (v g) = softmax((q_g s) k^T) v g,
    with the key gate s moved onto the queries and the value gate g onto
    the output. No gated copy of the keys or values is made, and the
    queries are made one tile at a time inside ``tensor.attention``, which
    takes the query stream, the linear map and the combined gate.
    ``k`` and ``v`` are dropped before the value gate's product, so a
    caller that passes its only references frees them there.
    """
    gate = tensor.sigmoid(p["q"]) * tensor.sigmoid(p["k"])
    out = tensor.attention(q, p["lin_q.w"], p["lin_q.b"], gate, k, v, causal)
    del k, v
    return out * _v_gate_graph(p)


def feedforward_block(x: Tensor, w: Tensor, b: Tensor, dropout_rate: float,
                      rng=None) -> Tensor:
    """Linear to 4N, GELU, dropout, then sum of the four N-wide chunks.

    Dropout is inverted and runs only when ``rng`` is given and the rate is
    positive: each of the (T, 4N) activations is kept where
    ``rng.random((T, 4N)) >= rate`` and scaled by 1/(1 - rate). Without a
    generator (or at rate 0) nothing is drawn. ``ARNConfig`` checks the rate.
    """
    keep = None
    if rng is not None and dropout_rate > 0.0:
        keep = rng.random((x.shape[0], w.shape[1])) >= dropout_rate
    return tensor.feedforward(x, w, b, keep, dropout_rate)


def arn_block_forward(x: Tensor, block_params: dict, cfg: ARNConfig,
                      rng=None) -> Tensor:
    """One full block with both residual connections; (T, N) -> (T, N).

    Each (T, N) local, the input included, is dropped after its last
    reader, so that outside recording no more of them are alive than the
    next step needs. The input is freed here only when the caller keeps no
    reference of its own, as in ``arn_forward_frames``.
    """
    ln = [(block_params[f"ln{j}.g"], block_params[f"ln{j}.b"]) for j in range(5)]
    y = layer_norm(x, *ln[0], cfg.ln_eps)
    del x
    y = rnn_sequence(y, block_params, cfg)
    q = layer_norm(y, *ln[1], cfg.ln_eps)
    kv = [layer_norm(y, *ln[2], cfg.ln_eps)]
    del y
    # the keys and values go in by the list's only reference, so that
    # attention_block frees them before its value gate's (T, N) product
    a = attention_block(q, kv[0], kv.pop(), _sub(block_params, "attn."), cfg.causal) + q
    del q
    z1 = layer_norm(a, *ln[3], cfg.ln_eps)
    z2 = layer_norm(a, *ln[4], cfg.ln_eps)
    del a
    ff = feedforward_block(z1, block_params["ff.w"], block_params["ff.b"],
                           cfg.dropout, rng)
    del z1
    return ff + z2


def arn_forward_frames(frames: Tensor, params: dict, cfg: ARNConfig,
                       rng=None) -> Tensor:
    """Frame-domain network: (T, frame_in) -> (T, frame_out).

    ``frames`` is dropped after the input projection, and each block gets
    its input by the only reference, so that outside recording it frees
    that input after its first layer norm.
    """
    stream = [frames @ params["input_proj.w"] + params["input_proj.b"]]
    del frames
    for i in range(cfg.num_blocks):
        # popped, not named: a name here would keep the block's input alive
        # through the whole block
        stream.append(arn_block_forward(stream.pop(), _sub(params, f"block{i}."),
                                        cfg, rng))
    return stream[0] @ params["output_proj.w"] + params["output_proj.b"]


def arn_forward(x, params: dict, cfg: ARNConfig, rng=None) -> Tensor:
    """Enhance a non-empty 1-D waveform array; output has its sample count.

    Output frame t is overlap-added at the trailing ``frame_out`` samples of
    input frame t's span, so for a causal configuration every output sample
    depends only on input the model has already seen. The leading
    ``frame_in - frame_out`` samples are covered by no output frame and
    come out as zeros (the causal warm-up region). ``params`` must hold
    exactly the names of ``param_shapes(cfg)``.
    """
    expected = param_shapes(cfg).keys()
    if params.keys() != expected:
        raise ConfigurationError(
            "parameter table does not match the config: names missing under "
            f"{_prefixes(expected - params.keys())}, extra under "
            f"{_prefixes(params.keys() - expected)}")
    xt = Tensor(np.asarray(x, dtype=params["input_proj.w"].data.dtype))
    # the frame rows go in unnamed, so arn_forward_frames frees them
    out_frames = arn_forward_frames(tensor.frame_rows(xt, cfg.frame_in, cfg.shift),
                                    params, cfg, rng)
    return tensor.overlap_add_rows(out_frames, cfg.shift, xt.data.shape[0],
                                   offset=cfg.frame_in - cfg.frame_out)


def enhance(x, params: dict, cfg: ARNConfig) -> np.ndarray:
    """The forward pass without dropout and unrecorded, as a plain array."""
    with tensor.no_grad():
        return arn_forward(x, params, cfg).data
