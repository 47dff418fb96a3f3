"""Attentive recurrent network for time-domain speech enhancement.

One block is: layer norm -> RNN, one ``tensor.lstm_sequence`` node (an
LSTM when causal; otherwise a BLSTM, whose two directions write the halves
of one output) -> two parallel layer norms feeding a gated single-head
attention (residual back onto the query stream) -> two parallel layer norms
feeding a feedforward block (residual onto the second stream). The full
network frames a 1-D waveform into ceil(M / shift) rows, projects them to
width N, stacks blocks, projects back to output frames, and overlap-adds.
Causal operation uses a unidirectional LSTM plus an attention mask that
zeroes the contribution of future frames.

Parameters live in a flat ordered dict of named tensors (``param_shapes``),
which training updates and checkpoints store. One forward pass,
``arn_forward``, serves training and enhancement. It reads each entry by
its name just before the op that uses it runs, and holds it no longer than
that op, so the table may also be the enhance load's
``training.BlockReader``.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import tensor
from .tensor import Tensor


class ConfigurationError(ValueError):
    """Model configuration and supplied structures disagree."""


def check_type(name: str, value, default) -> None:
    """Refuse ``value`` for option ``name`` unless it is of ``default``'s
    type: an int passes for a float, and a bool passes only for a bool."""
    want = type(default)
    if isinstance(value, bool) != (want is bool) or not isinstance(
            value, (int, float) if want is float else want):
        raise ConfigurationError(
            f"{name} must be of type {want.__name__}, got {value!r}")


def check_field_types(config) -> None:
    """``check_type`` on every field of a config dataclass, against the
    field's default, so a bad value is refused with its name before it is
    compared or stored."""
    for f in fields(config):
        check_type(f.name, getattr(config, f.name), f.default)


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
        check_field_types(self)
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
# an attention layer's entries, by their names in ``attention_block``'s table
_ATTN = ("q", "k", "v", "lin_q.w", "lin_q.b", "lin_v_sig.w", "lin_v_sig.b",
         "lin_v_tanh.w", "lin_v_tanh.b")


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
        for name in _ATTN:
            shapes[f"{b}attn.{name}"] = (n, n) if name.endswith(".w") else (n,)
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


# ---------------------------------------------------------------------------
# building blocks
# ---------------------------------------------------------------------------

def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float,
               overwrite: bool = False) -> Tensor:
    return tensor.layer_norm_rows(x, gamma, beta, eps, overwrite)


def _lstm_direction(params, prefix: str):
    """The LSTM direction under ``prefix`` as ``tensor.lstm_sequence`` takes
    it: a function that returns its ``(w_x, b, w_h)`` from ``params``, each
    entry by its name, ``w_x`` a function of the gate's index."""
    def weights():
        return (lambda j: params[f"{prefix}w_{_GATES[j]}x"],
                [params[f"{prefix}b_{g}"] for g in _GATES],
                [params[f"{prefix}w_{g}h"] for g in _GATES])
    return weights


def rnn_sequence(x: Tensor, params, block: str, cfg: ARNConfig) -> Tensor:
    """Block ``block``'s (``'block1.'``) LSTM, or BLSTM when not causal, as
    one recorded node.

    ``tensor.lstm_sequence`` calls each direction's function when that
    direction runs, and outside recording calls ``w_x`` per tile and gate,
    so the reader reads the backward direction only once the forward one is
    done, and a causal LSTM's input weights one gate at a time, beside its
    recurrent weights.
    """
    prefixes = ("lstm.",) if cfg.causal else ("blstm.fwd.", "blstm.bwd.")
    return tensor.lstm_sequence(x, *(_lstm_direction(params, block + p) for p in prefixes))


def _v_gate_graph(p: dict) -> Tensor:
    n = p["v"].shape[0]
    v_row = tensor.reshape(p["v"], (1, n))
    sig = tensor.sigmoid(v_row @ p["lin_v_sig.w"] + p["lin_v_sig.b"])
    tnh = tensor.tanh(v_row @ p["lin_v_tanh.w"] + p["lin_v_tanh.b"])
    return sig * tnh


def attention_block(q: Tensor, k: Tensor, v: Tensor, p: dict, causal: bool,
                    into: Tensor = None) -> Tensor:
    """Single-head attention with per-vector gating, plus ``into`` when one
    is given.

    Keys are gated by sigma of a trainable vector, queries pass through a
    linear map gated the same way, and values are scaled by the gate
    sigma(Lin(v)) * tanh(Lin(v)) of the third trainable vector ``v``. The
    value gate depends on no input, only on the parameters. It is
    recomputed on every call, so training optimizes it and evaluation and
    enhancement see its current value.

    Both key and value gates scale columns, so they are folded out of the
    (T, N) operands: softmax(q_g (k s)^T) (v g) = softmax((q_g s) k^T) v g,
    with the key gate s moved onto the queries and the value gate g onto
    the output. No gated copy of the keys or values is made, and the
    queries are made one tile at a time inside ``tensor.attention``, which
    takes the query stream, the linear map, the combined gate, the value
    gate and ``into``. Passing ``into`` hands its array over: under
    ``no_grad`` the node gates each output tile and adds it into that
    array. ``k`` and ``v`` are dropped when the node returns, so a caller
    that passes its only references frees them there.
    """
    gate = tensor.sigmoid(p["q"]) * tensor.sigmoid(p["k"])
    return tensor.attention(q, p["lin_q.w"], p["lin_q.b"], gate, k, v, causal,
                            _v_gate_graph(p), into)


def feedforward_block(x: Tensor, w: Tensor, b: Tensor, dropout_rate: float,
                      rng=None, into: Tensor = None) -> Tensor:
    """Linear to 4N, GELU, dropout, then sum of the four N-wide chunks, plus
    ``into`` when one is given (added into its array under ``no_grad``).

    Dropout is inverted and runs only when ``rng`` is given and the rate is
    positive: each of the (T, 4N) activations is kept where
    ``rng.random((T, 4N)) >= rate`` and scaled by 1/(1 - rate). Without a
    generator (or at rate 0) nothing is drawn. ``ARNConfig`` checks the rate.
    """
    keep = None
    if rng is not None and dropout_rate > 0.0:
        keep = rng.random((x.shape[0], w.shape[1])) >= dropout_rate
    return tensor.feedforward(x, w, b, keep, dropout_rate, into)


def arn_block_forward(x: Tensor, params, block: str, cfg: ARNConfig,
                      rng=None) -> Tensor:
    """Block ``block`` (``'block1.'``) with both residual connections;
    (T, N) -> (T, N).

    Each (T, N) local, the input included, is dropped after its last
    reader, or handed to it to write its output into, so that outside
    recording at most two of them are alive at once. The input is freed
    here only when the caller keeps no reference of its own, as in
    ``arn_forward_frames``. Recording, every op allocates its output, and
    the graph is the one the block's formula writes out.
    """
    def norm(x, j, overwrite=False):
        ln = f"{block}ln{j}."
        return layer_norm(x, params[ln + "g"], params[ln + "b"], cfg.ln_eps, overwrite)

    y = norm(x, 0)
    del x
    y = rnn_sequence(y, params, block, cfg)
    q = norm(y, 1)
    kv = [norm(y, 2, overwrite=True)]
    del y
    # the keys and values go in by the list's only reference, so that the
    # attention node frees them; its output lands in the query stream
    attn = f"{block}attn."
    a = attention_block(q, kv[0], kv.pop(), {n: params[attn + n] for n in _ATTN},
                        cfg.causal, into=q)
    del q
    z1 = norm(a, 3)
    z2 = norm(a, 4, overwrite=True)
    del a
    ff = f"{block}ff."
    return feedforward_block(z1, params[ff + "w"], params[ff + "b"], cfg.dropout, rng,
                             into=z2)


def arn_forward_frames(frames: Tensor, params: dict, cfg: ARNConfig,
                       rng=None) -> Tensor:
    """Frame-domain network: (T, frame_in) -> (T, frame_out).

    ``frames`` is dropped after the input projection, whose bias is added
    into its product outside recording, and each block gets its input by
    the only reference, so that outside recording it frees that input after
    its first layer norm.
    """
    stream = [tensor.add(frames @ params["input_proj.w"], params["input_proj.b"],
                         overwrite=True)]
    del frames
    for i in range(cfg.num_blocks):
        # popped, not named: a name here would keep the block's input alive
        # through the whole block
        stream.append(arn_block_forward(stream.pop(), params, f"block{i}.", cfg, rng))
    return stream[0] @ params["output_proj.w"] + params["output_proj.b"]


def arn_forward(x, params: dict, cfg: ARNConfig, rng=None) -> Tensor:
    """Enhance a non-empty 1-D waveform array; output has its sample count.

    Output frame t is overlap-added at the trailing ``frame_out`` samples of
    input frame t's span, so for a causal configuration every output sample
    depends only on input the model has already seen. The leading
    ``frame_in - frame_out`` samples are covered by no output frame and
    come out as zeros (the causal warm-up region). A dict ``params`` must
    hold exactly the names of ``param_shapes(cfg)``; the enhance load's
    reader, whose names its load checked, is float32, as the file is.
    """
    dtype = np.float32
    if isinstance(params, dict):
        expected = param_shapes(cfg).keys()
        if params.keys() != expected:
            raise ConfigurationError(
                "parameter table does not match the config: names missing under "
                f"{_prefixes(expected - params.keys())}, extra under "
                f"{_prefixes(params.keys() - expected)}")
        dtype = params["block0.ln0.g"].data.dtype
    xt = Tensor(np.asarray(x, dtype=dtype))
    # the frame rows go in unnamed, so arn_forward_frames frees them
    out_frames = arn_forward_frames(tensor.frame_rows(xt, cfg.frame_in, cfg.shift),
                                    params, cfg, rng)
    return tensor.overlap_add_rows(out_frames, cfg.shift, xt.data.shape[0],
                                   offset=cfg.frame_in - cfg.frame_out)


def enhance(x, params: dict, cfg: ARNConfig) -> np.ndarray:
    """The forward pass without dropout and unrecorded, as a plain array."""
    with tensor.no_grad():
        return arn_forward(x, params, cfg).data
