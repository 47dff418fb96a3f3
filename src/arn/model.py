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
``_sub``, derives each block's and each layer's view by name prefix. The
table, ``param_shapes``, is what training updates and checkpoints store.
``arn enhance`` streams it (``training.StreamedTable``): it holds none of
it, and reads every layer (``STREAMED_LAYERS``: the two projections, and
in each block its five layer norms, each direction of its RNN, attention
and the feedforward) from the checkpoint one at a time, each when the op
that uses it runs. A causal LSTM's input weights are read a gate at a
time, as each tile's input projection needs them, beside its recurrent
weights, which its loop needs throughout. The pass gets each block's
table through ``block_table`` and each layer's through ``layer_table``,
which a dict answers by prefix, so there is one forward path, and one
value-gate path, for either table.

Outside recording, each (T, N) array is dropped after its last reader, or
written over by it. The frame rows, each block's input and the attention's
keys and values are passed on by their only reference, so that the callee
frees them: after the input projection, after the block's first layer
norm, and at the end of the attention node. Every other (T, N) array is
handed to its last reader, which writes its output into it: with
``overwrite=True``, the input projection's bias into the product, the
layer norm of the keys and values into the RNN output and the last layer
norm into the attention output; as ``into``, the attention node's gated
output into the query stream (one tile at a time, after the tile's queries
are formed) and the feedforward's output into that layer norm's output.
``enhance`` thus holds at most two (T, N) arrays at once, beside the
weights (from a streamed table, those of the op that runs), plus one tile's
scratch: the scratch buffers of the op that runs, each allocated once per
call and a tile in size (the LSTM's activation tile, attention's query,
probability and output tiles, the feedforward's (rows, 4N) pre-activation
tile), and, at widths up to ``tensor.TILE_ROWS``, the LSTM's packed
recurrent weights, which are no larger than its tile.

One forward pass serves training and enhancement. Feedforward dropout runs
only when a generator is passed as ``rng``; whether the pass is recorded
for backward is decided by ``tensor.no_grad``, as for every op. ``enhance``
is the forward pass without a generator, under ``no_grad``.
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


# the layers that a streamed table reads from its checkpoint one at a time,
# each when the forward pass reaches it, by their prefix in the table or in
# a block's: the two projections, and in each block its five layer norms,
# the RNN, attention (its three vectors and three linear maps) and the
# feedforward. A BLSTM is read a direction at a time, when that direction
# runs. An LSTM's recurrent weights and biases are one layer, read when its
# loop starts; its input weights are one layer per gate, read as each tile's
# input projection needs them, so a gate's layer is listed before the
# ``lstm.`` that its name extends
STREAMED_LAYERS = ("input_proj.", "ln0.", "ln1.", "ln2.", "ln3.", "ln4.",
                   *(f"lstm.w_{g}x" for g in _GATES), "lstm.",
                   "blstm.fwd.", "blstm.bwd.", "attn.", "ff.", "output_proj.")


def streamed_layer(name: str) -> str:
    """The ``STREAMED_LAYERS`` layer that entry ``name`` of the parameter
    table belongs to, as its prefix in that table (``'input_proj.'``,
    ``'block1.ln0.'``, ``'block1.blstm.bwd.'``)."""
    block = name[:name.index(".") + 1] if name.startswith("block") else ""
    rest = name[len(block):]
    return block + next(layer for layer in STREAMED_LAYERS if rest.startswith(layer))


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


def block_table(params: dict, i: int) -> dict:
    """Block ``i``'s table, its names without the ``block<i>.`` prefix. A
    streamed table gives one that reads the block's layers through
    ``layer_table``; a dict answers by prefix, as ``_sub`` does."""
    block = getattr(params, "block", None)
    return _sub(params, f"block{i}.") if block is None else block(i)


def layer_table(table: dict, prefix: str) -> dict:
    """The entries of a table whose names start with ``prefix``, their names
    kept: one layer's, a prefix of ``STREAMED_LAYERS``, of the whole table
    (the projections) or of a block's (a layer norm, the RNN or one
    direction of it, one gate's LSTM input weights, attention, the
    feedforward). A dict answers by prefix. A streamed table reads the
    layer's own entries from its checkpoint (the LSTM's without its gates'
    input weights, which are layers of their own), into views that a later
    layer's read overwrites."""
    read = getattr(table, "read_layer", None)
    view = ({k: v for k, v in table.items() if k.startswith(prefix)} if read is None
            else read(prefix))
    if not view:
        raise ConfigurationError(f"no parameters under prefix {prefix!r}")
    return view


# ---------------------------------------------------------------------------
# building blocks
# ---------------------------------------------------------------------------

def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float,
               overwrite: bool = False) -> Tensor:
    return tensor.layer_norm_rows(x, gamma, beta, eps, overwrite)


def _lstm_gates(w: dict) -> tuple:
    """One LSTM direction's ``(w_x, b, w_h)``, each its four per-gate
    tensors in gate order i, f, g, o, as ``tensor.lstm_sequence`` takes them."""
    return ([w[f"w_{g}x"] for g in _GATES], [w[f"b_{g}"] for g in _GATES],
            [w[f"w_{g}h"] for g in _GATES])


def _lstm_direction(block_params: dict, prefix: str) -> tuple:
    """The ``(w_x, b, w_h)`` of the LSTM direction under ``prefix``, taken
    through ``layer_table``. Where the direction's layer holds no input
    weights, as when a streamed table reads each gate's as its own layer,
    ``w_x`` is a function of the gate's index that reads that gate's layer."""
    w = _sub(layer_table(block_params, prefix), prefix)
    if "w_ix" in w:
        return _lstm_gates(w)

    def w_x(j):
        name = f"{prefix}w_{_GATES[j]}x"
        return layer_table(block_params, name)[name]
    return w_x, [w[f"b_{g}"] for g in _GATES], [w[f"w_{g}h"] for g in _GATES]


def rnn_sequence(x: Tensor, block_params: dict, cfg: ARNConfig) -> Tensor:
    """The block's LSTM, or BLSTM when not causal, as one recorded node.

    Each direction's weights are taken from the block's table through
    ``layer_table`` by a function that ``tensor.lstm_sequence`` calls when
    that direction runs, outside recording, so a streamed table reads the
    backward direction only once the forward one is done, into the buffer
    that the forward one's views used. A streamed table gives an LSTM's
    input weights as a function of the gate, which the loop calls as each
    tile's input projection needs that gate, so one gate's input weights
    are read at a time, beside the recurrent weights; a dict gives them as
    tensors.
    """
    prefixes = ("lstm.",) if cfg.causal else ("blstm.fwd.", "blstm.bwd.")
    return tensor.lstm_sequence(x, *(
        lambda p=p: _lstm_direction(block_params, p) for p in prefixes))


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
    recomputed on every call, from either table, so training optimizes it
    and evaluation and enhancement see its current value; a streamed
    table reads its two (N, N) maps with the query map, as one layer.

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


def arn_block_forward(x: Tensor, block_params: dict, cfg: ARNConfig,
                      rng=None) -> Tensor:
    """One full block with both residual connections; (T, N) -> (T, N).

    Each (T, N) local, the input included, is dropped after its last
    reader, or handed to it to write its output into, so that outside
    recording at most two of them are alive at once. The input is freed
    here only when the caller keeps no reference of its own, as in
    ``arn_forward_frames``. Recording, every op allocates its output, and
    the graph is the one the block's formula writes out.

    Each layer's table, a layer norm's included, is taken through
    ``layer_table`` just before its op runs and dropped when the op returns
    (the RNN's, one direction at a time, by ``rnn_sequence``), so a streamed
    table's next layer read overwrites no view in use.
    """
    def norm(x, j, overwrite=False):
        ln = layer_table(block_params, f"ln{j}.")
        return layer_norm(x, ln[f"ln{j}.g"], ln[f"ln{j}.b"], cfg.ln_eps, overwrite)

    y = norm(x, 0)
    del x
    y = rnn_sequence(y, block_params, cfg)
    q = norm(y, 1)
    kv = [norm(y, 2, overwrite=True)]
    del y
    # the keys and values go in by the list's only reference, so that the
    # attention node frees them; its output lands in the query stream
    a = attention_block(q, kv[0], kv.pop(),
                        _sub(layer_table(block_params, "attn."), "attn."), cfg.causal,
                        into=q)
    del q
    z1 = norm(a, 3)
    z2 = norm(a, 4, overwrite=True)
    del a
    ff = layer_table(block_params, "ff.")
    return feedforward_block(z1, ff["ff.w"], ff["ff.b"], cfg.dropout, rng, into=z2)


def arn_forward_frames(frames: Tensor, params: dict, cfg: ARNConfig,
                       rng=None) -> Tensor:
    """Frame-domain network: (T, frame_in) -> (T, frame_out).

    ``frames`` is dropped after the input projection, whose bias is added
    into its product outside recording, and each block gets its input by
    the only reference, so that outside recording it frees that input after
    its first layer norm. Each projection's weights are taken through
    ``layer_table`` just before its product, so a streamed table reads
    them there, as it reads a block's layers.
    """
    proj = layer_table(params, "input_proj.")
    stream = [tensor.add(frames @ proj["input_proj.w"], proj["input_proj.b"],
                         overwrite=True)]
    del frames, proj
    for i in range(cfg.num_blocks):
        # popped, not named: a name here would keep the block's input alive
        # through the whole block
        stream.append(arn_block_forward(stream.pop(), block_table(params, i), cfg, rng))
    proj = layer_table(params, "output_proj.")
    return stream[0] @ proj["output_proj.w"] + proj["output_proj.b"]


def arn_forward(x, params: dict, cfg: ARNConfig, rng=None) -> Tensor:
    """Enhance a non-empty 1-D waveform array; output has its sample count.

    Output frame t is overlap-added at the trailing ``frame_out`` samples of
    input frame t's span, so for a causal configuration every output sample
    depends only on input the model has already seen. The leading
    ``frame_in - frame_out`` samples are covered by no output frame and
    come out as zeros (the causal warm-up region). ``params`` must hold
    exactly the names of ``param_shapes(cfg)``; a streamed table, which
    reads each layer from its checkpoint, is float32, as the file is.
    """
    if hasattr(params, "read_layer"):
        dtype = np.float32
    else:
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
    """The forward pass without dropout and unrecorded, as a plain array.
    A streamed table reads each layer from its checkpoint as the pass
    reaches it, so at most one layer's weights are held."""
    with tensor.no_grad():
        return arn_forward(x, params, cfg).data
