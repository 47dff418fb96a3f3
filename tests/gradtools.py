"""Oracles for the fast paths: finite differences, the stepwise LSTM, and
the naive attention and feedforward graphs.

``finite_diff`` only ever calls the supplied loss closure, so it checks the
recorded backward pass against nothing but repeated forward evaluations;
``traced_peak`` measures the memory a call allocates.
``lstm_step`` and ``lstm_graph_step`` build one LSTM time step from
elementary recorded ops, as oracles for the fused ``tensor.lstm_sequence``;
``lstm_sequence_graph`` chains them over a whole sequence, ``lstm_stepwise``
iterates ``lstm_graph_step`` over the op's own tiled projection,
``flip_rows`` gives the time-reversed LSTM as flip, LSTM, flip,
``split_gates`` cuts packed gate columns into the op's per-gate operands,
and ``direction`` hands per-gate tensors to the op in the form it takes.
``sum_all`` reduces a tensor to the scalar loss most gradient tests sweep,
and ``concat`` joins tensors along rows or columns, as the oracles need.
``batch_loss_graph`` records a whole batch's mean loss as one graph: the
oracle for the training step, which sweeps one utterance at a time.
``transpose``, ``softmax_rows``, ``causal_mask``, ``gelu``, ``slice_cols``
and ``dropout_apply`` are recorded elementary ops that build the whole-array
graphs ``attention_graph`` and ``feedforward_graph``, the oracles for the
row-tiled ``tensor.attention`` and ``tensor.feedforward``;
``attention_block_graph`` adds the gates and the query projection around
``attention_graph``, with ``value_gate_graph`` the value gate.
``layer_norm_whole``, ``frame_rows_indexed`` and ``overlap_add_rows_indexed``
are the whole-array and index-array forms of ``tensor.layer_norm_rows``,
``tensor.frame_rows`` and ``tensor.overlap_add_rows``: the same arithmetic in
the same order, so they are bitwise oracles.
``dft_planes`` computes the real and imaginary DFT planes of windowed rows
as two products with cosine and sine bases, and ``rfft_magnitude_graph``
adds their absolute values: the oracle for ``tensor.rfft_magnitude``.
"""

import math
import tracemalloc

import numpy as np
from scipy.special import erf

from arn import losses, model, tensor
from arn.tensor import DimensionError, Tensor

FD_STEP = 1e-5
# central differences in float64 carry ~1e-10 of roundoff/truncation noise;
# entries this small are compared absolutely instead of relatively
FD_ATOL = 1e-8


def finite_diff(loss_fn, arrays, h=FD_STEP):
    """Central-difference gradient of ``loss_fn()`` w.r.t. each array element.

    The arrays are perturbed in place and restored; ``loss_fn`` must read
    them afresh on every call.
    """
    grads = [np.zeros_like(a) for a in arrays]
    for a, g in zip(arrays, grads):
        flat = a.reshape(-1)
        gf = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            fp = loss_fn()
            flat[i] = orig - h
            fm = loss_fn()
            flat[i] = orig
            gf[i] = (fp - fm) / (2.0 * h)
    return grads


def finite_diff_multi(loss_fn, arrays, h=FD_STEP):
    """Central differences for a closure returning a tuple of scalars.

    Shares the two perturbed forward evaluations across all outputs; returns
    one gradient list per output.
    """
    n_out = len(loss_fn())
    grads = [[np.zeros_like(a) for a in arrays] for _ in range(n_out)]
    for ai, a in enumerate(arrays):
        flat = a.reshape(-1)
        flats = [grads[o][ai].reshape(-1) for o in range(n_out)]
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            fp = loss_fn()
            flat[i] = orig - h
            fm = loss_fn()
            flat[i] = orig
            for o in range(n_out):
                flats[o][i] = (fp[o] - fm[o]) / (2.0 * h)
    return grads


def check_grads(analytic, numeric, rtol=1e-5, atol=FD_ATOL):
    """Assert |a - n| <= atol + rtol*max(|a|,|n|) elementwise and return the
    max relative error over entries large enough for a relative comparison."""
    max_rel = 0.0
    for a, n in zip(analytic, numeric):
        err = np.abs(a - n)
        mag = np.maximum(np.abs(a), np.abs(n))
        bad = err > atol + rtol * mag
        if bad.any():
            i = int(np.argmax(err - (atol + rtol * mag)))
            raise AssertionError(
                f"gradient mismatch: analytic={a.reshape(-1)[i]!r} "
                f"fd={n.reshape(-1)[i]!r} at flat index {i}")
        scaled = mag > atol / rtol
        if scaled.any():
            max_rel = max(max_rel, float((err[scaled] / mag[scaled]).max()))
    return max_rel


def traced_peak(fn) -> int:
    """Peak bytes that tracemalloc saw allocated while ``fn()`` ran."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def lstm_step(x_t, h_prev, c_prev, w):
    """One LSTM step from per-gate weights, with input, forget and output gates.

    ``x_t`` and the states are row vectors (1, n_in) / (1, hidden); ``w``
    holds ``w_{gate}x``, ``w_{gate}h`` and ``b_{gate}`` for gates i, f, g, o.
    Returns (h_t, c_t).
    """
    i = tensor.sigmoid(x_t @ w["w_ix"] + h_prev @ w["w_ih"] + w["b_i"])
    f = tensor.sigmoid(x_t @ w["w_fx"] + h_prev @ w["w_fh"] + w["b_f"])
    g = tensor.tanh(x_t @ w["w_gx"] + h_prev @ w["w_gh"] + w["b_g"])
    o = tensor.sigmoid(x_t @ w["w_ox"] + h_prev @ w["w_oh"] + w["b_o"])
    c_t = f * c_prev + i * g
    h_t = o * tensor.tanh(c_t)
    return h_t, c_t


def lstm_graph_step(z_t, h_prev, c_prev, w_h):
    """One LSTM step from a projected input row (1, 4H) and packed (H, 4H)
    recurrent weights in gate order i, f, g, o.

    Same arithmetic, in the same order, as ``tensor.lstm_sequence``'s
    forward loop, so iterating it must reproduce that op bit for bit. The
    op activates a whole gate row with one tanh, as tanh(z s) s + (1 - s);
    per element that is ``tensor.sigmoid`` (s = 1/2, tanh(z/2)/2 + 1/2) on
    gates i, f, o and ``tensor.tanh`` (s = 1, exact) on gate g. The op adds
    the recurrent product into the projected row, and forms f c_prev and
    i g before their sum, as here. Returns (h_t, c_t).
    """
    hidden = w_h.shape[0]
    z = z_t + h_prev @ w_h
    i = tensor.sigmoid(slice_cols(z, 0, hidden))
    f = tensor.sigmoid(slice_cols(z, hidden, 2 * hidden))
    g = tensor.tanh(slice_cols(z, 2 * hidden, 3 * hidden))
    o = tensor.sigmoid(slice_cols(z, 3 * hidden, 4 * hidden))
    c_t = f * c_prev + i * g
    h_t = o * tensor.tanh(c_t)
    return h_t, c_t


# ---------------------------------------------------------------------------
# whole-array graphs of elementary ops: oracles for the row-tiled fused ops
# ---------------------------------------------------------------------------

# a tile size for tests to set as ``tensor.TILE_ROWS``, and sequence lengths
# around it: one partial tile, exactly one tile, and full tiles followed by a
# partial one
SMALL_TILE = 4
TILE_STEPS = [1, SMALL_TILE - 1, SMALL_TILE, SMALL_TILE + 1, 2 * SMALL_TILE + 3]

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


class DegenerateRowError(ValueError):
    """A softmax row contains no finite entry to normalize over."""


def sum_all(a: Tensor) -> Tensor:
    out = Tensor(a.data.sum())

    def _bw(g):
        a._acc(np.broadcast_to(g, a.data.shape))

    return tensor._record(out, (a,), _bw)


def concat(parts, axis: int) -> Tensor:
    parts = list(parts)
    if not parts:
        raise DimensionError("concat of zero tensors")
    if axis not in (0, 1):
        raise DimensionError("concat supports axis 0 or 1")
    out = Tensor(np.concatenate([p.data for p in parts], axis=axis))
    bounds = np.cumsum([0] + [p.data.shape[axis] for p in parts])

    def _bw(g):
        for p, lo, hi in zip(parts, bounds[:-1], bounds[1:]):
            if p.requires_grad:
                p._acc(g[lo:hi] if axis == 0 else g[:, lo:hi])

    return tensor._record(out, tuple(parts), _bw)


def batch_loss_graph(batch, params, model_cfg, loss_name: str, rng) -> Tensor:
    loss_fn = losses.LOSS_FNS[loss_name]
    total = None
    for x, s in batch:
        s_hat = model.arn_forward(x, params, model_cfg, rng=rng)
        term = loss_fn(x, s, s_hat)
        total = term if total is None else total + term
    return tensor.scale(total, 1.0 / len(batch))


def transpose(a: Tensor) -> Tensor:
    if a.data.ndim != 2:
        raise DimensionError("transpose needs a rank-2 operand")
    out = Tensor(a.data.T)

    def _bw(g):
        a._acc(g.T)

    return tensor._record(out, (a,), _bw)


def softmax_rows(w: Tensor) -> Tensor:
    """Row-wise softmax, stabilized by row-max subtraction.

    ``-inf`` entries (mask sentinels) map to exactly 0; a row that is
    entirely ``-inf`` has nothing to normalize over and raises.
    """
    if w.data.ndim != 2:
        raise DimensionError("softmax_rows needs a rank-2 operand")
    m = w.data.max(axis=1, keepdims=True)
    if np.isneginf(m).any():
        raise DegenerateRowError("softmax row with every entry masked to -inf")
    e = np.exp(w.data - m)
    y = e / e.sum(axis=1, keepdims=True)
    out = Tensor(y)

    def _bw(g):
        dot = (g * y).sum(axis=1, keepdims=True)
        w._acc(y * (g - dot))

    return tensor._record(out, (w,), _bw)


def causal_mask(w: Tensor) -> Tensor:
    """Set entries above the main diagonal to -inf (row t keeps keys <= t)."""
    if w.data.ndim != 2 or w.data.shape[0] != w.data.shape[1]:
        raise DimensionError("causal_mask needs a square matrix")
    data = w.data.copy()
    upper = np.triu_indices(data.shape[0], k=1)
    data[upper] = -np.inf
    out = Tensor(data)

    def _bw(g):
        w._acc(np.tril(g))

    return tensor._record(out, (w,), _bw)


def gelu(a: Tensor) -> Tensor:
    """x * Phi(x) with the exact standard-normal CDF (erf form)."""
    x = a.data
    cdf = 0.5 * (1.0 + erf(x * _INV_SQRT2))
    out = Tensor(x * cdf)

    def _bw(g):
        pdf = np.exp(-0.5 * x * x) * _INV_SQRT_2PI
        a._acc(g * (cdf + x * pdf))

    return tensor._record(out, (a,), _bw)


def slice_cols(a: Tensor, start: int, stop: int) -> Tensor:
    if a.data.ndim != 2:
        raise DimensionError("slice_cols needs a rank-2 operand")
    if not (0 <= start < stop <= a.data.shape[1]):
        raise DimensionError(f"column slice [{start}:{stop}] out of range")
    out = Tensor(a.data[:, start:stop])

    def _bw(g):
        if a.grad is None:
            a.grad = np.zeros_like(a.data)
        a.grad[:, start:stop] += g

    return tensor._record(out, (a,), _bw)


def dropout_apply(x: Tensor, rate: float, mode: str, rng=None) -> Tensor:
    """Inverted dropout: kept entries are scaled by 1/(1-rate).

    Eval mode (and rate 0) is the identity.
    """
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
    if mode == "eval" or rate == 0.0:
        return x
    if rng is None:
        raise ValueError("train-mode dropout needs an rng")
    keep = rng.random(x.data.shape) >= rate
    mask = keep.astype(x.data.dtype) / (1.0 - rate)
    return tensor.mul(x, Tensor(mask))


def attention_graph(q: Tensor, k: Tensor, v: Tensor, causal: bool) -> Tensor:
    """softmax(q k^T / sqrt(N)) v with the whole (T, S) score matrix."""
    scores = tensor.scale(q @ transpose(k), 1.0 / math.sqrt(q.shape[1]))
    if causal:
        scores = causal_mask(scores)
    return softmax_rows(scores) @ v


def value_gate_graph(p) -> Tensor:
    """The (1, N) value gate sigma(Lin(v)) * tanh(Lin(v)) of ``p["v"]``."""
    n = p["v"].shape[0]
    v_row = tensor.reshape(p["v"], (1, n))
    return (tensor.sigmoid(v_row @ p["lin_v_sig.w"] + p["lin_v_sig.b"])
            * tensor.tanh(v_row @ p["lin_v_tanh.w"] + p["lin_v_tanh.b"]))


def attention_block_graph(q, k, v, p, causal: bool) -> Tensor:
    """``model.attention_block``'s gating followed by ``attention_graph``,
    with the whole (T, N) gated queries, keys and values."""
    k_gated = k * tensor.sigmoid(p["k"])
    q_gated = (q @ p["lin_q.w"] + p["lin_q.b"]) * tensor.sigmoid(p["q"])
    return attention_graph(q_gated, k_gated, v * value_gate_graph(p), causal)


def feedforward_graph(x: Tensor, w: Tensor, b: Tensor, dropout_rate: float = 0.0,
                      mode: str = "eval", rng=None) -> Tensor:
    """Linear to 4N, GELU, dropout, and the sum of the four N-wide chunks,
    one elementary op at a time."""
    n = w.shape[1] // 4
    h = dropout_apply(gelu(x @ w + b), dropout_rate, mode, rng)
    chunks = [slice_cols(h, j * n, (j + 1) * n) for j in range(4)]
    return (chunks[0] + chunks[1]) + (chunks[2] + chunks[3])


# ---------------------------------------------------------------------------
# the recurrence, layer norm and framing written over whole arrays
# ---------------------------------------------------------------------------

def flip_rows(a: Tensor) -> Tensor:
    if a.data.ndim != 2:
        raise DimensionError("flip_rows needs a rank-2 operand")
    out = Tensor(a.data[::-1].copy())

    def _bw(g):
        a._acc(g[::-1])

    return tensor._record(out, (a,), _bw)


def _row(a: Tensor, t: int) -> Tensor:
    out = Tensor(a.data[t:t + 1])

    def _bw(g):
        if a.grad is None:
            a.grad = np.zeros_like(a.data)
        a.grad[t:t + 1] += g

    return tensor._record(out, (a,), _bw)


def lstm_sequence_graph(x: Tensor, w_x, b, w_h, reverse: bool = False) -> Tensor:
    """One direction of ``tensor.lstm_sequence`` as a graph: the four gates
    of each of ``w_x``, ``b`` and ``w_h`` packed by recorded concats, the
    whole (T, 4H) input projection, then one ``lstm_graph_step`` per time
    step, in reverse time order when ``reverse``."""
    w_x, w_h = concat(w_x, axis=1), concat(w_h, axis=1)
    hidden = w_h.shape[0]
    z = x @ w_x + concat(b, axis=0)
    h = Tensor(np.zeros((1, hidden), dtype=z.data.dtype))
    c = Tensor(np.zeros((1, hidden), dtype=z.data.dtype))
    rows = [None] * x.shape[0]
    order = range(x.shape[0] - 1, -1, -1) if reverse else range(x.shape[0])
    for t in order:
        h, c = lstm_graph_step(_row(z, t), h, c, w_h)
        rows[t] = h
    return concat(rows, axis=0)


def lstm_stepwise(x, w_x, b, w_h, reverse: bool = False) -> np.ndarray:
    """The rows h_t of ``tensor.lstm_sequence(x, direction(w_x, b, w_h))``,
    or with ``reverse`` the ``bwd`` columns of a call with that direction as
    ``bwd``, by iterating ``lstm_graph_step`` over an input projection made
    one ``tensor.TILE_ROWS`` tile at a time, as the op makes it: the op's
    bitwise oracle at any tile size. ``w_x``, ``b`` and ``w_h`` are four
    per-gate tensors each, as the op takes them."""
    w_x, b, w_h = (np.concatenate([t.data for t in gates], axis=-1)
                   for gates in (w_x, b, w_h))
    steps, hidden = x.shape[0], w_h.shape[0]
    z = np.concatenate([x.data[lo:hi] @ w_x + b for lo, hi in tensor._row_tiles(steps)])
    w_h = Tensor(w_h)
    h = Tensor(np.zeros((1, hidden), dtype=z.dtype))
    c = Tensor(np.zeros((1, hidden), dtype=z.dtype))
    rows = np.empty((steps, hidden), dtype=z.dtype)
    with tensor.no_grad():
        for t in range(steps - 1, -1, -1) if reverse else range(steps):
            h, c = lstm_graph_step(Tensor(z[t:t + 1]), h, c, w_h)
            rows[t] = h.data[0]
    return rows


def direction(w_x, b, w_h):
    """One LSTM direction of four per-gate tensors each, as
    ``tensor.lstm_sequence`` takes it: a function of no argument that
    returns ``(w_x, b, w_h)``, with ``w_x`` a function of the gate's index."""
    return lambda: (lambda j: w_x[j], b, w_h)


def split_gates(packed: np.ndarray) -> list:
    """A packed (..., 4H) array as its four contiguous gate blocks, in gate
    order i, f, g, o."""
    return [np.ascontiguousarray(a) for a in np.split(packed, 4, axis=-1)]


def layer_norm_whole(x: Tensor, gamma: Tensor, beta: Tensor, eps: float) -> Tensor:
    """``tensor.layer_norm_rows`` with whole-array temporaries and x-hat kept
    for the backward pass."""
    n = x.data.shape[1]
    mu = x.data.sum(axis=1, keepdims=True) / n
    centered = x.data - mu
    var = (centered * centered).sum(axis=1, keepdims=True) / n
    inv = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv
    out = Tensor(xhat * gamma.data + beta.data)

    def _bw(g):
        if gamma.requires_grad:
            gamma._acc((g * xhat).sum(axis=0))
        if beta.requires_grad:
            beta._acc(g.sum(axis=0))
        if x.requires_grad:
            gg = g * gamma.data
            m1 = gg.mean(axis=1, keepdims=True)
            m2 = (gg * xhat).mean(axis=1, keepdims=True)
            x._acc(inv * (gg - m1 - xhat * m2))

    return tensor._record(out, (x, gamma, beta), _bw)


def frame_rows_indexed(x: Tensor, frame_len: int, shift: int) -> Tensor:
    """``tensor.frame_rows`` through a (T, L) index array, T = ceil(M / shift),
    with gradients scattered back by ``np.add.at``."""
    m = x.data.shape[0]
    idx = np.arange(math.ceil(m / shift))[:, None] * shift + np.arange(frame_len)[None, :]
    valid = idx < m
    data = x.data[np.minimum(idx, m - 1)]
    data[~valid] = 0.0
    out = Tensor(data)

    def _bw(g):
        if x.grad is None:
            x.grad = np.zeros_like(x.data)
        np.add.at(x.grad, idx[valid], g[valid])

    return tensor._record(out, (x,), _bw)


def overlap_add_rows_indexed(frames: Tensor, shift: int, out_len: int,
                             offset: int = 0) -> Tensor:
    """``tensor.overlap_add_rows`` through a (T, L) index array and
    ``np.add.at``."""
    t, l = frames.data.shape
    pos = np.arange(t)[:, None] * shift + offset + np.arange(l)[None, :]
    valid = pos < out_len
    counts = np.zeros(out_len, dtype=np.int64)
    np.add.at(counts, pos[valid], 1)
    acc = np.zeros(out_len, dtype=frames.data.dtype)
    np.add.at(acc, pos[valid], frames.data[valid])
    denom = np.maximum(counts, 1).astype(frames.data.dtype)
    out = Tensor(acc / denom)

    def _bw(g):
        g = g / denom
        gf = np.zeros_like(frames.data)
        gf[valid] = g[pos[valid]]
        frames._acc(gf)

    return tensor._record(out, (frames,), _bw)


# ---------------------------------------------------------------------------
# the DFT as products with basis matrices
# ---------------------------------------------------------------------------

def dft_bases(win_len: int, n: int, dtype=np.float64):
    """(win_len, n // 2 + 1) cosine and negated-sine bases of the ``n``-point
    DFT, X[f] = sum_k x[k] exp(-2 pi i k f / n), for rows zero-padded from
    ``win_len`` to ``n`` samples."""
    k = np.arange(win_len)[:, None]
    f = np.arange(n // 2 + 1)[None, :]
    # k f mod n keeps the angle below 2 pi, where it is rounded least
    ang = 2.0 * np.pi * ((k * f) % n) / n
    return np.cos(ang).astype(dtype), (-np.sin(ang)).astype(dtype)


def dft_planes(frames: Tensor, window: np.ndarray, n: int):
    """Real and imaginary planes of the ``n``-point DFT of each row of
    ``frames`` times ``window``: a window node and two matmuls."""
    windowed = tensor.mul(frames, Tensor(window))
    cos_b, sin_b = dft_bases(frames.shape[1], n, windowed.data.dtype)
    return tensor.matmul(windowed, Tensor(cos_b)), tensor.matmul(windowed, Tensor(sin_b))


def rfft_magnitude_graph(frames: Tensor, window: np.ndarray, n: int) -> Tensor:
    """``tensor.rfft_magnitude`` as |Re| + |Im| of ``dft_planes``."""
    real, imag = dft_planes(frames, window, n)
    return tensor.absolute(real) + tensor.absolute(imag)
