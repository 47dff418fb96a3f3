"""Dense tensors with reverse-mode automatic differentiation.

A minimal numpy-backed autograd engine covering exactly the operations the
attentive recurrent enhancement network needs: matrix products,
row-broadcast arithmetic, pointwise nonlinearities, row-wise layer
normalization, signal framing / overlap-add, scalar reductions, and four
fused ops: a whole LSTM recurrence, attention with its gated query
projection, the feedforward layer, and the magnitude of a real FFT.

Every operation that sees a gradient-requiring input records a backward
closure on its output. The closure takes the output's gradient as its
argument and holds the output itself only through a weak reference, so a
graph contains no reference cycle: it is freed by reference counting as soon
as its last tensor is dropped, whether or not ``backward`` ran on it.
``backward`` runs one reverse topological sweep over the recorded graph;
gradients accumulate additively (``+=``) into every reachable tensor that
requires them, so a tensor feeding two consumers receives the sum of both
adjoints. Explicit zeroing happens in the optimizer (see ``arn.optim``).
The sweep frees the graph as it goes: once a node's closure has run, the
node drops its gradient, its closure and its parent links, so the arrays
only they held go in the middle of the sweep. Leaves keep their gradients;
a non-leaf tensor keeps its ``data`` and ends with ``grad`` None. A graph is
swept once: a second ``backward`` that reaches a swept node raises
``RuntimeError`` before it writes any gradient.

``lstm_sequence`` records one node for all T time steps of an LSTM, or of
a BLSTM whose two directions write the two halves of one output, and reads
each gate's weights where they lie. Each direction's loop is plain numpy
and allocates nothing per step: it writes the input projection, one tile
of ``TILE_ROWS`` rows and one gate at a time, into one activation buffer
and turns each row into the four gates in place with one tanh (sigmoid in
its tanh form, as ``sigmoid`` computes it). Only when recording does it
keep the gate activations and cell states that its backward pass, through
time, reads; it keeps no copy of the weights.
``attention`` and ``feedforward`` work over the same row tiles and recompute
each tile in their backward pass, so their memory grows linearly in T;
``attention`` also forms each tile's queries from the query stream, so no
(T, N) query array exists, in evaluation or in a recorded graph.
``layer_norm_rows`` writes its output in place and keeps only each row's
mean and inverse deviation. ``rfft_magnitude`` keeps only the signs of its
rows' spectrum, and its backward pass is the adjoint transform, an ``irfft``.
"""

from __future__ import annotations

import functools
import math
import weakref
from contextlib import contextmanager

import numpy as np
from scipy.special import erf


class DimensionError(ValueError):
    """Operand shapes violate the operation's contract."""


class RankError(ValueError):
    """Operation needs a tensor of a different rank (e.g. a scalar loss)."""


class GradientMissingError(RuntimeError):
    """A parameter gradient is required but has not been populated."""


_grad_enabled = True


@contextmanager
def no_grad():
    """Disable graph recording inside the block (pure evaluation)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class Tensor:
    """A dense real array with an optional gradient and graph link.

    A tensor with no recorded parents is a leaf (parameter or input).
    ``data`` is never reallocated by operations, so optimizers may update
    leaf ``data`` in place between steps.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents",
                 "__weakref__")

    def __init__(self, data, requires_grad: bool = False):
        self.data = data if isinstance(data, np.ndarray) else np.asarray(data)
        self.grad = None
        self.requires_grad = requires_grad
        self._backward = None
        self._parents = ()

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise RankError(f"item() on tensor of shape {self.data.shape}")
        return float(self.data.reshape(()))

    def _acc(self, g):
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g

    # operator sugar; the module-level functions do the work
    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __matmul__(self, other):
        return matmul(self, other)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def _record(out: Tensor, parents, fn) -> Tensor:
    """Attach a backward closure when recording is on and any parent needs it.

    ``fn(g)`` receives the output's gradient and must not capture ``out``.
    The stored ``_backward`` takes no argument and reaches ``out`` through a
    weak reference, so the graph holds no cycle.
    """
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        ref = weakref.ref(out)
        out._backward = lambda: fn(ref().grad)
    return out


def _swept():
    raise RuntimeError("this node's backward already ran: a graph is swept once")


def backward(loss: Tensor):
    """Reverse-mode sweep from a scalar loss over the recorded graph.

    Visits each node exactly once in reverse topological order; leaf
    gradients are left populated for the optimizer to consume. A node is
    released as soon as its backward closure has run: its gradient, its
    closure and its parent links are dropped, and so is the sweep's own
    reference to it, so every array that only the graph held is freed in
    the middle of the sweep. A non-leaf tensor keeps its ``data`` but ends
    with ``grad`` None. A swept node is marked, and a later ``backward``
    whose graph reaches it raises ``RuntimeError`` before it writes any
    gradient: a graph is swept once.
    """
    if loss.data.size != 1:
        raise RankError(f"backward() needs a scalar, got shape {loss.data.shape}")
    if loss._backward is None:
        raise ValueError("backward() on a tensor with no recorded graph")

    # iterative post-order DFS: recursion would overflow on long sequences.
    # A node may be pushed once per consumer; it expands only on first pop,
    # which keeps the completion order topological on the DAG.
    order = []
    visited = set()
    stack = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        if node._backward is _swept:
            _swept()
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p._backward is not None and id(p) not in visited:
                stack.append((p, False))

    loss.grad = np.ones_like(loss.data)
    while order:
        node = order.pop()
        node._backward()
        node.grad = None
        node._backward = _swept
        node._parents = ()


# ---------------------------------------------------------------------------
# binary elementwise ops: identical shapes, or a right operand that is a
# length-N vector (shape (N,) or (1, N)) broadcast across the rows of the
# (T, N) left operand, whose gradient therefore needs no reduction
# ---------------------------------------------------------------------------

def _check_binary(a: Tensor, b: Tensor):
    sa, sb = a.data.shape, b.data.shape
    if sa == sb:
        return
    if len(sa) == 2 and sb in ((sa[1],), (1, sa[1])):
        return
    raise DimensionError(f"shapes {sa} and {sb} do not match or row-broadcast")


def _reduce_to(g: np.ndarray, shape) -> np.ndarray:
    # undo a row broadcast by summing over rows
    if g.shape == shape:
        return g
    return g.sum(axis=0).reshape(shape)


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_binary(a, b)
    out = Tensor(a.data + b.data)

    def _bw(g):
        if a.requires_grad:
            a._acc(g)
        if b.requires_grad:
            b._acc(_reduce_to(g, b.data.shape))

    return _record(out, (a, b), _bw)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_binary(a, b)
    out = Tensor(a.data - b.data)

    def _bw(g):
        if a.requires_grad:
            a._acc(g)
        if b.requires_grad:
            b._acc(_reduce_to(-g, b.data.shape))

    return _record(out, (a, b), _bw)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_binary(a, b)
    out = Tensor(a.data * b.data)

    def _bw(g):
        if a.requires_grad:
            a._acc(g * b.data)
        if b.requires_grad:
            b._acc(_reduce_to(g * a.data, b.data.shape))

    return _record(out, (a, b), _bw)


def scale(a: Tensor, c: float) -> Tensor:
    """Multiply by a python scalar constant."""
    out = Tensor(a.data * c)

    def _bw(g):
        a._acc(g * c)

    return _record(out, (a,), _bw)


# ---------------------------------------------------------------------------
# matrix ops
# ---------------------------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise DimensionError("matmul needs rank-2 operands")
    if a.data.shape[1] != b.data.shape[0]:
        raise DimensionError(
            f"inner extents disagree: {a.data.shape} @ {b.data.shape}")
    out = Tensor(a.data @ b.data)

    def _bw(g):
        if a.requires_grad:
            a._acc(g @ b.data.T)
        if b.requires_grad:
            b._acc(a.data.T @ g)

    return _record(out, (a, b), _bw)


def reshape(a: Tensor, shape) -> Tensor:
    out = Tensor(a.data.reshape(shape))

    def _bw(g):
        a._acc(g.reshape(a.data.shape))

    return _record(out, (a,), _bw)


# ---------------------------------------------------------------------------
# pointwise nonlinearities
# ---------------------------------------------------------------------------

def _sigmoid(x: np.ndarray) -> np.ndarray:
    # 1/(1+e^-x) as tanh(x/2)/2 + 1/2: one tanh, which saturates without
    # overflow for large |x|, and the arithmetic of ``lstm_sequence``'s gates
    y = np.tanh(x * 0.5)
    y *= 0.5
    y += 0.5
    return y


def sigmoid(a: Tensor) -> Tensor:
    y = _sigmoid(a.data)
    out = Tensor(y)

    def _bw(g):
        a._acc(g * (y * (1.0 - y)))

    return _record(out, (a,), _bw)


def tanh(a: Tensor) -> Tensor:
    y = np.tanh(a.data)
    out = Tensor(y)

    def _bw(g):
        a._acc(g * (1.0 - y * y))

    return _record(out, (a,), _bw)


# Rows per tile of the ops that work on row blocks: ``attention``,
# ``feedforward``, the input projection of ``lstm_sequence`` and the variance
# of ``layer_norm_rows``. They hold scratch for one tile at a time,
# O(TILE_ROWS * (T + N)) for attention and O(TILE_ROWS * 4N) for the
# feedforward layer and the LSTM, instead of whole T x T and T x 4N arrays.
TILE_ROWS = 256


def _row_tiles(steps: int):
    return ((a, min(a + TILE_ROWS, steps)) for a in range(0, steps, TILE_ROWS))


# ---------------------------------------------------------------------------
# recurrence
# ---------------------------------------------------------------------------

def lstm_sequence(x: Tensor, fwd, bwd=None) -> Tensor:
    """LSTM over the rows of ``x`` from a zero state, one direction or both,
    as one recorded op.

    ``x`` is (T, K). ``fwd`` and ``bwd`` are each a direction's ``(w_x, b,
    w_h)``, four tensors each in gate order i, f, g, o: the (K, H) input
    weights, the (H,) biases and the (H, H) recurrent weights. ``fwd`` runs
    forward in time into columns [0, H) of the output and ``bwd``, when
    given, backward in time into columns [H, 2H). Row t of a direction's
    columns is h_t, where z_t = x_t w_x + b + h_prev w_h over the gates side
    by side (4H columns), c_t = f * c_prev + i * g and h_t = o * tanh(c_t);
    the previous step is t - 1 forward in time and t + 1 backward.

    The directions run one after the other and read the weights where they
    lie. Each writes its input projection, one tile of ``TILE_ROWS`` rows
    and one gate at a time, into one activation buffer: (T, 4H) when
    recording, one tile otherwise, freed before the next direction runs.
    Its recurrent weights are packed into one (H, 4H) matrix while its step
    loop runs. No step allocates: it adds h_prev w_h into its row and
    activates all four gates in place with one tanh, tanh(z s) s + (1 - s)
    for a column scale s of 1/2 on gates i, f, o (sigmoid(z) = tanh(z/2)/2 +
    1/2, as ``sigmoid`` computes it) and 1 on gate g. When recording, each
    direction keeps its gate activations and its (T, H) cell states, and
    nothing weight-sized. The backward pass runs backpropagation through
    time for each direction in turn over views of what it kept, freed once
    it is done: one (4H,) @ (4H, H) product per step, through the recurrent
    weights packed again, then the gradients of ``x`` and of each weight as
    one product or sum over all steps, whose column blocks go to the gates.
    """
    dirs = [tuple(tuple(g) for g in d) for d in ([fwd] if bwd is None else [fwd, bwd])]
    if any(len(d) != 3 or any(len(g) != 4 for g in d) for d in dirs):
        raise DimensionError("lstm_sequence needs (w_x, b, w_h) of four gates each")
    xd = x.data
    if xd.ndim != 2:
        raise DimensionError("lstm_sequence needs a rank-2 x")
    steps = xd.shape[0]
    hidden = dirs[0][2][0].data.shape[0]
    shapes = ((xd.shape[1], hidden), (hidden,), (hidden, hidden))
    if any(t.data.shape != shape for d in dirs for shape, gates in zip(shapes, d)
           for t in gates):
        shown = [[[t.shape for t in g] for g in d] for d in dirs]
        raise DimensionError(f"need x (T, K) and per gate w_x (K, H), b (H,) and w_h (H, H) "
                             f"in each direction, got {xd.shape} and {shown}")
    if steps == 0:
        raise DimensionError("lstm_sequence on zero time steps")
    parents = (x, *(t for d in dirs for gates in d for t in gates))
    keep = _grad_enabled and any(p.requires_grad for p in parents)
    hs = np.empty((steps, hidden * len(dirs)),
                  dtype=np.result_type(*(p.data for p in parents)))
    cols = [slice(j * hidden, (j + 1) * hidden) for j in range(len(dirs))]
    kept = [_lstm_run(xd, *d, hs[:, c], j == 1, keep)
            for j, (d, c) in enumerate(zip(dirs, cols))]
    out = Tensor(hs)
    if not keep:
        return out

    def _bw(dy):
        for j, (d, c) in enumerate(zip(dirs, cols)):
            acts, cells = kept[j]
            kept[j] = None
            _lstm_bptt(x, *d, hs[:, c], acts, cells, dy[:, c], j == 1)

    return _record(out, parents, _bw)


def _lstm_run(xd, w_x, b, w_h, hs, reverse: bool, keep: bool):
    """One direction of ``lstm_sequence`` into ``hs``, its (T, H) column
    block; returns the gate activations and cell states when ``keep``."""
    steps, hidden = hs.shape
    dtype = hs.dtype
    h4 = 4 * hidden
    # a = tanh(z * s) * s + (1 - s) is sigmoid(z) where s = 1/2 and tanh(z)
    # where s = 1; the scaling by s and the adding of 0 are exact
    s = np.full(h4, 0.5, dtype=dtype)
    s[2 * hidden:3 * hidden] = 1.0
    off = 1.0 - s
    acts = np.empty((steps if keep else min(steps, TILE_ROWS), h4), dtype=dtype)
    gates = acts.reshape(-1, 4, hidden)
    # outside recording c_t overwrites c_prev in place: one cell row
    cells = np.empty((steps if keep else 1, hidden), dtype=dtype)
    rec = np.empty(h4, dtype=dtype)
    ig = np.empty(hidden, dtype=dtype)
    h = np.zeros(hidden, dtype=dtype)
    c = np.zeros(hidden, dtype=dtype)
    wh = _pack(w_h)
    tiles = list(_row_tiles(steps))
    for lo, hi in reversed(tiles) if reverse else tiles:
        base = 0 if keep else lo
        tile = gates[lo - base:hi - base]
        for j in range(4):
            np.matmul(xd[lo:hi], w_x[j].data, out=tile[:, j])
            tile[:, j] += b[j].data
        for t in range(hi - 1, lo - 1, -1) if reverse else range(lo, hi):
            z = acts[t - base]
            np.matmul(h, wh, out=rec)
            z += rec
            z *= s
            np.tanh(z, out=z)
            z *= s
            z += off
            i, f, g, o = gates[t - base]
            c_prev, c = c, cells[t if keep else 0]
            np.multiply(f, c_prev, out=c)
            np.multiply(i, g, out=ig)
            c += ig
            h = hs[t]
            np.tanh(c, out=h)
            h *= o
    return (acts, cells) if keep else None


def _lstm_bptt(x: Tensor, w_x, b, w_h, hs, acts, cells, dy, reverse: bool):
    """The backward pass of one direction of ``lstm_sequence`` from ``dy``,
    its (T, H) column block of the output's gradient."""
    steps, hidden = hs.shape
    dtype = hs.dtype
    i, f, g, o = acts.reshape(steps, 4, hidden).swapaxes(0, 1)
    # c_prev is the cell state one step earlier in the direction of the
    # recurrence, zero at its start
    c_prev = np.zeros_like(cells)
    if reverse:
        c_prev[:-1] = cells[1:]
    else:
        c_prev[1:] = cells[:-1]
    # dz first holds the factors that turn dc_t (gates i, f, g) and dh_t
    # (gate o) into the pre-activation gradients, then those gradients
    dz = np.empty((steps, 4 * hidden), dtype=dtype)
    dz4 = dz.reshape(steps, 4, hidden)
    np.multiply(g, i * (1 - i), out=dz4[:, 0])
    np.multiply(c_prev, f * (1 - f), out=dz4[:, 1])
    np.multiply(i, 1 - g * g, out=dz4[:, 2])
    tc = np.tanh(cells)
    np.multiply(tc, o * (1 - o), out=dz4[:, 3])
    # dc_t = dc_next + dh_t k_t
    k = o * (1 - tc * tc)
    w_t = _pack(w_h).T
    dh, dc = np.empty(hidden, dtype=dtype), np.empty(hidden, dtype=dtype)
    dh_next, dc_next = np.zeros(hidden, dtype=dtype), np.zeros(hidden, dtype=dtype)
    for t in range(steps) if reverse else range(steps - 1, -1, -1):
        np.add(dy[t], dh_next, out=dh)
        np.multiply(dh, k[t], out=dc)
        dc += dc_next
        dz4[t, :3] *= dc
        dz4[t, 3] *= dh
        np.matmul(dz[t], w_t, out=dh_next)
        np.multiply(dc, f[t], out=dc_next)
    del w_t
    if x.requires_grad:
        x._acc(dz @ _pack(w_x).T)
    _acc_gates(w_x, lambda: x.data.T @ dz)
    _acc_gates(b, lambda: dz.sum(axis=0))
    _acc_gates(w_h, lambda: (hs[1:].T @ dz[:-1]) if reverse else (hs[:-1].T @ dz[1:]))


def _pack(gates) -> np.ndarray:
    """The four per-gate weight matrices side by side: (rows, 4H)."""
    return np.concatenate([t.data for t in gates], axis=1)


def _acc_gates(gates, grad):
    """Pass each gate its column block of the packed gradient ``grad()``,
    which is formed only if some gate needs it."""
    if not any(t.requires_grad for t in gates):
        return
    packed = grad()
    hidden = packed.shape[-1] // 4
    for j, t in enumerate(gates):
        if t.requires_grad:
            t._acc(packed[..., j * hidden:(j + 1) * hidden])


# ---------------------------------------------------------------------------
# row-tiled fused ops: attention and the feedforward layer
# ---------------------------------------------------------------------------

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


@functools.lru_cache(maxsize=1)
def _upper_triangle(size: int) -> np.ndarray:
    """The entries above the diagonal of a (size, size) square, read-only.
    Its leading (rows, rows) block masks a causal tile of that many rows."""
    upper = np.triu(np.ones((size, size), dtype=bool), 1)
    upper.flags.writeable = False
    return upper


def _attention_probs(q_tile, k, scale: float, first_row: int, causal: bool):
    """Softmax rows of one query tile over the keys ``k``.

    A causal tile gets only keys [0, first_row + rows) and masks the entries
    above the diagonal of its last (rows, rows) block.
    """
    s = q_tile @ k.T
    s *= scale
    if causal:
        rows = s.shape[0]
        upper = _upper_triangle(TILE_ROWS)[:rows, :rows]
        np.copyto(s[:, first_row:], -np.inf, where=upper)
    s -= s.max(axis=1, keepdims=True)
    np.exp(s, out=s)
    s /= s.sum(axis=1, keepdims=True)
    return s


# rows per product-and-sum in ``attention``'s backward: its temporary is
# (_SUM_ROWS, S), not (TILE_ROWS, S); each row's sum is the same either way
_SUM_ROWS = 16


def _queries(x_tile, w, b, gate):
    """One tile's queries, (x_tile w + b) * gate, and the product before
    the gate, which the backward pass also reads."""
    pre = x_tile @ w
    pre += b
    return pre * gate, pre


def attention(x: Tensor, w: Tensor, b: Tensor, gate: Tensor, k: Tensor, v: Tensor,
              causal: bool) -> Tensor:
    """softmax(q k^T / sqrt(N)) v with queries q = (x w + b) * gate, as one
    recorded op over query tiles.

    ``x`` is (T, K), ``w`` (K, N), ``b`` and ``gate`` (N,), ``k`` (S, N) and
    ``v`` (S, M). When ``causal`` (which needs S == T), row t attends to
    keys 0..t only. Each tile's queries are formed from its rows of ``x``
    and dropped with the tile, so no (T, N) query array is ever held.
    Softmax rows are independent, so tiling the queries is exact without a
    running maximum. A causal tile of rows [a, b) reads keys [0, b) only,
    which skips the masked triangle. The backward pass recomputes each
    tile's queries and probabilities, so no (T, S) array is ever held
    either; it holds two (TILE_ROWS, S) arrays per tile, the probabilities
    and their gradient, and forms the softmax's row sums ``_SUM_ROWS`` rows
    at a time.
    """
    xd, wd, bd, gd, kd, vd = (t.data for t in (x, w, b, gate, k, v))
    if xd.ndim != 2 or wd.ndim != 2 or kd.ndim != 2 or vd.ndim != 2:
        raise DimensionError("attention needs rank-2 x, w, k and v")
    steps, n = xd.shape[0], wd.shape[1]
    keys = kd.shape[0]
    if (xd.shape[1] != wd.shape[0] or bd.shape != (n,) or gd.shape != (n,)
            or kd.shape[1] != n or vd.shape[0] != keys):
        raise DimensionError(
            f"need x (T, K), w (K, N), b and gate (N,), k (S, N) and v (S, M), got "
            f"{xd.shape}, {wd.shape}, {bd.shape}, {gd.shape}, {kd.shape} and {vd.shape}")
    if causal and keys != steps:
        raise DimensionError(f"causal attention needs T == S, got {steps} and {keys}")
    if steps == 0 or keys == 0:
        raise DimensionError("attention over zero queries or keys")
    scale = 1.0 / math.sqrt(n)
    out = np.empty((steps, vd.shape[1]), dtype=np.result_type(xd, wd, bd, gd, kd, vd))
    for lo, hi in _row_tiles(steps):
        stop = hi if causal else keys
        q = _queries(xd[lo:hi], wd, bd, gd)[0]
        out[lo:hi] = _attention_probs(q, kd[:stop], scale, lo, causal) @ vd[:stop]

    def _bw(g):
        dx, dw, db, dgate, dk, dv = (np.zeros_like(a) for a in (xd, wd, bd, gd, kd, vd))
        for lo, hi in _row_tiles(steps):
            stop = hi if causal else keys
            q, pre = _queries(xd[lo:hi], wd, bd, gd)
            p = _attention_probs(q, kd[:stop], scale, lo, causal)
            dv[:stop] += p.T @ g[lo:hi]
            # softmax backward: ds = p * (dp - rowsum(dp * p)), times the scale
            ds = g[lo:hi] @ vd[:stop].T
            for a in range(0, hi - lo, _SUM_ROWS):
                rows = slice(a, a + _SUM_ROWS)
                ds[rows] -= (ds[rows] * p[rows]).sum(axis=1, keepdims=True)
            ds *= p
            ds *= scale
            dq = ds @ kd[:stop]
            dk[:stop] += ds.T @ q
            # freed before the next tile's pair is made
            del p, ds
            # through the gate, then the bias and the projection
            dgate += (dq * pre).sum(axis=0)
            dq *= gd
            dx[lo:hi] = dq @ wd.T
            dw += xd[lo:hi].T @ dq
            db += dq.sum(axis=0)
        for t, d in ((x, dx), (w, dw), (b, db), (gate, dgate), (k, dk), (v, dv)):
            if t.requires_grad:
                t._acc(d)

    return _record(Tensor(out), (x, w, b, gate, k, v), _bw)


def _gelu_cdf(pre: np.ndarray) -> np.ndarray:
    """Phi(pre), the standard-normal CDF, in erf form."""
    cdf = pre * _INV_SQRT2
    erf(cdf, out=cdf)
    cdf += 1.0
    cdf *= 0.5
    return cdf


def feedforward(x: Tensor, w: Tensor, b: Tensor, keep=None,
                rate: float = 0.0) -> Tensor:
    """GELU(x w + b) with inverted dropout, summed over its four equal column
    chunks, as one recorded op over row tiles.

    ``x`` is (T, K), ``w`` (K, 4N) and ``b`` (4N,); the output is (T, N).
    GELU is z * Phi(z) with the exact normal CDF. ``keep``, a plain boolean
    (T, 4N) array, or None for no dropout, marks the activations dropout
    keeps; they are scaled by 1/(1 - ``rate``), a scalar of the op's dtype,
    and the others zeroed. Each tile's (rows, 4N) pre-activation lives only
    while that tile is processed; the backward pass recomputes it.
    """
    xd, wd, bd = x.data, w.data, b.data
    if xd.ndim != 2 or wd.ndim != 2 or xd.shape[1] != wd.shape[0]:
        raise DimensionError(
            f"feedforward needs (T, K) @ (K, 4N), got {xd.shape} and {wd.shape}")
    steps, wide = xd.shape[0], wd.shape[1]
    if wide % 4 or bd.shape != (wide,):
        raise DimensionError(
            f"need w of 4N columns and b of shape (4N,), got {wd.shape} and {bd.shape}")
    if keep is not None and (keep.shape != (steps, wide) or keep.dtype != bool):
        raise DimensionError(
            f"need a boolean keep mask of shape {(steps, wide)}, "
            f"got {keep.dtype} {keep.shape}")
    n = wide // 4
    dtype = np.result_type(xd, wd, bd)
    # zeroing first, then scaling, gives what one product with a (T, 4N)
    # array of 0 and 1/(1 - rate) gives, signed zeros included
    inv_keep = dtype.type(1) / dtype.type(1.0 - rate)
    out = np.empty((steps, n), dtype=dtype)
    for lo, hi in _row_tiles(steps):
        h = xd[lo:hi] @ wd
        h += bd
        h *= _gelu_cdf(h)
        if keep is not None:
            h *= keep[lo:hi]
            h *= inv_keep
        out[lo:hi] = (h[:, :n] + h[:, n:2 * n]) + (h[:, 2 * n:3 * n] + h[:, 3 * n:])

    def _bw(g):
        dx, dw, db = np.zeros_like(xd), np.zeros_like(wd), np.zeros_like(bd)
        for lo, hi in _row_tiles(steps):
            pre = xd[lo:hi] @ wd
            pre += bd
            # each of the four chunks receives the output's gradient
            dpre = np.tile(g[lo:hi], 4)
            if keep is not None:
                dpre *= keep[lo:hi]
                dpre *= inv_keep
            # d/dz of z * Phi(z) is Phi(z) + z * phi(z)
            dpre *= _gelu_cdf(pre) + pre * np.exp(-0.5 * pre * pre) * _INV_SQRT_2PI
            dx[lo:hi] = dpre @ wd.T
            dw += xd[lo:hi].T @ dpre
            db += dpre.sum(axis=0)
        for t, d in ((x, dx), (w, dw), (b, db)):
            if t.requires_grad:
                t._acc(d)

    return _record(Tensor(out), (x, w, b), _bw)


# ---------------------------------------------------------------------------
# spectral magnitude
# ---------------------------------------------------------------------------

def rfft_magnitude(frames: Tensor, window: np.ndarray, n: int) -> Tensor:
    """|Re X| + |Im X|, where row t of X is the ``n``-point ``np.fft.rfft``
    of row t of ``frames`` times ``window``, as one recorded op.

    ``frames`` is (T, L), ``window`` a plain (L,) array and n >= L; the
    output is (T, n // 2 + 1). The backward pass is the adjoint transform:
    ``irfft`` of g sign(Re X) + i g sign(Im X) with bins 1 .. ceil(n/2) - 1
    halved, since ``irfft`` counts each of them twice, then times n and the
    window. Only the two sign planes are kept for it, not X.
    """
    fd = frames.data
    if fd.ndim != 2 or window.shape != fd.shape[1:]:
        raise DimensionError(
            f"need (T, L) frames and an (L,) window, got {fd.shape} and {window.shape}")
    if n < fd.shape[1]:
        raise DimensionError(f"FFT size {n} is shorter than the frames ({fd.shape[1]})")
    spec = np.fft.rfft(fd * window, n=n, axis=1)
    out = Tensor(np.abs(spec.real) + np.abs(spec.imag))
    # the backward pass reads only the signs; float16 holds -1, 0, 1 and NaN
    # exactly in a quarter of the complex spectrum's bytes, or less
    sign_re = np.sign(spec.real).astype(np.float16)
    sign_im = np.sign(spec.imag).astype(np.float16)
    del spec

    def _bw(g):
        adj = g * sign_re + 1j * (g * sign_im)
        adj[:, 1:(n + 1) // 2] *= 0.5
        dx = np.fft.irfft(adj, n=n, axis=1)[:, :fd.shape[1]]
        dx *= n * window
        frames._acc(dx)

    return _record(out, (frames,), _bw)


# ---------------------------------------------------------------------------
# reductions and pointwise misc
# ---------------------------------------------------------------------------

def mean_all(a: Tensor) -> Tensor:
    out = Tensor(a.data.mean())

    def _bw(g):
        a._acc(np.broadcast_to(g / a.data.size, a.data.shape))

    return _record(out, (a,), _bw)


def absolute(a: Tensor) -> Tensor:
    # subgradient at 0 is defined as 0 (np.sign(0) == 0)
    out = Tensor(np.abs(a.data))

    def _bw(g):
        a._acc(g * np.sign(a.data))

    return _record(out, (a,), _bw)


def layer_norm_rows(x: Tensor, gamma: Tensor, beta: Tensor, eps: float) -> Tensor:
    """Per-row normalization: (x - mean) / sqrt(var + eps) * gamma + beta.

    Variance is the population variance over the row (divide by N). The
    output is the only (T, N) array made: it is centered, scaled and shifted
    in place, and the variance is summed one tile of rows at a time. Only
    each row's mean and inverse deviation are kept; the backward pass
    recomputes the normalized rows from them.
    """
    if x.data.ndim != 2:
        raise DimensionError("layer_norm_rows needs a rank-2 operand")
    xd = x.data
    n = xd.shape[1]
    if gamma.data.shape != (n,) or beta.data.shape != (n,):
        raise DimensionError("gamma/beta must be length-N vectors")
    mu = xd.sum(axis=1, keepdims=True) / n
    out = (xd - mu).astype(np.result_type(xd, gamma.data, beta.data), copy=False)
    var = np.empty(mu.shape, dtype=out.dtype)
    for lo, hi in _row_tiles(xd.shape[0]):
        centered = out[lo:hi]
        var[lo:hi] = (centered * centered).sum(axis=1, keepdims=True)
    var /= n
    inv = 1.0 / np.sqrt(var + eps)
    out *= inv
    out *= gamma.data
    out += beta.data

    def _bw(g):
        xhat = xd - mu
        xhat *= inv
        if gamma.requires_grad:
            gamma._acc((g * xhat).sum(axis=0))
        if beta.requires_grad:
            beta._acc(g.sum(axis=0))
        if x.requires_grad:
            gg = g * gamma.data
            m1 = gg.mean(axis=1, keepdims=True)
            m2 = (gg * xhat).mean(axis=1, keepdims=True)
            x._acc(inv * (gg - m1 - xhat * m2))

    return _record(Tensor(out), (x, gamma, beta), _bw)


# ---------------------------------------------------------------------------
# structural ops
# ---------------------------------------------------------------------------

def _frame_view(padded: np.ndarray, frame_len: int, shift: int, num_frames: int):
    """Read-only (num_frames, frame_len) view: row t is padded[t*shift:][:frame_len]."""
    windows = np.lib.stride_tricks.sliding_window_view(padded, frame_len)
    return windows[::shift][:num_frames]


def _frames_span(rows: int, frame_len: int, shift: int) -> int:
    """Buffer length for ``rows`` frames at hop ``shift``: rows +
    ceil(frame_len / shift) whole shifts, which covers every frame."""
    return (rows + -(-frame_len // shift)) * shift


def _add_frames(acc: np.ndarray, frames: np.ndarray, shift: int):
    """Overlap-add the rows of ``frames`` into ``acc``: row t at t*shift.

    ``acc`` must hold ``_frames_span`` samples. Each shift-wide
    column chunk of all rows lands on one run of ``acc``, one slice-add per
    chunk. The chunks go last to first, so every sample sums its frames in
    row order, the order of a scatter-add over the rows.
    """
    rows, frame_len = frames.shape
    chunks = -(-frame_len // shift)
    grid = acc.reshape(rows + chunks, shift)
    for j in range(chunks - 1, -1, -1):
        width = min(shift, frame_len - j * shift)
        grid[j:j + rows, :width] += frames[:, j * shift:j * shift + width]


def frame_rows(x: Tensor, frame_len: int, shift: int) -> Tensor:
    """Gather a 1-D signal of M samples into ceil(M / shift) overlapping
    rows, row t = x[t*shift : t*shift+L]: one row starts at each hop.

    Positions past the end of the signal read as zero. The gather is a copy
    of a strided view of the zero-padded signal; gradients overlap-add back
    into the signal.
    """
    if x.data.ndim != 1 or x.data.shape[0] < 1:
        raise DimensionError("frame_rows needs a non-empty 1-D signal")
    if shift < 1 or frame_len < 1:
        raise DimensionError("frame_len and shift must be positive")
    m = x.data.shape[0]
    num_frames = -(-m // shift)
    size = _frames_span(num_frames, frame_len, shift)
    padded = np.zeros(size, dtype=x.data.dtype)
    padded[:m] = x.data
    out = Tensor(_frame_view(padded, frame_len, shift, num_frames).copy())

    def _bw(g):
        if x.grad is None:
            x.grad = np.zeros_like(x.data)
        acc = np.zeros(size, dtype=x.grad.dtype)
        acc[:m] = x.grad
        _add_frames(acc, g, shift)
        x.grad[:] = acc[:m]

    return _record(out, (x,), _bw)


def overlap_add_rows(frames: Tensor, shift: int, out_len: int,
                     offset: int = 0) -> Tensor:
    """Scatter rows back to a 1-D signal: row t lands at t*shift + offset.

    Each output sample is the sum of all frame entries mapping to it divided
    by the number of covering frames; samples covered by no frame are zero.
    With frames produced by ``frame_rows`` (offset 0) this inverts the
    framing exactly.
    """
    if frames.data.ndim != 2:
        raise DimensionError("overlap_add_rows needs a rank-2 operand")
    if shift < 1 or out_len < 1 or offset < 0:
        raise DimensionError("shift/out_len must be positive, offset >= 0")
    t, l = frames.data.shape
    span = _frames_span(t, l, shift)
    size = max(offset + span, out_len)
    acc = np.zeros(size, dtype=frames.data.dtype)
    _add_frames(acc[offset:offset + span], frames.data, shift)
    counts = np.zeros(size, dtype=np.int64)
    _add_frames(counts[offset:offset + span], np.broadcast_to(np.int64(1), (t, l)), shift)
    denom = np.maximum(counts[:out_len], 1).astype(frames.data.dtype)
    out = Tensor(acc[:out_len] / denom)

    def _bw(g):
        padded = np.zeros(size, dtype=frames.data.dtype)
        padded[:out_len] = g / denom
        frames._acc(_frame_view(padded[offset:], l, shift, t))

    return _record(out, (frames,), _bw)
