"""Dense tensors with reverse-mode automatic differentiation.

A minimal numpy-backed autograd engine covering exactly the operations the
attentive recurrent enhancement network needs: matrix products,
row-broadcast arithmetic, pointwise nonlinearities, row-wise layer
normalization, signal framing / overlap-add, scalar reductions, and four
fused ops: a whole LSTM recurrence, attention with its gated query
projection, the feedforward layer, and the magnitude of a real FFT.

An op records a backward closure (``_record``) when ops record
(``recording``) and an input requires gradients. ``backward`` sweeps the
recorded graph once, and gradients accumulate into every tensor that
requires them until the optimizer clears them. The fused ops work over
tiles of ``TILE_ROWS`` rows; each op's docstring says what it keeps for
its backward pass and what it recomputes there.

A caller may hand an op one operand's array to write its output into:
``add`` and ``layer_norm_rows`` their first operand with
``overwrite=True``, ``attention`` and ``feedforward`` their ``into``
array. The op does so only under ``no_grad`` (``_writable``), since while
ops record another op's backward pass may read the array. An op never
infers that it owns an array; the caller decides, once.
"""

from __future__ import annotations

import functools
import math
import weakref
from contextlib import contextmanager

import numpy as np


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


def recording() -> bool:
    """Whether ops record a graph for inputs that require gradients: true
    outside ``no_grad``."""
    return _grad_enabled


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

    def _acc(self, g, fresh: bool = False):
        """Add ``g`` into this tensor's gradient. ``fresh`` says that the op
        made ``g`` for this input alone, so that no other holder reads or
        writes it: as the first gradient, of the data's shape and dtype, it
        is then adopted rather than added into new zeros, with its negative
        zeros made positive, as adding it to zeros makes them. A gradient
        that is passed through, or handed to two inputs, is never fresh."""
        if self.grad is None:
            if fresh and g.shape == self.data.shape and g.dtype == self.data.dtype:
                g += 0.0
                self.grad = g
                return
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


def _writable(t: Tensor, dtype) -> bool:
    """Whether an op writes its output into the array of ``t``, which the
    caller hands over: only under ``no_grad``, and only when the array has
    the output's dtype."""
    return not _grad_enabled and t.data.dtype == dtype


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


def add(a: Tensor, b: Tensor, overwrite: bool = False) -> Tensor:
    """a + b; with ``overwrite``, under ``no_grad``, into ``a``'s array."""
    _check_binary(a, b)
    if overwrite and _writable(a, np.result_type(a.data, b.data)):
        out = Tensor(np.add(a.data, b.data, out=a.data))
    else:
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
            a._acc(g @ b.data.T, fresh=True)
        if b.requires_grad:
            b._acc(a.data.T @ g, fresh=True)

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

    ``x`` is (T, K). ``fwd`` and ``bwd`` are each a direction: a function of
    no argument that returns its ``(w_x, b, w_h)``, where ``b`` is four (H,)
    biases and ``w_h`` four (H, H) recurrent weights, in gate order i, f, g,
    o, and ``w_x`` is a function of the gate's index, 0 to 3, that returns
    that gate's (K, H) input weights. ``fwd`` runs forward in time into
    columns [0, H) of the output and ``bwd``, when given, backward in time
    into columns [H, 2H). Row t of a direction's columns is h_t, where z_t =
    x_t w_x + b + h_prev w_h over the gates side by side (4H columns), c_t =
    f * c_prev + i * g and h_t = o * tanh(c_t); the previous step is t - 1
    forward in time and t + 1 backward. The output has the dtype of ``x``
    and ``fwd``'s biases and recurrent weights.

    The weights are fetched late, so that a caller can read each into
    memory that the ones before it used. Outside recording, ``bwd`` is
    called when its direction runs, after the loop of the one before has
    returned, and ``w_x`` for each tile and gate, just before that gate's
    part of the tile's input projection; what each call returns is checked
    then. When recording, both directions and each gate's ``w_x`` are called
    before anything runs, since the graph needs all its parents.

    The directions run one after the other and read the weights where they
    lie. Each writes its input projection, one tile of ``TILE_ROWS`` rows
    and one gate at a time, into one activation buffer: (T, 4H) when
    recording, one tile otherwise, freed before the next direction runs.
    Each step forms h_prev w_h through one (H, 4H) copy of the recurrent
    weights, packed while the step loop runs, when H <= ``TILE_ROWS``, so
    that the copy is no larger than the activation tile; at larger H as four
    per-gate products that read the weights where they lie. The two forms
    agree to rounding, and bitwise where OpenBLAS's kernels split H alike
    (on its Haswell kernels, float32 H a multiple of 16, as at both presets'
    widths); recording or not, a node takes the same form. No step
    allocates: it adds h_prev w_h into its row and activates all four gates
    in place with one tanh, tanh(z s) s + (1 - s) for a column scale s of
    1/2 on gates i, f, o (sigmoid(z) = tanh(z/2)/2 + 1/2, as ``sigmoid``
    computes it) and 1 on gate g. When recording, each direction keeps its
    gate activations and its (T, H) cell states, and nothing weight-sized.
    The backward pass runs backpropagation through
    time for each direction in turn over views of what it kept, freed once
    it is done: one (4H,) @ (4H, H) product per step, through the recurrent
    weights packed again, then the gradient of ``x`` as one product over
    all steps, through the input weights packed, and each gate's weight and
    bias gradients as their own products and sums over all steps.
    """
    xd = x.data
    if xd.ndim != 2:
        raise DimensionError("lstm_sequence needs a rank-2 x")
    steps = xd.shape[0]
    if steps == 0:
        raise DimensionError("lstm_sequence on zero time steps")
    dirs = [_lstm_weights(fwd)] + ([] if bwd is None else [bwd])
    hidden = dirs[0][2][0].data.shape[0]
    # a later direction is called when it runs, outside recording;
    # recording, the graph needs all its parents before anything runs
    if _grad_enabled:
        dirs[1:] = [_lstm_weights(d, hidden) for d in dirs[1:]]
        parents = (x, *(t for w_x, b, w_h in dirs for t in (*map(w_x, range(4)), *b, *w_h)))
    keep = _grad_enabled and any(p.requires_grad for p in parents)
    hs = np.empty((steps, hidden * len(dirs)),
                  dtype=np.result_type(xd, *(t.data for t in (*dirs[0][1], *dirs[0][2]))))
    cols = [slice(j * hidden, (j + 1) * hidden) for j in range(len(dirs))]
    kept = []
    for j, c in enumerate(cols):
        if callable(dirs[j]):
            dirs[j] = _lstm_weights(dirs[j], hidden)
        kept.append(_lstm_run(xd, *dirs[j], hs[:, c], j == 1, keep))
    out = Tensor(hs)
    if not keep:
        return out

    def _bw(dy):
        for j, (d, c) in enumerate(zip(dirs, cols)):
            acts, cells = kept[j]
            kept[j] = None
            _lstm_bptt(x, *d, hs[:, c], acts, cells, dy[:, c], j == 1)

    return _record(out, parents, _bw)


def _lstm_weights(d, hidden: int = None) -> tuple:
    """One direction's ``(w_x, b, w_h)`` of ``lstm_sequence``, from the
    function ``d`` that returns it, its biases and recurrent weights checked
    against ``hidden``, by default their own. Recording, ``w_x`` is called
    here for each gate, and returns the tensors fetched; otherwise
    ``_lstm_run`` calls it, and checks what it returns."""
    d = d()
    if len(d) != 3 or any(len(g) != 4 for g in d[1:]):
        raise DimensionError("lstm_sequence needs (w_x, b, w_h), b and w_h of four gates each")
    w_x, b, w_h = d
    if hidden is None:
        hidden = w_h[0].data.shape[0]
    if any(t.data.shape != (hidden,) for t in b) or any(
            t.data.shape != (hidden, hidden) for t in w_h):
        raise DimensionError(f"need per gate b (H,) and w_h (H, H) in each direction, got "
                             f"{[t.shape for t in (*b, *w_h)]}")
    if _grad_enabled:
        w_x = tuple(map(w_x, range(4))).__getitem__
    return w_x, b, w_h


def _lstm_run(xd, w_x, b, w_h, hs, reverse: bool, keep: bool):
    """One direction of ``lstm_sequence`` into ``hs``, its (T, H) column
    block; returns the gate activations and cell states when ``keep``.
    ``w_x`` is a function of the gate's index, called for each tile and
    gate."""
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
    # h_prev w_h as (weights, output) pairs: one packed (H, 4H) product, no
    # larger than the tile, or one (H, H) product per gate into its block
    if hidden <= TILE_ROWS:
        products = [(_pack(w_h), rec)]
    else:
        products = list(zip((t.data for t in w_h), rec.reshape(4, hidden)))
    ig = np.empty(hidden, dtype=dtype)
    h = np.zeros(hidden, dtype=dtype)
    c = np.zeros(hidden, dtype=dtype)
    tiles = list(_row_tiles(steps))
    for lo, hi in reversed(tiles) if reverse else tiles:
        base = 0 if keep else lo
        tile = gates[lo - base:hi - base]
        for j in range(4):
            wx = w_x(j).data
            if wx.shape != (xd.shape[1], hidden):
                raise DimensionError(f"need the input weights of gate {j} (K, H) = "
                                     f"{(xd.shape[1], hidden)}, got {wx.shape}")
            np.matmul(xd[lo:hi], wx, out=tile[:, j])
            tile[:, j] += b[j].data
        for t in range(hi - 1, lo - 1, -1) if reverse else range(lo, hi):
            z = acts[t - base]
            for wh, part in products:
                np.matmul(h, wh, out=part)
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
    its (T, H) column block of the output's gradient; ``w_x`` is a function
    of the gate's index."""
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
    # the gradient of x, like the dh recurrence above, goes through one
    # packed copy of the weights; each gate's weight and bias gradients are
    # their own products and sums, made for that gate alone
    if x.requires_grad:
        x._acc(dz @ _pack(map(w_x, range(4))).T)
    h_prev, dz_next = (hs[1:], dz[:-1]) if reverse else (hs[:-1], dz[1:])
    for j, (wx, bj, wh) in enumerate(zip(map(w_x, range(4)), b, w_h)):
        cols = slice(j * hidden, (j + 1) * hidden)
        if wx.requires_grad:
            wx._acc(x.data.T @ dz[:, cols], fresh=True)
        if bj.requires_grad:
            bj._acc(dz[:, cols].sum(axis=0), fresh=True)
        if wh.requires_grad:
            wh._acc(h_prev.T @ dz_next[:, cols], fresh=True)


def _pack(gates) -> np.ndarray:
    """The four per-gate weight matrices side by side: (rows, 4H)."""
    return np.concatenate([t.data for t in gates], axis=1)


# ---------------------------------------------------------------------------
# row-tiled fused ops: attention and the feedforward layer
# ---------------------------------------------------------------------------

_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
# the normal CDF's split, its clip for the tails and Q(1), the tail mass
# beyond the split; then per dtype the coefficients of P and D (see
# ``_gelu_cdf``), constant term first, from ``scripts/fit_normal_cdf.py``
_CDF_SPLIT, _CDF_TAIL = 1.0, 8.6
_CDF_TAIL_MASS = 0.15865525393145705
_CDF_COEFFS = {
    np.dtype(np.float32): (
        (0.3989421994811009, -0.06648874104709387, 0.009964201008760361,
         -0.001165390648582436, 9.248506231600487e-05),
        (-1.525134891029058, -0.40045559531868713, -0.019474600143498805,
         0.0032846707920120306, -0.0004093627729548445, 2.701284634164432e-05)),
    np.dtype(np.float64): (
        (0.3989422804014326, -0.06649038006689949, 0.009973557009906887,
         -0.0011873282141977837, 0.00011543468059099394, -9.444633095179545e-06,
         6.659213680710526e-07, -4.1163656058466416e-08, 2.2223618370306074e-09,
         -8.92689318524223e-11),
        (-1.5251352761609818, -0.4004511672147903, -0.019488532568411564,
         0.0032989576610782216, -0.0004064923851168162, 1.1866527391342342e-05,
         1.1090754182506704e-05, -3.744606651644966e-06, 6.545956024043859e-07,
         -2.979401669098636e-08, -2.3183459411910995e-08, 9.686623018747976e-09,
         -2.3454668734227763e-09, 4.1003627733530025e-10, -5.360974343697028e-11,
         5.153498976968137e-12, -3.4493799296541696e-13, 1.435281490946609e-14,
         -2.7901607881703347e-16)),
}
# bytes of each of the CDF's two scratch arrays: together they are the size
# of numpy's ufunc buffer in float64, a quarter of a full-size sub-block
_CDF_CHUNK_BYTES = 1 << 15


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


# rows per sub-block of a tile where an op needs a temporary as wide as the
# tile: the product-and-sum in ``attention``'s backward, (_SUB_ROWS, S), and
# the GELU CDF and chunk sum in ``feedforward``, (rows, 4N) and (rows, N).
# The feedforward's sub-block holds _SUB_ROWS rows or _SUB_ELEMENTS
# elements, whichever is more: _SUB_ROWS rows at the paper's 4N = 4096, and
# at a narrow width the whole tile or most of it, in fewer numpy calls.
# Each row's result is the same either way
_SUB_ROWS = 16
_SUB_ELEMENTS = 1 << 15


def _queries(x_tile, w, b, gate, out, pre=None):
    """Writes one tile's queries, (x_tile w + b) * gate, into ``out`` and
    returns it, and the product before the gate into ``pre`` if given, for
    the backward pass, which reads both. Both passes call it with buffers
    of the dtype of x_tile w, so they round alike."""
    np.matmul(x_tile, w, out=out)
    out += b
    if pre is not None:
        np.copyto(pre, out)
    out *= gate
    return out


def attention(x: Tensor, w: Tensor, b: Tensor, gate: Tensor, k: Tensor, v: Tensor,
              causal: bool, out_gate: Tensor = None, into: Tensor = None) -> Tensor:
    """softmax(q k^T / sqrt(N)) v with queries q = (x w + b) * gate, as one
    recorded op over query tiles, optionally times a column gate and plus
    the array ``into``.

    ``x`` is (T, K), ``w`` (K, N), ``b`` and ``gate`` (N,), ``k`` (S, N) and
    ``v`` (S, M). When ``causal`` (which needs S == T), row t attends to
    keys 0..t only. Each tile's queries are formed from its rows of ``x``
    in one (TILE_ROWS, N) buffer for the call, the gate applied in place as
    the bias is, and each tile's output in one (TILE_ROWS, M) buffer, so no
    (T, N) query array is ever held.
    Softmax rows are independent, so tiling the queries is exact without a
    running maximum. A causal tile of rows [a, b) reads keys [0, b) only,
    which skips the masked triangle. The backward pass recomputes each
    tile's queries and probabilities, so no (T, S) array is ever held
    either; it holds two (TILE_ROWS, S) arrays per tile, the probabilities
    and their gradient, and forms the softmax's row sums ``_SUB_ROWS`` rows
    at a time.

    ``out_gate``, (M,) or (1, M), scales the output's columns, and
    ``into``, (T, M), is added to the result: ``out * out_gate + into``,
    recorded as the product and sum nodes that this expression records.
    Passing ``into`` hands its array over: under ``no_grad`` each output
    tile is gated and added into its rows, after the tile's queries are
    formed. ``into`` may be ``x`` itself, but must share no memory with
    ``k`` or ``v``.
    """
    xd, wd, bd, gd, kd, vd = (t.data for t in (x, w, b, gate, k, v))
    if xd.ndim != 2 or wd.ndim != 2 or kd.ndim != 2 or vd.ndim != 2:
        raise DimensionError("attention needs rank-2 x, w, k and v")
    steps, n = xd.shape[0], wd.shape[1]
    keys, m = kd.shape[0], vd.shape[1]
    if (xd.shape[1] != wd.shape[0] or bd.shape != (n,) or gd.shape != (n,)
            or kd.shape[1] != n or vd.shape[0] != keys):
        raise DimensionError(
            f"need x (T, K), w (K, N), b and gate (N,), k (S, N) and v (S, M), got "
            f"{xd.shape}, {wd.shape}, {bd.shape}, {gd.shape}, {kd.shape} and {vd.shape}")
    if causal and keys != steps:
        raise DimensionError(f"causal attention needs T == S, got {steps} and {keys}")
    if steps == 0 or keys == 0:
        raise DimensionError("attention over zero queries or keys")
    if ((out_gate is not None and out_gate.data.shape not in ((m,), (1, m)))
            or (into is not None and into.data.shape != (steps, m))):
        raise DimensionError(
            f"need out_gate (M,) or (1, M) and into (T, M) for output {(steps, m)}")
    scale = 1.0 / math.sqrt(n)
    dtype = np.result_type(xd, wd, bd, gd, kd, vd)
    # one query tile and one output tile for the call; each tile's
    # probabilities go with the product that reads them
    q_buf = np.empty((min(steps, TILE_ROWS), n), np.result_type(xd, wd))
    tile_buf = np.empty((q_buf.shape[0], m), np.result_type(q_buf, kd, vd))
    # in place, the tile is gated in its own dtype: only when that is the
    # recorded product's, so both paths round alike
    gated = dtype if out_gate is None else np.result_type(dtype, out_gate.data)
    inplace = (into is not None and _writable(into, np.result_type(gated, into.data))
               and (out_gate is None or gated == tile_buf.dtype))
    out = into.data if inplace else np.empty((steps, m), dtype=dtype)
    for lo, hi in _row_tiles(steps):
        stop = hi if causal else keys
        q = _queries(xd[lo:hi], wd, bd, gd, q_buf[:hi - lo])
        tile = tile_buf[:hi - lo]
        np.matmul(_attention_probs(q, kd[:stop], scale, lo, causal), vd[:stop], out=tile)
        if inplace:
            if out_gate is not None:
                tile *= out_gate.data
            out[lo:hi] += tile
        else:
            out[lo:hi] = tile
    if inplace:
        return Tensor(out)

    def _bw(g):
        dx, dw, db, dgate, dk, dv = (np.zeros_like(a) for a in (xd, wd, bd, gd, kd, vd))
        q_buf, pre_buf = (np.empty((min(steps, TILE_ROWS), n), np.result_type(xd, wd))
                          for _ in range(2))
        for lo, hi in _row_tiles(steps):
            stop = hi if causal else keys
            pre = pre_buf[:hi - lo]
            q = _queries(xd[lo:hi], wd, bd, gd, q_buf[:hi - lo], pre)
            p = _attention_probs(q, kd[:stop], scale, lo, causal)
            dv[:stop] += p.T @ g[lo:hi]
            # softmax backward: ds = p * (dp - rowsum(dp * p)), times the scale
            ds = g[lo:hi] @ vd[:stop].T
            for a in range(0, hi - lo, _SUB_ROWS):
                rows = slice(a, a + _SUB_ROWS)
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
                t._acc(d, fresh=True)

    node = _record(Tensor(out), (x, w, b, gate, k, v), _bw)
    if out_gate is not None:
        node = mul(node, out_gate)
    return node if into is None else add(node, into)


def _gelu_cdf(pre: np.ndarray, out: np.ndarray = None) -> np.ndarray:
    """Phi(pre), the standard-normal CDF, computed in ``pre``'s dtype,
    float32 or float64, and written into ``out`` if given, which may be
    ``pre`` itself but no other view of it, and must be C-contiguous.

    Two polynomials, split at |z| = 1, with Q(u) = Phi(-u) the upper tail
    and both variables clipped, so no branch is taken per element:
    Phi(z) = 1/2 + s P(s^2) + sign(z) (Q(1) - Q(1 + w)), where s is z
    clipped to [-1, 1] and w is |z| clipped to [1, 8.6] minus 1. The tail
    term is Q(1) (1 - exp(w D(w))), exactly 0 for |z| <= 1, and
    Q(8.6) < 4e-18. ``scripts/fit_normal_cdf.py`` fits P and D, with fewer
    coefficients for float32. Against 50-digit values, float64 is within
    one ulp of max(Phi, 1/2) on 240,001 even steps over [-12, 12] and
    40,000 around the split. Against float64's Phi, float32 is within
    7.1e-8 absolute on every float32 of magnitude 1e-8 to 12 (scipy's
    float32 erf reads 6.0e-8 on an even grid).

    The input goes through in pieces of ``_CDF_CHUNK_BYTES``, and two
    scratch arrays of that size are the kernel's only temporaries.
    """
    if out is None:
        out = np.empty(pre.shape, pre.dtype)
    near, tail = _CDF_COEFFS[pre.dtype]
    src, dst = pre.reshape(-1), out.reshape(-1)
    chunk = _CDF_CHUNK_BYTES // pre.itemsize
    s_buf, w_buf = (np.empty(min(chunk, src.size), pre.dtype) for _ in range(2))
    for lo in range(0, src.size, chunk):
        z, cdf = src[lo:lo + chunk], dst[lo:lo + chunk]
        s, w = s_buf[:z.size], w_buf[:z.size]
        # both variables first: ``cdf`` may be ``z``
        np.clip(z, -_CDF_SPLIT, _CDF_SPLIT, out=s)
        np.abs(z, out=w)
        np.clip(w, _CDF_SPLIT, _CDF_TAIL, out=w)
        w -= _CDF_SPLIT
        # the tails: w D(w) by Horner, then -Q(1) expm1 of it, signed as z
        np.multiply(w, tail[-1], out=cdf)
        for c in tail[-2::-1]:
            cdf += c
            cdf *= w
        np.expm1(cdf, out=cdf)
        cdf *= -_CDF_TAIL_MASS
        np.copysign(cdf, s, out=cdf)
        # near zero: s P(s^2) by Horner in s^2, in ``w``'s place
        np.multiply(s, near[-1], out=w)
        for c in near[-2::-1]:
            w *= s
            w += c
            w *= s
        cdf += w
        cdf += 0.5
    return out


def feedforward(x: Tensor, w: Tensor, b: Tensor, keep=None, rate: float = 0.0,
                into: Tensor = None) -> Tensor:
    """GELU(x w + b) with inverted dropout, summed over its four equal column
    chunks, as one recorded op over row tiles, optionally plus the array
    ``into``.

    ``x`` is (T, K), ``w`` (K, 4N) and ``b`` (4N,); the output is (T, N).
    GELU is z * Phi(z) with the exact normal CDF. ``keep``, a plain boolean
    (T, 4N) array, or None for no dropout, marks the activations dropout
    keeps; they are scaled by 1/(1 - ``rate``), a scalar of the op's dtype,
    and the others zeroed. Every tile's (rows, 4N) pre-activation is
    written into one buffer for the call, activated and summed in place;
    the backward pass recomputes it into one buffer of its own, turns it
    into the tile's pre-activation gradient there, and forms the weight
    gradient's product a chunk of N columns at a time, so its temporary
    is (K, N), not as large as the (K, 4N) gradient.

    ``into``, (T, N), is added to the output, recorded as the sum node that
    ``out + into`` records. Passing ``into`` hands its array over: under
    ``no_grad`` each tile is added into its rows, after the tile's rows of
    ``x`` are read. ``into`` may be ``x`` itself, but no other view of it.
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
    if into is not None and into.data.shape != (steps, n):
        raise DimensionError(
            f"need into of shape {(steps, n)}, got {into.data.shape}")
    dtype = np.result_type(xd, wd, bd)
    inplace = into is not None and _writable(into, np.result_type(dtype, into.data))
    # zeroing first, then scaling, gives what one product with a (T, 4N)
    # array of 0 and 1/(1 - rate) gives, signed zeros included
    inv_keep = dtype.type(1) / dtype.type(1.0 - rate)
    out = into.data if inplace else np.empty((steps, n), dtype=dtype)
    # one (rows, 4N) pre-activation tile for the call, activated in place
    tile_shape, tile_dtype = (min(steps, TILE_ROWS), wide), np.result_type(xd, wd)
    h_buf = np.empty(tile_shape, tile_dtype)
    sub_rows = max(_SUB_ROWS, _SUB_ELEMENTS // wide)
    for lo, hi in _row_tiles(steps):
        h = h_buf[:hi - lo]
        np.matmul(xd[lo:hi], wd, out=h)
        h += bd
        # a sub-block at a time: the CDF's temporary is that size, and so is
        # the copy numpy makes of a chunk added into another of its rows
        for a in range(0, hi - lo, sub_rows):
            sub = h[a:a + sub_rows]
            sub *= _gelu_cdf(sub)
            if keep is not None:
                sub *= keep[lo + a:lo + a + sub.shape[0]]
                sub *= inv_keep
            # (h0 + h1) + (h2 + h3), summed into the first chunk
            h0, h1, h2, h3 = (sub[:, j * n:(j + 1) * n] for j in range(4))
            h0 += h1
            h2 += h3
            h0 += h2
        tile = h[:, :n]
        if inplace:
            out[lo:hi] += tile
        else:
            out[lo:hi] = tile
    if inplace:
        return Tensor(out)

    def _bw(g):
        dx, dw, db = np.zeros_like(xd), np.zeros_like(wd), np.zeros_like(bd)
        # one (rows, 4N) tile for the call: each tile's pre-activation,
        # turned into its gradient in place, a sub-block at a time
        dpre_buf = np.empty(tile_shape, tile_dtype)
        for lo, hi in _row_tiles(steps):
            dpre = dpre_buf[:hi - lo]
            np.matmul(xd[lo:hi], wd, out=dpre)
            dpre += bd
            for a in range(0, hi - lo, sub_rows):
                pre = dpre[a:a + sub_rows]
                rows = slice(lo + a, lo + a + pre.shape[0])
                # d/dz of z * Phi(z) is Phi(z) + z * phi(z); the density
                # term first, then the CDF in place of z
                phi = pre * -0.5
                phi *= pre
                np.exp(phi, out=phi)
                phi *= pre
                phi *= _INV_SQRT_2PI
                _gelu_cdf(pre, out=pre)
                pre += phi
                del phi
                # each of the four chunks receives the output's gradient,
                # scaled as dropout scaled the activation
                if keep is not None:
                    pre *= keep[rows]
                    dz = g[rows] * inv_keep
                else:
                    dz = g[rows]
                for j in range(4):
                    pre[:, j * n:(j + 1) * n] *= dz
            np.matmul(dpre, wd.T, out=dx[lo:hi])
            # dw a chunk of N columns at a time, so the product's temporary
            # is (K, N), not as large as dw
            for j in range(4):
                cols = slice(j * n, (j + 1) * n)
                dw[:, cols] += xd[lo:hi].T @ dpre[:, cols]
            db += dpre.sum(axis=0)
        # the tile goes before the gradients are handed over, in case one
        # cannot be adopted and is added into a copy
        dpre_buf = dpre = pre = None
        for t, d in ((x, dx), (w, dw), (b, db)):
            if t.requires_grad:
                t._acc(d, fresh=True)

    node = _record(Tensor(out), (x, w, b), _bw)
    return node if into is None else add(node, into)


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


def layer_norm_rows(x: Tensor, gamma: Tensor, beta: Tensor, eps: float,
                    overwrite: bool = False) -> Tensor:
    """Per-row normalization: (x - mean) / sqrt(var + eps) * gamma + beta.

    Variance is the population variance over the row (divide by N). The
    output is the only (T, N) array made: it is centered, scaled and shifted
    in place, and the variance is summed one tile of rows at a time. With
    ``overwrite``, under ``no_grad``, the caller hands over ``x``'s array
    and the output is written over it, so no (T, N) array is made. Only
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
    dtype = np.result_type(xd, gamma.data, beta.data)
    if overwrite and _writable(x, dtype):
        out = np.subtract(xd, mu, out=xd)
    else:
        out = (xd - mu).astype(dtype, copy=False)
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
