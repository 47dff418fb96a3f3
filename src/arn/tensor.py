"""Dense tensors with reverse-mode automatic differentiation.

A minimal numpy-backed autograd engine covering exactly the operations the
attentive recurrent enhancement network needs: matrix products,
row-broadcast arithmetic, pointwise nonlinearities, masked row softmax,
row-wise layer normalization, signal framing / overlap-add, and scalar
reductions.

Every operation that sees a gradient-requiring input records a backward
closure on its output. ``backward`` runs one reverse topological sweep over
the recorded graph; gradients accumulate additively (``+=``) into every
reachable tensor that requires them, so a tensor feeding two consumers
receives the sum of both adjoints. Explicit zeroing happens in the
optimizer (see ``arn.optim``).
"""

from __future__ import annotations

import math
from contextlib import contextmanager

import numpy as np
from scipy.special import erf


class DimensionError(ValueError):
    """Operand shapes violate the operation's contract."""


class RankError(ValueError):
    """Operation needs a tensor of a different rank (e.g. a scalar loss)."""


class DegenerateRowError(ValueError):
    """A softmax row contains no finite entry to normalize over."""


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

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents")

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

    def backward(self):
        backward(self)

    # operator sugar; the module-level functions do the work
    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __matmul__(self, other):
        return matmul(self, other)

    def __neg__(self):
        return scale(self, -1.0)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def _record(out: Tensor, parents, fn) -> Tensor:
    """Attach a backward closure when recording is on and any parent needs it."""
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = fn
    return out


def backward(loss: Tensor):
    """Reverse-mode sweep from a scalar loss over the recorded graph.

    Visits each node exactly once in reverse topological order; leaf
    gradients are left populated for the optimizer to consume.
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
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p._backward is not None and id(p) not in visited:
                stack.append((p, False))

    loss.grad = np.ones_like(loss.data)
    for node in reversed(order):
        node._backward()


# ---------------------------------------------------------------------------
# binary elementwise ops: identical shapes, or a length-N vector (shape (N,)
# or (1, N)) broadcast across the rows of a (T, N) matrix
# ---------------------------------------------------------------------------

def _check_binary(a: Tensor, b: Tensor):
    sa, sb = a.data.shape, b.data.shape
    if sa == sb:
        return
    if len(sa) == 2 and sb in ((sa[1],), (1, sa[1])):
        return
    if len(sb) == 2 and sa in ((sb[1],), (1, sb[1])):
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

    def _bw():
        g = out.grad
        if a.requires_grad:
            a._acc(_reduce_to(g, a.data.shape))
        if b.requires_grad:
            b._acc(_reduce_to(g, b.data.shape))

    return _record(out, (a, b), _bw)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_binary(a, b)
    out = Tensor(a.data - b.data)

    def _bw():
        g = out.grad
        if a.requires_grad:
            a._acc(_reduce_to(g, a.data.shape))
        if b.requires_grad:
            b._acc(_reduce_to(-g, b.data.shape))

    return _record(out, (a, b), _bw)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_binary(a, b)
    out = Tensor(a.data * b.data)

    def _bw():
        g = out.grad
        if a.requires_grad:
            a._acc(_reduce_to(g * b.data, a.data.shape))
        if b.requires_grad:
            b._acc(_reduce_to(g * a.data, b.data.shape))

    return _record(out, (a, b), _bw)


def scale(a: Tensor, c: float) -> Tensor:
    """Multiply by a python scalar constant."""
    out = Tensor(a.data * c)

    def _bw():
        a._acc(out.grad * c)

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

    def _bw():
        g = out.grad
        if a.requires_grad:
            a._acc(g @ b.data.T)
        if b.requires_grad:
            b._acc(a.data.T @ g)

    return _record(out, (a, b), _bw)


def transpose(a: Tensor) -> Tensor:
    if a.data.ndim != 2:
        raise DimensionError("transpose needs a rank-2 operand")
    out = Tensor(a.data.T)

    def _bw():
        a._acc(out.grad.T)

    return _record(out, (a,), _bw)


def reshape(a: Tensor, shape) -> Tensor:
    out = Tensor(a.data.reshape(shape))

    def _bw():
        a._acc(out.grad.reshape(a.data.shape))

    return _record(out, (a,), _bw)


# ---------------------------------------------------------------------------
# pointwise nonlinearities
# ---------------------------------------------------------------------------

def _sigmoid(x: np.ndarray) -> np.ndarray:
    # 1/(1+e^-x) computed as exp(-log(1+e^-x)); stable for large |x|
    return np.exp(-np.logaddexp(0.0, -x))


def sigmoid(a: Tensor) -> Tensor:
    y = _sigmoid(a.data)
    out = Tensor(y)

    def _bw():
        a._acc(out.grad * (y * (1.0 - y)))

    return _record(out, (a,), _bw)


def tanh(a: Tensor) -> Tensor:
    y = np.tanh(a.data)
    out = Tensor(y)

    def _bw():
        a._acc(out.grad * (1.0 - y * y))

    return _record(out, (a,), _bw)


_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def gelu(a: Tensor) -> Tensor:
    """x * Phi(x) with the exact standard-normal CDF (erf form)."""
    x = a.data
    cdf = 0.5 * (1.0 + erf(x * _INV_SQRT2))
    out = Tensor(x * cdf)

    def _bw():
        pdf = np.exp(-0.5 * x * x) * _INV_SQRT_2PI
        a._acc(out.grad * (cdf + x * pdf))

    return _record(out, (a,), _bw)


# ---------------------------------------------------------------------------
# softmax and causal masking
# ---------------------------------------------------------------------------

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

    def _bw():
        g = out.grad
        dot = (g * y).sum(axis=1, keepdims=True)
        w._acc(y * (g - dot))

    return _record(out, (w,), _bw)


def causal_mask(w: Tensor) -> Tensor:
    """Set entries above the main diagonal to -inf (row t keeps keys <= t)."""
    if w.data.ndim != 2 or w.data.shape[0] != w.data.shape[1]:
        raise DimensionError("causal_mask needs a square matrix")
    data = w.data.copy()
    upper = np.triu_indices(data.shape[0], k=1)
    data[upper] = -np.inf
    out = Tensor(data)

    def _bw():
        w._acc(np.tril(out.grad))

    return _record(out, (w,), _bw)


# ---------------------------------------------------------------------------
# reductions and pointwise misc
# ---------------------------------------------------------------------------

def sum_all(a: Tensor) -> Tensor:
    out = Tensor(a.data.sum())

    def _bw():
        a._acc(np.broadcast_to(out.grad, a.data.shape))

    return _record(out, (a,), _bw)


def mean_all(a: Tensor) -> Tensor:
    out = Tensor(a.data.mean())

    def _bw():
        a._acc(np.broadcast_to(out.grad / a.data.size, a.data.shape))

    return _record(out, (a,), _bw)


def absolute(a: Tensor) -> Tensor:
    # subgradient at 0 is defined as 0 (np.sign(0) == 0)
    out = Tensor(np.abs(a.data))

    def _bw():
        a._acc(out.grad * np.sign(a.data))

    return _record(out, (a,), _bw)


def layer_norm_rows(x: Tensor, gamma: Tensor, beta: Tensor, eps: float) -> Tensor:
    """Per-row normalization: (x - mean) / sqrt(var + eps) * gamma + beta.

    Variance is the population variance over the row (divide by N).
    """
    if x.data.ndim != 2:
        raise DimensionError("layer_norm_rows needs a rank-2 operand")
    n = x.data.shape[1]
    if gamma.data.shape != (n,) or beta.data.shape != (n,):
        raise DimensionError("gamma/beta must be length-N vectors")
    mu = x.data.sum(axis=1, keepdims=True) / n
    centered = x.data - mu
    var = (centered * centered).sum(axis=1, keepdims=True) / n
    inv = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv
    out = Tensor(xhat * gamma.data + beta.data)

    def _bw():
        g = out.grad
        if gamma.requires_grad:
            gamma._acc((g * xhat).sum(axis=0))
        if beta.requires_grad:
            beta._acc(g.sum(axis=0))
        if x.requires_grad:
            gg = g * gamma.data
            m1 = gg.mean(axis=1, keepdims=True)
            m2 = (gg * xhat).mean(axis=1, keepdims=True)
            x._acc(inv * (gg - m1 - xhat * m2))

    return _record(out, (x, gamma, beta), _bw)


# ---------------------------------------------------------------------------
# structural ops
# ---------------------------------------------------------------------------

def concat(parts, axis: int) -> Tensor:
    parts = list(parts)
    if not parts:
        raise DimensionError("concat of zero tensors")
    if axis not in (0, 1):
        raise DimensionError("concat supports axis 0 or 1")
    out = Tensor(np.concatenate([p.data for p in parts], axis=axis))
    sizes = [p.data.shape[axis] for p in parts]
    bounds = np.cumsum([0] + sizes)

    def _bw():
        g = out.grad
        for p, lo, hi in zip(parts, bounds[:-1], bounds[1:]):
            if p.requires_grad:
                p._acc(g[lo:hi] if axis == 0 else g[:, lo:hi])

    return _record(out, tuple(parts), _bw)


def slice_rows(a: Tensor, start: int, stop: int) -> Tensor:
    if a.data.ndim != 2:
        raise DimensionError("slice_rows needs a rank-2 operand")
    if not (0 <= start < stop <= a.data.shape[0]):
        raise DimensionError(f"row slice [{start}:{stop}] out of range")
    out = Tensor(a.data[start:stop])

    def _bw():
        if a.grad is None:
            a.grad = np.zeros_like(a.data)
        a.grad[start:stop] += out.grad

    return _record(out, (a,), _bw)


def slice_cols(a: Tensor, start: int, stop: int) -> Tensor:
    if a.data.ndim != 2:
        raise DimensionError("slice_cols needs a rank-2 operand")
    if not (0 <= start < stop <= a.data.shape[1]):
        raise DimensionError(f"column slice [{start}:{stop}] out of range")
    out = Tensor(a.data[:, start:stop])

    def _bw():
        if a.grad is None:
            a.grad = np.zeros_like(a.data)
        a.grad[:, start:stop] += out.grad

    return _record(out, (a,), _bw)


def flip_rows(a: Tensor) -> Tensor:
    if a.data.ndim != 2:
        raise DimensionError("flip_rows needs a rank-2 operand")
    out = Tensor(a.data[::-1].copy())

    def _bw():
        a._acc(out.grad[::-1])

    return _record(out, (a,), _bw)


def _frame_index(frame_len: int, shift: int, num_frames: int, m: int):
    key = (frame_len, shift, num_frames, m)
    cached = _FRAME_INDEX_CACHE.get(key)
    if cached is None:
        idx = np.arange(num_frames)[:, None] * shift + np.arange(frame_len)[None, :]
        valid = idx < m
        cached = (np.minimum(idx, m - 1), idx[valid], valid)
        if len(_FRAME_INDEX_CACHE) > 64:
            _FRAME_INDEX_CACHE.clear()
        _FRAME_INDEX_CACHE[key] = cached
    return cached


_FRAME_INDEX_CACHE: dict = {}


def frame_rows(x: Tensor, frame_len: int, shift: int, num_frames: int) -> Tensor:
    """Gather a 1-D signal into overlapping rows: row t = x[t*shift : t*shift+L].

    Positions past the end of the signal read as zero. The gather is linear,
    so gradients scatter-add back into the signal.
    """
    if x.data.ndim != 1 or x.data.shape[0] < 1:
        raise DimensionError("frame_rows needs a non-empty 1-D signal")
    if shift < 1 or frame_len < 1 or num_frames < 1:
        raise DimensionError("frame_len, shift, num_frames must be positive")
    m = x.data.shape[0]
    idx_clipped, idx_valid, valid = _frame_index(frame_len, shift, num_frames, m)
    data = x.data[idx_clipped]
    if not valid.all():
        data[~valid] = 0.0
    out = Tensor(data)

    def _bw():
        if x.grad is None:
            x.grad = np.zeros_like(x.data)
        np.add.at(x.grad, idx_valid, out.grad[valid])

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
    pos = np.arange(t)[:, None] * shift + offset + np.arange(l)[None, :]
    valid = pos < out_len
    counts = np.zeros(out_len, dtype=np.int64)
    np.add.at(counts, pos[valid], 1)
    acc = np.zeros(out_len, dtype=frames.data.dtype)
    np.add.at(acc, pos[valid], frames.data[valid])
    denom = np.maximum(counts, 1).astype(frames.data.dtype)
    out = Tensor(acc / denom)

    def _bw():
        g = out.grad / denom
        gf = np.zeros_like(frames.data)
        gf[valid] = g[pos[valid]]
        frames._acc(gf)

    return _record(out, (frames,), _bw)


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
    return mul(x, Tensor(mask))
