"""Oracles for the fast paths: finite differences and the stepwise LSTM.

``finite_diff`` only ever calls the supplied loss closure, so it checks the
recorded backward pass against nothing but repeated forward evaluations.
``lstm_step`` and ``lstm_graph_step`` build one LSTM time step from
elementary recorded ops, as oracles for the fused ``tensor.lstm_sequence``.
"""

import numpy as np

from arn import tensor

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
    forward loop, so iterating it must reproduce that op bit for bit.
    Returns (h_t, c_t).
    """
    hidden = w_h.shape[0]
    z = z_t + h_prev @ w_h
    i = tensor.sigmoid(tensor.slice_cols(z, 0, hidden))
    f = tensor.sigmoid(tensor.slice_cols(z, hidden, 2 * hidden))
    g = tensor.tanh(tensor.slice_cols(z, 2 * hidden, 3 * hidden))
    o = tensor.sigmoid(tensor.slice_cols(z, 3 * hidden, 4 * hidden))
    c_t = f * c_prev + i * g
    h_t = o * tensor.tanh(c_t)
    return h_t, c_t
