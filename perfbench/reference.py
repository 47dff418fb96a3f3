"""Independent plain-numpy references for the benchmark's correctness checks.

Nothing here imports ``arn``: the forward pass is written again from the
model's documented structure, the phase-constrained magnitude loss from
``np.fft.rfft``, and Adam from the textbook update. Weights come in as a
``name -> array`` dict with the checkpoint's tensor names, the model
configuration as a plain dict.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import erf


def _sigmoid(x):
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def _layer_norm(x, g, b, eps):
    mu = x.mean(axis=1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=1, keepdims=True)
    return (x - mu) / np.sqrt(var + eps) * g + b


def _lstm(x, w, prefix):
    """Unidirectional LSTM over the rows of x, zero initial state."""
    gates = "ifgo"
    wx = {k: w[f"{prefix}w_{k}x"] for k in gates}
    wh = {k: w[f"{prefix}w_{k}h"] for k in gates}
    b = {k: w[f"{prefix}b_{k}"] for k in gates}
    hidden = wh["i"].shape[0]
    pre = {k: x @ wx[k] + b[k] for k in gates}
    h = np.zeros(hidden)
    c = np.zeros(hidden)
    out = np.empty((x.shape[0], hidden))
    for t in range(x.shape[0]):
        i = _sigmoid(pre["i"][t] + h @ wh["i"])
        f = _sigmoid(pre["f"][t] + h @ wh["f"])
        g = np.tanh(pre["g"][t] + h @ wh["g"])
        o = _sigmoid(pre["o"][t] + h @ wh["o"])
        c = f * c + i * g
        h = o * np.tanh(c)
        out[t] = h
    return out


def _attention(q, kv, w, causal):
    """Gated single-head attention: sigma(k)-gated keys, a linear map of the
    queries gated by sigma(q), values scaled by sigma(Lin v)*tanh(Lin v)."""
    n = q.shape[1]
    keys = kv * _sigmoid(w["attn.k"])
    queries = (q @ w["attn.lin_q.w"] + w["attn.lin_q.b"]) * _sigmoid(w["attn.q"])
    v = w["attn.v"]
    v_gate = (_sigmoid(v @ w["attn.lin_v_sig.w"] + w["attn.lin_v_sig.b"])
              * np.tanh(v @ w["attn.lin_v_tanh.w"] + w["attn.lin_v_tanh.b"]))
    scores = queries @ keys.T / math.sqrt(n)
    if causal:
        scores = np.where(np.tri(len(scores), dtype=bool), scores, -np.inf)
    scores = np.exp(scores - scores.max(axis=1, keepdims=True))
    return (scores / scores.sum(axis=1, keepdims=True)) @ (kv * v_gate)


def _block(x, w, cfg):
    eps = cfg.get("ln_eps", 1e-5)
    ln = [(w[f"ln{j}.g"], w[f"ln{j}.b"]) for j in range(5)]
    y = _layer_norm(x, *ln[0], eps)
    if cfg["causal"]:
        y = _lstm(y, w, "lstm.")
    else:
        y = np.concatenate([_lstm(y, w, "blstm.fwd."),
                            _lstm(y[::-1], w, "blstm.bwd.")[::-1]], axis=1)
    q = _layer_norm(y, *ln[1], eps)
    kv = _layer_norm(y, *ln[2], eps)
    a = _attention(q, kv, w, cfg["causal"]) + q
    z1 = _layer_norm(a, *ln[3], eps)
    z2 = _layer_norm(a, *ln[4], eps)
    h = z1 @ w["ff.w"] + w["ff.b"]
    h = h * 0.5 * (1.0 + erf(h / math.sqrt(2.0)))
    return h.reshape(len(h), 4, -1).sum(axis=1) + z2


def forward(x, weights: dict, cfg: dict) -> np.ndarray:
    """Eval-mode enhancement of a 1-D signal, in float64.

    Frame t is ``x[t*J : t*J + frame_in]`` zero-padded past the end, with
    ``ceil(M / J)`` frames. Output frame t lands at ``t*J + frame_in -
    frame_out`` and every sample is divided by the number of frames covering
    it; samples no frame covers are zero.
    """
    w = {k: np.asarray(v, dtype=np.float64) for k, v in weights.items()}
    x = np.asarray(x, dtype=np.float64)
    m, shift = x.size, cfg["shift"]
    f_in, f_out = cfg["frame_in"], cfg["frame_out"]
    frames_n = -(-m // shift)
    padded = np.concatenate([x, np.zeros(frames_n * shift + f_in)])
    frames = np.stack([padded[t * shift:t * shift + f_in] for t in range(frames_n)])
    h = frames @ w["input_proj.w"] + w["input_proj.b"]
    for i in range(cfg["num_blocks"]):
        prefix = f"block{i}."
        h = _block(h, {k[len(prefix):]: v for k, v in w.items()
                       if k.startswith(prefix)}, cfg)
    out_frames = h @ w["output_proj.w"] + w["output_proj.b"]
    acc = np.zeros(frames_n * shift + f_in)
    count = np.zeros_like(acc)
    for t in range(frames_n):
        start = t * shift + f_in - f_out
        acc[start:start + f_out] += out_frames[t]
        count[start:start + f_out] += 1
    return (acc / np.maximum(count, 1))[:m]


def _magnitudes(x, fft_size=512, hop=256):
    """|Re| + |Im| of a periodic-Hann STFT; frames as in ``forward``."""
    x = np.asarray(x, dtype=np.float64)
    frames_n = -(-x.size // hop)
    padded = np.concatenate([x, np.zeros(frames_n * hop + fft_size)])
    frames = np.stack([padded[t * hop:t * hop + fft_size] for t in range(frames_n)])
    window = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(fft_size) / fft_size)
    spec = np.fft.rfft(frames * window, axis=1)
    return np.abs(spec.real) + np.abs(spec.imag)


def pcm_loss(x, s, s_hat) -> float:
    """Mean over bins of the magnitude L1 of the speech estimate and of the
    implied noise estimate ``x - s_hat``, weighted one half each."""
    x, s, s_hat = (np.asarray(a, dtype=np.float64) for a in (x, s, s_hat))
    speech = np.abs(_magnitudes(s) - _magnitudes(s_hat)).mean()
    noise = np.abs(_magnitudes(x - s) - _magnitudes(x - s_hat)).mean()
    return 0.5 * speech + 0.5 * noise


def adam(p, g, m, v, t, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Bias-corrected Adam at step t; returns the new (p, m, v) in float64."""
    p, g, m, v = (np.asarray(a, dtype=np.float64) for a in (p, g, m, v))
    m = beta1 * m + (1.0 - beta1) * g
    v = beta2 * v + (1.0 - beta2) * g * g
    m_hat = m / (1.0 - beta1 ** t)
    v_hat = v / (1.0 - beta2 ** t)
    return p - lr * m_hat / (np.sqrt(v_hat) + eps), m, v


def snr_db(clean, noisy) -> float:
    clean = np.asarray(clean, dtype=np.float64)
    noise = np.asarray(noisy, dtype=np.float64) - clean
    return 10.0 * math.log10(np.dot(clean, clean) / np.dot(noise, noise))
