"""Training losses (waveform MSE, phase-constrained magnitude) and
evaluation metrics (SNR, SI-SNR).

Losses return differentiable scalar tensors; metrics return plain floats.
"""

from __future__ import annotations

import numpy as np

from . import tensor
from .dsp import DegenerateSignalError, StftConfig, stft_magnitude
from .tensor import DimensionError, Tensor

DB_CAP = 100.0  # the score when the error term (+) or signal term (-) is zero


def _as_tensor(x, like: Tensor | None = None) -> Tensor:
    if isinstance(x, Tensor):
        return x
    dtype = like.data.dtype if like is not None else np.float64
    return Tensor(np.asarray(x, dtype=dtype))


def _check_lengths(*signals):
    lengths = {s.data.shape[0] if isinstance(s, Tensor) else np.asarray(s).shape[0]
               for s in signals}
    if len(lengths) != 1:
        raise DimensionError(f"signal lengths differ: {sorted(lengths)}")


def mse_loss(s, s_hat) -> Tensor:
    """Utterance-level mean squared error in the time domain."""
    _check_lengths(s, s_hat)
    s_hat_t = _as_tensor(s_hat)
    s_t = _as_tensor(s, like=s_hat_t)
    d = s_t - s_hat_t
    return tensor.mean_all(d * d)


def _spectral_mag_l1(ref, est, cfg: StftConfig) -> Tensor:
    """Mean |(|R_r|+|R_i|) - (|E_r|+|E_i|)| over time-frequency bins."""
    mag_r, mag_e = stft_magnitude(ref, cfg), stft_magnitude(est, cfg)
    return tensor.mean_all(tensor.absolute(mag_r - mag_e))


def pcm_loss(x, s, s_hat, stft_cfg: StftConfig | None = None) -> Tensor:
    """Phase-constrained magnitude loss.

    Averages the spectral-magnitude L1 of the speech estimate and of the
    implied noise estimate ``x - s_hat``, which constrains the phase of the
    time-domain output through the two complementary magnitude targets.
    """
    _check_lengths(x, s, s_hat)
    cfg = stft_cfg if stft_cfg is not None else StftConfig()
    s_hat_t = _as_tensor(s_hat)
    x_t = _as_tensor(x, like=s_hat_t)
    s_t = _as_tensor(s, like=s_hat_t)
    n_t = Tensor(x_t.data - s_t.data)
    n_hat_t = x_t - s_hat_t
    speech_term = _spectral_mag_l1(s_t, s_hat_t, cfg)
    noise_term = _spectral_mag_l1(n_t, n_hat_t, cfg)
    return tensor.scale(speech_term + noise_term, 0.5)


LOSS_FNS = {
    "mse": lambda x, s, s_hat: mse_loss(s, s_hat),
    "pcm": lambda x, s, s_hat: pcm_loss(x, s, s_hat),
}


def _clamp_db(ratio_num: float, ratio_den: float) -> float:
    # checked first: an estimate with no energy is silence, not a perfect match
    if ratio_num == 0.0:
        return -DB_CAP
    if ratio_den == 0.0:
        return DB_CAP
    return float(np.clip(10.0 * np.log10(ratio_num / ratio_den), -DB_CAP, DB_CAP))


def snr(s, s_hat) -> float:
    """10 log10(||s||^2 / ||s - s_hat||^2), capped at +-100 dB."""
    s = np.asarray(s, dtype=np.float64)
    s_hat = np.asarray(s_hat, dtype=np.float64)
    _check_lengths(s, s_hat)
    sig = float(np.dot(s, s))
    if sig == 0.0:
        raise DegenerateSignalError("SNR needs a reference with nonzero energy")
    err = s - s_hat
    return _clamp_db(sig, float(np.dot(err, err)))


def si_snr(s, s_hat) -> float:
    """Scale-invariant SNR: project the estimate onto the (zero-meaned)
    reference and compare projection energy to residual energy."""
    s = np.asarray(s, dtype=np.float64)
    s_hat = np.asarray(s_hat, dtype=np.float64)
    _check_lengths(s, s_hat)
    s0 = s - s.mean()
    e0 = s_hat - s_hat.mean()
    ref_energy = float(np.dot(s0, s0))
    if ref_energy == 0.0:
        raise DegenerateSignalError("SI-SNR needs a reference with nonzero energy")
    target = (float(np.dot(e0, s0)) / ref_energy) * s0
    residual = e0 - target
    return _clamp_db(float(np.dot(target, target)),
                     float(np.dot(residual, residual)))
