"""STFT magnitude and RMS normalization.

The STFT frames the signal with ``tensor.frame_rows`` (ceil(M / hop) rows,
row t is ``x[t*hop : t*hop + win_len]``, zero-padded past the end), and
``tensor.rfft_magnitude`` applies a periodic Hann window, takes each row's
``np.fft.rfft`` and returns |Re| + |Im| per bin, the magnitude the
phase-constrained training loss compares. Both are recorded ops, so
gradients reach the signal. The model frames and overlap-adds waveforms with
the same tensor ops, ``tensor.frame_rows`` and ``tensor.overlap_add_rows``.
Those ops check the analysis geometry of ``StftConfig``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import tensor
from .tensor import Tensor


class DegenerateSignalError(ValueError):
    """The signal is silent where nonzero energy is required."""


@dataclass(frozen=True)
class StftConfig:
    """Analysis parameters for the spectral-magnitude loss.

    Defaults: 32 ms window, 16 ms hop, 512-point FFT at 16 kHz (257 bins).
    """

    fft_size: int = 512
    win_len: int = 512
    hop: int = 256


@lru_cache(maxsize=8)
def _hann_window(win_len: int, dtype_name: str) -> np.ndarray:
    # periodic Hann
    k = np.arange(win_len)
    return (0.5 - 0.5 * np.cos(2.0 * np.pi * k / win_len)).astype(dtype_name)


def stft_magnitude(s: Tensor, cfg: StftConfig) -> Tensor:
    """|Re| + |Im| of the Hann-windowed STFT of a 1-D signal, one row per
    frame and one column per bin: (ceil(M / hop), fft_size // 2 + 1).

    Two recorded ops, ``tensor.frame_rows`` and ``tensor.rfft_magnitude``,
    so gradients propagate to ``s``.
    """
    frames = tensor.frame_rows(s, cfg.win_len, cfg.hop)
    return tensor.rfft_magnitude(frames, _hann_window(cfg.win_len, s.data.dtype.name),
                                 cfg.fft_size)


def rms(x: np.ndarray) -> float:
    x = np.asarray(x)
    return float(np.sqrt(np.mean(x * x)))


def rms_normalize(x: np.ndarray, companion: np.ndarray):
    """Scale ``x`` to unit RMS and apply the same gain to its companion.

    The shared gain g = 1 / rms(x) leaves any SNR between the two signals
    unchanged. Returns ``(x * g, companion * g)``.
    """
    x = np.asarray(x)
    companion = np.asarray(companion)
    r = rms(x)
    if r == 0.0:
        raise DegenerateSignalError("cannot RMS-normalize a silent signal")
    g = 1.0 / r
    return x * g, companion * g
