"""STFT planes and RMS normalization.

The STFT frames the signal with ``tensor.frame_rows`` (row t is
``x[t*hop : t*hop + win_len]``, zero-padded past the end), applies a
periodic Hann window, and multiplies by cached DFT basis matrices, so that
gradients flow through it like any other linear operation (needed by the
spectral-magnitude training loss). The model frames and overlap-adds
waveforms with the same tensor ops, ``tensor.frame_rows`` and
``tensor.overlap_add_rows``.
"""

from __future__ import annotations

import math
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

    def __post_init__(self):
        if self.hop < 1 or self.win_len < 1:
            raise ValueError("win_len and hop must be positive")
        if self.win_len > self.fft_size:
            raise ValueError("win_len must not exceed fft_size")

    @property
    def num_bins(self) -> int:
        return self.fft_size // 2 + 1


@dataclass
class SpectrogramParts:
    real: Tensor            # (T_f, F)
    imag: Tensor            # (T_f, F)
    cfg: StftConfig


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))


@lru_cache(maxsize=8)
def _hann_window(win_len: int, dtype_name: str) -> np.ndarray:
    # periodic Hann
    k = np.arange(win_len)
    return (0.5 - 0.5 * np.cos(2.0 * np.pi * k / win_len)).astype(dtype_name)


@lru_cache(maxsize=8)
def _dft_bases(win_len: int, fft_size: int, dtype_name: str):
    # X[f] = sum_k x[k] exp(-2*pi*i*k*f / fft_size); zero padding to fft_size
    # means only the first win_len rows of the basis matter.
    k = np.arange(win_len)[:, None]
    f = np.arange(fft_size // 2 + 1)[None, :]
    ang = 2.0 * np.pi * k * f / fft_size
    dtype = np.dtype(dtype_name)
    return np.cos(ang).astype(dtype), (-np.sin(ang)).astype(dtype)


def stft_parts(s, cfg: StftConfig | None = None) -> SpectrogramParts:
    """Windowed DFT per frame, returned as real and imaginary planes.

    The transform is linear in the signal, so gradients propagate to ``s``.
    """
    if cfg is None:
        cfg = StftConfig()
    st = _as_tensor(s)
    if st.data.ndim != 1 or st.data.shape[0] < 1:
        raise ValueError("stft_parts needs a non-empty 1-D signal")
    m = st.data.shape[0]
    num_frames = math.ceil(m / cfg.hop)
    frames = tensor.frame_rows(st, cfg.win_len, cfg.hop, num_frames)
    win = Tensor(_hann_window(cfg.win_len, st.data.dtype.name))
    windowed = tensor.mul(frames, win)
    cos_b, sin_b = _dft_bases(cfg.win_len, cfg.fft_size, st.data.dtype.name)
    real = tensor.matmul(windowed, Tensor(cos_b))
    imag = tensor.matmul(windowed, Tensor(sin_b))
    return SpectrogramParts(real, imag, cfg)


def rms(x: np.ndarray) -> float:
    x = np.asarray(x)
    return float(np.sqrt(np.mean(x * x)))


def rms_normalize(x: np.ndarray, companion: np.ndarray):
    """Scale ``x`` to unit RMS and apply the same gain to its companion.

    The shared gain leaves any SNR between the two signals unchanged.
    Returns ``(x * g, companion * g, g)``.
    """
    x = np.asarray(x)
    companion = np.asarray(companion)
    r = rms(x)
    if r == 0.0:
        raise DegenerateSignalError("cannot RMS-normalize a silent signal")
    g = 1.0 / r
    return x * g, companion * g, g
