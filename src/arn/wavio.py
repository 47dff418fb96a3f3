"""Minimal RIFF/WAVE reader and writer.

Accepts mono 16 kHz files encoded as 16-bit PCM or 32-bit IEEE float;
anything else is rejected, and so are float samples that are NaN or
infinite. Unknown chunks are skipped and non-canonical chunk order is
tolerated. ``read_wav`` returns the samples as a float64 array, since the
accepted rate and channel count are fixed. PCM samples map to reals as
``int / 32768``; on write, always mono at ``SAMPLE_RATE``, reals are rounded
and clamped symmetrically to +-32767. Writing refuses samples that are NaN,
infinite or beyond float32's range, in either encoding, and then writes no
file.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

SAMPLE_RATE = 16000
_FLOAT32_MAX = float(np.finfo(np.float32).max)


class WavFormatError(ValueError):
    """The file is not a WAV this tool accepts."""


def read_wav(path) -> np.ndarray:
    raw = Path(path).read_bytes()
    if len(raw) < 12 or raw[:4] != b"RIFF" or raw[8:12] != b"WAVE":
        raise WavFormatError(f"{path}: not a RIFF/WAVE file")

    fmt = None
    data = None
    pos = 12
    while pos + 8 <= len(raw):
        chunk_id = raw[pos:pos + 4]
        (chunk_len,) = struct.unpack_from("<I", raw, pos + 4)
        body = raw[pos + 8:pos + 8 + chunk_len]
        if len(body) < chunk_len:
            raise WavFormatError(f"{path}: chunk {chunk_id!r} truncated")
        if chunk_id == b"fmt ":
            if chunk_len < 16:
                raise WavFormatError(f"{path}: fmt chunk too short")
            fmt = struct.unpack_from("<HHIIHH", body, 0)
        elif chunk_id == b"data":
            data = body
        pos += 8 + chunk_len + (chunk_len & 1)  # chunks are word-aligned

    if fmt is None or data is None:
        raise WavFormatError(f"{path}: missing fmt or data chunk")
    audio_format, channels, sample_rate, _, _, bits = fmt

    if audio_format == 1 and bits == 16:
        ints = np.frombuffer(data[:len(data) - len(data) % 2], dtype="<i2")
        samples = ints.astype(np.float64) / 32768.0
    elif audio_format == 3 and bits == 32:
        floats = np.frombuffer(data[:len(data) - len(data) % 4], dtype="<f4")
        samples = floats.astype(np.float64)
        if not np.isfinite(samples).all():
            bad = np.flatnonzero(~np.isfinite(samples))
            raise WavFormatError(
                f"{path}: {bad.size} non-finite samples (first at index {bad[0]})")
    else:
        raise WavFormatError(
            f"{path}: unsupported encoding (format={audio_format}, bits={bits}); "
            "need 16-bit PCM or 32-bit float")

    if channels != 1:
        raise WavFormatError(f"{path}: {channels} channels, need mono")
    if sample_rate != SAMPLE_RATE:
        raise WavFormatError(
            f"{path}: sample rate {sample_rate}, need {SAMPLE_RATE} (no resampling)")
    return samples


def write_wav(path, samples, encoding: str = "float32"):
    samples = np.asarray(samples, dtype=np.float64).reshape(-1)
    bad = np.flatnonzero(~(np.abs(samples) <= _FLOAT32_MAX))
    if bad.size:
        raise WavFormatError(
            f"{path}: {bad.size} samples non-finite or beyond float32 range "
            f"(first at index {bad[0]})")
    if encoding == "float32":
        payload = samples.astype("<f4").tobytes()
        audio_format, bits = 3, 32
    elif encoding == "pcm16":
        ints = np.clip(np.round(samples * 32768.0), -32767, 32767)
        payload = ints.astype("<i2").tobytes()
        audio_format, bits = 1, 16
    else:
        raise ValueError(f"unknown encoding {encoding!r}")

    block_align = bits // 8
    fmt_body = struct.pack("<HHIIHH", audio_format, 1, SAMPLE_RATE,
                           SAMPLE_RATE * block_align, block_align, bits)
    chunks = b"fmt " + struct.pack("<I", len(fmt_body)) + fmt_body
    chunks += b"data" + struct.pack("<I", len(payload)) + payload
    blob = b"RIFF" + struct.pack("<I", 4 + len(chunks)) + b"WAVE" + chunks
    Path(path).write_bytes(blob)
