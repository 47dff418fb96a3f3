"""RIFF/WAVE reading and writing."""

import struct

import numpy as np
import pytest
from scipy.io import wavfile

from arn.wavio import WavFormatError, read_wav, write_wav


def test_float32_round_trip_bit_identical(tmp_path):
    x = np.random.default_rng(0).standard_normal(1000).astype(np.float32)
    path = tmp_path / "a.wav"
    write_wav(path, x, encoding="float32")
    rate, stored = wavfile.read(path)
    assert stored.dtype == np.float32
    assert rate == 16000 and stored.ndim == 1
    assert read_wav(path).astype(np.float32).tobytes() == x.tobytes()


def test_pcm16_round_trip_value_identical(tmp_path):
    ints = np.random.default_rng(1).integers(-32767, 32768, size=500)
    x = ints / 32768.0
    path = tmp_path / "b.wav"
    write_wav(path, x, encoding="pcm16")
    assert wavfile.read(path)[1].dtype == np.int16
    np.testing.assert_array_equal(read_wav(path), x)


def test_pcm16_write_clamps_symmetrically(tmp_path):
    path = tmp_path / "c.wav"
    write_wav(path, np.array([2.0, -2.0, 0.0]), encoding="pcm16")
    samples = read_wav(path)
    np.testing.assert_allclose(samples, [32767 / 32768, -32767 / 32768, 0.0])


def test_unknown_chunks_skipped_and_order_tolerated(tmp_path):
    x = (np.arange(8) / 16.0).astype(np.float32)
    payload = x.tobytes()
    fmt = struct.pack("<HHIIHH", 3, 1, 16000, 64000, 4, 32)
    junk = b"JUNK" + struct.pack("<I", 5) + b"abcde\x00"  # odd size padded
    listc = b"LIST" + struct.pack("<I", 4) + b"INFO"
    # data before fmt, junk sprinkled around
    body = junk + b"data" + struct.pack("<I", len(payload)) + payload \
        + listc + b"fmt " + struct.pack("<I", len(fmt)) + fmt
    blob = b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body
    path = tmp_path / "odd.wav"
    path.write_bytes(blob)
    np.testing.assert_allclose(read_wav(path), x.astype(np.float64))


@pytest.mark.parametrize("mutate", [
    lambda b: b"not a wav",
    lambda b: b[:20],                               # truncated
    lambda b: b.replace(b"WAVE", b"AIFF", 1),
])
def test_malformed_files_rejected(tmp_path, mutate):
    good = tmp_path / "good.wav"
    write_wav(good, np.zeros(16))
    bad = tmp_path / "bad.wav"
    bad.write_bytes(mutate(good.read_bytes()))
    with pytest.raises(WavFormatError):
        read_wav(bad)


def test_wrong_rate_rejected(tmp_path):
    path = tmp_path / "rate.wav"
    wavfile.write(path, 8000, np.zeros(16, dtype=np.float32))
    with pytest.raises(WavFormatError):
        read_wav(path)


def test_stereo_rejected(tmp_path):
    payload = np.zeros(8, dtype="<f4").tobytes()
    fmt = struct.pack("<HHIIHH", 3, 2, 16000, 128000, 8, 32)
    body = b"fmt " + struct.pack("<I", len(fmt)) + fmt \
        + b"data" + struct.pack("<I", len(payload)) + payload
    blob = b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body
    path = tmp_path / "stereo.wav"
    path.write_bytes(blob)
    with pytest.raises(WavFormatError):
        read_wav(path)


def test_unsupported_encoding_rejected(tmp_path):
    payload = np.zeros(8, dtype="<i4").tobytes()
    fmt = struct.pack("<HHIIHH", 1, 1, 16000, 64000, 4, 32)  # 32-bit PCM
    body = b"fmt " + struct.pack("<I", len(fmt)) + fmt \
        + b"data" + struct.pack("<I", len(payload)) + payload
    blob = b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body
    path = tmp_path / "pcm32.wav"
    path.write_bytes(blob)
    with pytest.raises(WavFormatError):
        read_wav(path)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_float_samples_rejected(tmp_path, bad):
    x = np.zeros(1600, dtype=np.float32)
    x[700] = bad
    path = tmp_path / "nonfinite.wav"
    wavfile.write(path, 16000, x)  # write_wav itself refuses such samples
    with pytest.raises(WavFormatError, match="index 700"):
        read_wav(path)


@pytest.mark.parametrize("encoding", ["float32", "pcm16"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 3.5e38, -1e300])
def test_write_refuses_samples_float32_cannot_hold(tmp_path, bad, encoding):
    x = np.zeros(1600)
    x[900] = bad
    path = tmp_path / "out.wav"
    with pytest.raises(WavFormatError, match="index 900"):
        write_wav(path, x, encoding=encoding)
    assert not path.exists()


def test_write_accepts_float32_extremes(tmp_path):
    top = float(np.finfo(np.float32).max)
    tiny = float(np.finfo(np.float32).smallest_subnormal)
    path = tmp_path / "edge.wav"
    write_wav(path, [top, -top, tiny])
    np.testing.assert_array_equal(read_wav(path), [top, -top, tiny])
