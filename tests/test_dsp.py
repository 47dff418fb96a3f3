"""Framing and overlap-add (the tensor ops the model uses), the STFT
magnitude, RMS normalization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arn import dsp, tensor
from arn.dsp import DegenerateSignalError, StftConfig, rms_normalize, stft_magnitude
from arn.tensor import Tensor

from gradtools import check_grads, dft_planes, finite_diff, sum_all


def frame(x, frame_len, shift):
    """Frame a 1-D signal as the model does: ceil(M / J) rows of L samples."""
    x = np.asarray(x, dtype=np.float64)
    return tensor.frame_rows(Tensor(x), frame_len, shift)


def round_trip(x, frame_len, shift):
    return tensor.overlap_add_rows(frame(x, frame_len, shift), shift, len(x))


def hann(win_len):
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(win_len) / win_len)


class TestFrameSignal:
    def test_short_signal_padding(self):
        x = np.arange(1.0, 8.0)  # M=7
        frames = frame(x, frame_len=4, shift=2)
        assert frames.shape[0] == 4  # ceil(7/2)
        np.testing.assert_array_equal(frames.data[3], [7.0, 0.0, 0.0, 0.0])
        np.testing.assert_array_equal(frames.data[0], [1.0, 2.0, 3.0, 4.0])

    def test_frame_count_at_four_seconds(self):
        frames = frame(np.zeros(64000), frame_len=512, shift=32)
        assert frames.shape[0] == 2000

    def test_no_overlap_partitions_signal(self):
        x = np.random.default_rng(0).standard_normal(50)
        flat = frame(x, frame_len=8, shift=8).data.reshape(-1)
        np.testing.assert_array_equal(flat[:50], x)
        np.testing.assert_array_equal(flat[50:], np.zeros(6))

    def test_bad_parameters(self):
        # frames wider than the hop are the model's contract, checked by
        # ARNConfig; the op itself only needs positive sizes and a signal
        for frame_len, shift in ((0, 2), (4, 0)):
            with pytest.raises(ValueError):
                tensor.frame_rows(Tensor(np.zeros(10)), frame_len, shift)
        with pytest.raises(ValueError):
            tensor.frame_rows(Tensor(np.zeros(0)), 4, 2)
        with pytest.raises(ValueError):
            tensor.frame_rows(Tensor(np.zeros((2, 5))), 4, 2)

    def test_row_depends_only_on_past_span(self):
        # changing samples at or beyond t*J + L must leave rows <= t intact
        rng = np.random.default_rng(1)
        x = rng.standard_normal(40)
        t, l, j = 3, 8, 4
        y = x.copy()
        y[t * j + l:] = rng.standard_normal(y[t * j + l:].shape)
        a = frame(x, l, j).data
        b = frame(y, l, j).data
        np.testing.assert_array_equal(a[: t + 1], b[: t + 1])


class TestOverlapAdd:
    @pytest.mark.parametrize("frame_len,shift", [(256, 32), (512, 32), (256, 256)])
    def test_round_trip(self, frame_len, shift):
        x = np.random.default_rng(2).standard_normal(1000).astype(np.float32)
        back = round_trip(x, frame_len, shift)
        assert back.data.shape == x.shape
        assert np.max(np.abs(back.data - x)) <= 1e-6

    def test_no_overlap_identity(self):
        x = np.random.default_rng(3).standard_normal(64)
        back = round_trip(x, 16, 16)
        np.testing.assert_array_equal(back.data, x)

    def test_zero_frames_give_zero_signal(self):
        frames = Tensor(np.zeros_like(frame(np.ones(30), 8, 4).data))
        out = tensor.overlap_add_rows(frames, 4, 30)
        np.testing.assert_array_equal(out.data, np.zeros(30))

    def test_offset_shifts_landing_positions(self):
        out = tensor.overlap_add_rows(frame(np.ones(12), 4, 4), 4, 12, offset=2)
        # first two samples are covered by no frame
        np.testing.assert_array_equal(out.data[:2], [0.0, 0.0])
        np.testing.assert_array_equal(out.data[2:], np.ones(10))

    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 64), st.integers(1, 300), st.integers(0, 2 ** 31 - 1))
    def test_round_trip_property(self, shift, m, seed):
        rng = np.random.default_rng(seed)
        frame_len = shift + int(rng.integers(0, 64))
        x = rng.standard_normal(m)
        back = round_trip(x, frame_len, shift)
        np.testing.assert_allclose(back.data, x, atol=1e-9)


class TestStftParts:
    """``dsp.stft_magnitude``, and the DFT planes of its basis-graph oracle."""

    def test_dc_bin_with_hann_window(self):
        # a periodic Hann window of length N has DFT N/2 at bin 0, -N/4 at
        # bin 1 and nothing above
        cfg = StftConfig(fft_size=64, win_len=64, hop=64)
        c = 0.75
        mag = stft_magnitude(Tensor(np.full(64, c)), cfg)
        assert mag.shape == (1, 33)
        assert mag.data[0, 0] == pytest.approx(c * 32)
        assert mag.data[0, 1] == pytest.approx(c * 16)
        np.testing.assert_allclose(mag.data[0, 2:], 0.0, atol=1e-9)

    def test_matches_numpy_rfft(self):
        cfg = StftConfig(fft_size=64, win_len=48, hop=16)
        x = np.random.default_rng(4).standard_normal(100)
        frames = frame(x, cfg.win_len, cfg.hop)
        win = hann(cfg.win_len)
        ref = np.fft.rfft(frames.data * win, n=cfg.fft_size, axis=1)
        np.testing.assert_allclose(stft_magnitude(Tensor(x), cfg).data,
                                   np.abs(ref.real) + np.abs(ref.imag), atol=1e-9)
        real, imag = dft_planes(frames, win, cfg.fft_size)
        np.testing.assert_allclose(real.data, ref.real, atol=1e-9)
        np.testing.assert_allclose(imag.data, ref.imag, atol=1e-9)

    def test_parseval_energy(self):
        cfg = StftConfig(fft_size=128, win_len=128, hop=64)
        x = np.random.default_rng(5).standard_normal(512)
        frames = frame(x, cfg.win_len, cfg.hop)
        win = hann(cfg.win_len)
        real, imag = dft_planes(frames, win, cfg.fft_size)
        power = real.data ** 2 + imag.data ** 2
        # full-spectrum energy: interior bins appear twice in the real DFT
        weights = np.full(power.shape[1], 2.0)
        weights[0] = 1.0
        weights[-1] = 1.0
        spectral = (power * weights).sum()
        temporal = cfg.fft_size * ((frames.data * win) ** 2).sum()
        assert abs(spectral - temporal) / temporal < 1e-4

    def test_linearity(self):
        cfg = StftConfig(fft_size=32, win_len=32, hop=16)
        rng = np.random.default_rng(6)
        x, y = rng.standard_normal(80), rng.standard_normal(80)
        a, b = 1.7, -0.3

        def planes(signal):
            return dft_planes(frame(signal, cfg.win_len, cfg.hop), hann(cfg.win_len),
                              cfg.fft_size)

        combined, sx, sy = planes(a * x + b * y), planes(x), planes(y)
        for c, px, py in zip(combined, sx, sy):
            np.testing.assert_allclose(c.data, a * px.data + b * py.data, atol=1e-6)

    def test_gradients_flow_to_signal(self):
        cfg = StftConfig(fft_size=16, win_len=16, hop=8)
        s = Tensor(np.random.default_rng(7).standard_normal(64), requires_grad=True)
        w = np.random.default_rng(8).standard_normal((8, 9))

        def build():
            return sum_all(tensor.mul(stft_magnitude(s, cfg), Tensor(w)))

        tensor.backward(build())

        def f():
            with tensor.no_grad():
                return build().item()

        assert check_grads([s.grad], finite_diff(f, [s.data])) < 1e-5

    def test_empty_signal_rejected(self):
        with pytest.raises(ValueError):
            stft_magnitude(Tensor(np.zeros(0)), StftConfig())


class TestRmsNormalize:
    def test_gain_doubles_half_rms(self):
        x = np.full(100, 0.5)
        xn, cn = rms_normalize(x, x.copy())
        np.testing.assert_allclose(cn, 2.0 * x)  # the gain applied is 2
        assert dsp.rms(xn) == pytest.approx(1.0)

    def test_snr_between_pair_unchanged(self):
        rng = np.random.default_rng(10)
        s = rng.standard_normal(500)
        n = 0.3 * rng.standard_normal(500)
        x = s + n
        before = np.dot(s, s) / np.dot(n, n)
        xn, sn = rms_normalize(x, s)
        nn = xn - sn
        after = np.dot(sn, sn) / np.dot(nn, nn)
        assert after == pytest.approx(before, rel=1e-9)

    def test_unit_rms_is_identity(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal(1000)
        x /= dsp.rms(x)
        xn, cn = rms_normalize(x, x.copy())
        np.testing.assert_allclose(cn, x)  # the gain applied is 1
        np.testing.assert_allclose(xn, x)

    def test_silent_signal_rejected(self):
        with pytest.raises(DegenerateSignalError):
            rms_normalize(np.zeros(10), np.ones(10))
