"""Losses (MSE, spectral-magnitude PCM) and metrics (SNR, SI-SNR)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arn import tensor
from arn.dsp import DegenerateSignalError, StftConfig
from arn.losses import DB_CAP, mse_loss, pcm_loss, si_snr, snr
from arn.mixing import MixtureRecipe, make_mixture
from arn.tensor import DimensionError, Tensor

from gradtools import check_grads, finite_diff


class TestMseLoss:
    def test_identity_is_zero(self):
        s = np.random.default_rng(0).standard_normal(100)
        assert mse_loss(s, s.copy()).item() == 0.0

    def test_hand_values(self):
        assert mse_loss([1.0, 2.0], [2.0, 3.0]).item() == pytest.approx(1.0)
        assert mse_loss([1.0, 2.0], [0.0, 0.0]).item() == pytest.approx(2.5)

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            mse_loss(np.zeros(3), np.zeros(4))

    def test_zero_iff_equal(self):
        rng = np.random.default_rng(1)
        s = rng.standard_normal(64)
        other = s.copy()
        other[10] += 1e-6
        assert mse_loss(s, other).item() > 0.0

    def test_gradient(self):
        rng = np.random.default_rng(2)
        s = rng.standard_normal(32)
        s_hat = Tensor(rng.standard_normal(32), requires_grad=True)
        tensor.backward(mse_loss(s, s_hat))

        def f():
            with tensor.no_grad():
                return mse_loss(s, s_hat).item()

        assert check_grads([s_hat.grad], finite_diff(f, [s_hat.data])) < 1e-6


class TestPcmLoss:
    def test_perfect_estimate_is_zero(self):
        rng = np.random.default_rng(3)
        s = rng.standard_normal(400)
        n = rng.standard_normal(400)
        x = s + n
        assert pcm_loss(x, s, s.copy()).item() == pytest.approx(0.0, abs=1e-9)

    def test_sign_flip_has_equal_magnitudes(self):
        # |(-a)| == |a| bin by bin, so the magnitude term for -s vanishes
        from arn.losses import _spectral_mag_l1
        s = np.random.default_rng(4).standard_normal(300)
        val = _spectral_mag_l1(Tensor(s), Tensor(-s), StftConfig()).item()
        assert val == pytest.approx(0.0, abs=1e-9)

    def test_nonnegative(self):
        rng = np.random.default_rng(5)
        for seed in range(5):
            r = np.random.default_rng(seed)
            s = r.standard_normal(257)
            x = s + r.standard_normal(257)
            s_hat = r.standard_normal(257)
            assert pcm_loss(x, s, s_hat).item() >= 0.0

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            pcm_loss(np.zeros(10), np.zeros(10), np.zeros(11))

    def test_gradient_at_random_points(self):
        rng = np.random.default_rng(6)
        s = rng.standard_normal(256)
        x = s + rng.standard_normal(256)
        s_hat = Tensor(rng.standard_normal(256), requires_grad=True)
        tensor.backward(pcm_loss(x, s, s_hat))

        def f():
            with tensor.no_grad():
                return pcm_loss(x, s, s_hat).item()

        fd = finite_diff(f, [s_hat.data])
        assert check_grads([s_hat.grad], fd, rtol=1e-4, atol=1e-7) < 1e-4


class TestSiSnr:
    def test_perfect_estimate_hits_cap(self):
        s = np.random.default_rng(7).standard_normal(100)
        assert si_snr(s, s.copy()) == DB_CAP

    def test_scale_invariance_at_cap(self):
        s = np.random.default_rng(8).standard_normal(100)
        assert si_snr(s, 2.0 * s) == DB_CAP

    def test_direct_formula_oracle(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            s = rng.standard_normal(1000)
            s_hat = s + 0.5 * rng.standard_normal(1000)
            # independent recomputation, spelled out
            s0 = s - s.mean()
            e0 = s_hat - s_hat.mean()
            alpha = (e0 @ s0) / (s0 @ s0)
            target = alpha * s0
            err = e0 - target
            want = 10.0 * np.log10((target @ target) / (err @ err))
            assert si_snr(s, s_hat) == pytest.approx(want, abs=1e-6)

    @settings(max_examples=30, deadline=None)
    @given(st.floats(min_value=1e-3, max_value=1e3), st.integers(0, 2 ** 31 - 1))
    def test_positive_scaling_invariance(self, alpha, seed):
        rng = np.random.default_rng(seed)
        s = rng.standard_normal(200)
        s_hat = s + 0.3 * rng.standard_normal(200)
        base = si_snr(s, s_hat)
        scaled = si_snr(s, alpha * s_hat)
        assert scaled == pytest.approx(base, abs=1e-6)

    def test_silent_reference_rejected(self):
        with pytest.raises(DegenerateSignalError):
            si_snr(np.zeros(10), np.ones(10))

    def test_estimate_without_energy_scores_floor(self):
        # silence, a constant (silence after mean removal) and an estimate
        # whose energies underflow to zero match nothing: -DB_CAP, not the
        # +DB_CAP of a perfect estimate
        s = np.random.default_rng(13).standard_normal(100)
        for s_hat in (np.zeros(100), np.full(100, 0.25), 1e-300 * s):
            assert si_snr(s, s_hat) == -DB_CAP

    def test_constructed_snr_level(self):
        # orthogonal error of known energy gives exactly the requested value
        rng = np.random.default_rng(10)
        s = rng.standard_normal(500)
        s -= s.mean()
        u = rng.standard_normal(500)
        u -= u.mean()
        u -= (u @ s) / (s @ s) * s
        for target_db in (3.0, 5.0, 12.0):
            scale = np.sqrt((s @ s) / (u @ u) * 10.0 ** (-target_db / 10.0))
            assert si_snr(s, s + scale * u) == pytest.approx(target_db, abs=1e-9)


class TestSnr:
    def test_perfect_estimate_hits_cap(self):
        s = np.random.default_rng(11).standard_normal(50)
        assert snr(s, s.copy()) == DB_CAP

    def test_zero_estimate_is_zero_db(self):
        s = np.random.default_rng(12).standard_normal(50)
        assert snr(s, np.zeros(50)) == pytest.approx(0.0)

    def test_constructed_mixture_measures_requested_snr(self):
        rng = np.random.default_rng(13)
        speech = rng.standard_normal(4000)
        noise = rng.standard_normal(4000)
        recipe = MixtureRecipe("s", "n", 0, 0, snr_db=-5)
        x, s = make_mixture(recipe, speech, noise, target_len=4000)
        assert snr(s, x) == pytest.approx(-5.0, abs=0.01)

    def test_silent_reference_rejected(self):
        with pytest.raises(DegenerateSignalError):
            snr(np.zeros(10), np.ones(10))

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            snr(np.ones(5), np.ones(6))
