"""Dynamic mixing pipeline: silence trimming, SNR-exact mixtures,
deterministic batch sampling."""

import numpy as np
import pytest

from arn.dsp import DegenerateSignalError, rms
from arn.losses import snr
from arn.mixing import (
    ArrayCorpus,
    DynamicMixer,
    MixtureRecipe,
    TRAIN_SNRS_DB,
    make_mixture,
    sample_training_batch,
    trim_silence,
)
from arn.model import ConfigurationError


def speech_like(length, seed):
    rng = np.random.default_rng(seed)
    t = np.arange(length) / 16000.0
    tone = np.sin(2 * np.pi * 220 * t) + 0.5 * np.sin(2 * np.pi * 440 * t)
    return tone * (0.6 + 0.4 * np.sin(2 * np.pi * 3.0 * t)) + \
        0.05 * rng.standard_normal(length)


class TestTrimSilence:
    def test_exact_zero_padding_removed(self):
        interior = speech_like(16000, 0)
        pad = np.zeros(8000)  # 0.5 s = 25 whole windows
        padded = np.concatenate([pad, interior, pad])
        out = trim_silence(padded, threshold_db=-40.0)
        np.testing.assert_array_equal(out, interior)

    def test_loud_everywhere_is_identity(self):
        x = speech_like(5000, 1)
        np.testing.assert_array_equal(trim_silence(x, -40.0), x)

    def test_minus_infinity_threshold_is_identity(self):
        x = np.concatenate([np.zeros(1000), speech_like(2000, 2), np.zeros(1000)])
        np.testing.assert_array_equal(trim_silence(x, -np.inf), x)

    def test_all_silent_returns_empty(self):
        assert trim_silence(np.zeros(5000), -40.0).size == 0

    def test_interior_untouched(self):
        rng = np.random.default_rng(3)
        x = np.concatenate([np.zeros(640), rng.standard_normal(3210), np.zeros(960)])
        out = trim_silence(x, -40.0)
        assert out.size >= 3210
        # the trimmed signal must appear verbatim inside the original
        for offset in range(0, x.size - out.size + 1):
            if np.array_equal(x[offset:offset + out.size], out):
                break
        else:
            pytest.fail("trimmed output is not a contiguous slice of the input")

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            trim_silence(np.zeros(0))


class TestMakeMixture:
    def test_equal_rms_at_zero_db_uses_unit_gain(self):
        rng = np.random.default_rng(4)
        s = rng.standard_normal(1000)
        n = rng.standard_normal(1000)
        n *= rms(s) / rms(n)
        recipe = MixtureRecipe("s", "n", 0, 0, snr_db=0)
        x, s_out = make_mixture(recipe, s, n, 1000)
        # x = g2*(s + 1.0*n): removing the clean part leaves exactly g2*n
        residual = x - s_out
        g2 = s_out[0] / s[0]
        np.testing.assert_allclose(residual, g2 * n, atol=1e-12)

    def test_minus_five_db_gain_factor(self):
        rng = np.random.default_rng(5)
        s = rng.standard_normal(2000)
        n = rng.standard_normal(2000)
        n *= rms(s) / rms(n)  # equal RMS
        recipe = MixtureRecipe("s", "n", 0, 0, snr_db=-5)
        x, s_out = make_mixture(recipe, s, n, 2000)
        g2 = s_out[0] / s[0]
        implied_gain = (x - s_out)[0] / (g2 * n[0])
        assert implied_gain == pytest.approx(10.0 ** 0.25, rel=1e-9)

    def test_measured_snr_matches_recipe(self):
        rng = np.random.default_rng(6)
        for i in range(100):
            s = speech_like(3000, 100 + i)
            n = rng.standard_normal(5000)
            snr_db = int(TRAIN_SNRS_DB[i % len(TRAIN_SNRS_DB)])
            recipe = MixtureRecipe("s", "n", 0, int(rng.integers(0, 2000)),
                                   snr_db=snr_db)
            x, s_out = make_mixture(recipe, s, n, 3000)
            assert snr(s_out, x) == pytest.approx(snr_db, abs=0.01)

    def test_mixture_is_rms_normalized(self):
        rng = np.random.default_rng(7)
        x, _ = make_mixture(MixtureRecipe("s", "n", 0, 0, -3),
                            5.0 * rng.standard_normal(800),
                            rng.standard_normal(800), 800)
        assert rms(x) == pytest.approx(1.0)

    def test_short_speech_used_unaltered(self):
        rng = np.random.default_rng(8)
        s = rng.standard_normal(500)
        n = rng.standard_normal(4000)
        x, s_out = make_mixture(MixtureRecipe("s", "n", 0, 0, 0), s, n,
                                target_len=64000)
        assert x.shape == s_out.shape == (500,)

    def test_silent_chunks_rejected(self):
        with pytest.raises(DegenerateSignalError):
            make_mixture(MixtureRecipe("s", "n", 0, 0, 0),
                         np.zeros(100), np.ones(100), 100)
        with pytest.raises(DegenerateSignalError):
            make_mixture(MixtureRecipe("s", "n", 0, 0, 0),
                         np.ones(100), np.zeros(100), 100)

    def test_noise_too_short_rejected(self):
        with pytest.raises(ValueError):
            make_mixture(MixtureRecipe("s", "n", 0, 0, 0),
                         np.ones(100), np.ones(50), 100)

    def test_recipe_is_bitwise_deterministic(self):
        rng = np.random.default_rng(9)
        s = speech_like(2000, 10)
        n = rng.standard_normal(3000)
        recipe = MixtureRecipe("s", "n", 7, 101, -2)
        x1, s1 = make_mixture(recipe, s, n, 1500)
        x2, s2 = make_mixture(recipe, s, n, 1500)
        assert x1.tobytes() == x2.tobytes()
        assert s1.tobytes() == s2.tobytes()


def tiny_corpora():
    speech = ArrayCorpus({
        "utt0": speech_like(3200, 20),
        "utt1": speech_like(2400, 21),
    })
    noise = ArrayCorpus({
        "noise0": np.random.default_rng(22).standard_normal(6400),
        "noise1": np.random.default_rng(23).standard_normal(4800),
    })
    return speech, noise


class TestSampling:
    def test_same_rng_state_gives_bitwise_identical_batches(self):
        speech, noise = tiny_corpora()
        a = sample_training_batch(np.random.default_rng(1), speech, noise, 8,
                                  target_len=1600)
        b = sample_training_batch(np.random.default_rng(1), speech, noise, 8,
                                  target_len=1600)
        for (xa, sa), (xb, sb) in zip(a, b):
            assert xa.tobytes() == xb.tobytes()
            assert sa.tobytes() == sb.tobytes()

    def test_batch_on_small_corpus(self):
        speech, noise = tiny_corpora()
        pairs = sample_training_batch(np.random.default_rng(2), speech, noise, 32,
                                      target_len=64000)
        assert len(pairs) == 32
        for x, s in pairs:
            assert x.shape == s.shape
            assert x.size <= 64000

    def test_snr_draws_cover_training_set_uniformly(self):
        speech, noise = tiny_corpora()
        mixer = DynamicMixer(speech, noise, target_len=800)
        rng = np.random.default_rng(3)
        draws = [r.snr_db for r, _, _ in mixer.sample_with_recipes(rng, 2000)]
        counts = {v: draws.count(v) for v in TRAIN_SNRS_DB}
        assert set(draws) == set(TRAIN_SNRS_DB)
        expected = 2000 / 6
        sigma = np.sqrt(2000 * (1 / 6) * (5 / 6))
        for v, c in counts.items():
            assert abs(c - expected) <= 3 * sigma, f"snr {v} drawn {c} times"

    def test_empty_corpus_rejected(self):
        speech, noise = tiny_corpora()
        with pytest.raises(ConfigurationError):
            sample_training_batch(np.random.default_rng(0), ArrayCorpus({}),
                                  noise, 1)
        with pytest.raises(ConfigurationError):
            sample_training_batch(np.random.default_rng(0), speech,
                                  ArrayCorpus({}), 1)

    def test_silent_utterances_skipped(self):
        speech = ArrayCorpus({"quiet": np.zeros(2000),
                              "loud": speech_like(2000, 24)})
        noise = ArrayCorpus({"n": np.random.default_rng(25).standard_normal(4000)})
        pairs = sample_training_batch(np.random.default_rng(4), speech, noise, 16,
                                      target_len=1000)
        assert len(pairs) == 16

    def test_all_silent_corpus_rejected(self):
        speech = ArrayCorpus({"a": np.zeros(1000), "b": np.zeros(1000)})
        noise = ArrayCorpus({"n": np.ones(4000)})
        with pytest.raises(ConfigurationError):
            sample_training_batch(np.random.default_rng(5), speech, noise, 1)
