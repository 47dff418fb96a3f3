"""Dynamic mixing pipeline: silence trimming, SNR-exact mixtures,
deterministic batch sampling."""

import warnings

import numpy as np
import pytest

from arn import mixing
from arn.dsp import DegenerateSignalError, rms
from arn.losses import snr
from arn.mixing import (
    ArrayCorpus,
    CorpusIndex,
    DynamicMixer,
    ListFileError,
    MixtureRecipe,
    TRAIN_SNRS_DB,
    make_mixture,
    trim_silence,
)
from arn.model import ConfigurationError
from arn.wavio import read_wav, write_wav


def speech_like(length, seed):
    rng = np.random.default_rng(seed)
    t = np.arange(length) / 16000.0
    tone = np.sin(2 * np.pi * 220 * t) + 0.5 * np.sin(2 * np.pi * 440 * t)
    return tone * (0.6 + 0.4 * np.sin(2 * np.pi * 3.0 * t)) + \
        0.05 * rng.standard_normal(length)


def trim_silence_loop(x, threshold_db, window=320):
    """``trim_silence`` as one mean per window in a loop, on float64 samples."""
    level = np.array([np.sqrt(np.mean(x[a:a + window] * x[a:a + window]))
                      for a in range(0, x.size, window)])
    if level.max() == 0.0:
        return x[:0]
    active = np.flatnonzero(level >= level.max() * 10.0 ** (threshold_db / 20.0))
    return x[active[0] * window:min((active[-1] + 1) * window, x.size)]


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

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("length", [1, 319, 320, 4001, 12800])
    def test_matches_per_window_loop(self, length, dtype):
        rng = np.random.default_rng(length)
        env = np.concatenate([np.full(length // 3, 1e-3), np.ones(length - length // 3)])
        x = (rng.standard_normal(length) * env).astype(dtype)
        for threshold in (-40.0, -20.0):
            got = trim_silence(x, threshold)
            assert got.dtype == dtype
            assert got.size == 0 or np.shares_memory(got, x)
            np.testing.assert_array_equal(
                got, trim_silence_loop(x.astype(np.float64), threshold))


    def test_float32_window_at_threshold_trims_as_float64(self):
        # an edge window scaled to sit at the -20 dB level of the loud part,
        # where float32 arithmetic for the levels would flip some decisions
        for seed in range(16):
            rng = np.random.default_rng(seed)
            x = rng.standard_normal(960)
            level = lambda v: np.sqrt(np.mean(v * v))
            x[:320] *= 0.1 * max(level(x[320:640]), level(x[640:])) / level(x[:320])
            x = x.astype(np.float32)
            np.testing.assert_array_equal(
                trim_silence(x, -20.0), trim_silence_loop(x.astype(np.float64), -20.0))


class TestReadListFile:
    # characters other than the line feed that str.splitlines breaks a line at
    BREAKS = ["\x0c", " ", "\x0b", "\x1c", "\x1e", "\x85", " "]

    def test_lines_end_at_line_feed_alone(self, tmp_path):
        # file names holding each of BREAKS parse, one row per line, and a
        # carriage return before a line feed goes with the line's
        # whitespace; a bad row, or a byte that is not UTF-8, after them is
        # numbered by the line feeds before it, the blank line counted
        names = [f"long{ch}name.wav" for ch in self.BREAKS]
        good = "".join(f"{name}\tz.wav\r\n" for name in names).encode() + b"\n"
        path = tmp_path / "pairs.tsv"
        path.write_bytes(good)
        assert mixing.read_list_file(path, (str, str)) == \
            [(i, (name, "z.wav")) for i, name in enumerate(names, start=1)]
        line = len(names) + 2
        path.write_bytes(good + "bad\x0cname.wav\n".encode())
        with pytest.raises(ListFileError, match=f"line {line}: expected 2 tab-separated "
                                                f"fields, found 1$"):
            mixing.read_list_file(path, (str, str))
        path.write_bytes(good + b"\xff\tz.wav\n")
        with pytest.raises(ListFileError, match=f"line {line}: not UTF-8 text"):
            mixing.read_list_file(path, (str, str))

    def test_only_spaces_tabs_and_carriage_return_stripped(self, tmp_path):
        # a line loses one carriage return at its end, then its spaces and
        # tabs; other whitespace at its ends is part of the file names, and
        # a line of it alone is a row, refused for its field count
        path = tmp_path / "pairs.tsv"
        path.write_bytes(" a.wav\tb.wav \r\n\x0ca.wav\tb.wav\u2028\n\t\r\n".encode())
        assert mixing.read_list_file(path, (str, str)) == \
            [(1, ("a.wav", "b.wav")), (2, ("\x0ca.wav", "b.wav\u2028"))]
        for ch in self.BREAKS:
            path.write_bytes(f"a.wav\tb.wav\n \t{ch}\r\n".encode())
            with pytest.raises(ListFileError, match="line 2: expected 2 tab-separated "
                                                    "fields, found 1$"):
                mixing.read_list_file(path, (str, str))


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

    # not finite, a gain 10^(-SNR/20) beyond the float range, and an int
    # beyond the float range
    @pytest.mark.parametrize(
        "snr_db", [float("nan"), float("inf"), float("-inf"), -1e308, -6200, -10 ** 400],
        ids=["nan", "inf", "-inf", "-1e308", "-6200", "-10**400"])
    def test_unusable_snr_rejected(self, snr_db):
        rng = np.random.default_rng(11)
        with pytest.raises(ValueError, match="SNR"):
            make_mixture(MixtureRecipe("s", "n", 0, 0, snr_db),
                         rng.standard_normal(100), rng.standard_normal(100), 100)

    @pytest.mark.parametrize("snr_db", [-3080, -6000])
    def test_overflowing_mixture_power_rejected_without_warning(self, snr_db):
        # the noise gain is finite, but the mixture's mean square is not
        rng = np.random.default_rng(12)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateSignalError, match=f"SNR {snr_db} dB"):
                make_mixture(MixtureRecipe("s", "n", 0, 0, snr_db),
                             rng.standard_normal(8000), rng.standard_normal(8000), 8000)

    @pytest.mark.parametrize("snr_db", [-300, -700])
    def test_extreme_finite_snr_mixed_as_given(self, snr_db):
        rng = np.random.default_rng(13)
        s = rng.standard_normal(2000)
        n = rng.standard_normal(2000)
        n *= rms(s) / rms(n)  # equal RMS
        x, s_out = make_mixture(MixtureRecipe("s", "n", 0, 0, snr_db), s, n, 2000)
        assert np.isfinite(x).all() and rms(x) == pytest.approx(1.0)
        g2 = s_out[0] / s[0]
        assert g2 > 0.0
        implied_gain = (x - s_out)[0] / (g2 * n[0])
        assert implied_gain == pytest.approx(10.0 ** (-snr_db / 20), rel=1e-9)

    def test_noise_gain_of_extreme_finite_snrs(self):
        assert mixing.noise_gain(20) == 0.1
        assert mixing.noise_gain(-6000) == 10.0 ** 300
        assert mixing.noise_gain(1e308) == 0.0  # underflows, but is a usable gain

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
        mixer = DynamicMixer(speech, noise, target_len=1600)
        a = mixer.sample(np.random.default_rng(1), 8)
        b = mixer.sample(np.random.default_rng(1), 8)
        for (xa, sa), (xb, sb) in zip(a, b):
            assert xa.tobytes() == xb.tobytes()
            assert sa.tobytes() == sb.tobytes()

    def test_batch_on_small_corpus(self):
        speech, noise = tiny_corpora()
        pairs = DynamicMixer(speech, noise, target_len=64000).sample(
            np.random.default_rng(2), 32)
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

    def test_fractional_snr_choice_mixed_as_given(self):
        speech, noise = tiny_corpora()
        mixer = DynamicMixer(speech, noise, snr_choices=[2.5], target_len=800)
        for recipe, x, s in mixer.sample_with_recipes(np.random.default_rng(6), 4):
            assert recipe.snr_db == 2.5
            assert snr(s, x) == pytest.approx(2.5, abs=0.01)

    def test_empty_corpus_rejected(self):
        speech, noise = tiny_corpora()
        with pytest.raises(ConfigurationError):
            DynamicMixer(ArrayCorpus({}), noise).sample(np.random.default_rng(0), 1)
        with pytest.raises(ConfigurationError):
            DynamicMixer(speech, ArrayCorpus({})).sample(np.random.default_rng(0), 1)

    @pytest.mark.parametrize("option, value", [
        ("snr_choices", []), ("snr_choices", [True]), ("snr_choices", 0),
        ("snr_choices", ["loud"]), ("snr_choices", [0, float("nan")]),
        ("snr_choices", [-1e308]), ("target_len", 0), ("target_len", 1.5),
        ("target_len", True), ("trim_db", "x"), ("trim_db", None),
        ("trim_db", 3.0), ("trim_db", float("nan")),
    ])
    def test_bad_option_rejected_when_built(self, option, value):
        speech, noise = tiny_corpora()
        with pytest.raises(ConfigurationError, match=option):
            DynamicMixer(speech, noise, **{option: value})

    @pytest.mark.parametrize("trim_db", [0.0, 0, -np.inf])
    def test_trim_db_bounds_accepted(self, trim_db):
        # 0 dB keeps the windows at the peak level; -inf trims nothing
        speech, noise = tiny_corpora()
        pairs = DynamicMixer(speech, noise, target_len=800, trim_db=trim_db).sample(
            np.random.default_rng(7), 2)
        assert len(pairs) == 2

    def test_silent_utterances_skipped(self):
        speech = ArrayCorpus({"quiet": np.zeros(2000),
                              "loud": speech_like(2000, 24)})
        noise = ArrayCorpus({"n": np.random.default_rng(25).standard_normal(4000)})
        pairs = DynamicMixer(speech, noise, target_len=1000).sample(
            np.random.default_rng(4), 16)
        assert len(pairs) == 16

    def test_all_silent_corpus_rejected(self):
        speech = ArrayCorpus({"a": np.zeros(1000), "b": np.zeros(1000)})
        noise = ArrayCorpus({"n": np.ones(4000)})
        with pytest.raises(ConfigurationError):
            DynamicMixer(speech, noise).sample(np.random.default_rng(5), 1)


def write_index(tmp_path, name, signals):
    """WAV files and their corpus index; returns the index path."""
    lines = []
    for i, x in enumerate(signals):
        write_wav(tmp_path / f"{name}{i}.wav", x)
        lines.append(f"{name}{i}\t{name}{i}.wav\t{x.size}")
    (tmp_path / f"{name}.idx").write_text("\n".join(lines) + "\n")
    return tmp_path / f"{name}.idx"


class UncachedIndex(CorpusIndex):
    """A corpus index that reads float64 samples and trims them with the
    per-window loop again on every draw."""

    def load(self, utt_id):
        return read_wav(self.root / self.entries[utt_id][0])

    def trimmed(self, utt_id, trim_db):
        return trim_silence_loop(self.load(utt_id), trim_db)


class TestCorpusCache:
    def test_draws_identical_to_uncached_path_with_one_read_per_file(
            self, tmp_path, monkeypatch):
        silence = np.zeros(700)
        speech_idx = write_index(tmp_path, "s", [
            np.concatenate([silence, speech_like(2400 + 300 * i, 40 + i), silence])
            for i in range(3)])
        noise_idx = write_index(tmp_path, "n", [
            0.3 * np.random.default_rng(50 + i).standard_normal(5000) for i in range(2)])
        reads = []

        def counted(path):
            reads.append(path)
            return read_wav(path)

        monkeypatch.setattr(mixing, "read_wav", counted)
        cached = DynamicMixer(CorpusIndex(speech_idx), CorpusIndex(noise_idx),
                              target_len=1600, trim_db=-30.0)
        uncached = DynamicMixer(UncachedIndex(speech_idx), UncachedIndex(noise_idx),
                                target_len=1600, trim_db=-30.0)
        runs = []
        for mixer in (cached, cached, uncached):
            rng = np.random.default_rng(9)
            runs.append((mixer.sample_with_recipes(rng, 24), rng.integers(2**62)))
        assert len(reads) == len(set(reads)) == 5
        (first, tail), *others = runs
        for pairs, other_tail in others:
            assert other_tail == tail
            for (ra, xa, sa), (rb, xb, sb) in zip(first, pairs, strict=True):
                assert ra == rb
                assert xa.tobytes() == xb.tobytes() and sa.tobytes() == sb.tobytes()
        speech = cached.speech_corpus
        assert speech.trimmed("s0", -30.0) is speech.trimmed("s0", -30.0)
        assert speech.trimmed("s0", -30.0).size < speech.load("s0").size
        assert speech.load("s0").dtype == np.float32
        assert not speech.load("s0").flags.writeable
        assert not speech.trimmed("s0", -30.0).flags.writeable

    def test_repeated_id_rejected(self, tmp_path):
        # a second line for an id would silently replace the first file
        index = write_index(tmp_path, "s", [speech_like(800, 61), speech_like(900, 62)])
        lines = index.read_text().splitlines()
        index.write_text(f"{lines[0]}\n{lines[1].replace('s1', 's0', 1)}\n")
        with pytest.raises(ListFileError, match=rf"{index}: id 's0' is listed twice"):
            CorpusIndex(index)

    @pytest.mark.parametrize("count", ["4_80", "\u0664\u0668\u0660", " 480", "-1", "+480", ""])
    def test_count_other_than_decimal_digits_rejected(self, tmp_path, count):
        # int() would read each of these but the empty one as a number
        index = write_index(tmp_path, "s", [speech_like(480, 63)])
        utt_id, rel_path, _ = index.read_text().splitlines()[0].split("\t")
        index.write_text(f"s9\tx.wav\t480\n{utt_id}\t{rel_path}\t{count}\n", encoding="utf-8")
        with pytest.raises(ListFileError, match=rf"^{index}, line 2: "):
            CorpusIndex(index)

    def test_trimmed_views_leave_array_corpus_inputs_writable(self):
        x = speech_like(2000, 60)
        corpus = ArrayCorpus({"a": x})
        for trim_db in (-40.0, -np.inf):
            trimmed = corpus.trimmed("a", trim_db)
            assert np.shares_memory(trimmed, x) and not trimmed.flags.writeable
        assert x.flags.writeable
