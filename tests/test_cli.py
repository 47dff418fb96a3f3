"""End-to-end command-line behaviour."""

import json
from pathlib import Path

import numpy as np
import pytest
from scipy.io import wavfile

from arn import cli, losses, mixing, model, training, wavio
from arn.mixing import MixtureRecipe
from arn.model import ARNConfig
from arn.training import checkpoint_from, save_checkpoint

from test_model import preset, zero_params
from test_training import NON_CONTIGUOUS, _relay


def toy_cfg():
    return ARNConfig(width=8, frame_in=8, frame_out=8, shift=8, num_blocks=1,
                     causal=True, dropout=0.0)


@pytest.fixture
def zero_ckpt(tmp_path):
    cfg = toy_cfg()
    params = zero_params(cfg, np.float32)
    path = tmp_path / "zero.ckpt"
    save_checkpoint(checkpoint_from(params, cfg), path)
    return path


@pytest.fixture
def trained_ckpt(tmp_path):
    cfg = toy_cfg()
    params = model.init_params(cfg, np.random.default_rng(0), dtype=np.float32)
    path = tmp_path / "random.ckpt"
    save_checkpoint(checkpoint_from(params, cfg), path)
    return path


@pytest.fixture(params=["causal_16k", "noncausal_16k"])
def tiny_preset_ckpt(request, tmp_path):
    """A shipped preset at width 8 with one block, as the benchmark's tiny
    inputs build it."""
    cfg = preset(request.param, width=8, num_blocks=1)
    params = model.init_params(cfg, np.random.default_rng(2105), dtype=np.float32)
    path = tmp_path / f"{request.param}.ckpt"
    save_checkpoint(checkpoint_from(params, cfg), path)
    return path


def tone(length=16000, freq=440.0):
    return 0.25 * np.sin(2 * np.pi * freq * np.arange(length) / 16000.0)


class TestEnhance:
    def test_zero_model_outputs_silence(self, tmp_path, zero_ckpt):
        src = tmp_path / "in.wav"
        dst = tmp_path / "out.wav"
        wavio.write_wav(src, tone())
        assert cli.main(["enhance", "--model", str(zero_ckpt),
                         "--in", str(src), "--out", str(dst)]) == 0
        out = wavio.read_wav(dst)
        assert out.shape == (16000,)
        np.testing.assert_array_equal(out, np.zeros(16000))

    def test_sample_count_preserved(self, tmp_path, trained_ckpt):
        src = tmp_path / "in.wav"
        dst = tmp_path / "out.wav"
        wavio.write_wav(src, tone(12345))
        assert cli.main(["enhance", "--model", str(trained_ckpt),
                         "--in", str(src), "--out", str(dst)]) == 0
        assert wavio.read_wav(dst).shape == (12345,)

    def test_byte_identical_across_runs(self, tmp_path, trained_ckpt):
        src = tmp_path / "in.wav"
        wavio.write_wav(src, tone() + 0.01 * np.random.default_rng(1).standard_normal(16000))
        out1, out2 = tmp_path / "o1.wav", tmp_path / "o2.wav"
        for out in (out1, out2):
            assert cli.main(["enhance", "--model", str(trained_ckpt),
                             "--in", str(src), "--out", str(out)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_directory_mode(self, tmp_path, trained_ckpt):
        src_dir = tmp_path / "in"
        src_dir.mkdir()
        for i in range(3):
            wavio.write_wav(src_dir / f"u{i}.wav", tone(4000, 200.0 + 50 * i))
        dst_dir = tmp_path / "out"
        assert cli.main(["enhance", "--model", str(trained_ckpt),
                         "--in", str(src_dir), "--out", str(dst_dir)]) == 0
        assert sorted(p.name for p in dst_dir.glob("*.wav")) == \
            ["u0.wav", "u1.wav", "u2.wav"]

    def test_zero_sample_wav_in_directory(self, tmp_path, trained_ckpt):
        src_dir = tmp_path / "in"
        src_dir.mkdir()
        wavio.write_wav(src_dir / "a_empty.wav", np.zeros(0))
        wavio.write_wav(src_dir / "b_tone.wav", tone(4000))
        dst_dir = tmp_path / "out"
        assert cli.main(["enhance", "--model", str(trained_ckpt),
                         "--in", str(src_dir), "--out", str(dst_dir)]) == 0
        assert wavio.read_wav(dst_dir / "a_empty.wav").shape == (0,)
        assert wavio.read_wav(dst_dir / "b_tone.wav").shape == (4000,)

    def test_pcm16_output(self, tmp_path, trained_ckpt):
        src = tmp_path / "in.wav"
        dst = tmp_path / "out.wav"
        wavio.write_wav(src, tone(2000))
        assert cli.main(["enhance", "--model", str(trained_ckpt),
                         "--in", str(src), "--out", str(dst), "--pcm16"]) == 0
        assert wavfile.read(dst)[1].dtype == np.int16


class TestMixAndEvaluate:
    def test_mix_then_evaluate_reports_requested_snr(self, tmp_path, capsys):
        speech = tmp_path / "speech.wav"
        noise = tmp_path / "noise.wav"
        wavio.write_wav(speech, tone(8000))
        wavio.write_wav(noise, 0.1 * np.random.default_rng(2).standard_normal(8000))
        prefix = tmp_path / "pair"
        assert cli.main(["mix", "--speech", str(speech), "--noise", str(noise),
                         "--snr", "-5", "--out", str(prefix)]) == 0

        manifest = tmp_path / "pairs.tsv"
        manifest.write_text(f"{prefix}.clean.wav\t{prefix}.noisy.wav\n")
        assert cli.main(["evaluate", "--pairs", str(manifest)]) == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
        assert lines[-1].startswith("mean\t1\t")
        reported_snr = float(lines[0].split("\t")[2])
        assert reported_snr == pytest.approx(-5.0, abs=0.01)

    @staticmethod
    def mix(tmp_path, snr):
        """Run ``arn mix`` at ``snr`` on a tone and white noise; returns the
        speech and noise paths and the output prefix."""
        speech = tmp_path / "speech.wav"
        noise = tmp_path / "noise.wav"
        wavio.write_wav(speech, tone(8000))
        wavio.write_wav(noise, 0.1 * np.random.default_rng(2).standard_normal(8000))
        prefix = tmp_path / "pair"
        assert cli.main(["mix", "--speech", str(speech), "--noise", str(noise),
                         "--snr", snr, "--out", str(prefix)]) == 0
        return speech, noise, prefix

    def test_fractional_snr_mixed_as_given(self, tmp_path):
        _, _, prefix = self.mix(tmp_path, "2.5")
        noisy = wavio.read_wav(f"{prefix}.noisy.wav")
        clean = wavio.read_wav(f"{prefix}.clean.wav")
        assert losses.snr(clean, noisy) == pytest.approx(2.5, abs=0.01)

    @pytest.mark.parametrize("snr", ["nan", "inf", "-inf", "-1e308"])
    def test_unusable_snr_exit_2_without_output(self, tmp_path, capsys, snr):
        speech = tmp_path / "speech.wav"
        wavio.write_wav(speech, tone(8000))
        prefix = tmp_path / "pair"
        assert cli.main(["mix", "--speech", str(speech), "--noise", str(speech),
                         f"--snr={snr}", "--out", str(prefix)]) == 2
        err = capsys.readouterr().err
        assert "--snr" in err and "Traceback" not in err
        assert not list(tmp_path.glob("pair*"))

    @pytest.mark.parametrize("snr", ["-3080", "-6000"])
    def test_overflowing_mixture_exit_1_without_output(self, tmp_path, capsys, snr):
        speech = tmp_path / "speech.wav"
        noise = tmp_path / "noise.wav"
        wavio.write_wav(speech, tone(8000))
        wavio.write_wav(noise, 0.1 * np.random.default_rng(2).standard_normal(8000))
        prefix = tmp_path / "pair"
        assert cli.main(["mix", "--speech", str(speech), "--noise", str(noise),
                         f"--snr={snr}", "--out", str(prefix)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"SNR {float(snr)!r} dB" in err
        assert "Traceback" not in err
        assert not list(tmp_path.glob("pair*"))

    def test_integer_snr_writes_what_an_int_recipe_mixes(self, tmp_path):
        # a whole-number --snr read as a float mixes the same bytes as the
        # integer it was read as before
        speech, noise, prefix = self.mix(tmp_path, "-5")
        recipe = MixtureRecipe(speech_id=str(speech), noise_id=str(noise),
                               speech_offset=0, noise_offset=0, snr_db=-5)
        x, s = mixing.make_mixture(recipe, wavio.read_wav(speech),
                                   wavio.read_wav(noise), 8000)
        for name, signal in (("noisy", x), ("clean", s)):
            want = tmp_path / f"want.{name}.wav"
            wavio.write_wav(want, signal)
            assert Path(f"{prefix}.{name}.wav").read_bytes() == want.read_bytes()

    @pytest.mark.parametrize("level", [0.0, 0.25])
    def test_silent_file_scores_si_snr_floor(self, tmp_path, capsys, level):
        # silence, or a constant (silence after mean removal), scores
        # -DB_CAP; the clean file against itself scores +DB_CAP
        clean, silent = tmp_path / "clean.wav", tmp_path / "silent.wav"
        wavio.write_wav(clean, tone())
        wavio.write_wav(silent, np.full(16000, level))
        manifest = tmp_path / "pairs.tsv"
        manifest.write_text(f"{clean}\t{silent}\n{clean}\t{clean}\n")
        assert cli.main(["evaluate", "--pairs", str(manifest)]) == 0
        rows = [line.split("\t") for line in capsys.readouterr().out.splitlines()]
        assert float(rows[0][3]) == -losses.DB_CAP
        assert float(rows[1][3]) == losses.DB_CAP

    def test_evaluate_with_model_enhances_first(self, tmp_path, zero_ckpt, capsys):
        clean = tmp_path / "clean.wav"
        degraded = tmp_path / "deg.wav"
        wavio.write_wav(clean, tone(3000))
        wavio.write_wav(degraded, tone(3000) + 0.05)
        manifest = tmp_path / "pairs.tsv"
        manifest.write_text(f"{clean}\t{degraded}\n")
        assert cli.main(["evaluate", "--model", str(zero_ckpt),
                         "--pairs", str(manifest)]) == 0
        lines = capsys.readouterr().out.splitlines()
        # zero model outputs silence: snr(s, 0) is exactly 0 dB
        assert float(lines[0].split("\t")[2]) == pytest.approx(0.0, abs=1e-6)


class TestExitCodes:
    def test_bad_flags_exit_2(self):
        assert cli.main(["enhance", "--nonsense"]) == 2
        assert cli.main([]) == 2

    def test_malformed_wav_exit_3(self, tmp_path, trained_ckpt):
        bad = tmp_path / "bad.wav"
        bad.write_bytes(b"RIFFxxxxJUNK")
        out = tmp_path / "out.wav"
        assert cli.main(["enhance", "--model", str(trained_ckpt),
                         "--in", str(bad), "--out", str(out)]) == 3

    def test_non_finite_wav_exit_3_without_output(self, tmp_path, trained_ckpt,
                                                  capsys):
        src = tmp_path / "nan.wav"
        x = tone(1600).astype(np.float32)
        x[100] = np.nan
        wavfile.write(src, 16000, x)  # write_wav itself refuses NaN
        out = tmp_path / "out.wav"
        assert cli.main(["enhance", "--model", str(trained_ckpt),
                         "--in", str(src), "--out", str(out)]) == 3
        assert "non-finite" in capsys.readouterr().err
        assert not out.exists()

    def test_output_beyond_float32_exit_3_without_output(self, tmp_path,
                                                         tiny_preset_ckpt, capsys):
        # a constant near float32's maximum enhances to more than it can hold
        src = tmp_path / "loud.wav"
        wavio.write_wav(src, np.full(800, 3e38))
        out = tmp_path / "out.wav"
        assert cli.main(["enhance", "--model", str(tiny_preset_ckpt),
                         "--in", str(src), "--out", str(out)]) == 3
        assert "beyond float32 range" in capsys.readouterr().err
        assert not out.exists()

    def test_loud_noise_enhances_to_finite_audio(self, tmp_path, tiny_preset_ckpt):
        src = tmp_path / "loud.wav"
        wavio.write_wav(src, 1e30 * np.random.default_rng(9).standard_normal(800))
        out = tmp_path / "out.wav"
        assert cli.main(["enhance", "--model", str(tiny_preset_ckpt),
                         "--in", str(src), "--out", str(out)]) == 0
        y = wavio.read_wav(out)
        assert np.isfinite(y).all() and np.abs(y).max() > 1e28

    def test_malformed_manifest_line_exit_2(self, tmp_path, capsys):
        clean = tmp_path / "clean.wav"
        wavio.write_wav(clean, tone(1000))
        manifest = tmp_path / "pairs.tsv"
        manifest.write_text(f"{clean}\t{clean}\n\n{clean}\n")
        assert cli.main(["evaluate", "--pairs", str(manifest)]) == 2
        captured = capsys.readouterr()
        assert f"{manifest}, line 3:" in captured.err
        assert captured.out == ""

    def test_malformed_index_line_exit_2(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text("{}")
        index = tmp_path / "speech.idx"
        index.write_text("s0\tspeech/s0.wav\t3200\ns1\tspeech/s1.wav\tmany\n")
        assert cli.main(["train", "--config", str(config),
                         "--speech-index", str(index), "--noise-index", str(index),
                         "--out", str(tmp_path / "run")]) == 2
        assert f"{index}, line 2:" in capsys.readouterr().err

    def test_repeated_index_id_exit_2_before_output(self, tmp_path, capsys):
        speech_idx, noise_idx = write_corpus(tmp_path)
        speech_idx.write_text("s0\tspeech/s0.wav\t3200\ns0\tspeech/s1.wav\t3200\n")
        config = tmp_path / "config.json"
        config.write_text(json.dumps(tiny_train_config()))
        out_dir = tmp_path / "run"
        assert cli.main(["train", "--config", str(config), "--speech-index", str(speech_idx),
                         "--noise-index", str(noise_idx), "--out", str(out_dir)]) == 2
        err = capsys.readouterr().err
        assert f"{speech_idx}: id 's0' is listed twice" in err and "Traceback" not in err
        assert not out_dir.exists()

    def test_corrupt_checkpoint_exit_4(self, tmp_path):
        src = tmp_path / "in.wav"
        wavio.write_wav(src, tone(1000))
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"garbage")
        assert cli.main(["enhance", "--model", str(bad), "--in", str(src),
                         "--out", str(tmp_path / "o.wav")]) == 4

    def test_non_finite_checkpoint_exit_4_without_output(self, tmp_path, capsys):
        cfg = toy_cfg()
        params = model.init_params(cfg, np.random.default_rng(1), dtype=np.float32)
        params["input_proj.b"].data[3] = np.nan
        path = tmp_path / "nan.ckpt"
        save_checkpoint(checkpoint_from(params, cfg), path)
        src = tmp_path / "in.wav"
        wavio.write_wav(src, tone(800))
        out = tmp_path / "o.wav"
        assert cli.main(["enhance", "--model", str(path), "--in", str(src),
                         "--out", str(out)]) == 4
        assert "input_proj.b" in capsys.readouterr().err
        assert not out.exists()

    def test_truncated_checkpoint_exit_4(self, tmp_path, trained_ckpt):
        src = tmp_path / "in.wav"
        wavio.write_wav(src, tone(1000))
        clipped = tmp_path / "clipped.ckpt"
        clipped.write_bytes(trained_ckpt.read_bytes()[:-100])
        assert cli.main(["enhance", "--model", str(clipped), "--in", str(src),
                         "--out", str(tmp_path / "o.wav")]) == 4

    @pytest.mark.parametrize("field, value", [(2, b"-8x-8"), (3, b"-40")])
    def test_negative_tensor_entry_exit_4_without_output(self, tmp_path, trained_ckpt,
                                                         field, value):
        # a negative dimension or offset in a tensor line of the header
        head, sep, payload = trained_ckpt.read_bytes().partition(b"\nDATA ")
        lines = head.split(b"\n")
        i = next(i for i, line in enumerate(lines)
                 if line.startswith(b"tensor input_proj.w "))
        parts = lines[i].split(b" ")
        parts[field] = value
        lines[i] = b" ".join(parts)
        bad = tmp_path / "negative.ckpt"
        bad.write_bytes(b"\n".join(lines) + sep + payload)
        src = tmp_path / "in.wav"
        wavio.write_wav(src, tone(1000))
        out = tmp_path / "o.wav"
        assert cli.main(["enhance", "--model", str(bad), "--in", str(src),
                         "--out", str(out)]) == 4
        assert not out.exists()

    @pytest.mark.parametrize("value", [b"-1", b"nan", b"1e400"])
    def test_bad_ln_eps_exit_4_without_output(self, tmp_path, capsys, trained_ckpt,
                                              value):
        # a layer-norm epsilon that is not finite and positive, in the header
        head, sep, payload = trained_ckpt.read_bytes().partition(b"\nDATA ")
        lines = [b"config.ln_eps=" + value if line.startswith(b"config.ln_eps=") else line
                 for line in head.split(b"\n")]
        bad = tmp_path / "eps.ckpt"
        bad.write_bytes(b"\n".join(lines) + sep + payload)
        src = tmp_path / "in.wav"
        wavio.write_wav(src, tone(1000))
        out = tmp_path / "o.wav"
        assert cli.main(["enhance", "--model", str(bad), "--in", str(src),
                         "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert "bad config block" in err and "ln_eps" in err
        assert not out.exists()

    @pytest.mark.parametrize("replace", [False, True])
    def test_aliased_tensor_entry_exit_4_without_output(self, tmp_path, trained_ckpt,
                                                        replace):
        # a second input_proj.b line, after the real one, over the first row
        # of input_proj.w (a duplicate name and an overlap), or that line in
        # place of the real one (an overlap only)
        head, sep, payload = trained_ckpt.read_bytes().partition(b"\nDATA ")
        lines = head.split(b"\n")
        w_line = next(line for line in lines if line.startswith(b"tensor input_proj.w "))
        b_at = next(i for i, line in enumerate(lines)
                    if line.startswith(b"tensor input_proj.b "))
        _, _, dims, offset, _ = w_line.split(b" ")
        width = dims.split(b"x")[1]
        alias = b" ".join([b"tensor", b"input_proj.b", width, offset, width])
        lines[b_at + 1 - replace:b_at + 1] = [alias]
        bad = tmp_path / "aliased.ckpt"
        bad.write_bytes(b"\n".join(lines) + sep + payload)
        src = tmp_path / "in.wav"
        wavio.write_wav(src, tone(1000))
        out = tmp_path / "o.wav"
        assert cli.main(["enhance", "--model", str(bad), "--in", str(src),
                         "--out", str(out)]) == 4
        assert not out.exists()

    @pytest.mark.parametrize("edit", [case[1] for case in NON_CONTIGUOUS],
                             ids=[case[0] for case in NON_CONTIGUOUS])
    def test_non_contiguous_directory_exit_4_without_output(self, tmp_path, trained_ckpt,
                                                           capsys, edit):
        # a gap, an entry that goes back, a directory out of order, or a
        # DATA count above or below the directory's total
        bad = tmp_path / "relaid.ckpt"
        bad.write_bytes(_relay(trained_ckpt.read_bytes(), edit))
        src = tmp_path / "in.wav"
        wavio.write_wav(src, tone(1000))
        out = tmp_path / "o.wav"
        assert cli.main(["enhance", "--model", str(bad), "--in", str(src),
                         "--out", str(out)]) == 4
        assert "Traceback" not in capsys.readouterr().err
        assert not out.exists()


def write_corpus(tmp_path):
    """Two speech and two noise WAVs with their index files; returns the
    speech and noise index paths."""
    rng = np.random.default_rng(3)
    speech_dir = tmp_path / "speech"
    noise_dir = tmp_path / "noise"
    speech_dir.mkdir()
    noise_dir.mkdir()
    speech_lines = []
    for i in range(2):
        x = tone(3200, 220.0 * (i + 1)) + 0.02 * rng.standard_normal(3200)
        wavio.write_wav(speech_dir / f"s{i}.wav", x)
        speech_lines.append(f"s{i}\tspeech/s{i}.wav\t3200")
    noise_lines = []
    for i in range(2):
        n = 0.3 * rng.standard_normal(6400)
        wavio.write_wav(noise_dir / f"n{i}.wav", n)
        noise_lines.append(f"n{i}\tnoise/n{i}.wav\t6400")
    (tmp_path / "speech.idx").write_text("\n".join(speech_lines) + "\n")
    (tmp_path / "noise.idx").write_text("\n".join(noise_lines) + "\n")
    return tmp_path / "speech.idx", tmp_path / "noise.idx"


def tiny_train_config():
    return {
        "model": {"width": 8, "frame_in": 8, "frame_out": 8, "shift": 8,
                  "num_blocks": 1, "causal": True, "dropout": 0.0},
        "train": {"epochs": 2, "steps_per_epoch": 2, "batch": 2,
                  "lr_knee": 1, "validate_every": 1, "seed": 5},
        "mixing": {"target_len": 1600, "val_pairs": 2},
    }


def run_train(tmp_path, config, out_dir, *flags):
    speech_idx, noise_idx = write_corpus(tmp_path)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    return cli.main(["train", "--config", str(cfg_path), "--speech-index", str(speech_idx),
                     "--noise-index", str(noise_idx), "--out", str(out_dir), *flags])


class TestTrainCommand:
    def test_end_to_end_training_run(self, tmp_path, capsys):
        out_dir = tmp_path / "run"
        assert run_train(tmp_path, tiny_train_config(), out_dir) == 0
        assert (out_dir / "last.ckpt").exists()
        log = (out_dir / "train_log.csv").read_text().splitlines()
        assert len(log) == 4  # 2 epochs x 2 steps
        epoch, step, loss, lr = log[0].split(",")
        assert (int(epoch), int(step)) == (1, 1)
        assert float(lr) == pytest.approx(2e-4)
        # the loaded checkpoint must drive enhancement
        ckpt = training.load_checkpoint(out_dir / "last.ckpt")
        params = training.params_from_checkpoint(ckpt)
        y = model.enhance(np.zeros(100) + 0.1, params, ckpt.model_cfg)
        assert y.shape == (100,)

    # (block, key, value); each is refused naming the key
    BAD_CONFIGS = [
        ("train", "batch", 0),
        ("train", "validate_every", 0),
        ("train", "steps_per_epoch", 0),
        ("train", "epochs", 0),
        ("train", "lr_knees", 1),
        ("model", "widht", 8),
        ("model", "width", "big"),
        ("model", "causal", 1),
        ("mixing", "trim_DB", -40.0),
        ("mixing", "snr_choices", []),
        ("mixing", "snr_choices", ["loud"]),
        ("mixing", "target_len", 0),
        ("mixing", "val_pairs", 0),
        ("mixing", "snr_choices", [0, float("nan")]),  # written as NaN, read back
        ("mixing", "snr_choices", [-1e308]),
        ("model", "ln_eps", -1.0),
        ("model", "ln_eps", float("nan")),
        ("model", "ln_eps", float("inf")),  # what JSON's 1e400 reads as
        ("train", "lr_hi", float("inf")),  # what JSON's 1e309 reads as
    ]

    @pytest.mark.parametrize("block, key, value", BAD_CONFIGS)
    def test_bad_config_exit_4_before_output(self, tmp_path, capsys, block, key, value):
        config = tiny_train_config()
        config[block][key] = value
        out_dir = tmp_path / "run"
        assert run_train(tmp_path, config, out_dir) == 4
        err = capsys.readouterr().err
        assert key in err and "Traceback" not in err
        assert not out_dir.exists()

    def test_overflowing_validation_mixture_exit_1_before_output(self, tmp_path, capsys):
        # the SNR passes the config check, but the validation draw's
        # mixtures overflow a float
        config = tiny_train_config()
        config["mixing"]["snr_choices"] = [-6000]
        out_dir = tmp_path / "run"
        assert run_train(tmp_path, config, out_dir) == 1
        err = capsys.readouterr().err
        assert "overflows a float" in err and "Traceback" not in err
        assert not out_dir.exists()

    def test_noise_shorter_than_chunk_exit_4_before_output(self, tmp_path, capsys):
        speech_idx, noise_idx = write_corpus(tmp_path)
        # noises of 800 samples against 1600-sample chunks of 3200-sample speech
        for i in range(2):
            wavio.write_wav(tmp_path / "noise" / f"n{i}.wav", np.full(800, 0.1))
        noise_idx.write_text("".join(f"n{i}\tnoise/n{i}.wav\t800\n" for i in range(2)))
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(tiny_train_config()))
        out_dir = tmp_path / "run"
        assert cli.main(["train", "--config", str(cfg_path),
                         "--speech-index", str(speech_idx), "--noise-index", str(noise_idx),
                         "--out", str(out_dir)]) == 4
        err = capsys.readouterr().err
        assert "shorter than" in err and "Traceback" not in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("source", ["config", "flag", "env"])
    def test_negative_seed_exit_4_before_output(self, tmp_path, capsys, monkeypatch,
                                                source):
        config = tiny_train_config()
        flags = []
        if source == "config":
            config["train"]["seed"] = -3
        elif source == "flag":
            flags = ["--seed", "-3"]
        else:
            monkeypatch.setenv("ARN_SEED", "-3")
        out_dir = tmp_path / "run"
        assert run_train(tmp_path, config, out_dir, *flags) == 4
        err = capsys.readouterr().err
        assert "seed must be non-negative" in err and "Traceback" not in err
        assert not out_dir.exists()

    def test_non_integer_env_seed_exit_4_before_output(self, tmp_path, capsys,
                                                       monkeypatch):
        monkeypatch.setenv("ARN_SEED", "abc")
        out_dir = tmp_path / "run"
        assert run_train(tmp_path, tiny_train_config(), out_dir) == 4
        err = capsys.readouterr().err
        assert "ARN_SEED must be an integer, got 'abc'" in err and "Traceback" not in err
        assert not out_dir.exists()

    def test_divergence_exit_1(self, tmp_path, capsys, monkeypatch):
        def diverge(*args, **kwargs):
            raise training.DivergenceError("non-finite loss nan at epoch 1 step 1")

        monkeypatch.setattr(training, "train_epoch", diverge)
        assert run_train(tmp_path, tiny_train_config(), tmp_path / "run") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: non-finite loss") and "Traceback" not in err

    @pytest.mark.parametrize("text, named", [("{\"model\": {", "not valid JSON"),
                                             ("[]", "JSON object"),
                                             ("{\"modle\": {}}", "modle")])
    def test_malformed_config_file_exit_4(self, tmp_path, capsys, text, named):
        config = tmp_path / "config.json"
        config.write_text(text)
        assert cli.main(["train", "--config", str(config), "--speech-index", "x.idx",
                         "--noise-index", "x.idx", "--out", str(tmp_path / "run")]) == 4
        assert named in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("name", ["causal_16k", "noncausal_16k", "vctk_like"])
    def test_shipped_configs_load(self, name):
        path = Path(__file__).resolve().parents[1] / "configs" / f"{name}.json"
        model_cfg, train_cfg, mix_opts = cli._load_train_config(path)
        assert model_cfg.width == 1024 and train_cfg.epochs >= 100
        assert mix_opts["target_len"] == 64000
