"""End-to-end command-line behaviour."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.io import wavfile

from arn import cli, losses, mixing, model, tensor, training, wavio
from arn.mixing import MixtureRecipe
from arn.model import ARNConfig
from arn.optim import AdamState
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


class TestEnhanceTable:
    """``arn enhance`` loads the enhance table, each block's value gate
    folded and no Adam moment held, and writes what ``model.enhance`` on the
    full trainable table gives, byte for byte."""

    @pytest.mark.parametrize("causal", [True, False])
    def test_output_equals_full_table_enhance(self, tmp_path, causal):
        # wider than a row tile, and longer: T = 300 frames
        cfg = ARNConfig(width=tensor.TILE_ROWS + 8, frame_in=16, frame_out=8, shift=8,
                        num_blocks=2, causal=causal, dropout=0.0)
        params = model.init_params(cfg, np.random.default_rng(2201), dtype=np.float32)
        ckpt = tmp_path / "last.ckpt"
        save_checkpoint(checkpoint_from(params, cfg, AdamState.for_params(params)), ckpt)
        src, dst, ref = tmp_path / "in.wav", tmp_path / "out.wav", tmp_path / "ref.wav"
        wavio.write_wav(src, tone(2400) + 0.05 * np.random.default_rng(2202)
                        .standard_normal(2400))
        assert cli.main(["enhance", "--model", str(ckpt),
                         "--in", str(src), "--out", str(dst)]) == 0
        full = training.params_from_checkpoint(training.load_checkpoint(ckpt))
        assert "block0.attn.lin_v_sig.w" in full
        x = wavio.read_wav(src)
        r = mixing.rms(x)
        wavio.write_wav(ref, model.enhance(x * (1.0 / r), full, cfg).astype(np.float64) * r)
        assert dst.read_bytes() == ref.read_bytes()


def stream_cfg(causal):
    # wider than a row tile, with two blocks
    return ARNConfig(width=tensor.TILE_ROWS + 8, frame_in=16, frame_out=8, shift=8,
                     num_blocks=2, causal=causal, dropout=0.0)


def payload_position(path: Path, name: str) -> int:
    """The byte at which tensor ``name``'s payload starts in a checkpoint."""
    blob = path.read_bytes()
    data = blob.index(b"\n", blob.index(b"\nDATA ") + 1) + 1
    for line in blob[:data].decode("ascii").splitlines():
        if line.startswith(f"tensor {name} "):
            return data + 4 * int(line.split()[3])
    raise KeyError(name)


class TestStreamedEnhance:
    """``arn enhance`` reads each block's weight layers from the checkpoint
    when the forward pass reaches them, for every file; the output is byte
    for byte what ``model.enhance`` gives on the full trainable table."""

    @pytest.mark.parametrize("causal", [True, False])
    def test_directory_equals_full_table_enhance(self, tmp_path, causal):
        cfg = stream_cfg(causal)
        params = model.init_params(cfg, np.random.default_rng(2301), dtype=np.float32)
        ckpt = tmp_path / "last.ckpt"
        save_checkpoint(checkpoint_from(params, cfg, AdamState.for_params(params)), ckpt)
        src, dst, ref = tmp_path / "in", tmp_path / "out", tmp_path / "ref.wav"
        src.mkdir()
        rng = np.random.default_rng(2302)
        for j, length in enumerate((2400, 900, 3100)):
            wavio.write_wav(src / f"f{j}.wav",
                            tone(length, 300.0 + 100 * j) + 0.05 * rng.standard_normal(length))
        assert cli.main(["enhance", "--model", str(ckpt),
                         "--in", str(src), "--out", str(dst)]) == 0
        full = training.params_from_checkpoint(training.load_checkpoint(ckpt))
        assert "block0.attn.lin_v_sig.w" in full
        for j in range(3):
            x = wavio.read_wav(src / f"f{j}.wav")
            r = mixing.rms(x)
            wavio.write_wav(ref, model.enhance(x * (1.0 / r), full, cfg).astype(np.float64) * r)
            assert (dst / f"f{j}.wav").read_bytes() == ref.read_bytes()

    def test_evaluate_with_model_prints_full_table_records(self, tmp_path, capsys):
        cfg = stream_cfg(False)
        params = model.init_params(cfg, np.random.default_rng(2303), dtype=np.float32)
        ckpt = tmp_path / "last.ckpt"
        save_checkpoint(checkpoint_from(params, cfg, AdamState.for_params(params)), ckpt)
        rng = np.random.default_rng(2304)
        lines = []
        for j, length in enumerate((2000, 1300)):
            clean, noisy = tmp_path / f"c{j}.wav", tmp_path / f"n{j}.wav"
            wavio.write_wav(clean, tone(length, 350.0 + 50 * j))
            wavio.write_wav(noisy, tone(length, 350.0 + 50 * j)
                            + 0.1 * rng.standard_normal(length))
            lines.append(f"{clean}\t{noisy}\n")
        manifest = tmp_path / "pairs.tsv"
        manifest.write_text("".join(lines))
        full = training.params_from_checkpoint(training.load_checkpoint(ckpt))
        snrs, sis, want = [], [], []
        for line in lines:
            clean_path, noisy_path = line.rstrip("\n").split("\t")
            clean = wavio.read_wav(clean_path)
            other = cli._enhance_signal(wavio.read_wav(noisy_path), full, cfg, noisy_path,
                                        str(ckpt))
            snrs.append(losses.snr(clean, other))
            sis.append(losses.si_snr(clean, other))
            want.append(f"{clean_path}\t{noisy_path}\t{snrs[-1]:.3f}\t{sis[-1]:.3f}")
        want.append(f"mean\t2\t{np.mean(snrs):.3f}\t{np.mean(sis):.3f}")
        assert cli.main(["evaluate", "--model", str(ckpt), "--pairs", str(manifest)]) == 0
        assert capsys.readouterr().out.splitlines() == want

    @pytest.mark.parametrize("change", ["rewritten_same_size", "rewritten_longer",
                                        "nan_in_block1"])
    def test_checkpoint_changed_between_files_exit_4(self, tmp_path, capsys, monkeypatch,
                                                     change):
        # the first file is written, then the checkpoint changes in place:
        # the second file's first layer read refuses it, before its output
        cfg = stream_cfg(True)
        params = model.init_params(cfg, np.random.default_rng(2305), dtype=np.float32)
        ckpt = tmp_path / "model.ckpt"
        save_checkpoint(checkpoint_from(params, cfg), ckpt)
        other = tmp_path / "other.ckpt"
        others = model.init_params(cfg, np.random.default_rng(2306), dtype=np.float32)
        adam = AdamState.for_params(others) if change == "rewritten_longer" else None
        save_checkpoint(checkpoint_from(others, cfg, adam), other)
        src, dst = tmp_path / "in", tmp_path / "out"
        src.mkdir()
        for name in ("a.wav", "b.wav"):
            wavio.write_wav(src / name, tone(1600))

        def edit():
            before = ckpt.stat()
            with open(ckpt, "r+b") as fh:
                if change == "nan_in_block1":
                    fh.seek(payload_position(ckpt, "block1.ff.w") + 4 * 100)
                    fh.write(np.float32(np.nan).tobytes())
                else:
                    fh.write(other.read_bytes())
            if change == "nan_in_block1":
                # size and modification time as at the load: only the
                # re-read's own check can find the NaN
                os.utime(ckpt, ns=(before.st_atime_ns, before.st_mtime_ns))
            elif change == "rewritten_same_size":
                # a later modification time, whatever the file system's
                # timestamp granularity
                os.utime(ckpt, ns=(before.st_atime_ns, before.st_mtime_ns + 10**9))
            assert (ckpt.stat().st_size == before.st_size) == (change != "rewritten_longer")

        write_wav = wavio.write_wav

        def write_then_edit(path, *args, **kwargs):
            write_wav(path, *args, **kwargs)
            edit()
        monkeypatch.setattr(wavio, "write_wav", write_then_edit)
        assert cli.main(["enhance", "--model", str(ckpt),
                         "--in", str(src), "--out", str(dst)]) == 4
        err = capsys.readouterr().err
        assert str(ckpt) in err and "changed after it was loaded" in err
        if change == "nan_in_block1":
            assert "block1.ff.w: non-finite values" in err
        assert (dst / "a.wav").exists() and not (dst / "b.wav").exists()


def bad_weight_ckpt(tmp_path, name, value):
    """A two-block checkpoint with ``value`` in one entry of tensor ``name``."""
    cfg = ARNConfig(width=16, frame_in=16, frame_out=8, shift=8, num_blocks=2,
                    causal=True, dropout=0.0)
    ckpt = checkpoint_from(model.init_params(cfg, np.random.default_rng(2601),
                                             dtype=np.float32), cfg)
    ckpt.tensors[name].reshape(-1)[5] = value
    path = tmp_path / "bad.ckpt"
    save_checkpoint(ckpt, path)
    return path


def pairs_manifest(tmp_path):
    """A manifest of two (clean, noisy) tone pairs."""
    lines = []
    for j in range(2):
        clean, noisy = tmp_path / f"c{j}.wav", tmp_path / f"n{j}.wav"
        wavio.write_wav(clean, tone(1600, 300.0 + 100 * j))
        wavio.write_wav(noisy, tone(1600, 300.0 + 100 * j) + 0.05 * tone(1600, 1234.0))
        lines.append(f"{clean}\t{noisy}\n")
    manifest = tmp_path / "pairs.tsv"
    manifest.write_text("".join(lines))
    return manifest


class TestBadWeights:
    """A weight that is not finite is refused when the model first reads
    it; a checkpoint whose finite weights overflow the network is
    refused at the network's output. Either is exit 4 and one ``error:``
    line naming the checkpoint, before any output or score."""

    def test_evaluate_refuses_nan_block_weight(self, tmp_path, capsys):
        ckpt = bad_weight_ckpt(tmp_path, "block1.ff.w", np.nan)
        manifest = pairs_manifest(tmp_path)
        assert cli.main(["evaluate", "--model", str(ckpt), "--pairs", str(manifest)]) == 4
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: {manifest}, line 1 (") and err.count("\n") == 1
        assert err.endswith(f": {ckpt}: block1.ff.w: non-finite values\n")

    @pytest.mark.parametrize("inputs", ["none", "silent_and_empty"])
    def test_run_that_enhances_nothing_reads_no_block_weight(self, tmp_path, capsys,
                                                             inputs):
        # no WAV reaches the model, so no block weight is read, and the NaN
        # in one goes unseen
        ckpt = bad_weight_ckpt(tmp_path, "block0.lstm.w_fh", np.nan)
        src, dst = tmp_path / "in", tmp_path / "out"
        src.mkdir()
        if inputs == "silent_and_empty":
            wavio.write_wav(src / "silent.wav", np.zeros(1600))
            wavio.write_wav(src / "empty.wav", np.zeros(0))
        assert cli.main(["enhance", "--model", str(ckpt),
                         "--in", str(src), "--out", str(dst)]) == 0
        assert capsys.readouterr().err == ""
        for path in src.iterdir():
            assert wavio.read_wav(dst / path.name).tobytes() == \
                wavio.read_wav(path).tobytes()

    @pytest.mark.parametrize("name", ["input_proj.b", "output_proj.w"])
    def test_projection_read_when_the_model_runs(self, tmp_path, capsys, name):
        # the projections are streamed as the block weights are: a run of
        # only silent and empty WAVs reads neither, and one that reaches the
        # model refuses a NaN in either at its first read, before the
        # file's output is written
        ckpt = bad_weight_ckpt(tmp_path, name, np.nan)
        src, dst = tmp_path / "in", tmp_path / "out"
        src.mkdir()
        wavio.write_wav(src / "a_silent.wav", np.zeros(1600))
        wavio.write_wav(src / "b_empty.wav", np.zeros(0))
        argv = ["enhance", "--model", str(ckpt), "--in", str(src), "--out", str(dst)]
        assert cli.main(argv) == 0
        assert capsys.readouterr().err == ""
        wavio.write_wav(src / "c_tone.wav", tone(1600))
        shutil.rmtree(dst)
        assert cli.main(argv) == 4
        assert capsys.readouterr().err == f"error: {ckpt}: {name}: non-finite values\n"
        assert sorted(p.name for p in dst.iterdir()) == ["a_silent.wav", "b_empty.wav"]

    @pytest.mark.parametrize("command", ["enhance", "evaluate"])
    def test_finite_weights_that_overflow_exit_4(self, tmp_path, capsys, command):
        # every stored value is finite, so the checkpoint loads; the first
        # input then enhances to non-finite values. Numpy's warnings on the
        # way are not printed
        ckpt = bad_weight_ckpt(tmp_path, "output_proj.w", 3e38)
        manifest = pairs_manifest(tmp_path)
        if command == "enhance":
            src, dst = tmp_path / "in", tmp_path / "out"
            src.mkdir()
            for j in range(2):
                (src / f"n{j}.wav").write_bytes((tmp_path / f"n{j}.wav").read_bytes())
            argv = ["enhance", "--model", str(ckpt), "--in", str(src), "--out", str(dst)]
            first = src / "n0.wav"
        else:
            argv = ["evaluate", "--model", str(ckpt), "--pairs", str(manifest)]
            first = tmp_path / "n0.wav"
        assert cli.main(argv) == 4
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert err.endswith(f"{ckpt}: enhancing {first} gives non-finite values: "
                            "the checkpoint's weights overflow the network\n")
        if command == "enhance":
            assert list(dst.iterdir()) == []

    def test_finite_weights_that_overflow_inside_print_no_warning(self, tmp_path, capsys):
        # 1e20 overflows the layer norms' variance but not the output: exit
        # 0, finite audio, and nothing on stderr
        ckpt = bad_weight_ckpt(tmp_path, "input_proj.w", 1e20)
        src, out = tmp_path / "in.wav", tmp_path / "out.wav"
        wavio.write_wav(src, tone(1600))
        assert cli.main(["enhance", "--model", str(ckpt),
                         "--in", str(src), "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        assert np.isfinite(wavio.read_wav(out)).all()


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

    @pytest.mark.parametrize("empty", ["speech", "noise"])
    def test_empty_input_named_exit_1_without_output(self, tmp_path, capsys, empty):
        # an empty noise file was reported as an empty speech chunk
        files = {role: tmp_path / f"{role}.wav" for role in ("speech", "noise")}
        wavio.write_wav(files["speech"], tone(8000))
        wavio.write_wav(files["noise"], 0.1 * np.random.default_rng(2).standard_normal(8000))
        wavio.write_wav(files[empty], np.zeros(0))
        prefix = tmp_path / "pair"
        assert cli.main(["mix", "--speech", str(files["speech"]), "--noise", str(files["noise"]),
                         "--snr", "0", "--out", str(prefix)]) == 1
        assert capsys.readouterr().err == f"error: {empty} file {files[empty]} has no samples\n"
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

    def test_manifest_not_utf8_exit_2_naming_the_line(self, tmp_path, capsys):
        # the bad byte is on line 2; a codec error alone named neither
        manifest = tmp_path / "pairs.tsv"
        manifest.write_bytes(b"a.wav\tb.wav\n\xff\xfe\tc.wav\n")
        assert cli.main(["evaluate", "--pairs", str(manifest)]) == 2
        captured = capsys.readouterr()
        assert captured.err == (f"error: {manifest}, line 2: not UTF-8 text "
                                "(invalid start byte at byte 12)\n")
        assert captured.out == ""

    def test_index_not_utf8_exit_2_before_output(self, tmp_path, capsys):
        speech_idx, noise_idx = write_corpus(tmp_path)
        noise_idx.write_bytes(noise_idx.read_bytes() + b"n2\tnoise/n\xe9.wav\t6400\n")
        config = tmp_path / "config.json"
        config.write_text(json.dumps(tiny_train_config()))
        out_dir = tmp_path / "run"
        assert cli.main(["train", "--config", str(config), "--speech-index", str(speech_idx),
                         "--noise-index", str(noise_idx), "--out", str(out_dir)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {noise_idx}, line 3: not UTF-8 text") and err.count("\n") == 1
        assert not out_dir.exists()

    def test_repeated_index_id_exit_2_before_output(self, tmp_path, capsys):
        speech_idx, noise_idx = write_corpus(tmp_path)
        speech_idx.write_text("s0\tspeech/s0.wav\t3200\ns0\tspeech/s1.wav\t3200\n")
        config = tmp_path / "config.json"
        config.write_text(json.dumps(tiny_train_config()))
        out_dir = tmp_path / "run"
        assert cli.main(["train", "--config", str(config), "--speech-index", str(speech_idx),
                         "--noise-index", str(noise_idx), "--out", str(out_dir)]) == 2
        err = capsys.readouterr().err
        assert f"{speech_idx}: id 's0' is listed twice, on lines 1 and 2" in err
        assert "Traceback" not in err
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

    @pytest.mark.parametrize("line, bad", [
        (b"config.shift=8", b"config.shift=4.5"),
        (b"config.width=8", b"config.width=8.0"),
        (b"config.causal=true", b"config.causal=1"),
        (b"config.num_blocks=1", b"config.num_blocks=true"),
        (b"meta.epoch=0", b"meta.epoch=0\nmeta.epoch=7"),
    ])
    def test_bad_header_key_exit_4_without_output(self, tmp_path, capsys, trained_ckpt,
                                                  line, bad):
        # a config value of the wrong type, or a key listed twice
        head, sep, payload = trained_ckpt.read_bytes().partition(b"\nDATA ")
        lines = head.split(b"\n")
        lines[lines.index(line)] = bad
        path = tmp_path / "header.ckpt"
        path.write_bytes(b"\n".join(lines) + sep + payload)
        src = tmp_path / "in.wav"
        wavio.write_wav(src, tone(1000))
        out = tmp_path / "o.wav"
        assert cli.main(["enhance", "--model", str(path), "--in", str(src),
                         "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert line.partition(b"=")[0].decode().partition(".")[2] in err
        assert "Traceback" not in err
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


def run_module(*args):
    """``python -m arn`` with ``args`` in a fresh interpreter."""
    src = Path(cli.__file__).resolve().parents[1]
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "arn", *args], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path}, timeout=120)


def test_module_exit_codes_at_process_boundary(tmp_path):
    # ``python -m arn`` runs ``cli.entrypoint``, whose SystemExit carries the
    # code that ``main`` returns
    helped = run_module("mix", "--help")
    assert helped.returncode == 0, helped.stderr
    assert "--snr" in helped.stdout
    bare = run_module()
    assert bare.returncode == 2
    assert "usage: arn" in bare.stderr and bare.stdout == ""
    not_ckpt = tmp_path / "model.ckpt"
    not_ckpt.write_bytes(b"not a checkpoint\n")
    refused = run_module("enhance", "--model", str(not_ckpt),
                         "--in", str(tmp_path / "in.wav"), "--out", str(tmp_path / "out.wav"))
    assert refused.returncode == 4
    assert refused.stderr.startswith("error: ") and refused.stderr.count("\n") == 1, refused.stderr
    assert refused.stdout == "" and not (tmp_path / "out.wav").exists()


def out_of_memory(fail_at):
    """A stand-in for ``model.enhance`` whose ``fail_at``-th call (from 1)
    raises ``MemoryError`` with numpy's message, with no large allocation;
    the others return their input."""
    calls = []

    def enhance(x, params, cfg):
        calls.append(x.size)
        if len(calls) == fail_at:
            raise MemoryError("Unable to allocate 586. MiB for an array with shape "
                              "(150000, 1024) and data type float32")
        return x.astype(np.float32)
    return enhance


class TestOutOfMemory:
    """Running out of memory on an input is one error line naming the file
    and its length in seconds, with exit 1, and no output for that file."""

    def test_enhance_file(self, tmp_path, trained_ckpt, capsys, monkeypatch):
        monkeypatch.setattr(model, "enhance", out_of_memory(1))
        src, out = tmp_path / "long.wav", tmp_path / "out.wav"
        wavio.write_wav(src, tone(24000))
        assert cli.main(["enhance", "--model", str(trained_ckpt), "--in", str(src),
                         "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: out of memory")
        assert f"{src} (1.50 s of audio)" in err and "Traceback" not in err
        assert not out.exists()

    def test_enhance_directory_stops_at_the_file(self, tmp_path, trained_ckpt, capsys,
                                                 monkeypatch):
        # files run in sorted order: the first is written, the second fails,
        # the third is never read
        monkeypatch.setattr(model, "enhance", out_of_memory(2))
        src, dst = tmp_path / "in", tmp_path / "out"
        src.mkdir()
        for name, length in (("a.wav", 1600), ("b.wav", 8000), ("c.wav", 1600)):
            wavio.write_wav(src / name, tone(length))
        assert cli.main(["enhance", "--model", str(trained_ckpt), "--in", str(src),
                         "--out", str(dst)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"{src / 'b.wav'} (0.50 s of audio)" in err
        assert sorted(p.name for p in dst.iterdir()) == ["a.wav"]

    def test_evaluate_with_model(self, tmp_path, trained_ckpt, capsys, monkeypatch):
        monkeypatch.setattr(model, "enhance", out_of_memory(1))
        clean, noisy = tmp_path / "clean.wav", tmp_path / "noisy.wav"
        wavio.write_wav(clean, tone(3200))
        wavio.write_wav(noisy, tone(3200) + 0.05)
        manifest = tmp_path / "pairs.tsv"
        manifest.write_text(f"{clean}\t{noisy}\n")
        assert cli.main(["evaluate", "--model", str(trained_ckpt),
                         "--pairs", str(manifest)]) == 1
        captured = capsys.readouterr()
        assert captured.err.count("\n") == 1 and captured.out == ""
        assert f"{manifest}, line 1 ({clean}, {noisy}):" in captured.err
        assert f"out of memory enhancing {noisy} (0.20 s of audio)" in captured.err


class TestEvaluatePairErrors:
    """An error while reading, enhancing or scoring a pair names the
    manifest, the line and both paths, and keeps its exit code."""

    def run(self, tmp_path, capsys, clean, other, code):
        manifest = tmp_path / "pairs.tsv"
        manifest.write_text(f"{clean}\t{clean}\n\n{clean}\t{other}\n")
        assert cli.main(["evaluate", "--pairs", str(manifest)]) == code
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {manifest}, line 3 ({clean}, {other}): ")
        assert captured.err.count("\n") == 1
        # the first pair was scored before the error
        assert len(captured.out.splitlines()) == 1
        return captured.err

    def test_silent_clean_file(self, tmp_path, capsys):
        silent, other = tmp_path / "silent.wav", tmp_path / "other.wav"
        wavio.write_wav(silent, np.zeros(1000))
        wavio.write_wav(other, tone(1000))
        manifest = tmp_path / "pairs.tsv"
        manifest.write_text(f"{other}\t{other}\n{silent}\t{other}\n")
        assert cli.main(["evaluate", "--pairs", str(manifest)]) == 1
        err = capsys.readouterr().err
        assert err == (f"error: {manifest}, line 2 ({silent}, {other}): "
                       "SNR needs a reference with nonzero energy\n")

    def test_unequal_lengths(self, tmp_path, capsys):
        clean, short = tmp_path / "clean.wav", tmp_path / "short.wav"
        wavio.write_wav(clean, tone(100))
        wavio.write_wav(short, tone(50))
        err = self.run(tmp_path, capsys, clean, short, 1)
        assert err.endswith("signal lengths differ: [50, 100]\n")

    def test_malformed_wav_keeps_exit_3(self, tmp_path, capsys):
        clean, bad = tmp_path / "clean.wav", tmp_path / "bad.wav"
        wavio.write_wav(clean, tone(100))
        bad.write_bytes(b"RIFFxxxxJUNK")
        self.run(tmp_path, capsys, clean, bad, 3)

    def test_missing_file_keeps_exit_1(self, tmp_path, capsys):
        clean = tmp_path / "clean.wav"
        wavio.write_wav(clean, tone(100))
        err = self.run(tmp_path, capsys, clean, tmp_path / "missing.wav", 1)
        assert "missing.wav" in err


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
        ("train", "validate_every", 3),  # more than the 2 epochs: nothing validated
        ("mixing", "snr_choices", 5),
        ("mixing", "target_len", 1.5),
        ("mixing", "trim_db", "x"),
        ("mixing", "trim_db", 3.0),
        ("mixing", "trim_db", float("nan")),  # written as NaN, read back
        ("mixing", "val_pairs", 2.0),
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
        model_cfg, train_cfg, mix_opts, val_pairs = cli._load_train_config(path)
        assert model_cfg.width == 1024 and train_cfg.epochs >= 100
        assert mix_opts["target_len"] == 64000
