"""Training loop, schedule, validation selection, checkpoint persistence."""

import math
import re

import numpy as np
import pytest

from arn import model, training
from arn.losses import DB_CAP, si_snr
from arn.model import ARNConfig, ConfigurationError
from arn.optim import AdamState
from arn.training import (
    CheckpointFormatError,
    CheckpointShapeError,
    CheckpointTruncatedError,
    DivergenceError,
    TrainConfig,
    checkpoint_from,
    load_checkpoint,
    lr_schedule,
    params_from_checkpoint,
    save_checkpoint,
    train_epoch,
    validate,
)

from test_model import zero_params


def toy_model_cfg(**overrides):
    base = dict(width=8, frame_in=8, frame_out=8, shift=8, num_blocks=1,
                causal=True, dropout=0.0)
    return ARNConfig(**{**base, **overrides})


class FixedMixer:
    """Serves a fixed pool of (noisy, clean) pairs."""

    def __init__(self, pairs):
        self.pairs = pairs

    def sample(self, rng, count):
        return [self.pairs[int(rng.integers(len(self.pairs)))]
                for _ in range(count)]


def fixed_pair(length=64, seed=0):
    rng = np.random.default_rng(seed)
    s = np.sin(2 * np.pi * 440 * np.arange(length) / 16000.0)
    x = s + 0.5 * rng.standard_normal(length)
    x /= np.sqrt(np.mean(x * x))
    return x, s


class TestLrSchedule:
    def test_endpoint_values(self):
        cfg = TrainConfig()
        assert lr_schedule(1, cfg) == 2e-4
        assert lr_schedule(33, cfg) == 2e-4
        assert lr_schedule(100, cfg) == 2e-5

    def test_monotone_non_increasing(self):
        cfg = TrainConfig()
        values = [lr_schedule(e, cfg) for e in range(1, 101)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_continuous_at_knee(self):
        cfg = TrainConfig(epochs=50, lr_knee=10)
        just_after = lr_schedule(11, cfg)
        assert just_after <= cfg.lr_hi
        assert just_after / cfg.lr_hi > (cfg.lr_lo / cfg.lr_hi) ** (1 / 40) - 1e-12

    def test_out_of_range_rejected(self):
        cfg = TrainConfig()
        for epoch in (0, 101, -3):
            with pytest.raises(ValueError):
                lr_schedule(epoch, cfg)

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            TrainConfig(lr_hi=1e-5, lr_lo=2e-4)
        with pytest.raises(ConfigurationError):
            TrainConfig(epochs=10, lr_knee=10)
        with pytest.raises(ConfigurationError):
            TrainConfig(loss="l1")
        for name in ("epochs", "steps_per_epoch", "batch", "validate_every"):
            with pytest.raises(ConfigurationError, match=name):
                TrainConfig(**{name: 0})
        with pytest.raises(ConfigurationError, match="seed"):
            TrainConfig(seed=-1)


class TestTrainEpoch:
    def test_loss_descends_on_fixed_utterance(self):
        cfg = toy_model_cfg(width=32)
        params = model.init_params(cfg, np.random.default_rng(0), np.float64)
        pair = fixed_pair()
        mixer = FixedMixer([pair])
        tc = TrainConfig(epochs=2, steps_per_epoch=50, batch=1, lr_knee=1, seed=0)
        from arn.losses import mse_loss
        initial = mse_loss(pair[1],
                           model.arn_forward(pair[0], params, cfg)).item()
        adam = AdamState.for_params(params)
        epoch_loss = train_epoch(params, cfg, adam, tc, mixer, epoch=1)
        assert epoch_loss < initial

    def test_replay_is_deterministic(self):
        cfg = toy_model_cfg()
        losses_seen = []
        for _ in range(2):
            params = model.init_params(cfg, np.random.default_rng(2), np.float64)
            mixer = FixedMixer([fixed_pair(seed=3), fixed_pair(seed=4)])
            tc = TrainConfig(epochs=2, steps_per_epoch=8, batch=2, lr_knee=1, seed=7)
            adam = AdamState.for_params(params)
            trace = []
            train_epoch(params, cfg, adam, tc, mixer, epoch=1,
                        log=lambda e, s, l, r: trace.append(l))
            losses_seen.append(trace)
        assert losses_seen[0] == losses_seen[1]

    def test_divergence_detected(self):
        cfg = toy_model_cfg()
        params = model.init_params(cfg, np.random.default_rng(5), np.float64)
        params["input_proj.w"].data[0, 0] = np.inf
        mixer = FixedMixer([fixed_pair()])
        tc = TrainConfig(epochs=2, steps_per_epoch=2, batch=1, lr_knee=1)
        adam = AdamState.for_params(params)
        with np.errstate(invalid="ignore"):  # the injected inf propagates as nan
            with pytest.raises(DivergenceError):
                train_epoch(params, cfg, adam, tc, mixer, epoch=1)


class TestValidateAndSelect:
    def test_oracle_model_scores_at_cap(self, monkeypatch):
        rng = np.random.default_rng(6)
        s = rng.standard_normal(100)
        monkeypatch.setattr(model, "enhance", lambda x, params, cfg: x)
        assert validate({}, toy_model_cfg(), [(s, s)]) == DB_CAP

    def test_two_runs_identical(self):
        cfg = toy_model_cfg()
        params = model.init_params(cfg, np.random.default_rng(7), np.float32)
        pairs = [fixed_pair(seed=8), fixed_pair(seed=9)]
        assert validate(params, cfg, pairs) == validate(params, cfg, pairs)

    def test_mean_of_known_per_utterance_scores(self, monkeypatch):
        rng = np.random.default_rng(10)

        def with_si_snr(s, target_db):
            s0 = s - s.mean()
            u = rng.standard_normal(s.size)
            u -= u.mean()
            u -= (u @ s0) / (s0 @ s0) * s0
            u *= np.sqrt((s0 @ s0) / (u @ u) * 10.0 ** (-target_db / 10.0))
            return s0 + u

        s1, s2 = rng.standard_normal(400), rng.standard_normal(400)
        fakes = {s1.tobytes(): with_si_snr(s1, 3.0),
                 s2.tobytes(): with_si_snr(s2, 5.0)}
        assert si_snr(s1, fakes[s1.tobytes()]) == pytest.approx(3.0, abs=1e-9)
        monkeypatch.setattr(model, "enhance", lambda x, params, cfg: fakes[x.tobytes()])
        score = validate({}, toy_model_cfg(), [(s1, s1), (s2, s2)])
        assert score == pytest.approx(4.0, abs=1e-9)

    def test_zero_parameter_model_scores_floor(self):
        # all-zero weights enhance every input to silence: the worst score
        cfg = toy_model_cfg()
        params = zero_params(cfg, np.float32)
        pairs = [fixed_pair(seed=11), fixed_pair(seed=12)]
        assert not model.enhance(pairs[0][0], params, cfg).any()
        assert validate(params, cfg, pairs) == -DB_CAP

    def test_empty_set_rejected(self):
        with pytest.raises(ConfigurationError):
            validate({}, toy_model_cfg(), [])


def _relay(blob: bytes, edit) -> bytes:
    """A checkpoint with ``edit(lines, payload)`` applied to its header
    lines (the DATA line last) and its payload, which it returns."""
    head, sep, rest = blob.partition(b"\nDATA ")
    data_line, _, payload = rest.partition(b"\n")
    lines = head.split(b"\n") + [b"DATA " + data_line]
    payload = edit(lines, payload)
    return b"\n".join(lines) + b"\n" + payload


def _tensor_lines(lines):
    return [i for i, line in enumerate(lines) if line.startswith(b"tensor ")]


def _gap_after_first(lines, payload):
    # 16 floats after the first tensor's payload, every later offset and
    # DATA moved past them
    first = _tensor_lines(lines)[0]
    size = int(lines[first].split()[4])
    for i in _tensor_lines(lines)[1:]:
        parts = lines[i].split()
        parts[3] = str(int(parts[3]) + 16).encode()
        lines[i] = b" ".join(parts)
    lines[-1] = b"DATA %d" % (int(lines[-1].split()[1]) + 16)
    return payload[:4 * size] + bytes(64) + payload[4 * size:]


def _second_back_one(lines, payload):
    # the second tensor starts one float inside the first
    second = _tensor_lines(lines)[1]
    parts = lines[second].split()
    parts[3] = str(int(parts[3]) - 1).encode()
    lines[second] = b" ".join(parts)
    return payload


def _swap_first_two(lines, payload):
    # the first two entries listed in the other order, each with its offset
    a, b = _tensor_lines(lines)[:2]
    lines[a], lines[b] = lines[b], lines[a]
    return payload


def _data_count(delta):
    def edit(lines, payload):
        lines[-1] = b"DATA %d" % (int(lines[-1].split()[1]) + delta)
        return payload + bytes(4 * max(delta, 0))
    return edit


# (id, edit, what the refusal names): directories the payload does not
# fill contiguously in their own order, each with the floats it declares
# present in the file
NON_CONTIGUOUS = [
    ("gap", _gap_after_first, "payload starts at float"),
    ("goes_back", _second_back_one, "payload starts at float"),
    ("out_of_order", _swap_first_two, "payload starts at float"),
    ("data_above", _data_count(1), "DATA line declares"),
    ("data_below", _data_count(-1), "DATA line declares"),
]


class TestCheckpoint:
    def make(self, seed=0, causal=True, with_adam=False):
        cfg = toy_model_cfg(num_blocks=2, causal=causal)
        params = model.init_params(cfg, np.random.default_rng(seed), np.float32)
        adam = None
        if with_adam:
            adam = AdamState.for_params(params)
            adam.step_count = 17
            for k in adam.m:
                adam.m[k] += 0.25
        return cfg, params, adam

    def test_round_trip_bit_identical(self, tmp_path):
        cfg, params, adam = self.make(seed=12, with_adam=True)
        ckpt = checkpoint_from(params, cfg, adam, best_score=4.5, epoch=9)
        path = tmp_path / "model.ckpt"
        save_checkpoint(ckpt, path)
        loaded = load_checkpoint(path)
        assert loaded.model_cfg == cfg
        assert loaded.epoch == 9 and loaded.best_score == 4.5
        assert set(loaded.tensors) == set(ckpt.tensors)
        for k, arr in ckpt.tensors.items():
            assert loaded.tensors[k].tobytes() == arr.tobytes()
        assert b"\ntensor cache." not in path.read_bytes()
        assert loaded.adam.step_count == 17
        for k in adam.m:
            assert loaded.adam.m[k].tobytes() == adam.m[k].astype("<f4").tobytes()

    def test_file_is_header_then_tensor_bytes_in_directory_order(self, tmp_path):
        cfg, params, adam = self.make(seed=25, with_adam=True)
        ckpt = checkpoint_from(params, cfg, adam, best_score=1.5, epoch=3)
        path = tmp_path / "model.ckpt"
        save_checkpoint(ckpt, path)
        blob = path.read_bytes()
        data_end = blob.index(b"\n", blob.index(b"\nDATA ") + 1) + 1
        entries = ([(k, v) for k, v in ckpt.tensors.items()]
                   + [(f"adam.m.{k}", v) for k, v in adam.m.items()]
                   + [(f"adam.v.{k}", v) for k, v in adam.v.items()])
        listed = [line.split()[1] for line in blob[:data_end].decode("ascii").splitlines()
                  if line.startswith("tensor ")]
        assert listed == [name for name, _ in entries]
        payload = b"".join(np.ascontiguousarray(v, dtype="<f4").tobytes() for _, v in entries)
        assert blob == blob[:data_end] + payload

    def test_loaded_arrays_are_aligned_writable_float32(self, tmp_path):
        cfg, params, adam = self.make(seed=26, with_adam=True)
        path = tmp_path / "model.ckpt"
        save_checkpoint(checkpoint_from(params, cfg, adam), path)
        loaded = load_checkpoint(path)
        arrays = [*loaded.tensors.values(), *loaded.adam.m.values(), *loaded.adam.v.values()]
        assert len(arrays) == 3 * len(params)
        block = arrays[0].base
        for arr in arrays:
            assert arr.dtype == np.float32
            assert arr.flags.c_contiguous and arr.flags.aligned and arr.flags.writeable
            # views of one block, each on its own 64-byte line
            assert arr.base is block
            assert (arr.ctypes.data - block.ctypes.data) % 64 == 0

    def test_params_alias_float32_arrays(self, tmp_path):
        cfg, params, _ = self.make(seed=27)
        path = tmp_path / "model.ckpt"
        save_checkpoint(checkpoint_from(params, cfg), path)
        loaded = load_checkpoint(path)
        restored = params_from_checkpoint(loaded)
        for name, arr in loaded.tensors.items():
            assert restored[name].data.dtype == np.float32
            assert np.shares_memory(restored[name].data, arr)

    def test_file_cut_inside_a_tensor_rejected(self, tmp_path):
        cfg, params, _ = self.make(seed=28)
        ckpt = checkpoint_from(params, cfg)
        path = tmp_path / "model.ckpt"
        save_checkpoint(ckpt, path)
        blob = path.read_bytes()
        line = re.search(rb"\ntensor block0\.ff\.w \S+ (\d+) (\d+)\n", blob)
        offset, count = int(line.group(1)), int(line.group(2))
        data_start = blob.index(b"\n", blob.index(b"\nDATA ") + 1) + 1
        path.write_bytes(blob[:data_start + 4 * (offset + count // 2)])
        with pytest.raises(CheckpointTruncatedError):
            load_checkpoint(path)

    def test_trailing_bytes_after_payload_ignored(self, tmp_path):
        cfg, params, _ = self.make(seed=29)
        ckpt = checkpoint_from(params, cfg)
        path = tmp_path / "model.ckpt"
        save_checkpoint(ckpt, path)
        path.write_bytes(path.read_bytes() + b"\x00trailing bytes\n")
        loaded = load_checkpoint(path)
        for k, arr in ckpt.tensors.items():
            assert loaded.tensors[k].tobytes() == arr.tobytes()

    def test_truncated_payload_rejected(self, tmp_path):
        cfg, params, _ = self.make(seed=13)
        path = tmp_path / "model.ckpt"
        save_checkpoint(checkpoint_from(params, cfg), path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-64])
        with pytest.raises(CheckpointTruncatedError):
            load_checkpoint(path)

    def test_corrupt_header_rejected(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"not a checkpoint at all")
        with pytest.raises(CheckpointFormatError):
            load_checkpoint(path)

    @pytest.mark.parametrize("cut, message", [
        (lambda blob: blob[:blob.index(b"\nDATA ") + 1], "missing magic or DATA marker"),
        (lambda blob: blob[:blob.index(b"\n", blob.index(b"\nDATA ") + 1)],
         "unterminated DATA line"),
    ])
    def test_header_without_data_line_rejected(self, tmp_path, cut, message):
        cfg, params, _ = self.make(seed=30)
        path = tmp_path / "model.ckpt"
        save_checkpoint(checkpoint_from(params, cfg), path)
        path.write_bytes(cut(path.read_bytes()))
        with pytest.raises(CheckpointFormatError, match=message):
            load_checkpoint(path)

    def test_wrong_version_rejected(self, tmp_path):
        cfg, params, _ = self.make(seed=14)
        path = tmp_path / "model.ckpt"
        save_checkpoint(checkpoint_from(params, cfg), path)
        blob = path.read_bytes().replace(b"ARNCKPT 1", b"ARNCKPT 9", 1)
        path.write_bytes(blob)
        with pytest.raises(CheckpointFormatError):
            load_checkpoint(path)

    @pytest.mark.parametrize("line, bad", [
        (b"ARNCKPT 1", b"ARNCKPT x"),
        (b"meta.epoch=0", b"meta.epoch=zz"),
        (b"config.width=8", b"config.width=eight"),
        (rb"DATA \d+", b"DATA many"),
        (b"meta.epoch=0", b"meta.epoch=nan"),
        (b"meta.epoch=0", b"meta.epoch=inf"),
    ])
    def test_unparseable_header_value_rejected(self, tmp_path, line, bad):
        cfg, params, _ = self.make(seed=20)
        path = tmp_path / "model.ckpt"
        save_checkpoint(checkpoint_from(params, cfg), path)
        blob, n = re.subn(line, bad, path.read_bytes(), count=1)
        assert n == 1
        path.write_bytes(blob)
        with pytest.raises(CheckpointFormatError, match=re.escape(bad.decode())):
            load_checkpoint(path)

    @pytest.mark.parametrize("name", ["input_proj.b", "block1.lstm.w_fh",
                                      "adam.m.output_proj.w", "adam.v.block0.ff.b"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_tensor_rejected(self, tmp_path, name, value):
        cfg, params, adam = self.make(seed=21, with_adam=True)
        ckpt = checkpoint_from(params, cfg, adam)
        if name.startswith("adam."):
            moments = adam.m if name.startswith("adam.m.") else adam.v
            target = moments[name[len("adam.m."):]]
        else:
            target = ckpt.tensors[name]
        target.reshape(-1)[target.size // 2] = value
        path = tmp_path / "model.ckpt"
        save_checkpoint(ckpt, path)
        with pytest.raises(CheckpointFormatError, match=re.escape(name)):
            load_checkpoint(path)

    def test_shape_mismatch_rejected(self, tmp_path):
        cfg, params, _ = self.make(seed=15)
        ckpt = checkpoint_from(params, cfg)
        ckpt.tensors["input_proj.b"] = ckpt.tensors["input_proj.b"][:-1]
        path = tmp_path / "model.ckpt"
        save_checkpoint(ckpt, path)
        with pytest.raises(CheckpointShapeError):
            params_from_checkpoint(load_checkpoint(path))

    def test_missing_tensor_rejected(self, tmp_path):
        cfg, params, _ = self.make(seed=16)
        ckpt = checkpoint_from(params, cfg)
        del ckpt.tensors["output_proj.b"]
        path = tmp_path / "model.ckpt"
        save_checkpoint(ckpt, path)
        with pytest.raises(CheckpointShapeError):
            params_from_checkpoint(load_checkpoint(path))

    def test_enhance_identical_across_round_trip(self, tmp_path):
        cfg, params, _ = self.make(seed=17, causal=False)
        x = np.random.default_rng(18).standard_normal(96)
        before = model.enhance(x, params, cfg)
        path = tmp_path / "model.ckpt"
        save_checkpoint(checkpoint_from(params, cfg), path)
        loaded = load_checkpoint(path)
        after = model.enhance(x, params_from_checkpoint(loaded), cfg)
        assert before.tobytes() == after.tobytes()

    def test_stored_value_gate_entries_ignored(self, tmp_path):
        # older checkpoints carry a copy of each block's value gate as a
        # cache.* tensor after the trainable ones; the loader skips it (here
        # a wrong value) because the gate is recomputed from the parameters
        cfg, params, _ = self.make(seed=23)
        x = np.random.default_rng(24).standard_normal(96)
        before = model.enhance(x, params, cfg)
        ckpt = checkpoint_from(params, cfg)
        for i in range(cfg.num_blocks):
            ckpt.tensors[f"cache.block{i}.attn.v_gate"] = np.full(
                (1, cfg.width), 0.5, dtype="<f4")
        path = tmp_path / "old.ckpt"
        save_checkpoint(ckpt, path)
        assert b"\ntensor cache.block0.attn.v_gate 1x8 " in path.read_bytes()
        loaded = load_checkpoint(path)
        assert set(loaded.tensors) == set(params)
        after = model.enhance(x, params_from_checkpoint(loaded), loaded.model_cfg)
        assert before.tobytes() == after.tobytes()


    def test_parent_layout_with_adam_constants_loads(self, tmp_path):
        # files written before the Adam constants left the header list them
        # after the step count, and may hold cache.* entries; both are
        # ignored
        cfg, params, adam = self.make(seed=31, with_adam=True)
        ckpt = checkpoint_from(params, cfg, adam, best_score=2.25, epoch=5)
        ckpt.tensors["cache.block0.attn.v_gate"] = np.full((1, cfg.width), 0.5,
                                                           dtype="<f4")
        path = tmp_path / "last.ckpt"
        save_checkpoint(ckpt, path)
        blob = path.read_bytes()
        assert b"meta.adam.beta" not in blob and b"meta.adam.epsilon" not in blob
        step = b"meta.adam.step_count=17\n"
        path.write_bytes(blob.replace(step, step + b"meta.adam.beta1=0.9\n"
                                      b"meta.adam.beta2=0.999\n"
                                      b"meta.adam.epsilon=1e-08\n", 1))
        loaded = load_checkpoint(path)
        assert (loaded.epoch, loaded.best_score, loaded.adam.step_count) == (5, 2.25, 17)
        assert set(loaded.tensors) == set(params)
        for k, p in params.items():
            assert loaded.tensors[k].tobytes() == p.data.astype("<f4").tobytes()
            assert loaded.adam.m[k].tobytes() == adam.m[k].astype("<f4").tobytes()
            assert loaded.adam.v[k].tobytes() == adam.v[k].astype("<f4").tobytes()

    @pytest.mark.parametrize("edit, message", [case[1:] for case in NON_CONTIGUOUS],
                             ids=[case[0] for case in NON_CONTIGUOUS])
    @pytest.mark.parametrize("with_adam", [False, True])
    def test_non_contiguous_directory_rejected(self, tmp_path, edit, message, with_adam):
        cfg, params, adam = self.make(seed=32, with_adam=with_adam)
        path = tmp_path / "model.ckpt"
        save_checkpoint(checkpoint_from(params, cfg, adam), path)
        path.write_bytes(_relay(path.read_bytes(), edit))
        with pytest.raises(CheckpointFormatError, match=message):
            load_checkpoint(path)


class TestFit:
    def test_writes_best_and_last_checkpoints(self, tmp_path):
        cfg = toy_model_cfg()
        params = model.init_params(cfg, np.random.default_rng(19), np.float32)
        mixer = FixedMixer([fixed_pair(seed=20)])
        tc = TrainConfig(epochs=2, steps_per_epoch=3, batch=1, lr_knee=1,
                         validate_every=1, seed=3)
        log_lines = []
        best = training.fit(params, cfg, tc, mixer,
                            val_pairs=[fixed_pair(seed=21)], out_dir=tmp_path,
                            log=lambda e, s, l, r: log_lines.append((e, s, l, r)))
        # only the last checkpoint carries Adam's moments, for resuming
        assert b"\ntensor adam." not in (tmp_path / "best.ckpt").read_bytes()
        assert b"\ntensor adam." in (tmp_path / "last.ckpt").read_bytes()
        assert load_checkpoint(tmp_path / "best.ckpt").adam is None
        assert math.isfinite(best)
        assert len(log_lines) == 6  # 2 epochs x 3 steps
        assert log_lines[0][:2] == (1, 1)

    def test_best_rewritten_only_on_strict_improvement(self, tmp_path, monkeypatch):
        scores = iter([1.0, 1.0, 2.0])
        monkeypatch.setattr(training, "validate", lambda params, cfg, pairs: next(scores))
        cfg = toy_model_cfg()
        params = model.init_params(cfg, np.random.default_rng(22), np.float32)
        tc = TrainConfig(epochs=3, steps_per_epoch=1, batch=1, lr_knee=1,
                         validate_every=1)
        best_ckpt = tmp_path / "best.ckpt"
        seen = []  # (epoch, best.ckpt's epoch and score) before each validation

        def progress(epoch, mean_loss):
            if best_ckpt.exists():
                ckpt = load_checkpoint(best_ckpt)
                seen.append((epoch, ckpt.epoch, ckpt.best_score))

        best = training.fit(params, cfg, tc, FixedMixer([fixed_pair(seed=23)]),
                            val_pairs=[fixed_pair(seed=24)], out_dir=tmp_path,
                            progress=progress)
        # epoch 2 ties epoch 1's score and leaves best.ckpt as epoch 1 wrote it
        assert seen == [(2, 1, 1.0), (3, 1, 1.0)]
        final = load_checkpoint(best_ckpt)
        assert (final.epoch, final.best_score, best) == (3, 2.0, 2.0)
        assert load_checkpoint(tmp_path / "last.ckpt").best_score == 2.0
