"""Training loop, schedule, validation selection, checkpoint persistence."""

import collections
import dataclasses
import json
import math
import os
import re
from pathlib import Path

import numpy as np
import pytest

from arn import cli, losses, model, tensor, training, wavio
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

from gradtools import batch_loss_graph, traced_peak
from test_model import zero_params


ROOT = Path(__file__).resolve().parents[1]


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


class BatchMixer:
    """Serves the same batch on every draw."""

    def __init__(self, batch):
        self.batch = batch

    def sample(self, rng, count):
        assert count == len(self.batch)
        return self.batch


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
        with pytest.raises(ConfigurationError, match="validate_every"):
            TrainConfig(epochs=2, lr_knee=1, validate_every=3)  # nothing validated

    @pytest.mark.parametrize("field, value", [("epochs", 2.5), ("lr_hi", True),
                                              ("loss", 1), ("seed", 1.0)])
    def test_value_of_wrong_type_rejected(self, field, value):
        with pytest.raises(ConfigurationError, match=f"{field} must be of type"):
            TrainConfig(**{"lr_knee": 1, field: value})

    @pytest.mark.parametrize("cls", [ARNConfig, TrainConfig])
    def test_every_default_is_a_plain_scalar(self, cls):
        # check_field_types holds each field to its default's type
        for field in dataclasses.fields(cls):
            assert type(field.default) in (int, float, bool, str), field.name
        model.check_field_types(cls())


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

    @pytest.mark.parametrize("loss", ["mse", "pcm"])
    @pytest.mark.parametrize("causal", [True, False])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_swept_step_matches_one_graph_bitwise(self, monkeypatch, dtype, causal, loss):
        # unequal lengths; the longest is 375 frames, more than one tile
        cfg = toy_model_cfg(width=16, num_blocks=2, causal=causal, dropout=0.1)
        assert 3000 // cfg.shift > tensor.TILE_ROWS
        rng = np.random.default_rng(40)
        batch = [tuple(rng.standard_normal(n).astype(dtype) for _ in range(2))
                 for n in (700, 3000, 1500)]
        tc = TrainConfig(epochs=2, steps_per_epoch=1, batch=3, lr_knee=1, loss=loss, seed=9)

        oracle = model.init_params(cfg, np.random.default_rng(41), dtype)
        graph = batch_loss_graph(batch, oracle, cfg, loss, np.random.default_rng([9, 1, 1]))
        tensor.backward(graph)

        params = model.init_params(cfg, np.random.default_rng(41), dtype)
        grads, logged = {}, []
        real = training.adam_step

        def keep_grads(ps, state, lr):
            grads.update((k, p.grad.copy()) for k, p in ps.items())
            real(ps, state, lr)

        monkeypatch.setattr(training, "adam_step", keep_grads)
        train_epoch(params, cfg, AdamState.for_params(params), tc, BatchMixer(batch),
                    epoch=1, log=lambda e, s, l, r: logged.append(l))
        assert logged == [graph.item()]
        assert grads.keys() == oracle.keys()
        for k, p in oracle.items():
            assert grads[k].dtype == p.grad.dtype
            assert grads[k].tobytes() == p.grad.tobytes(), k

    def test_step_memory_does_not_grow_with_batch(self):
        # one utterance's graph is alive at a time, so a step of four
        # utterances peaks about as high as a step of one
        cfg = toy_model_cfg(width=16, num_blocks=2)
        params = model.init_params(cfg, np.random.default_rng(42), np.float32)
        adam = AdamState.for_params(params)
        rng = np.random.default_rng(43)
        pairs = [tuple(rng.standard_normal(4000).astype(np.float32) for _ in range(2))
                 for _ in range(4)]

        def step(count):
            tc = TrainConfig(epochs=2, steps_per_epoch=1, batch=count, lr_knee=1, loss="pcm")
            train_epoch(params, cfg, adam, tc, BatchMixer(pairs[:count]), epoch=1)

        step(1)     # tables built once on first use are not a step's memory
        one = traced_peak(lambda: step(1))
        four = traced_peak(lambda: step(4))
        assert four <= 1.5 * one

    def test_divergence_leaves_no_gradient_and_no_update(self, monkeypatch):
        cfg = toy_model_cfg()
        params = model.init_params(cfg, np.random.default_rng(44), np.float64)
        real = losses.LOSS_FNS["mse"]
        calls = []

        def second_term_of_step_two_diverges(x, s, s_hat):
            calls.append(len(calls) + 1)
            term = real(x, s, s_hat)
            return tensor.scale(term, math.inf) if calls[-1] == 5 else term

        monkeypatch.setitem(losses.LOSS_FNS, "mse", second_term_of_step_two_diverges)
        mixer = BatchMixer([fixed_pair(seed=k) for k in range(3)])
        tc = TrainConfig(epochs=2, steps_per_epoch=3, batch=3, lr_knee=1)
        adam = AdamState.for_params(params)
        after_step_one = {}

        def log(epoch, step, loss, lr):
            after_step_one.update((k, p.data.copy()) for k, p in params.items())

        with pytest.raises(DivergenceError, match=r"^non-finite loss inf at epoch 1 step 2$"):
            train_epoch(params, cfg, adam, tc, mixer, epoch=1, log=log)
        assert calls == [1, 2, 3, 4, 5]
        assert all(p.grad is None for p in params.values())
        assert adam.step_count == 1
        for k, p in params.items():
            assert p.data.tobytes() == after_step_one[k].tobytes(), k


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
        (b"meta.epoch=0", b"meta.epoch=-3"),
        (b"meta.adam.step_count=17", b"meta.adam.step_count=-1"),
        (b"meta.best_score=-inf", b"meta.best_score=nan"),
        (b"meta.best_score=-inf", b"meta.best_score=inf"),
        (b"meta.best_score=-inf", b"meta.best_score=true"),
    ])
    def test_unparseable_header_value_rejected(self, tmp_path, line, bad):
        cfg, params, adam = self.make(seed=20, with_adam=True)
        path = tmp_path / "model.ckpt"
        save_checkpoint(checkpoint_from(params, cfg, adam), path)
        blob, n = re.subn(line, bad, path.read_bytes(), count=1)
        assert n == 1
        path.write_bytes(blob)
        with pytest.raises(CheckpointFormatError, match=re.escape(bad.decode())):
            load_checkpoint(path)

    @pytest.mark.parametrize("line, bad", [
        (b"config.shift=8", b"config.shift=4.5"),
        (b"config.width=8", b"config.width=8.0"),
        (b"config.causal=true", b"config.causal=1"),
        (b"config.num_blocks=2", b"config.num_blocks=true"),
    ])
    def test_config_value_of_wrong_type_rejected(self, tmp_path, line, bad):
        # ARNConfig checks a header's values as it checks a config file's
        cfg, params, _ = self.make(seed=31)
        path = tmp_path / "model.ckpt"
        save_checkpoint(checkpoint_from(params, cfg), path)
        blob, n = re.subn(b"\n" + line + b"\n", b"\n" + bad + b"\n", path.read_bytes())
        assert n == 1
        path.write_bytes(blob)
        key = line.partition(b"=")[0].decode().partition(".")[2]
        with pytest.raises(CheckpointFormatError, match=f"bad config block: {key} must be"):
            load_checkpoint(path)

    @pytest.mark.parametrize("line, second", [(b"meta.epoch=3", b"meta.epoch=7"),
                                              (b"config.dropout=0.0", b"config.dropout=0.5")])
    def test_header_key_listed_twice_rejected(self, tmp_path, line, second):
        cfg, params, _ = self.make(seed=32)
        path = tmp_path / "model.ckpt"
        save_checkpoint(checkpoint_from(params, cfg, epoch=3), path)
        blob, n = re.subn(b"\n" + line + b"\n", b"\n" + line + b"\n" + second + b"\n",
                          path.read_bytes())
        assert n == 1
        path.write_bytes(blob)
        key = line.partition(b"=")[0].decode()
        with pytest.raises(CheckpointFormatError, match=f"header key {key} listed twice"):
            load_checkpoint(path)

    def test_unvalidated_best_score_loads(self, tmp_path):
        cfg, params, _ = self.make(seed=22)
        path = tmp_path / "model.ckpt"
        save_checkpoint(checkpoint_from(params, cfg), path)
        assert b"\nmeta.best_score=-inf\n" in path.read_bytes()
        assert load_checkpoint(path).best_score == -math.inf

    @pytest.mark.parametrize("name", ["input_proj.b", "block1.lstm.w_fh",
                                      "adam.m.output_proj.w", "adam.v.block0.ff.b",
                                      "block1.attn.lin_v_sig.w",
                                      "block0.attn.lin_v_tanh.w", "block1.ff.w",
                                      "block0.ln0.g", "block1.ln4.b", "block0.attn.v"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_tensor_rejected(self, tmp_path, capsys, name, value):
        # by the full load, and by the enhance load for what it reads: the
        # moments. It steps over every entry of the table, the projections
        # and the blocks' layers, layer norms included (block0.ln0.g is the
        # first block entry read, block1.ff.w the last), so `arn enhance`
        # refuses those at their first read, with exit 4, naming the
        # checkpoint and the entry, before the first file's output
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
        if name not in streamed_shapes(cfg):
            with pytest.raises(CheckpointFormatError, match=re.escape(name)):
                load_checkpoint(path, for_enhance=True)
            return
        src, dst = two_file_dir(tmp_path)
        assert cli.main(["enhance", "--model", str(path),
                         "--in", str(src), "--out", str(dst)]) == 4
        assert capsys.readouterr().err == f"error: {path}: {name}: non-finite values\n"
        assert list(dst.iterdir()) == []

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

    @pytest.mark.parametrize("causal", [True, False])
    def test_enhance_load_folds_each_value_gate(self, tmp_path, causal):
        # from a file with Adam state, as last.ckpt is: no moment is kept,
        # and each block's value gate is made from its streamed attention
        # layer, as from the trainable table
        cfg, params, adam = self.make(seed=41, causal=causal, with_adam=True)
        path = tmp_path / "last.ckpt"
        save_checkpoint(checkpoint_from(params, cfg, adam), path)
        loaded = load_checkpoint(path, for_enhance=True)
        assert loaded.adam is None and loaded.tensors == {}
        table = params_from_checkpoint(loaded)
        # nothing held: the projections and each block's layers (each layer
        # norm, each direction of a BLSTM and each gate's LSTM input weights
        # apart), read one at a time, are the trainable table
        layers = {}
        with tensor.no_grad():
            for prefix in ("input_proj.", "output_proj."):
                layers.update({k: t.shape for k, t in model.layer_table(table, prefix).items()})
            for i in range(cfg.num_blocks):
                for prefix in block_layers(causal):
                    layer = model.layer_table(table.block(i), prefix)
                    layers.update({f"block{i}.{k}": t.shape for k, t in layer.items()})
        assert layers == model.param_shapes(cfg)
        for i in range(cfg.num_blocks):
            with tensor.no_grad():
                gate = model._v_gate_graph(model._sub(params, f"block{i}.attn."))
                streamed = model._v_gate_graph(
                    model._sub(model.layer_table(table.block(i), "attn."), "attn."))
            assert streamed.data.tobytes() == gate.data.tobytes()
        x = np.random.default_rng(42).standard_normal(96)
        full = params_from_checkpoint(load_checkpoint(path))
        assert model.enhance(x, table, cfg).tobytes() == model.enhance(x, full, cfg).tobytes()

    def test_lin_v_matrices_before_v_fold_to_same_gate(self, tmp_path):
        # every block's lin_v_* entries first, then the rest: each layer is
        # read from where the directory puts it, whatever its order, and
        # enhances bitwise as from the canonical file
        cfg, params, _ = self.make(seed=43)
        ckpt = checkpoint_from(params, cfg)
        path = tmp_path / "model.ckpt"
        save_checkpoint(ckpt, path)
        first = [k for k in ckpt.tensors if ".attn.lin_v_" in k]
        ckpt.tensors = {k: ckpt.tensors[k] for k in first + [k for k in ckpt.tensors
                                                             if k not in first]}
        moved = tmp_path / "moved.ckpt"
        save_checkpoint(ckpt, moved)
        directory = [line.split()[1] for line in moved.read_bytes().split(b"\nDATA ")[0]
                     .decode().splitlines() if line.startswith("tensor ")]
        assert directory.index("block1.attn.lin_v_tanh.b") < directory.index("block0.attn.v")
        canonical = params_from_checkpoint(load_checkpoint(path, for_enhance=True))
        reordered = params_from_checkpoint(load_checkpoint(moved, for_enhance=True))
        with tensor.no_grad():
            for i in range(cfg.num_blocks):
                for prefix in block_layers(cfg.causal):
                    a = model.layer_table(canonical.block(i), prefix)
                    b = model.layer_table(reordered.block(i), prefix)
                    assert a.keys() == b.keys()
                    for k in a:
                        assert a[k].data.tobytes() == b[k].data.tobytes()
        x = np.random.default_rng(44).standard_normal(96)
        assert model.enhance(x, reordered, cfg).tobytes() == \
            model.enhance(x, canonical, cfg).tobytes()

    @pytest.mark.parametrize("with_adam", [False, True])
    def test_enhance_load_holds_kept_block_and_chunk_buffer(self, tmp_path, with_adam):
        # no tensor is kept, so the kept block is empty; then, when there
        # are moments, the chunk buffer that they are read through, and the
        # loader's bookkeeping, under 1 KiB per directory entry. One (N, N)
        # buffer, a held moment, a held block matrix or a chunk buffer with
        # no moment to read would pass the bound
        cfg = toy_model_cfg(width=256, num_blocks=2)
        params = model.init_params(cfg, np.random.default_rng(44), np.float32)
        adam = AdamState.for_params(params) if with_adam else None
        path = tmp_path / "model.ckpt"
        save_checkpoint(checkpoint_from(params, cfg, adam), path)
        loaded = []
        peak = traced_peak(lambda: loaded.append(load_checkpoint(path, for_enhance=True)))
        assert loaded[0].adam is None and loaded[0].tensors == {}
        bookkeeping = 1024 * len(params) * (3 if with_adam else 1)
        assert bookkeeping < cfg.width * cfg.width * 4
        assert peak <= (training._CHUNK * 4 if with_adam else 0) + bookkeeping

    @pytest.mark.parametrize("fault", [
        "missing_v", "missing_lin_v_tanh_w", "lin_v_sig_w_shape", "v_shape",
        "stored_gate", "extra_entry", "bad_step_count"])
    def test_enhance_load_refuses_as_full_load(self, tmp_path, fault):
        # the same error, naming the same tensor, as the full load and its
        # table check, for faults in what the enhance load holds, streams or
    # drops
        cfg, params, adam = self.make(seed=45, with_adam=True)
        ckpt = checkpoint_from(params, cfg, adam)
        n = cfg.width
        if fault == "missing_v":
            del ckpt.tensors["block0.attn.v"]
        elif fault == "missing_lin_v_tanh_w":
            del ckpt.tensors["block1.attn.lin_v_tanh.w"]
        elif fault == "lin_v_sig_w_shape":
            ckpt.tensors["block0.attn.lin_v_sig.w"] = np.ones((n, n + 1), "<f4")
        elif fault == "v_shape":
            ckpt.tensors["block1.attn.v"] = np.ones((1, n), "<f4")
        elif fault == "stored_gate":
            ckpt.tensors["block0.attn.v_gate"] = np.ones((1, n), "<f4")
        elif fault == "extra_entry":
            ckpt.tensors["block0.attn.w"] = np.ones((n, n), "<f4")
        else:
            adam.step_count = -1
        path = tmp_path / "model.ckpt"
        save_checkpoint(ckpt, path)

        def refusal(for_enhance):
            with pytest.raises(training.CheckpointError) as info:
                params_from_checkpoint(load_checkpoint(path, for_enhance=for_enhance))
            return type(info.value), str(info.value)

        assert refusal(True) == refusal(False)

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


def two_file_dir(tmp_path):
    """An input directory of two short tones and the output directory that
    `arn enhance` is to write them to."""
    src = tmp_path / "in"
    src.mkdir()
    for j, name in enumerate(("a.wav", "b.wav")):
        wavio.write_wav(src / name, 0.25 * np.sin(np.arange(1600) / (5.0 + j)))
    return src, tmp_path / "out"


def padded(shapes) -> int:
    """Bytes of float32 entries of ``shapes``, each rounded up to 16 floats,
    as a streamed table's reader lays them out in its buffer."""
    return sum(-(-math.prod(shape) // 16) * 16 for shape in shapes) * 4


def streamed_shapes(cfg: ARNConfig, start: str = "") -> dict:
    """Name -> shape of the entries that a streamed table reads from its
    checkpoint, every entry of the table, for names starting with
    ``start``."""
    return {name: shape for name, shape in model.param_shapes(cfg).items()
            if name.startswith(start)}


def block_layers(causal: bool) -> list:
    """A block's ``model.STREAMED_LAYERS``, in the order the forward pass
    reads them for an input of one tile (an LSTM's gate layers are read
    once per tile)."""
    rnn = (["lstm.", *(f"lstm.w_{g}x" for g in "ifgo")] if causal
           else ["blstm.fwd.", "blstm.bwd."])
    return ["ln0.", *rnn, "ln1.", "ln2.", "attn.", "ln3.", "ln4.", "ff."]


def four_tile_causal(monkeypatch) -> ARNConfig:
    """A two-block causal toy model, with ``tensor.TILE_ROWS`` set so that
    each file of ``two_file_dir`` is four tiles of its LSTM."""
    monkeypatch.setattr(tensor, "TILE_ROWS", 64)
    return toy_model_cfg(num_blocks=2, frame_in=16)


class TestStreamedTable:
    """The enhance load's table holds no parameter: it reads the
    projections and each block's layers (each layer norm and each direction
    of a BLSTM apart) from the file, one at a time, as the forward pass
    reaches them."""

    @pytest.mark.parametrize("causal", [True, False])
    def test_load_and_enhance_hold_one_layer(self, monkeypatch, tmp_path, causal):
        # what `arn enhance` does, load and enhance, traced: at most the
        # reader's buffer and 2.5 (T, N) arrays of activations, at
        # TestEvalMemory's tile size; the table holds nothing. The buffer
        # is the largest layer, or a layer together with the one whose
        # prefix its own extends: when causal, the LSTM's recurrent weights
        # and biases with one gate's input weights, and when not, the
        # feedforward, since each direction of the BLSTM is read apart. The
        # activations measured 2.3 arrays, causal and not; a reader that
        # holds a whole LSTM or BLSTM, 0.75 arrays more than this buffer
        # here, fails the bound, and a load holding the table fails both
        from test_model import TestEvalMemory as limits
        monkeypatch.setattr(tensor, "TILE_ROWS", limits.TILE)
        cfg = ARNConfig(width=256, frame_in=32 if causal else 16, frame_out=16,
                        shift=limits.SHIFT, num_blocks=4, causal=causal, dropout=0.0)
        params = model.init_params(cfg, np.random.default_rng(2310), np.float32)
        path = tmp_path / "last.ckpt"
        save_checkpoint(checkpoint_from(params, cfg, AdamState.for_params(params)), path)
        steps = 1024
        x = np.random.default_rng(2311).standard_normal(steps * cfg.shift)

        block = streamed_shapes(cfg, "block0.")
        layers = {prefix: padded(streamed_shapes(cfg, prefix).values())
                  for prefix in ["input_proj.", "output_proj.",
                                 *(f"block0.{p}" for p in block_layers(causal))]}
        if causal:
            # the names under 'lstm.' include the gates' input weights
            layers["block0.lstm."] -= sum(layers[f"block0.lstm.w_{g}x"] for g in "ifgo")
        assert sum(layers.values()) == padded(block.values()) \
            + layers["input_proj."] + layers["output_proj."]
        layer = (layers["block0.lstm."] + layers["block0.lstm.w_ix"] if causal
                 else layers["block0.ff."])
        assert layer > max(layers.values()) if causal else layer == max(layers.values())
        activations = 2.5 * steps * cfg.width * 4
        out = []
        peak = traced_peak(lambda: out.append(model.enhance(
            x, params_from_checkpoint(load_checkpoint(path, for_enhance=True)), cfg)))
        assert out[0].tobytes() == model.enhance(x, params, cfg).tobytes()
        assert layer < padded(block.values())
        assert layer + activations < padded(model.param_shapes(cfg).values())
        assert peak <= layer + activations

    def test_directions_and_projections_read_when_they_run(self, monkeypatch, tmp_path):
        # every read of the reader and every LSTM direction's run, in order,
        # through a non-causal `arn enhance` of two files: block i's
        # backward direction is read only after its forward direction's
        # loop has returned, no read falls inside a direction's run, each
        # layer norm is read just before it runs, and each projection is
        # read once per file
        cfg = toy_model_cfg(num_blocks=2, causal=False)
        path = tmp_path / "model.ckpt"
        save_checkpoint(checkpoint_from(
            model.init_params(cfg, np.random.default_rng(2320), np.float32), cfg), path)
        events = []
        read, run = training.BlockReader.read, tensor._lstm_run

        def reading(self, layer):
            events.append(layer)
            return read(self, layer)

        def running(*args):
            events.append(("run", args[5]))
            views = run(*args)
            events.append(("ran", args[5]))
            return views
        monkeypatch.setattr(training.BlockReader, "read", reading)
        monkeypatch.setattr(tensor, "_lstm_run", running)
        src, dst = two_file_dir(tmp_path)
        assert cli.main(["enhance", "--model", str(path), "--in", str(src),
                         "--out", str(dst)]) == 0
        per_file = ["input_proj."]
        for i in range(cfg.num_blocks):
            per_file += [f"block{i}.ln0.",
                         f"block{i}.blstm.fwd.", ("run", False), ("ran", False),
                         f"block{i}.blstm.bwd.", ("run", True), ("ran", True),
                         f"block{i}.ln1.", f"block{i}.ln2.", f"block{i}.attn.",
                         f"block{i}.ln3.", f"block{i}.ln4.", f"block{i}.ff."]
        assert events == (per_file + ["output_proj."]) * 2

    def test_reader_allocates_its_buffer_once(self, monkeypatch, tmp_path):
        # through a non-causal `arn enhance` of two files, after every read
        # the reader's buffer is the one array, sized for the largest layer
        # (the feedforward), not one sized for the layer just read: a
        # buffer grown or remade per read leaves freed blocks that raise the
        # process's peak resident memory
        cfg = toy_model_cfg(num_blocks=2, causal=False)
        path = tmp_path / "model.ckpt"
        save_checkpoint(checkpoint_from(
            model.init_params(cfg, np.random.default_rng(2321), np.float32), cfg), path)
        largest = max(padded(streamed_shapes(cfg, f"block0.{p}").values())
                      for p in block_layers(False)) // 4
        assert largest == padded(streamed_shapes(cfg, "block0.ff.").values()) // 4
        buffers = []
        read = training.BlockReader.read

        def reading(self, layer):
            views = read(self, layer)
            buffers.append(self._buffer)
            return views
        monkeypatch.setattr(training.BlockReader, "read", reading)
        src, dst = two_file_dir(tmp_path)
        assert cli.main(["enhance", "--model", str(path), "--in", str(src),
                         "--out", str(dst)]) == 0
        assert len(buffers) == 2 * (2 + cfg.num_blocks * len(block_layers(False)))
        assert all(b is buffers[0] for b in buffers)
        assert buffers[0].shape == (largest,)

    def test_lstm_gates_read_per_tile_between_steps(self, monkeypatch, tmp_path):
        # through a causal `arn enhance` of two files of four tiles each:
        # each block's 'lstm.' (recurrent weights and biases) is read once
        # per file, before its loop runs, and each gate's input weights once
        # per tile, in gate order, when exactly the steps before the tile
        # have run (counted as the finite rows of the direction's output,
        # which starts as NaN), so never inside a step. After every read the
        # buffer is the one array, the recurrent layer and one gate in size,
        # each gate's view lying after the recurrent layer; the enhanced
        # signal is that of the in-memory table, bitwise
        cfg = four_tile_causal(monkeypatch)
        params = model.init_params(cfg, np.random.default_rng(2322), np.float32)
        path = tmp_path / "model.ckpt"
        save_checkpoint(checkpoint_from(params, cfg), path)
        recurrent = padded(shape for name, shape in streamed_shapes(cfg, "block0.lstm.").items()
                           if not name.endswith("x")) // 4
        gate = padded([(cfg.width, cfg.width)]) // 4
        events, buffers, running_hs = [], [], []
        read, run = training.BlockReader.read, tensor._lstm_run

        def reading(self, layer):
            done = (int(np.isfinite(running_hs[0][:, 0]).sum()) if running_hs else None)
            views = read(self, layer)
            events.append((layer, done))
            buffers.append(self._buffer)
            if ".lstm.w_" in layer:
                assert views[layer].data.ctypes.data == self._buffer.ctypes.data + 4 * recurrent
            return views

        def running(xd, w_x, b, w_h, hs, reverse, keep):
            hs[:] = np.nan
            running_hs.append(hs)
            try:
                return run(xd, w_x, b, w_h, hs, reverse, keep)
            finally:
                running_hs.pop()
        monkeypatch.setattr(training.BlockReader, "read", reading)
        monkeypatch.setattr(tensor, "_lstm_run", running)
        src, dst = two_file_dir(tmp_path)
        assert cli.main(["enhance", "--model", str(path), "--in", str(src),
                         "--out", str(dst)]) == 0
        tiles = range(0, 1600 // cfg.shift, tensor.TILE_ROWS)
        assert len(tiles) == 4
        per_file = ["input_proj."]
        for i in range(cfg.num_blocks):
            per_file += [f"block{i}.ln0.", f"block{i}.lstm.",
                         *((f"block{i}.lstm.w_{g}x", lo) for lo in tiles for g in "ifgo"),
                         *(f"block{i}.{p}" for p in ("ln1.", "ln2.", "attn.", "ln3.", "ln4.",
                                                     "ff."))]
        per_file.append("output_proj.")
        assert events == [e if isinstance(e, tuple) else (e, None) for e in per_file] * 2
        assert all(b is buffers[0] for b in buffers)
        assert buffers[0].shape == (recurrent + gate,)
        assert recurrent + gate > max(padded(streamed_shapes(cfg, f"block0.{p}").values()) // 4
                                      for p in ("attn.", "ff."))
        table = params_from_checkpoint(load_checkpoint(path, for_enhance=True))
        x = wavio.read_wav(src / "a.wav")
        assert model.enhance(x, table, cfg).tobytes() == model.enhance(x, params, cfg).tobytes()

    def test_non_finite_gate_input_weights_exit_4(self, monkeypatch, tmp_path, capsys):
        # a NaN in one gate's input weights, on an input of four tiles: its
        # first read refuses it as the full load does, with exit 4 and one
        # line naming the checkpoint and the entry, before any output
        cfg = four_tile_causal(monkeypatch)
        ckpt = checkpoint_from(
            model.init_params(cfg, np.random.default_rng(2323), np.float32), cfg)
        ckpt.tensors["block1.lstm.w_gx"][3, 5] = np.nan
        path = tmp_path / "model.ckpt"
        save_checkpoint(ckpt, path)
        src, dst = two_file_dir(tmp_path)
        assert cli.main(["enhance", "--model", str(path), "--in", str(src),
                         "--out", str(dst)]) == 4
        assert capsys.readouterr().err == \
            f"error: {path}: block1.lstm.w_gx: non-finite values\n"
        assert list(dst.iterdir()) == []

    @pytest.mark.parametrize("rewrite", ["other_weights", "nan_same_stat"])
    def test_checkpoint_rewritten_between_tiles_exit_4(self, monkeypatch, tmp_path, capsys,
                                                      rewrite):
        # the checkpoint is rewritten after block 0's gates are read for its
        # first tile: with other weights and a later modification time, or
        # with a NaN in the first gate's input weights, size and
        # modification time kept. The second tile's first gate read refuses
        # it as changed, since that layer passed its first read, with exit 4
        # and no output. Read through the file object's read-ahead buffer,
        # the second rewrite went unseen: the toy checkpoint fits in it
        cfg = four_tile_causal(monkeypatch)
        ckpt, other = tmp_path / "model.ckpt", tmp_path / "other.ckpt"
        for seed, target in ((2324, ckpt), (2325, other)):
            params = model.init_params(cfg, np.random.default_rng(seed), np.float32)
            save_checkpoint(checkpoint_from(params, cfg), target)
        reads = []
        read = training.BlockReader.read

        def read_then_rewrite(self, layer):
            views = read(self, layer)
            reads.append(layer)
            if reads.count("block0.lstm.w_ox") == 1 and layer == "block0.lstm.w_ox":
                before = ckpt.stat()
                if rewrite == "other_weights":
                    ckpt.write_bytes(other.read_bytes())
                    mtime = before.st_mtime_ns + 10 ** 9
                else:
                    with open(ckpt, "r+b") as fh:
                        fh.seek(self._layout["block0.lstm.w_ix"][0][2])
                        fh.write(np.float32(np.nan).tobytes())
                    mtime = before.st_mtime_ns
                os.utime(ckpt, ns=(before.st_atime_ns, mtime))
                assert ckpt.stat().st_size == before.st_size
            return views
        monkeypatch.setattr(training.BlockReader, "read", read_then_rewrite)
        src, dst = two_file_dir(tmp_path)
        assert cli.main(["enhance", "--model", str(ckpt),
                         "--in", str(src), "--out", str(dst)]) == 4
        err = capsys.readouterr().err
        assert err.startswith(f"error: {ckpt} changed after it was loaded")
        assert err.count("\n") == 1
        assert reads == ["input_proj.", "block0.ln0.", "block0.lstm.",
                         *(f"block0.lstm.w_{g}x" for g in "ifgo")]
        assert list(dst.iterdir()) == []

    @pytest.mark.parametrize("config", sorted((ROOT / "configs").glob("*.json")),
                             ids=lambda path: path.stem)
    def test_full_size_buffer_is_the_largest_op(self, config):
        # shapes only: the reader's buffer, laid out from the table's
        # layers as the enhance load lays it out, is 20.0 MiB for the causal
        # presets (the LSTM's recurrent weights and biases, which its step
        # loop needs throughout, and one gate's input weights, 16 MiB +
        # 16 KiB and 4 MiB) and 16.0 MiB non-causal (the feedforward, each
        # BLSTM direction being 12.0 MiB); every entry of the table is in a
        # streamed layer, each layer norm is one layer of its two 1-D
        # entries, and each gate's LSTM input weights are one layer
        cfg = ARNConfig(**json.loads(config.read_text())["model"])
        layout = {}
        for name, shape in model.param_shapes(cfg).items():
            layout.setdefault(model.streamed_layer(name), []).append(
                (name, shape, 0, math.prod(shape)))
        assert set(layout) == {"input_proj.", "output_proj.", *(
            f"block{i}.{p}" for i in range(cfg.num_blocks) for p in block_layers(cfg.causal))}
        for layer, entries in layout.items():
            if ".ln" in layer:
                assert [(n, s) for n, s, *_ in entries] == \
                    [(layer + "g", (cfg.width,)), (layer + "b", (cfg.width,))]
            if ".lstm.w_" in layer:
                assert [(n, s) for n, s, *_ in entries] == [(layer, (cfg.width, cfg.width))]
        with open(os.devnull, "rb") as fh:
            reader = training.BlockReader(fh, os.devnull, os.fstat(fh.fileno()), layout)
        assert round(reader._size * 4 / 2 ** 20, 1) == (20.0 if cfg.causal else 16.0)
        spans = {layer: sum(-(-c // 16) * 16 for *_, c in entries)
                 for layer, entries in layout.items()}
        if cfg.causal:
            assert reader._size == spans["block0.lstm."] + spans["block0.lstm.w_gx"]
        else:
            assert reader._size == spans["block0.ff."] == max(spans.values())

    def test_refuses_recording(self, tmp_path):
        cfg = toy_model_cfg(num_blocks=2)
        params = model.init_params(cfg, np.random.default_rng(2312), np.float32)
        path = tmp_path / "model.ckpt"
        save_checkpoint(checkpoint_from(params, cfg), path)
        table = params_from_checkpoint(load_checkpoint(path, for_enhance=True))
        x = np.random.default_rng(2313).standard_normal(64)
        with pytest.raises(RuntimeError, match="unrecorded enhancement"):
            model.arn_forward(x, table, cfg)
        with pytest.raises(RuntimeError, match="unrecorded enhancement"):
            model.layer_table(table.block(1), "ff.")
        with tensor.no_grad():
            assert model.layer_table(table.block(1), "ff.")["ff.w"].data.tobytes() == \
                params["block1.ff.w"].data.tobytes()
        assert model.enhance(x, table, cfg).tobytes() == \
            model.enhance(x, params, cfg).tobytes()

    @pytest.mark.parametrize("with_adam", [False, True])
    def test_enhance_load_reads_only_what_it_holds(self, monkeypatch, tmp_path, with_adam):
        # every payload read through _read_payload, counted by name: the
        # load reads the moments, each once, and steps over every entry of
        # the table; one enhance then reads each of those once
        cfg = toy_model_cfg(num_blocks=2)
        params = model.init_params(cfg, np.random.default_rng(2318), np.float32)
        adam = AdamState.for_params(params) if with_adam else None
        path = tmp_path / "model.ckpt"
        save_checkpoint(checkpoint_from(params, cfg, adam), path)
        names = collections.Counter()
        read = training._read_payload

        def counting(fh, name, arr):
            names[name] += 1
            read(fh, name, arr)
        monkeypatch.setattr(training, "_read_payload", counting)
        table = params_from_checkpoint(load_checkpoint(path, for_enhance=True))
        moments = [f"adam.{m}.{k}" for m in "mv" for k in params] if with_adam else []
        assert names == collections.Counter(dict.fromkeys(moments, 1))
        names.clear()
        x = np.random.default_rng(2319).standard_normal(96)
        assert model.enhance(x, table, cfg).tobytes() == \
            model.enhance(x, params, cfg).tobytes()
        assert names == collections.Counter(dict.fromkeys(model.param_shapes(cfg), 1))

    @pytest.mark.parametrize("causal", [True, False])
    def test_each_streamed_entry_read_once_per_file(self, monkeypatch, tmp_path, causal):
        # every payload read through _read_payload, counted by name and
        # bytes: per enhanced file of one tile, every entry of the table
        # once (a causal LSTM's input weights are read once per tile)
        cfg = toy_model_cfg(num_blocks=2, causal=causal)
        params = model.init_params(cfg, np.random.default_rng(2314), np.float32)
        path = tmp_path / "model.ckpt"
        save_checkpoint(checkpoint_from(params, cfg), path)
        table = params_from_checkpoint(load_checkpoint(path, for_enhance=True))
        names, read_bytes = collections.Counter(), []
        read = training._read_payload

        def counting(fh, name, arr):
            names[name] += 1
            read_bytes.append(arr.nbytes)
            read(fh, name, arr)
        monkeypatch.setattr(training, "_read_payload", counting)
        streamed = streamed_shapes(cfg)
        x = np.random.default_rng(2315).standard_normal(96)
        for files in (1, 2):
            model.enhance(x, table, cfg)
            assert names == collections.Counter(dict.fromkeys(streamed, files))
            assert sum(read_bytes) == files * 4 * sum(map(math.prod, streamed.values()))
        # at full size, each file of one tile reads the blocks' layer
        # norms, RNN, attention and feedforward, 15 or 13 (N, N) matrices
        # and 24 N-vectors per block, and the two projections, 3 MiB of
        # weights and 5 KiB of biases at the default 512-sample input frame
        full = streamed_shapes(ARNConfig(causal=causal))
        assert 4 * sum(map(math.prod, full.values())) == \
            ((240 if causal else 208) + 3) * 2 ** 20 + (384 + 5) * 2 ** 10

    def test_checkpoint_rewritten_between_layer_reads_exit_4(self, monkeypatch, tmp_path,
                                                              capsys):
        # the input projection is read for the first file, then the
        # checkpoint is rewritten in place, at the same size with a later
        # modification time: block 0's first layer norm read refuses it,
        # naming the file, before that file's output is written
        cfg = ARNConfig(width=16, frame_in=16, frame_out=8, shift=8, num_blocks=2,
                        causal=True, dropout=0.0)
        ckpt, other = tmp_path / "model.ckpt", tmp_path / "other.ckpt"
        for seed, path in ((2316, ckpt), (2317, other)):
            params = model.init_params(cfg, np.random.default_rng(seed), np.float32)
            save_checkpoint(checkpoint_from(params, cfg), path)
        src, dst = tmp_path / "in", tmp_path / "out"
        src.mkdir()
        wavio.write_wav(src / "a.wav", 0.25 * np.sin(np.arange(1600) / 5.0))
        reads = []
        read = training.BlockReader.read

        def read_then_rewrite(self, layer):
            views = read(self, layer)
            reads.append(layer)
            if len(reads) == 1:
                before = ckpt.stat()
                ckpt.write_bytes(other.read_bytes())
                os.utime(ckpt, ns=(before.st_atime_ns, before.st_mtime_ns + 10 ** 9))
                assert ckpt.stat().st_size == before.st_size
            return views
        monkeypatch.setattr(training.BlockReader, "read", read_then_rewrite)
        assert cli.main(["enhance", "--model", str(ckpt),
                         "--in", str(src), "--out", str(dst)]) == 4
        err = capsys.readouterr().err
        assert str(ckpt) in err and "changed after it was loaded" in err
        assert reads == ["input_proj."]
        assert not (dst / "a.wav").exists()


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
