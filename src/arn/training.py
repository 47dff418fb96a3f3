"""Training loop, learning-rate schedule, validation-based selection, and
checkpoint persistence.

With online mixing there is no natural epoch boundary, so an epoch is
defined as ``steps_per_epoch`` optimizer steps. Epoch RNG streams are
derived from (seed, epoch), making complete runs replayable bit-for-bit.

Checkpoint format (version 1): a plain-text header of ``key=value`` lines
and a tensor directory, terminated by a ``DATA <float_count>`` line, then
raw little-endian float32 payloads in directory order. Older checkpoints
also hold ``cache.*`` tensors (a stored copy of each attention block's value
gate); the loader skips them, since the gate is recomputed from the
parameters.
"""

from __future__ import annotations

import math
import os
import tempfile
from dataclasses import dataclass

import numpy as np

from . import losses, model, tensor
from .model import ARNConfig, ConfigurationError
from .optim import AdamState, adam_step


class DivergenceError(RuntimeError):
    """The training loss became non-finite."""


class CheckpointError(Exception):
    """Base class for checkpoint persistence failures."""


class CheckpointFormatError(CheckpointError):
    """Corrupt or unrecognized checkpoint header."""


class CheckpointShapeError(CheckpointError):
    """A stored tensor disagrees with its declared shape."""


class CheckpointTruncatedError(CheckpointError):
    """The payload ends before the directory says it should."""


@dataclass
class TrainConfig:
    epochs: int = 100
    steps_per_epoch: int = 100
    batch: int = 32
    lr_hi: float = 2e-4
    lr_lo: float = 2e-5
    lr_knee: int = 33          # last epoch at the constant high rate
    loss: str = "mse"          # "mse" or "pcm"
    validate_every: int = 2
    seed: int = 0

    def __post_init__(self):
        for name in ("epochs", "steps_per_epoch", "batch", "validate_every"):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"{name} must be at least 1")
        if not self.lr_hi > self.lr_lo > 0.0:
            raise ConfigurationError("need lr_hi > lr_lo > 0")
        if not 1 <= self.lr_knee < self.epochs:
            raise ConfigurationError("need 1 <= lr_knee < epochs")
        if self.loss not in losses.LOSS_FNS:
            raise ConfigurationError(f"unknown loss {self.loss!r}")

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        return cls(**d)


def lr_schedule(epoch: int, cfg: TrainConfig) -> float:
    """Constant ``lr_hi`` through the knee epoch, then exponential decay
    reaching ``lr_lo`` exactly at the final epoch."""
    if not 1 <= epoch <= cfg.epochs:
        raise ValueError(f"epoch {epoch} outside [1, {cfg.epochs}]")
    if epoch <= cfg.lr_knee:
        return cfg.lr_hi
    if epoch == cfg.epochs:
        return cfg.lr_lo
    frac = (epoch - cfg.lr_knee) / (cfg.epochs - cfg.lr_knee)
    return cfg.lr_hi * (cfg.lr_lo / cfg.lr_hi) ** frac


def _batch_loss(batch, params, model_cfg: ARNConfig, loss_name: str, rng):
    loss_fn = losses.LOSS_FNS[loss_name]
    total = None
    for x, s in batch:
        s_hat = model.arn_forward(x, params, model_cfg, rng=rng)
        term = loss_fn(x, s, s_hat)
        total = term if total is None else total + term
    return tensor.scale(total, 1.0 / len(batch))


def train_epoch(params: dict, model_cfg: ARNConfig, adam: AdamState,
                cfg: TrainConfig, mixer, epoch: int, log=None) -> float:
    """Run one epoch of optimizer steps and return the mean loss.

    ``log``, when given, is called as ``log(epoch, step, loss, lr)`` after
    every step. A non-finite loss aborts the epoch with diagnostic state.
    """
    mix_rng = np.random.default_rng([cfg.seed, epoch, 0])
    drop_rng = np.random.default_rng([cfg.seed, epoch, 1])
    lr = lr_schedule(epoch, cfg)
    step_losses = []
    for step in range(1, cfg.steps_per_epoch + 1):
        batch = mixer.sample(mix_rng, cfg.batch)
        loss = _batch_loss(batch, params, model_cfg, cfg.loss, drop_rng)
        value = loss.item()
        if not math.isfinite(value):
            raise DivergenceError(
                f"non-finite loss {value} at epoch {epoch} step {step}")
        tensor.backward(loss)
        adam_step(params, adam, lr)
        step_losses.append(value)
        if log is not None:
            log(epoch, step, value, lr)
    return float(np.mean(step_losses))


def validate_and_select(params: dict, model_cfg: ARNConfig, val_pairs,
                        best_so_far: float):
    """Mean SI-SNR of ``model.enhance`` over (noisy, clean) pairs.

    Returns ``(score, improved)``; the caller persists a checkpoint when
    ``improved`` is true.
    """
    if not val_pairs:
        raise ConfigurationError("validation set is empty")
    scores = [losses.si_snr(s, model.enhance(x, params, model_cfg)) for x, s in val_pairs]
    score = float(np.mean(scores))
    return score, score > best_so_far


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

FORMAT_VERSION = 1
_MAGIC = "ARNCKPT"


@dataclass
class Checkpoint:
    model_cfg: ARNConfig
    tensors: dict                      # name -> float32 array (trainable)
    adam: AdamState | None = None
    best_score: float = -math.inf
    epoch: int = 0


def checkpoint_from(params: dict, model_cfg: ARNConfig, adam: AdamState | None = None,
                    best_score: float = -math.inf, epoch: int = 0) -> Checkpoint:
    return Checkpoint(
        model_cfg=model_cfg,
        tensors={k: np.ascontiguousarray(p.data, dtype="<f4")
                 for k, p in params.items()},
        adam=adam,
        best_score=best_score,
        epoch=epoch,
    )


def params_from_checkpoint(ckpt: Checkpoint, dtype=np.float32) -> dict:
    """Rebuild trainable tensors, validating against the config's shape table.

    Arrays already of ``dtype`` are not copied: for float32 (the stored
    precision) each parameter's data is the array in ``ckpt.tensors``, so
    one copy of the weights is held, and an in-place update of a parameter
    also changes the checkpoint object. Any other dtype gets a converted copy.
    """
    expected = model.param_shapes(ckpt.model_cfg)
    if set(ckpt.tensors) != set(expected):
        missing = sorted(set(expected) - set(ckpt.tensors))
        extra = sorted(set(ckpt.tensors) - set(expected))
        raise CheckpointShapeError(
            f"tensor table mismatch (missing={missing}, unexpected={extra})")
    params = {}
    for name, shape in expected.items():
        arr = ckpt.tensors[name]
        if arr.shape != shape:
            raise CheckpointShapeError(
                f"{name}: stored shape {arr.shape} != declared {shape}")
        params[name] = tensor.Tensor(arr.astype(dtype, copy=False), requires_grad=True)
    return params


def _format_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _parse_value(raw: str):
    if raw in ("true", "false"):
        return raw == "true"
    try:
        return int(raw)
    except ValueError:
        return float(raw)


def _meta_int(meta: dict, key: str) -> int:
    value = meta.get(key, 0)
    if type(value) is not int:
        raise CheckpointFormatError(f"bad header value 'meta.{key}={value!r}'")
    return value


def save_checkpoint(ckpt: Checkpoint, path):
    """Atomic write: header + payload to a temp file, then rename."""
    entries = list(ckpt.tensors.items())
    if ckpt.adam is not None:
        entries += [(f"adam.m.{k}", np.ascontiguousarray(v, dtype="<f4"))
                    for k, v in ckpt.adam.m.items()]
        entries += [(f"adam.v.{k}", np.ascontiguousarray(v, dtype="<f4"))
                    for k, v in ckpt.adam.v.items()]

    lines = [f"{_MAGIC} {FORMAT_VERSION}"]
    for key, value in ckpt.model_cfg.to_dict().items():
        lines.append(f"config.{key}={_format_value(value)}")
    lines.append(f"meta.epoch={ckpt.epoch}")
    lines.append(f"meta.best_score={_format_value(float(ckpt.best_score))}")
    if ckpt.adam is not None:
        lines.append(f"meta.adam.step_count={ckpt.adam.step_count}")
        lines.append(f"meta.adam.beta1={_format_value(ckpt.adam.beta1)}")
        lines.append(f"meta.adam.beta2={_format_value(ckpt.adam.beta2)}")
        lines.append(f"meta.adam.epsilon={_format_value(ckpt.adam.epsilon)}")

    offset = 0
    arrays = []
    for name, arr in entries:
        arr = np.ascontiguousarray(arr, dtype="<f4")
        dims = "x".join(str(d) for d in arr.shape) if arr.ndim else "1"
        lines.append(f"tensor {name} {dims} {offset} {arr.size}")
        arrays.append(arr)
        offset += arr.size
    lines.append(f"DATA {offset}")

    # header, then each tensor's buffer straight from its array: the payload
    # is never assembled in memory
    path = os.fspath(path)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".",
                               prefix=os.path.basename(path), suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(("\n".join(lines) + "\n").encode("ascii"))
            for arr in arrays:
                fh.write(arr)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _read_header(fh) -> list:
    """The header's lines, through the ``DATA`` line; ``fh`` is left at the
    first payload byte."""
    raw = [fh.readline()]
    if not raw[0].startswith(_MAGIC.encode("ascii")):
        raise CheckpointFormatError("missing magic or DATA marker")
    while not raw[-1].startswith(b"DATA "):
        raw.append(fh.readline())
        if not raw[-1]:
            raise CheckpointFormatError("missing magic or DATA marker")
    if not raw[-1].endswith(b"\n"):
        raise CheckpointFormatError("unterminated DATA line")
    try:
        return b"".join(raw)[:-1].decode("ascii").splitlines()
    except UnicodeDecodeError as exc:
        raise CheckpointFormatError(f"non-ascii header: {exc}") from None


def load_checkpoint(path) -> Checkpoint:
    """Parse and check a checkpoint file.

    Each tensor is read from its offset in the file straight into its own
    float32 view of one block, so the weights are held once; skipped
    ``cache.*`` entries are not read.
    """
    with open(path, "rb") as fh:
        return _read_checkpoint(fh)


def _read_checkpoint(fh) -> Checkpoint:
    header = _read_header(fh)
    data_start = fh.tell()
    payload_bytes = os.fstat(fh.fileno()).st_size - data_start

    magic = header[0].split()
    if len(magic) != 2 or magic[0] != _MAGIC or not magic[1].isdigit():
        raise CheckpointFormatError(f"bad magic line {header[0]!r}")
    if int(magic[1]) != FORMAT_VERSION:
        raise CheckpointFormatError(f"unsupported format version {magic[1]}")

    config = {}
    meta = {}
    directory = []
    declared_floats = None
    for line in header[1:]:
        if line.startswith(("config.", "meta.")):
            section, _, entry = line.partition(".")
            key, _, value = entry.partition("=")
            try:
                parsed = _parse_value(value)
            except ValueError:
                raise CheckpointFormatError(f"bad header value {line!r}") from None
            (config if section == "config" else meta)[key] = parsed
        elif line.startswith("tensor "):
            try:
                _, name, dims, offset, count = line.split()
                shape = tuple(int(d) for d in dims.split("x"))
                offset, count = int(offset), int(count)
                if min(shape + (offset, count)) < 0:
                    raise ValueError("negative dimension, offset or count")
                directory.append((name, shape, offset, count))
            except ValueError:
                raise CheckpointFormatError(f"bad tensor line {line!r}") from None
        elif line.startswith("DATA "):
            try:
                declared_floats = int(line[len("DATA "):])
            except ValueError:
                raise CheckpointFormatError(f"bad DATA line {line!r}") from None
        else:
            raise CheckpointFormatError(f"unrecognized header line {line!r}")
    if declared_floats is None:
        raise CheckpointFormatError("missing DATA line")
    if payload_bytes < declared_floats * 4:
        raise CheckpointTruncatedError(
            f"payload holds {payload_bytes // 4} floats, header declares {declared_floats}")

    try:
        model_cfg = ARNConfig.from_dict(config)
    except (TypeError, ConfigurationError) as exc:
        raise CheckpointFormatError(f"bad config block: {exc}") from None

    entries = []
    for name, shape, offset, count in directory:
        if int(np.prod(shape)) != count:
            raise CheckpointShapeError(
                f"{name}: shape {shape} does not hold {count} values")
        if (offset + count) * 4 > payload_bytes:
            raise CheckpointTruncatedError(f"{name}: payload ends early")
        if not name.startswith("cache."):
            entries.append((name, shape, offset, count))

    # Every tensor is a view of one block, each starting on a 64-byte line.
    # One allocation this large is mapped fresh from the OS (in huge pages
    # where the kernel gives them), so what the load costs does not depend
    # on which freed memory the heap still holds.
    spans = [-(-count // 16) * 16 for *_, count in entries]
    block = np.empty(sum(spans), dtype="<f4")
    tensors, adam_m, adam_v = {}, {}, {}
    start = 0
    for (name, shape, offset, count), span in zip(entries, spans):
        arr = block[start:start + count].reshape(shape)
        start += span
        fh.seek(data_start + offset * 4)
        if fh.readinto(arr) != count * 4:
            raise CheckpointTruncatedError(f"{name}: payload ends early")
        if not np.isfinite(arr).all():
            raise CheckpointFormatError(f"{name}: non-finite values")
        if name.startswith("adam.m."):
            adam_m[name[len("adam.m."):]] = arr
        elif name.startswith("adam.v."):
            adam_v[name[len("adam.v."):]] = arr
        else:
            tensors[name] = arr

    adam = None
    if adam_m:
        adam = AdamState(m=adam_m, v=adam_v,
                         step_count=_meta_int(meta, "adam.step_count"),
                         beta1=float(meta.get("adam.beta1", 0.9)),
                         beta2=float(meta.get("adam.beta2", 0.999)),
                         epsilon=float(meta.get("adam.epsilon", 1e-8)))
    return Checkpoint(model_cfg=model_cfg, tensors=tensors, adam=adam,
                      best_score=float(meta.get("best_score", -math.inf)),
                      epoch=_meta_int(meta, "epoch"))



def fit(params: dict, model_cfg: ARNConfig, cfg: TrainConfig, mixer,
        val_pairs=None, out_dir=None, log=None, progress=None) -> float:
    """Full training run with periodic validation and best-model saving.

    Returns the best validation score (or ``-inf`` if never validated).
    """
    adam = AdamState.for_params(params)
    best = -math.inf
    for epoch in range(1, cfg.epochs + 1):
        mean_loss = train_epoch(params, model_cfg, adam, cfg, mixer, epoch, log)
        if progress is not None:
            progress(epoch, mean_loss)
        if val_pairs and epoch % cfg.validate_every == 0:
            score, improved = validate_and_select(params, model_cfg, val_pairs, best)
            if improved:
                best = score
                if out_dir is not None:
                    # weights only, so enhancing from it reads no Adam moments;
                    # last.ckpt keeps them for resuming
                    ckpt = checkpoint_from(params, model_cfg, best_score=best, epoch=epoch)
                    save_checkpoint(ckpt, os.path.join(os.fspath(out_dir), "best.ckpt"))
    if out_dir is not None:
        ckpt = checkpoint_from(params, model_cfg, adam, best, cfg.epochs)
        save_checkpoint(ckpt, os.path.join(os.fspath(out_dir), "last.ckpt"))
    return best
