"""Training loop, learning-rate schedule, validation-based selection, and
checkpoint persistence.

With online mixing there is no natural epoch boundary, so an epoch is
defined as ``steps_per_epoch`` optimizer steps. Epoch RNG streams are
derived from (seed, epoch), making complete runs replayable bit-for-bit.

A training step holds one utterance's graph at a time: each utterance's
loss term, scaled by 1/B, is swept by ``tensor.backward`` before the next
utterance is built, and the parameters' gradients add up across the sweeps.
The gradients and the logged loss are bitwise those of one graph over the
whole batch, but the step's memory does not grow with the batch.

Checkpoint format (version 1): a plain-text header of ``key=value`` lines,
each key at most once: the model config, whose values ``ARNConfig`` checks
as it checks a config file's, the epoch, the best score and, with Adam
state, Adam's step count but not its constants, which are ``AdamState``'s
defaults. A tensor directory of ``tensor <name> <dims> <offset> <count>``
lines follows, terminated by a ``DATA <float_count>`` line, then raw
little-endian float32 payloads. The payloads are contiguous in directory
order: each entry's offset is the sum of the counts before it, and
``DATA`` is their total. Older checkpoints also hold ``cache.*`` tensors
(a stored copy of each attention block's value gate); the loader skips
them, since the gate is recomputed from the parameters.

``load_checkpoint`` reads the whole trainable table, and Adam's moments
when the file has them, for training, tests and checks. Its enhance load
(``for_enhance=True``, what ``arn enhance`` and ``arn evaluate --model``
use) holds no parameter: it reads and checks only Adam's moments, which it
drops, steps over every entry of the table, recording where each layer
lies, and keeps the file open. ``params_from_checkpoint`` makes that a
``StreamedTable``, from which ``model.enhance`` reads each layer
(``model.STREAMED_LAYERS``: the input and output projections, and in each
block its five layer norms, each direction of the RNN, attention and the
feedforward) as the op that uses it runs, into one buffer reused across
layers, blocks and files. A causal LSTM's input weights are read a gate at
a time, once per tile of ``tensor.TILE_ROWS`` frames (0.51 s of audio at
the presets' 2 ms shift); every other parameter is read once per file. At
full size a file reads 211 MiB + 389 KiB non-causal, and causal 243 MiB +
389 KiB for a file of one tile and 64 MiB more for each further tile. The
buffer is sized for the largest layer, or for two layers in use together:
20.0 MiB causal (the LSTM's recurrent weights and biases, 16 MiB + 16 KiB,
and one gate's input weights, 4 MiB) and 16.0 MiB non-causal (the
feedforward). Each such read is checked complete and finite before
any op sees it. A fault found at a layer's first read was
in the file at the load and is refused as the full load refuses it
(``CheckpointFormatError`` or ``CheckpointTruncatedError``, naming the
file and the entry); a layer that passed before and fails later, or any
read from a file whose size or modification time is no longer what it was
at the load, is refused with ``CheckpointChangedError``. An enhance load
that enhances nothing reads no layer.
"""

from __future__ import annotations

import math
import os
import tempfile
import weakref
from dataclasses import dataclass

import numpy as np

from . import losses, model, tensor
from .model import ARNConfig, ConfigurationError, check_field_types
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


class CheckpointChangedError(CheckpointError):
    """A checkpoint that an enhance load streams from changed after the
    load: its size or modification time, or a payload that passed its
    check before and is now short or not finite."""


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
        check_field_types(self)
        for name in ("epochs", "steps_per_epoch", "batch", "validate_every"):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"{name} must be at least 1")
        if self.validate_every > self.epochs:
            # no epoch would be validated, so no best.ckpt would be written
            raise ConfigurationError(f"validate_every must be at most epochs ({self.epochs})")
        if not math.inf > self.lr_hi > self.lr_lo > 0.0:
            raise ConfigurationError("need finite lr_hi > lr_lo > 0")
        if not 1 <= self.lr_knee < self.epochs:
            raise ConfigurationError("need 1 <= lr_knee < epochs")
        if self.loss not in losses.LOSS_FNS:
            raise ConfigurationError(f"unknown loss {self.loss!r}")
        if self.seed < 0:
            raise ConfigurationError(f"seed must be non-negative, got {self.seed}")


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


def _sweep_batch(batch, params, model_cfg: ARNConfig, loss_name: str, rng) -> float:
    """Sum one step's parameter gradients, one utterance at a time, and
    return the batch's mean loss.

    Each utterance's loss term, scaled by 1/B, is swept by ``tensor.backward``
    before the next utterance is built, so the step holds one utterance's
    graph at a time and the gradients add up across the sweeps. The mean
    sums the unscaled terms in batch order and scales once, as one graph of
    the whole batch would. A non-finite term ends the step before its sweep
    and is returned instead of the mean.
    """
    loss_fn = losses.LOSS_FNS[loss_name]
    weight = 1.0 / len(batch)
    total = None
    for x, s in batch:
        term = loss_fn(x, s, model.arn_forward(x, params, model_cfg, rng=rng))
        value = term.item()
        if not math.isfinite(value):
            return value
        total = term.data if total is None else total + term.data
        tensor.backward(tensor.scale(term, weight))
    return float(total * weight)


def train_epoch(params: dict, model_cfg: ARNConfig, adam: AdamState,
                cfg: TrainConfig, mixer, epoch: int, log=None) -> float:
    """Run one epoch of optimizer steps and return the mean loss.

    ``log``, when given, is called as ``log(epoch, step, loss, lr)`` after
    every step. A non-finite loss term aborts the epoch with diagnostic
    state: no Adam update runs for that step, and no parameter keeps a
    gradient from the utterances swept before it.
    """
    mix_rng = np.random.default_rng([cfg.seed, epoch, 0])
    drop_rng = np.random.default_rng([cfg.seed, epoch, 1])
    lr = lr_schedule(epoch, cfg)
    step_losses = []
    for step in range(1, cfg.steps_per_epoch + 1):
        batch = mixer.sample(mix_rng, cfg.batch)
        value = _sweep_batch(batch, params, model_cfg, cfg.loss, drop_rng)
        if not math.isfinite(value):
            for p in params.values():
                p.grad = None
            raise DivergenceError(
                f"non-finite loss {value} at epoch {epoch} step {step}")
        adam_step(params, adam, lr)
        step_losses.append(value)
        if log is not None:
            log(epoch, step, value, lr)
    return float(np.mean(step_losses))


def validate(params: dict, model_cfg: ARNConfig, val_pairs) -> float:
    """Mean SI-SNR of ``model.enhance`` over (noisy, clean) pairs."""
    if not val_pairs:
        raise ConfigurationError("validation set is empty")
    scores = [losses.si_snr(s, model.enhance(x, params, model_cfg)) for x, s in val_pairs]
    return float(np.mean(scores))


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
    # enhance load only: ``tensors`` is empty, ``blocks`` reads the table's
    # layers, and ``passed`` maps each entry of the file's table (the
    # streamed entries and any that the table check refuses), none of them
    # read, to its stored shape
    blocks: BlockReader | None = None
    passed: dict | None = None


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


def params_from_checkpoint(ckpt: Checkpoint) -> dict:
    """Rebuild float32 tensors, validating the file's table against the
    config's trainable shape table.

    From an enhance load, the table checked is the file's entries, none of
    them read, and what is returned is a ``StreamedTable``. Otherwise nothing
    is copied: each parameter's data is the array in ``ckpt.tensors``, so
    one copy of the weights is held, and an in-place update of a parameter
    also changes the checkpoint object.
    """
    expected = model.param_shapes(ckpt.model_cfg)
    stored = {name: arr.shape for name, arr in ckpt.tensors.items()} | (ckpt.passed or {})
    if set(stored) != set(expected):
        missing = sorted(set(expected) - set(stored))
        extra = sorted(set(stored) - set(expected))
        raise CheckpointShapeError(
            f"tensor table mismatch (missing={missing}, unexpected={extra})")
    for name, shape in expected.items():
        if stored[name] != shape:
            raise CheckpointShapeError(
                f"{name}: stored shape {stored[name]} != declared {shape}")
    if ckpt.blocks is not None:
        return StreamedTable(ckpt.blocks)
    return {name: tensor.Tensor(ckpt.tensors[name], requires_grad=True) for name in expected}


class StreamedTable:
    """An enhance load's table for ``model.enhance``, which holds no
    parameter: a reader of the checkpoint's layers bound to a prefix of the
    table's names, ``''`` for the whole table. ``read_layer(prefix)``, which
    ``model.layer_table`` calls just before the layer's op runs, reads the
    layer under the two prefixes from the checkpoint (``BlockReader.read``)
    and returns its tensors by name without the bound prefix; ``block(i)``,
    which ``model.block_table`` calls as the forward pass reaches block
    ``i``, is the reader bound to ``block<i>.``.
    """

    def __init__(self, blocks: BlockReader, prefix: str = ""):
        self._blocks, self._prefix = blocks, prefix

    def block(self, i: int) -> StreamedTable:
        return StreamedTable(self._blocks, f"block{i}.")

    def read_layer(self, prefix: str) -> dict:
        return {k[len(self._prefix):]: t
                for k, t in self._blocks.read(self._prefix + prefix).items()}


class BlockReader:
    """Where each layer of ``model.STREAMED_LAYERS`` lies in an enhance
    load's checkpoint, and the open file they are read from.

    ``read(layer)`` reads the entries of ``layer``, a layer's prefix in the
    parameter table (``model.streamed_layer``: ``'input_proj.'``,
    ``'block1.ln0.'``, ``'block1.blstm.fwd.'``, ``'block1.lstm.w_gx'``),
    into one buffer, allocated on the first read and reused across layers,
    blocks and calls, and returns a tensor viewing each entry, by its name
    in the table; a prefix that names no such layer reads nothing. A layer
    lies at the start of the buffer, unless its prefix extends another's
    past that one's last dot: a gate's LSTM input weights
    (``'block1.lstm.w_gx'``) lie after the rest of that LSTM
    (``'block1.lstm.'``), whose views the step loop reads while each gate's
    are read. So the buffer is sized for the largest layer or
    such a pair: at full size 20.0 MiB causal, set by the LSTM's recurrent
    weights and biases and one gate's input weights, and 16.0 MiB
    non-causal, set by the feedforward. A read may overwrite the views of
    any earlier read but those of the layer its own extends, so ``read``
    refuses to run while ops record
    (``tensor.recording``): a recorded graph would read the next layer's
    weights. The load does not read these entries, so this is their only
    check: each read must be complete and finite, and the file's size and
    ``st_mtime_ns`` must be those it had when loaded. A layer that fails at
    its first read, from the file as it was loaded, raises the load's own
    ``CheckpointFormatError`` or ``CheckpointTruncatedError``, naming the
    file and the entry. Once the layer has passed, or once the file's size
    or modification time has changed, ``read`` raises
    ``CheckpointChangedError`` naming the file. The file is closed when the
    reader is collected.
    """

    def __init__(self, fh, path: str, stat, layout: dict):
        # reads go to the file itself, not through the read-ahead buffer of
        # ``fh``, which would serve a layer's bytes as they were when buffered
        self._fh, self.path = fh.raw, path
        self._stat = (stat.st_size, stat.st_mtime_ns)
        # layer prefix -> (name, shape, byte position in the file, buffer
        # offset, count), each entry on a 16-float boundary of the buffer,
        # as the full load lays out its block. A layer whose name goes on
        # past its last dot (a gate's input weights, 'block1.lstm.w_gx') is
        # in use with the layer named up to that dot (the rest of its LSTM,
        # 'block1.lstm.'), so it lies after that layer
        spans = {layer: sum(-(-count // 16) * 16 for *_, count in entries)
                 for layer, entries in layout.items()}
        self._layout, self._size = {}, 0
        for layer, entries in layout.items():
            offset = spans.get(layer[:layer.rindex(".") + 1], 0) if layer[-1] != "." else 0
            placed = []
            for name, shape, position, count in entries:
                placed.append((name, shape, position, offset, count))
                offset += -(-count // 16) * 16
            self._layout[layer], self._size = placed, max(self._size, offset)
        # the layers read and checked at least once
        self._buffer, self._verified = None, set()
        weakref.finalize(self, fh.close)

    def read(self, layer: str) -> dict:
        if tensor.recording():
            raise RuntimeError(
                "a streamed checkpoint table serves only unrecorded enhancement "
                "(under tensor.no_grad): each layer's weights are overwritten by the next's")
        if self._buffer is None:
            self._buffer = np.empty(self._size, "<f4")
        views, fault = {}, None
        try:
            for name, shape, position, offset, count in self._layout.get(layer, ()):
                arr = self._buffer[offset:offset + count]
                self._fh.seek(position)
                _read_payload(self._fh, name, arr)
                views[name] = tensor.Tensor(arr.reshape(shape))
        except CheckpointError as exc:
            fault = exc
        now = os.fstat(self._fh.fileno())
        if (now.st_size, now.st_mtime_ns) != self._stat or (
                fault is not None and layer in self._verified):
            raise CheckpointChangedError(
                f"{self.path} changed after it was loaded: "
                f"{fault or 'its size or modification time is not what it was'}")
        if fault is not None:
            # the layer's first read, from the file as it was loaded: the
            # fault was there at the load, and is refused as the full load
            # refuses it
            raise type(fault)(f"{self.path}: {fault}")
        self._verified.add(layer)
        return views


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


def _bad_meta(key: str, value) -> CheckpointFormatError:
    return CheckpointFormatError(f"bad header value 'meta.{key}={_format_value(value)}'")


def _meta_int(meta: dict, key: str) -> int:
    """A count in the header: a non-negative integer, 0 when absent."""
    value = meta.get(key, 0)
    if type(value) is not int or value < 0:
        raise _bad_meta(key, value)
    return value


def _meta_score(meta: dict) -> float:
    """The best validation score: a number below +inf, or -inf (the value
    ``fit`` writes when no epoch was validated) when absent."""
    value = meta.get("best_score", -math.inf)
    if type(value) not in (int, float) or not value < math.inf:
        raise _bad_meta("best_score", value)
    return float(value)


def save_checkpoint(ckpt: Checkpoint, path):
    """Atomic write: header + payload to a temp file, then rename."""
    entries = list(ckpt.tensors.items())
    if ckpt.adam is not None:
        entries += [(f"adam.m.{k}", v) for k, v in ckpt.adam.m.items()]
        entries += [(f"adam.v.{k}", v) for k, v in ckpt.adam.v.items()]

    lines = [f"{_MAGIC} {FORMAT_VERSION}"]
    for key, value in ckpt.model_cfg.to_dict().items():
        lines.append(f"config.{key}={_format_value(value)}")
    lines.append(f"meta.epoch={ckpt.epoch}")
    lines.append(f"meta.best_score={_format_value(float(ckpt.best_score))}")
    if ckpt.adam is not None:
        lines.append(f"meta.adam.step_count={ckpt.adam.step_count}")

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


def load_checkpoint(path, for_enhance: bool = False) -> Checkpoint:
    """Parse and check a checkpoint file in one pass.

    The directory must lay the payloads out contiguously in its own order,
    with ``DATA`` their total; a gap, an entry that starts before the end
    of the one above it, or another ``DATA`` count raises
    ``CheckpointFormatError`` before any payload is read. The payloads are
    then read in that order, a chunk of ``_CHUNK`` floats at a time, and
    each chunk must be complete and finite; ``cache.*`` entries are stepped
    over, not read. The full load reads the tensors straight into their
    own float32 views of one block, so the weights are held once.

    With ``for_enhance``, the load holds no tensor, only the open file.
    Adam's moments are read through one chunk buffer, allocated only when
    there are any, checked, and dropped; ``adam`` is then None. Every other
    payload is stepped over, not read: ``blocks`` records where each layer
    of the table lies, and checks each as ``model.enhance`` reads it
    (``BlockReader``), so a bad parameter is refused at its first read,
    before the output of the file being enhanced is written, and a run
    that enhances nothing reads none. ``params_from_checkpoint`` checks the
    table, none of it read, as for a full load.
    """
    fh = open(path, "rb")
    try:
        ckpt = _read_checkpoint(fh, os.fspath(path), for_enhance)
    except BaseException:
        fh.close()
        raise
    if ckpt.blocks is None:
        fh.close()
    return ckpt


# floats read and checked at a time: 1 MiB, checked while still in the
# core's cache
_CHUNK = 1 << 18


def _read_payload(fh, name: str, arr: np.ndarray) -> None:
    """Read the next ``arr.nbytes`` of ``fh`` into ``arr``, a chunk at a
    time, each chunk checked complete and finite."""
    flat = arr.reshape(-1)
    for lo in range(0, flat.size, _CHUNK):
        part = flat[lo:lo + _CHUNK]
        if fh.readinto(part) != part.nbytes:
            raise CheckpointTruncatedError(f"{name}: payload ends early")
        # a NaN is both extremes, an infinity one of them; unlike isfinite,
        # no array of the chunk's size is made
        if not (np.isfinite(part.min()) and np.isfinite(part.max())):
            raise CheckpointFormatError(f"{name}: non-finite values")


def _read_checkpoint(fh, path: str, for_enhance: bool = False) -> Checkpoint:
    header = _read_header(fh)
    stat = os.fstat(fh.fileno())
    position = fh.tell()
    payload_bytes = stat.st_size - position

    if header[0] != f"{_MAGIC} {FORMAT_VERSION}":
        raise CheckpointFormatError(
            f"bad magic line {header[0]!r}, want '{_MAGIC} {FORMAT_VERSION}'")
    try:
        declared_floats = int(header[-1][len("DATA "):])
    except ValueError:
        raise CheckpointFormatError(f"bad DATA line {header[-1]!r}") from None
    if payload_bytes < declared_floats * 4:
        raise CheckpointTruncatedError(
            f"payload holds {payload_bytes // 4} floats, header declares {declared_floats}")

    # each entry's payload starts where the one before it ends, so the
    # directory's running end is also where the next read starts
    config, meta = {}, {}
    directory, names, end = [], set(), 0
    for line in header[1:-1]:
        if line.startswith(("config.", "meta.")):
            section, _, entry = line.partition(".")
            key, _, value = entry.partition("=")
            values = config if section == "config" else meta
            if key in values:
                raise CheckpointFormatError(f"header key {section}.{key} listed twice")
            try:
                values[key] = _parse_value(value)
            except ValueError:
                raise CheckpointFormatError(f"bad header value {line!r}") from None
        elif line.startswith("tensor "):
            try:
                _, name, dims, offset, count = line.split()
                shape = tuple(int(d) for d in dims.split("x"))
                offset, count = int(offset), int(count)
                if min(shape + (offset, count)) < 0:
                    raise ValueError("negative dimension, offset or count")
            except ValueError:
                raise CheckpointFormatError(f"bad tensor line {line!r}") from None
            if name in names:
                raise CheckpointFormatError(f"tensor {name} listed twice")
            if offset != end:
                raise CheckpointFormatError(
                    f"{name}: payload starts at float {offset}, not at {end} "
                    "where the entry before it ends")
            if math.prod(shape) != count:
                raise CheckpointShapeError(
                    f"{name}: shape {shape} does not hold {count} values")
            names.add(name)
            directory.append((name, shape, count))
            end += count
        else:
            raise CheckpointFormatError(f"unrecognized header line {line!r}")
    if end != declared_floats:
        raise CheckpointFormatError(
            f"directory holds {end} floats, DATA line declares {declared_floats}")

    try:
        model_cfg = ARNConfig.from_dict(config)
    except (TypeError, ConfigurationError) as exc:
        raise CheckpointFormatError(f"bad config block: {exc}") from None

    # the full load keeps every entry but the cache's; the enhance load
    # keeps none: it reads, checks and drops Adam's moments, and steps over
    # the rest, the table's layers, which it streams, and any entry the
    # table check then refuses
    streamed = model.param_shapes(model_cfg).keys() if for_enhance else ()
    kept = set() if for_enhance else {name for name, _, _ in directory
                                      if not name.startswith("cache.")}

    # Every kept tensor is a view of one block, each starting on a 64-byte
    # line. One allocation this large is mapped fresh from the OS (in huge
    # pages where the kernel gives them), so what the load costs does not
    # depend on which freed memory the heap still holds.
    spans = {name: -(-count // 16) * 16 for name, _, count in directory if name in kept}
    block = np.empty(sum(spans.values()), dtype="<f4")
    offsets, start = {}, 0
    for name, span in spans.items():
        offsets[name], start = start, start + span
    tensors, adam_m, adam_v = {}, {}, {}
    # the stored shape of each entry of the file's table not kept; each
    # layer's streamed entries, layer prefix -> [(name, shape, byte
    # position, count)]; the chunk buffer that the moments go through, when
    # there are any
    passed, layout = {}, {}
    chunk = None
    if for_enhance and any(name.startswith("adam.") for name, _, _ in directory):
        chunk = np.empty(_CHUNK, "<f4")
    for name, shape, count in directory:
        if name in kept:
            arr = block[offsets[name]:offsets[name] + count].reshape(shape)
            _read_payload(fh, name, arr)
            if name.startswith("adam.m."):
                adam_m[name[len("adam.m."):]] = arr
            elif name.startswith("adam.v."):
                adam_v[name[len("adam.v."):]] = arr
            else:
                tensors[name] = arr
        elif name.startswith("adam."):
            for lo in range(0, count, chunk.size):
                _read_payload(fh, name, chunk[:min(chunk.size, count - lo)])
        else:
            if not name.startswith("cache."):
                passed[name] = shape
            if name in streamed:
                layout.setdefault(model.streamed_layer(name), []).append(
                    (name, shape, position, count))
            fh.seek(count * 4, os.SEEK_CUR)
        position += count * 4

    adam = None
    if any(name.startswith("adam.m.") for name, _, _ in directory):
        step_count = _meta_int(meta, "adam.step_count")
        if adam_m:
            adam = AdamState(m=adam_m, v=adam_v, step_count=step_count)
    return Checkpoint(model_cfg=model_cfg, tensors=tensors, adam=adam,
                      best_score=_meta_score(meta),
                      epoch=_meta_int(meta, "epoch"),
                      blocks=BlockReader(fh, path, stat, layout) if for_enhance else None,
                      passed=passed if for_enhance else None)


def fit(params: dict, model_cfg: ARNConfig, cfg: TrainConfig, mixer,
        val_pairs, out_dir, log=None, progress=None) -> float:
    """Full training run with validation every ``cfg.validate_every`` epochs.

    ``best.ckpt`` in ``out_dir`` is rewritten, without Adam state, only on a
    strict improvement of the mean SI-SNR over ``val_pairs``; ``last.ckpt``
    holds the final parameters and Adam state. Returns the best validation
    score (``-inf`` if no epoch was validated).
    """
    adam = AdamState.for_params(params)
    best = -math.inf
    for epoch in range(1, cfg.epochs + 1):
        mean_loss = train_epoch(params, model_cfg, adam, cfg, mixer, epoch, log)
        if progress is not None:
            progress(epoch, mean_loss)
        if epoch % cfg.validate_every == 0:
            score = validate(params, model_cfg, val_pairs)
            if score > best:
                best = score
                # weights only, so enhancing from it reads no Adam moments;
                # last.ckpt keeps them for resuming
                ckpt = checkpoint_from(params, model_cfg, best_score=best, epoch=epoch)
                save_checkpoint(ckpt, os.path.join(os.fspath(out_dir), "best.ckpt"))
    ckpt = checkpoint_from(params, model_cfg, adam, best, cfg.epochs)
    save_checkpoint(ckpt, os.path.join(os.fspath(out_dir), "last.ckpt"))
    return best
