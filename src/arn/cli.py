"""Command-line surface: train, enhance, evaluate, mix.

Exit codes: 0 success, 2 usage error or malformed list file (evaluate
manifest, corpus index), 3 malformed/unsupported WAV (including non-finite
samples), 4 model, checkpoint or training-config problem, 1 anything else,
running out of memory included. The environment variable ``ARN_SEED``
overrides the default seed 0.

``evaluate`` reads a manifest of ``<clean path>\\t<degraded-or-enhanced
path>`` lines and prints one tab-separated record per pair
(``clean  other  snr_db  si_snr_db``) followed by a ``mean`` line; with
``--model`` the second file of each pair is enhanced before scoring. An
error while reading, enhancing or scoring a pair names the manifest, the
line and both paths, and exits with the code of the error itself.

``enhance`` and ``evaluate --model`` hold the checkpoint open and read
every parameter from it for every file, one layer at a time (the input and
output projections, each layer norm, and each direction of a BLSTM apart),
when the model's op that uses it runs; the load reads none of them. A
parameter that is not complete and finite is refused at its first read,
with exit 4, naming the checkpoint and the entry, before that file's
output is written; a run that enhances nothing (no WAVs, or only empty or
silent input) reads no layer and so refuses none. A checkpoint that
changes during the run, in size or modification time, or whose layers fail
a later read after passing an earlier one, is refused with exit 4, naming
the file.
A checkpoint whose weights are finite but overflow the network, so that
an input enhances to non-finite values, is refused with exit 4, naming the
checkpoint and the input, before any score or output of that input. In
each case outputs written before then stay written.

Each of these errors is one ``error:`` line on standard error. When
``enhance`` or ``evaluate --model`` runs out of memory on an input, the line
names the file and its length in seconds; ``enhance`` writes no output for
that file and stops there.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from . import losses, mixing, model, training, wavio
from .dsp import DegenerateSignalError
from .mixing import CorpusIndex, DynamicMixer, ListFileError, MixtureRecipe
from .model import ARNConfig, ConfigurationError, check_type
from .training import CheckpointError, DivergenceError, TrainConfig
from .wavio import WavFormatError

EXIT_USAGE = 2
EXIT_WAV = 3
EXIT_MODEL = 4
EXIT_OTHER = 1


class ModelOutputError(Exception):
    """A checkpoint's weights, each finite, enhance an input to non-finite
    values: the network overflows on it."""


class PairError(Exception):
    """An error while processing one pair of an ``evaluate`` manifest,
    naming the pair; ``code`` is the exit code of the error it wraps."""

    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _exit_code(exc: BaseException):
    """The documented exit code of an error, or None for one that is not
    the input's or the configuration's (a bug), which keeps its traceback."""
    if isinstance(exc, PairError):
        return exc.code
    if isinstance(exc, ListFileError):
        return EXIT_USAGE
    if isinstance(exc, WavFormatError):
        return EXIT_WAV
    if isinstance(exc, (CheckpointError, ConfigurationError, ModelOutputError)):
        return EXIT_MODEL
    if isinstance(exc, (OSError, ValueError, DivergenceError, MemoryError)):
        return EXIT_OTHER
    return None


def _seed() -> int:
    raw = os.environ["ARN_SEED"]
    try:
        return int(raw)
    except ValueError:
        raise ConfigurationError(f"ARN_SEED must be an integer, got {raw!r}") from None


def _load_model(ckpt_path):
    # the streamed table: no Adam moment, and each layer read from the
    # file, for every enhanced file, when the op that uses it runs
    ckpt = training.load_checkpoint(ckpt_path, for_enhance=True)
    params = training.params_from_checkpoint(ckpt)
    return params, ckpt.model_cfg


def _enhance_signal(x: np.ndarray, params, cfg, path, model_path) -> np.ndarray:
    # the model is trained on unit-RMS mixtures: normalize in, scale back out.
    # An empty signal enhances to an empty one, a silent one to silence.
    r = mixing.rms(x) if x.size else 0.0
    if r == 0.0:
        return np.zeros_like(x)
    seconds = x.size / wavio.SAMPLE_RATE
    # normalized straight into float32, the forward pass's dtype: each
    # sample is the float64 product rounded, as the pass's own cast would
    # round it. The float64 input is then dropped, so that the pass does
    # not hold it when the caller passed its only reference
    xn = np.multiply(x, 1.0 / r, out=np.empty(x.shape, np.float32))
    del x
    try:
        # weights that overflow the network are refused below, at its
        # output, so numpy's warnings on the way there are not printed
        with np.errstate(over="ignore", invalid="ignore"):
            y = model.enhance(xn, params, cfg)
    except MemoryError as exc:
        # numpy's message names the array that did not fit
        raise MemoryError(f"out of memory enhancing {path} "
                          f"({seconds:.2f} s of audio): {exc}") from None
    if not np.isfinite(y).all():
        raise ModelOutputError(f"{model_path}: enhancing {path} gives non-finite values: "
                               "the checkpoint's weights overflow the network")
    # scale back in float64: near float32's maximum, y * r overflows float32
    return y.astype(np.float64) * r


def cmd_enhance(args) -> int:
    params, cfg = _load_model(args.model)
    src = Path(args.input)
    dst = Path(args.output)
    if src.is_dir():
        dst.mkdir(parents=True, exist_ok=True)
        pairs = [(p, dst / p.name) for p in sorted(src.glob("*.wav"))]
    else:
        pairs = [(src, dst)]
    encoding = "pcm16" if args.pcm16 else "float32"
    for in_path, out_path in pairs:
        enhanced = _enhance_signal(wavio.read_wav(in_path), params, cfg, in_path, args.model)
        wavio.write_wav(out_path, enhanced, encoding=encoding)
    return 0


def cmd_evaluate(args) -> int:
    enhancer = None
    if args.model:
        params, cfg = _load_model(args.model)
        enhancer = lambda x, path: _enhance_signal(x, params, cfg, path, args.model)
    snrs, sis = [], []
    for number, (clean_path, other_path) in mixing.read_list_file(args.pairs, (str, str)):
        try:
            clean = wavio.read_wav(clean_path)
            other = wavio.read_wav(other_path)
            if enhancer is not None:
                other = enhancer(other, other_path)
            pair_snr = losses.snr(clean, other)
            pair_si = losses.si_snr(clean, other)
        except Exception as exc:
            code = _exit_code(exc)
            if code is None:
                raise
            raise PairError(f"{args.pairs}, line {number} ({clean_path}, {other_path}): "
                            f"{exc}", code) from exc
        snrs.append(pair_snr)
        sis.append(pair_si)
        print(f"{clean_path}\t{other_path}\t{pair_snr:.3f}\t{pair_si:.3f}")
    if not snrs:
        print("mean\t0\tnan\tnan")
        return 0
    print(f"mean\t{len(snrs)}\t{np.mean(snrs):.3f}\t{np.mean(sis):.3f}")
    return 0


def cmd_mix(args) -> int:
    speech = wavio.read_wav(args.speech)
    noise = wavio.read_wav(args.noise)
    for role, path, samples in (("speech", args.speech, speech), ("noise", args.noise, noise)):
        if samples.size == 0:
            raise DegenerateSignalError(f"{role} file {path} has no samples")
    target_len = min(speech.size, noise.size, mixing.CHUNK_LEN)
    recipe = MixtureRecipe(
        speech_id=os.fspath(args.speech), noise_id=os.fspath(args.noise),
        speech_offset=0, noise_offset=0, snr_db=args.snr)
    x, s = mixing.make_mixture(recipe, speech[:target_len], noise, target_len)
    wavio.write_wav(f"{args.out}.noisy.wav", x)
    wavio.write_wav(f"{args.out}.clean.wav", s)
    return 0


# the keys of a training config's ``mixing`` block: ``DynamicMixer``'s
# options, and the number of validation pairs drawn from it
MIXING_KEYS = ("snr_choices", "target_len", "trim_db", "val_pairs")


def _config_block(blob: dict, section: str, keys) -> dict:
    """One block of a training config, every key one of ``keys``. The
    values are checked by the class that the block configures."""
    opts = blob.get(section, {})
    if not isinstance(opts, dict):
        raise ConfigurationError(f"config block {section!r} must be an object")
    for key in opts:
        if key not in keys:
            raise ConfigurationError(f"unknown {section} key {key!r}")
    return opts


def _load_train_config(path):
    """The model and train configs, the mixer's options and the number of
    validation pairs of a training config file."""
    try:
        blob = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"{path} is not valid JSON: {exc}") from None
    if not isinstance(blob, dict):
        raise ConfigurationError("a training config must be a JSON object")
    unknown = sorted(set(blob) - {"model", "train", "mixing"})
    if unknown:
        raise ConfigurationError(f"unknown config block(s): {', '.join(unknown)}")
    model_cfg = ARNConfig(**_config_block(
        blob, "model", [f.name for f in fields(ARNConfig)]))
    train_cfg = TrainConfig(**_config_block(
        blob, "train", [f.name for f in fields(TrainConfig)]))
    mix_opts = _config_block(blob, "mixing", MIXING_KEYS)
    val_pairs = mix_opts.pop("val_pairs", 4)
    check_type("mixing.val_pairs", val_pairs, 4)
    if val_pairs < 1:
        raise ConfigurationError("mixing.val_pairs must be at least 1")
    return model_cfg, train_cfg, mix_opts, val_pairs


def cmd_train(args) -> int:
    # every config check runs before --out is created, the mixing options'
    # when the mixer is built, after the corpus indexes are read
    model_cfg, train_cfg, mix_opts, val_count = _load_train_config(args.config)
    # precedence: --seed flag, then ARN_SEED, then the config file; the
    # override goes through TrainConfig's own checks
    if args.seed is not None:
        train_cfg = replace(train_cfg, seed=args.seed)
    elif "ARN_SEED" in os.environ:
        train_cfg = replace(train_cfg, seed=_seed())
    speech = CorpusIndex(args.speech_index)
    noise = CorpusIndex(args.noise_index)
    mixer = DynamicMixer(speech, noise, **mix_opts)

    # a draw that cannot mix (an overflowing SNR, noises shorter than a
    # chunk) fails here, before --out exists
    val_pairs = mixer.sample(np.random.default_rng([train_cfg.seed, 0xA11]), val_count)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    params = model.init_params(model_cfg, np.random.default_rng(train_cfg.seed),
                               dtype=np.float32)

    log_path = out_dir / "train_log.csv"
    with open(log_path, "w") as log_fh:
        def log(epoch, step, loss, lr):
            log_fh.write(f"{epoch},{step},{loss:.8g},{lr:.8g}\n")

        def progress(epoch, mean_loss):
            print(f"epoch {epoch}: mean loss {mean_loss:.6g}", flush=True)

        best = training.fit(params, model_cfg, train_cfg, mixer, val_pairs,
                            out_dir, log, progress=progress)
    print(f"best validation score: {best:.3f} dB")
    return 0


def _snr_db(text: str) -> float:
    """``--snr``: a number that ``mixing.noise_gain`` accepts."""
    value = float(text)
    try:
        mixing.noise_gain(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arn",
        description="Attentive recurrent network for time-domain speech enhancement")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a model with dynamic mixing")
    p_train.add_argument("--config", required=True)
    p_train.add_argument("--speech-index", required=True)
    p_train.add_argument("--noise-index", required=True)
    p_train.add_argument("--out", required=True)
    p_train.add_argument("--seed", type=int, default=None)
    p_train.set_defaults(func=cmd_train)

    p_enh = sub.add_parser("enhance", help="enhance a WAV file or directory")
    p_enh.add_argument("--model", required=True)
    p_enh.add_argument("--in", dest="input", required=True)
    p_enh.add_argument("--out", dest="output", required=True)
    p_enh.add_argument("--pcm16", action="store_true",
                       help="write clamped 16-bit PCM instead of float32")
    p_enh.set_defaults(func=cmd_enhance)

    p_eval = sub.add_parser("evaluate", help="score clean/degraded pairs")
    p_eval.add_argument("--model", default=None,
                        help="enhance the second file of each pair before scoring")
    p_eval.add_argument("--pairs", required=True)
    p_eval.set_defaults(func=cmd_evaluate)

    p_mix = sub.add_parser("mix", help="mix speech and noise at a target SNR")
    p_mix.add_argument("--speech", required=True)
    p_mix.add_argument("--noise", required=True)
    p_mix.add_argument("--snr", type=_snr_db, required=True)
    p_mix.add_argument("--out", required=True, help="output path prefix")
    p_mix.set_defaults(func=cmd_mix)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except Exception as exc:
        code = _exit_code(exc)
        if code is None:
            raise
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return code


def entrypoint():
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
