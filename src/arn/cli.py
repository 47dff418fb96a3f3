"""Command-line surface: train, enhance, evaluate, mix.

Exit codes: 0 success, 2 usage error or malformed list file (evaluate
manifest, corpus index), 3 malformed/unsupported WAV (including non-finite
samples), 4 model, checkpoint or training-config problem, 1 anything else.
The environment variable ``ARN_SEED`` overrides the default seed 0.

``evaluate`` reads a manifest of ``<clean path>\\t<degraded-or-enhanced
path>`` lines and prints one tab-separated record per pair
(``clean  other  snr_db  si_snr_db``) followed by a ``mean`` line; with
``--model`` the second file of each pair is enhanced before scoring.
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
from .mixing import CorpusIndex, DynamicMixer, ListFileError, MixtureRecipe
from .model import ARNConfig, ConfigurationError
from .training import CheckpointError, DivergenceError, TrainConfig
from .wavio import WavFormatError

EXIT_USAGE = 2
EXIT_WAV = 3
EXIT_MODEL = 4


def _seed() -> int:
    raw = os.environ["ARN_SEED"]
    try:
        return int(raw)
    except ValueError:
        raise ConfigurationError(f"ARN_SEED must be an integer, got {raw!r}") from None


def _load_model(ckpt_path):
    ckpt = training.load_checkpoint(ckpt_path)
    params = training.params_from_checkpoint(ckpt)
    return params, ckpt.model_cfg


def _enhance_signal(x: np.ndarray, params, cfg) -> np.ndarray:
    # the model is trained on unit-RMS mixtures: normalize in, scale back out.
    # An empty signal enhances to an empty one, a silent one to silence.
    r = mixing.rms(x) if x.size else 0.0
    if r == 0.0:
        return np.zeros_like(x)
    y = model.enhance(x * (1.0 / r), params, cfg)
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
        enhanced = _enhance_signal(wavio.read_wav(in_path), params, cfg)
        wavio.write_wav(out_path, enhanced, encoding=encoding)
    return 0


def cmd_evaluate(args) -> int:
    enhancer = None
    if args.model:
        params, cfg = _load_model(args.model)
        enhancer = lambda x: _enhance_signal(x, params, cfg)
    snrs, sis = [], []
    for clean_path, other_path in mixing.read_list_file(args.pairs, (str, str)):
        clean = wavio.read_wav(clean_path)
        other = wavio.read_wav(other_path)
        if enhancer is not None:
            other = enhancer(other)
        pair_snr = losses.snr(clean, other)
        pair_si = losses.si_snr(clean, other)
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
    target_len = min(speech.size, noise.size, mixing.CHUNK_LEN)
    recipe = MixtureRecipe(
        speech_id=os.fspath(args.speech), noise_id=os.fspath(args.noise),
        speech_offset=0, noise_offset=0, snr_db=args.snr)
    x, s = mixing.make_mixture(recipe, speech[:target_len], noise, target_len)
    wavio.write_wav(f"{args.out}.noisy.wav", x)
    wavio.write_wav(f"{args.out}.clean.wav", s)
    return 0


# the keys of a training config's ``mixing`` block and their defaults
MIXING_DEFAULTS = {"snr_choices": list(mixing.TRAIN_SNRS_DB),
                   "target_len": mixing.CHUNK_LEN,
                   "trim_db": mixing.TRIM_THRESHOLD_DB, "val_pairs": 4}


def _config_block(blob: dict, section: str, defaults: dict) -> dict:
    """One block of a training config merged over its defaults.

    Every key must be known and hold a value of its default's type (an int
    passes for a float), so a bad value is refused with its name before
    a config class compares or stores it.
    """
    opts = blob.get(section, {})
    if not isinstance(opts, dict):
        raise ConfigurationError(f"config block {section!r} must be an object")
    for key, value in opts.items():
        if key not in defaults:
            raise ConfigurationError(f"unknown {section} key {key!r}")
        want = type(defaults[key])
        if isinstance(value, bool) != (want is bool) or not isinstance(
                value, (int, float) if want is float else want):
            raise ConfigurationError(
                f"{section}.{key} must be of type {want.__name__}, got {value!r}")
    return {**defaults, **opts}


def _field_defaults(cls) -> dict:
    return {f.name: f.default for f in fields(cls)}


def _load_train_config(path):
    try:
        blob = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"{path} is not valid JSON: {exc}") from None
    if not isinstance(blob, dict):
        raise ConfigurationError("a training config must be a JSON object")
    unknown = sorted(set(blob) - {"model", "train", "mixing"})
    if unknown:
        raise ConfigurationError(f"unknown config block(s): {', '.join(unknown)}")
    model_cfg = ARNConfig.from_dict(
        _config_block(blob, "model", _field_defaults(ARNConfig)))
    train_cfg = TrainConfig.from_dict(
        _config_block(blob, "train", _field_defaults(TrainConfig)))
    mix_opts = _config_block(blob, "mixing", MIXING_DEFAULTS)
    choices = mix_opts["snr_choices"]
    if not choices or any(isinstance(c, bool) or not isinstance(c, (int, float))
                          for c in choices):
        raise ConfigurationError("mixing.snr_choices must be a non-empty list of numbers")
    for snr in choices:
        try:
            mixing.noise_gain(snr)
        except ValueError as exc:
            raise ConfigurationError(f"mixing.snr_choices: {exc}") from None
    for key in ("target_len", "val_pairs"):
        if mix_opts[key] < 1:
            raise ConfigurationError(f"mixing.{key} must be at least 1")
    return model_cfg, train_cfg, mix_opts


def cmd_train(args) -> int:
    # every config check runs before --out is created
    model_cfg, train_cfg, mix_opts = _load_train_config(args.config)
    # precedence: --seed flag, then ARN_SEED, then the config file; the
    # override goes through TrainConfig's own checks
    if args.seed is not None:
        train_cfg = replace(train_cfg, seed=args.seed)
    elif "ARN_SEED" in os.environ:
        train_cfg = replace(train_cfg, seed=_seed())
    speech = CorpusIndex(args.speech_index)
    noise = CorpusIndex(args.noise_index)
    mixer = DynamicMixer(speech, noise, snr_choices=tuple(mix_opts["snr_choices"]),
                         target_len=mix_opts["target_len"], trim_db=mix_opts["trim_db"])

    # a draw that cannot mix (an overflowing SNR, noises shorter than a
    # chunk) fails here, before --out exists
    val_pairs = mixer.sample(np.random.default_rng([train_cfg.seed, 0xA11]),
                             mix_opts["val_pairs"])
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
    except ListFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except WavFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_WAV
    except (CheckpointError, ConfigurationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MODEL
    except (OSError, ValueError, DivergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint():
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
