#!/usr/bin/env python3
"""Generate a synthetic desk-scale corpus for exercising the CLI end to end.

Writes harmonic "speech" utterances and filtered-noise WAVs, the two corpus
index files, and a small training config. Afterwards:

    python scripts/make_demo_data.py --out demo
    arn train --config demo/config.json \
        --speech-index demo/speech.idx --noise-index demo/noise.idx \
        --out demo/run
    arn enhance --model demo/run/best.ckpt --in demo/speech/s0.wav \
        --out demo/enhanced.wav
"""

import argparse
import json
from pathlib import Path

import numpy as np
from scipy.signal import lfilter

from arn.wavio import SAMPLE_RATE, write_wav


def harmonic_utterance(rng, seconds):
    n = int(seconds * SAMPLE_RATE)
    t = np.arange(n) / SAMPLE_RATE
    f0 = rng.uniform(120.0, 280.0)
    x = np.zeros(n)
    for k in range(1, 6):
        x += rng.uniform(0.2, 1.0) / k * np.sin(2 * np.pi * k * f0 * t
                                                + rng.uniform(0, 2 * np.pi))
    envelope = 0.4 + 0.6 * np.abs(np.sin(2 * np.pi * rng.uniform(1.5, 4.0) * t))
    x *= envelope
    # leading/trailing silence exercises the trimming stage
    pad = np.zeros(int(0.2 * SAMPLE_RATE))
    x = np.concatenate([pad, x, pad])
    return 0.3 * x / np.abs(x).max()


def colored_noise(rng, seconds):
    n = int(seconds * SAMPLE_RATE)
    white = rng.standard_normal(n)
    # one-pole lowpass gives a vaguely environmental spectrum
    alpha = rng.uniform(0.9, 0.99)
    out = lfilter([1.0 - alpha], [1.0, -alpha], white)
    out += 0.05 * white
    return 0.3 * out / np.abs(out).max()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="demo")
    parser.add_argument("--speech-utterances", type=int, default=6)
    parser.add_argument("--noises", type=int, default=4)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    root = Path(args.out)
    (root / "speech").mkdir(parents=True, exist_ok=True)
    (root / "noise").mkdir(parents=True, exist_ok=True)

    speech_lines = []
    for i in range(args.speech_utterances):
        x = harmonic_utterance(rng, seconds=rng.uniform(1.5, 3.0))
        write_wav(root / "speech" / f"s{i}.wav", x)
        speech_lines.append(f"s{i}\tspeech/s{i}.wav\t{x.size}")
    (root / "speech.idx").write_text("\n".join(speech_lines) + "\n")

    noise_lines = []
    for i in range(args.noises):
        n = colored_noise(rng, seconds=rng.uniform(3.0, 5.0))
        write_wav(root / "noise" / f"n{i}.wav", n)
        noise_lines.append(f"n{i}\tnoise/n{i}.wav\t{n.size}")
    (root / "noise.idx").write_text("\n".join(noise_lines) + "\n")

    # sized so a full run takes half a minute on one CPU core; doubling the
    # epochs brings validation SI-SNR clearly above the noisy input
    config = {
        "model": {"width": 48, "frame_in": 128, "frame_out": 64, "shift": 64,
                  "num_blocks": 2, "causal": True, "dropout": 0.05},
        "train": {"epochs": 8, "steps_per_epoch": 20, "batch": 2,
                  "lr_hi": 0.001, "lr_lo": 0.0001, "lr_knee": 3,
                  "validate_every": 2, "seed": 0},
        "mixing": {"target_len": 8000, "val_pairs": 3},
    }
    (root / "config.json").write_text(json.dumps(config, indent=2) + "\n")
    print(f"wrote {args.speech_utterances} speech and {args.noises} noise files "
          f"under {root}/ plus config.json")


if __name__ == "__main__":
    main()
