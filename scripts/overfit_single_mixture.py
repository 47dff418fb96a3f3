#!/usr/bin/env python3
"""Memorization sanity experiment: train a small causal model on one fixed
synthetic mixture and watch SI-SNR climb.

A healthy implementation passes 20 dB within a few hundred steps on a
desktop CPU; anything flat near 0 dB indicates broken gradients or wiring.
"""

import argparse
import time

import numpy as np

from arn import losses, model, tensor
from arn.mixing import MixtureRecipe, make_mixture
from arn.model import ARNConfig
from arn.optim import AdamState, adam_step


def synth_speech(length, seed):
    rng = np.random.default_rng(seed)
    t = np.arange(length) / 16000.0
    tone = (np.sin(2 * np.pi * 220 * t) + 0.5 * np.sin(2 * np.pi * 440 * t)
            + 0.25 * np.sin(2 * np.pi * 880 * t))
    return tone * (0.5 + 0.5 * np.sin(2 * np.pi * 2.5 * t)) \
        + 0.02 * rng.standard_normal(length)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--steps", type=int, default=500)
    parser.add_argument("--lr", type=float, default=2e-3)
    parser.add_argument("--width", type=int, default=64)
    parser.add_argument("--blocks", type=int, default=2)
    parser.add_argument("--snr", type=int, default=-5)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--report-every", type=int, default=25)
    args = parser.parse_args()

    speech = synth_speech(16000, args.seed)
    noise = np.random.default_rng(args.seed + 1).standard_normal(16000)
    x, s = make_mixture(MixtureRecipe("s", "n", 0, 0, args.snr),
                        speech, noise, 16000)
    print(f"mixture at {losses.snr(s, x):+.2f} dB SNR, "
          f"si-snr of noisy input: {losses.si_snr(s, x):+.2f} dB")

    cfg = ARNConfig(width=args.width, frame_in=256, frame_out=256, shift=256,
                    num_blocks=args.blocks, causal=True, dropout=0.0)
    params = model.init_params(cfg, np.random.default_rng(args.seed + 2),
                               dtype=np.float64)
    adam = AdamState.for_params(params)
    print(f"model: width {cfg.width}, {cfg.num_blocks} blocks, "
          f"{model.param_count(params):,} parameters")

    start = time.time()
    for step in range(1, args.steps + 1):
        out = model.arn_forward(x, params, cfg, mode="train")
        loss = losses.mse_loss(s, out)
        tensor.backward(loss)
        adam_step(params, adam, args.lr)
        if step % args.report_every == 0 or step == args.steps:
            si = losses.si_snr(s, model.enhance(x, params, cfg))
            print(f"step {step:4d}  loss {loss.item():.6f}  "
                  f"si-snr {si:+6.2f} dB  [{time.time() - start:5.1f}s]")


if __name__ == "__main__":
    main()
