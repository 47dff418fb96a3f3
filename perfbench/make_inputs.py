#!/usr/bin/env python3
"""Generate the benchmark's inputs from a workload seed.

    python3 perfbench/make_inputs.py --seed 1

writes, under ``perfbench/_work/`` (ignored by git):

- ``weights-full-<H>/{causal_16k,noncausal_16k}.ckpt``: the full-size
  presets of ``configs/`` with random weights from the fixed seed
  ``WEIGHT_SEED``. The weights change the numbers computed, not the work
  done, so they are shared by every workload seed.
- ``full-seed<N>-<H>/``: the float32 WAVs of the enhance workloads and the
  demo corpus of ``scripts/make_demo_data.py --seed N``, all drawn from the
  seed, plus ``manifest.json``, which names every input and is written last.

``<H>`` is a hash of every file the inputs derive from (``SOURCES``): the
presets, the demo-data script, this script and the ``arn`` package. A
directory is built once and reused while its hash is current; a change to
any of those files builds new inputs, and directories of other hashes are
removed. ``--tiny`` writes a width-8, one-block model and short files, for
the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
from arn import model, training, wavio  # noqa: E402

WORK = ROOT / "perfbench" / "_work"
SAMPLE_RATE = 16000
WEIGHT_SEED = 2105
# what the inputs are built from, relative to the repository root
SOURCES = ("configs/causal_16k.json", "configs/noncausal_16k.json",
           "scripts/make_demo_data.py", "perfbench/make_inputs.py", "src/arn/*.py")

SCALES = {
    "full": {
        "model": {},                                  # the presets as they are
        "causal_seconds": (0.5, 1.0, 1.5, 3.0),
        "long_seconds": 8.0,
        "train_model": {},                            # the demo config as it is
        "batch": 8,
        "steps_per_round": 4,
        "excerpt_samples": 4000,
    },
    "tiny": {
        "model": {"width": 8, "num_blocks": 1},
        "causal_seconds": (0.05, 0.1),
        "long_seconds": 0.2,
        "train_model": {"width": 8, "num_blocks": 1},
        "batch": 2,
        "steps_per_round": 1,
        "excerpt_samples": 800,
    },
}


def noisy_speech(rng: np.random.Generator, seconds: float) -> np.ndarray:
    """A harmonic, amplitude-modulated tone plus white noise at 0-10 dB SNR."""
    n = int(round(seconds * SAMPLE_RATE))
    t = np.arange(n) / SAMPLE_RATE
    f0 = rng.uniform(100.0, 250.0)
    s = sum(rng.uniform(0.2, 1.0) / k * np.sin(2 * np.pi * k * f0 * t + rng.uniform(0, 2 * np.pi))
            for k in range(1, 6))
    s *= 0.4 + 0.6 * np.abs(np.sin(2 * np.pi * rng.uniform(1.5, 4.0) * t))
    noise = rng.standard_normal(n)
    x = s / np.sqrt(np.mean(s * s)) + 10 ** (-rng.uniform(0.0, 10.0) / 20) * noise
    return 0.5 * x / np.abs(x).max()


def source_hash() -> str:
    """A hash of the names and contents of the files in ``SOURCES``."""
    digest = hashlib.sha256()
    for pattern in SOURCES:
        for path in sorted(ROOT.glob(pattern)):
            digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _remove_stale(scale: str, current: str) -> None:
    """Remove the input directories of ``scale`` built from other sources."""
    for pattern in (f"weights-{scale}-*", f"{scale}-seed*-*"):
        for path in WORK.glob(pattern):
            if not path.name.endswith(f"-{current}"):
                shutil.rmtree(path, ignore_errors=True)


def _weights(scale: str, digest: str) -> dict:
    out = WORK / f"weights-{scale}-{digest}"
    out.mkdir(parents=True, exist_ok=True)
    paths = {}
    for preset in ("causal_16k", "noncausal_16k"):
        path = out / f"{preset}.ckpt"
        if not path.exists():  # save_checkpoint writes a temp file, then renames
            blob = json.loads((ROOT / "configs" / f"{preset}.json").read_text())
            cfg = model.ARNConfig.from_dict({**blob["model"], **SCALES[scale]["model"]})
            params = model.init_params(cfg, np.random.default_rng(WEIGHT_SEED))
            training.save_checkpoint(training.checkpoint_from(params, cfg), path)
        paths[preset] = str(path)
    return paths


def build(seed: int, scale: str = "full") -> Path:
    """Build (or reuse) the inputs of one seed; returns the manifest path."""
    digest = source_hash()
    final = WORK / f"{scale}-seed{seed}-{digest}"
    manifest_path = final / "manifest.json"
    if manifest_path.exists():
        return manifest_path
    WORK.mkdir(parents=True, exist_ok=True)
    _remove_stale(scale, digest)
    weights = _weights(scale, digest)
    spec = SCALES[scale]
    tmp = Path(tempfile.mkdtemp(dir=WORK, prefix=".build-"))

    for i, seconds in enumerate(spec["causal_seconds"]):
        (tmp / "causal_dir").mkdir(exist_ok=True)
        x = noisy_speech(np.random.default_rng([seed, 1, i]), seconds)
        wavio.write_wav(tmp / "causal_dir" / f"f{i}.wav", x)
    (tmp / "long").mkdir()
    wavio.write_wav(tmp / "long" / "long.wav",
                    noisy_speech(np.random.default_rng([seed, 2]), spec["long_seconds"]))

    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    subprocess.run([sys.executable, str(ROOT / "scripts" / "make_demo_data.py"),
                    "--out", str(tmp / "demo"), "--seed", str(seed)],
                   check=True, env=env, stdout=subprocess.DEVNULL, timeout=120)

    # paths are relative to the manifest's directory
    manifest = {
        "seed": seed,
        "scale": scale,
        "source_hash": digest,
        "causal_ckpt": os.path.relpath(weights["causal_16k"], final),
        "noncausal_ckpt": os.path.relpath(weights["noncausal_16k"], final),
        "causal_dir": "causal_dir",
        "long_dir": "long",
        "demo_dir": "demo",
        **{k: spec[k] for k in ("train_model", "batch", "steps_per_round", "excerpt_samples")},
    }
    (tmp / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    try:
        os.replace(tmp, final)
    except OSError:  # another run built the same inputs first
        shutil.rmtree(tmp)
        if not manifest_path.exists():
            raise
    return manifest_path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="width-8 model and short files, for the fast tests")
    args = parser.parse_args(argv)
    print(build(args.seed, "tiny" if args.tiny else "full"))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
