"""Correctness checks on the program's outputs.

Each check takes plain arrays or numbers and returns a list of failure
messages, empty when the output passes. The tolerances are fixed here, from
float32 arithmetic, not from today's output.
"""

from __future__ import annotations

import math

import numpy as np

# model.enhance (float32) against the float64 reference forward, relative to
# the reference's peak; measured agreement is about 1e-6 at full size
FORWARD_RTOL = 1e-4
# a written float32 output against r * enhance(x / r) recomputed in-process
RESCALE_RTOL = 1e-5
# the logged float32 PCM loss against the float64 rfft computation
LOSS_RTOL = 1e-4
# Adam: parameter after the update against the textbook update, as a share
# of the learning rate (the update's own scale) plus float32 rounding of p
ADAM_LR_SHARE = 1e-3
ADAM_P_RTOL = 2e-7
SNR_ATOL_DB = 1e-6


def _peak_err(actual, expected):
    expected = np.asarray(expected, dtype=np.float64)
    err = np.abs(np.asarray(actual, dtype=np.float64) - expected).max()
    return err, max(np.abs(expected).max(), np.finfo(np.float32).tiny)


def output_wav(name, x, y) -> list:
    if y.shape != x.shape:
        return [f"{name}: {y.size} output samples for {x.size} input samples"]
    if not np.isfinite(y).all():
        return [f"{name}: {np.count_nonzero(~np.isfinite(y))} non-finite output samples"]
    return []


def rescaled(name, y, expected) -> list:
    if y.shape != np.shape(expected):
        return [f"{name}: output and in-process enhancement differ in length"]
    err, peak = _peak_err(y, expected)
    if not err <= RESCALE_RTOL * peak:
        return [f"{name}: output differs from r*enhance(x/r) by {err:.3g} (peak {peak:.3g})"]
    return []


def warmup(name, y, samples: int) -> list:
    if np.any(y[:samples] != 0.0):
        return [f"{name}: causal warm-up region of {samples} samples is not all zero"]
    return []


def reference_forward(y_program, y_reference) -> list:
    err, peak = _peak_err(y_program, y_reference)
    if not err <= FORWARD_RTOL * peak:
        return [f"enhance differs from the numpy reference by {err:.3g} (peak {peak:.3g})"]
    return []


def finite_losses(values) -> list:
    bad = [v for v in values if not math.isfinite(v)]
    return [f"{len(bad)} non-finite training losses"] if bad else []


def same_loss(replayed, logged) -> list:
    if replayed != logged:
        return [f"first step replayed to loss {replayed!r}, logged {logged!r}"]
    return []


def pcm_loss(program_value, reference_value) -> list:
    if not abs(program_value - reference_value) <= LOSS_RTOL * abs(reference_value):
        return [f"PCM loss {program_value:.8g} != rfft reference {reference_value:.8g}"]
    return []


def adam_update(name, p_after, p_reference, lr) -> list:
    p_reference = np.asarray(p_reference, dtype=np.float64)
    err = np.abs(np.asarray(p_after, dtype=np.float64) - p_reference)
    if not np.all(err <= ADAM_LR_SHARE * lr + ADAM_P_RTOL * np.abs(p_reference)):
        return [f"Adam update of {name} off the textbook formula by {err.max():.3g}"]
    return []


def mixture_snr(measured_db, recipe_db) -> list:
    if not abs(measured_db - recipe_db) <= SNR_ATOL_DB:
        return [f"mixture SNR {measured_db:.9f} dB, recipe asks {recipe_db} dB"]
    return []
