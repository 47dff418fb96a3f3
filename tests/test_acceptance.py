"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as the suite executes.
"""

import math
import time

import numpy as np
import scipy.stats

from arn import losses, model, tensor, training
from arn.dsp import StftConfig
from arn.losses import mse_loss, pcm_loss, si_snr, snr
from arn.mixing import ArrayCorpus, DynamicMixer, MixtureRecipe, TRAIN_SNRS_DB, make_mixture
from arn.model import ARNConfig, arn_forward_frames, attention_block, init_params
from arn.optim import AdamState, adam_step
from arn.tensor import Tensor
from arn.training import (
    TrainConfig,
    checkpoint_from,
    load_checkpoint,
    lr_schedule,
    params_from_checkpoint,
    save_checkpoint,
    train_epoch,
)

from gradtools import check_grads, finite_diff_multi
from test_model import naive_attention


def report(criterion: str, ok: bool, detail: str = ""):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"{criterion} failed: {detail}"


def synth_speech(length, seed=0):
    rng = np.random.default_rng(seed)
    t = np.arange(length) / 16000.0
    tone = (np.sin(2 * np.pi * 220 * t) + 0.5 * np.sin(2 * np.pi * 440 * t)
            + 0.25 * np.sin(2 * np.pi * 880 * t))
    return tone * (0.5 + 0.5 * np.sin(2 * np.pi * 2.5 * t)) \
        + 0.02 * rng.standard_normal(length)


def test_01_gradient_suite():
    """Every parameter gradient of both losses matches central differences."""
    start = time.time()
    cfg = ARNConfig(width=16, frame_in=8, frame_out=8, shift=4, num_blocks=2,
                    causal=True, dropout=0.0)
    params = init_params(cfg, np.random.default_rng(0), dtype=np.float64)
    rng = np.random.default_rng(1)
    x = rng.standard_normal(20)  # T = ceil(20/4) = 5 frames
    s = rng.standard_normal(20)
    stft_cfg = StftConfig(fft_size=32, win_len=16, hop=8)

    def graphs():
        out = model.arn_forward(x, params, cfg)
        return mse_loss(s, out), pcm_loss(x, s, out, stft_cfg)

    def values():
        with tensor.no_grad():
            a, b = graphs()
            return a.item(), b.item()

    names = sorted(params)
    arrays = [params[k].data for k in names]

    analytic = []
    for idx in (0, 1):
        for p in params.values():
            p.grad = None
        tensor.backward(graphs()[idx])
        analytic.append([params[k].grad for k in names])

    fd_mse, fd_pcm = finite_diff_multi(values, arrays)
    rel_mse = check_grads(analytic[0], fd_mse, rtol=1e-5)
    rel_pcm = check_grads(analytic[1], fd_pcm, rtol=1e-5)
    elapsed = time.time() - start
    report("1 gradient-suite",
           rel_mse < 1e-5 and rel_pcm < 1e-5 and elapsed < 60.0,
           f"(max rel err mse={rel_mse:.2e} pcm={rel_pcm:.2e}, "
           f"{model.param_count(params)} params, {elapsed:.1f}s)")


def test_02_causality():
    """Output frames 1..t are immune to arbitrary later-frame perturbations."""
    cfg = ARNConfig(width=16, frame_in=16, frame_out=8, shift=4, num_blocks=2,
                    causal=True, dropout=0.0)
    params = init_params(cfg, np.random.default_rng(2), dtype=np.float32)
    rng = np.random.default_rng(3)
    steps = 24
    base = rng.standard_normal((steps, cfg.frame_in)).astype(np.float32)
    with tensor.no_grad():
        ref = arn_forward_frames(Tensor(base), params, cfg).data

    worst = 0.0
    for _ in range(20):
        t = int(rng.integers(0, steps - 1))
        perturbed = base.copy()
        perturbed[t + 1:] += (10.0 ** rng.uniform(-2, 2)) * \
            rng.standard_normal(perturbed[t + 1:].shape).astype(np.float32)
        with tensor.no_grad():
            out = arn_forward_frames(Tensor(perturbed), params, cfg).data
        worst = max(worst, float(np.abs(out[: t + 1] - ref[: t + 1]).max()))
    report("2 causality", worst <= 1e-6, f"(max deviation {worst:.2e})")


def test_03_attention_oracle():
    """Vectorized attention equals the naive loop reference."""
    rng = np.random.default_rng(4)
    worst = 0.0
    for case in range(50):
        steps = int(rng.integers(1, 11))
        n = int(rng.integers(1, 9))
        causal = bool(case % 2)
        p = {}
        for vec in ("q", "k", "v"):
            p[vec] = Tensor(rng.standard_normal(n))
        for lin in ("lin_q", "lin_v_sig", "lin_v_tanh"):
            p[f"{lin}.w"] = Tensor(rng.standard_normal((n, n)) / math.sqrt(n))
            p[f"{lin}.b"] = Tensor(0.2 * rng.standard_normal(n))
        q = rng.standard_normal((steps, n))
        k = rng.standard_normal((steps, n))
        v = rng.standard_normal((steps, n))
        got = attention_block(Tensor(q), Tensor(k), Tensor(v), p, causal).data
        want = naive_attention(q, k, v, {key: t.data for key, t in p.items()},
                               causal)
        worst = max(worst, float(np.abs(got - want).max()))
    report("3 attention-oracle", worst <= 1e-6, f"(max deviation {worst:.2e})")


def test_04_overlap_add_identity():
    """Framing followed by overlap-add reproduces the signal exactly."""
    rng = np.random.default_rng(5)
    worst = 0.0
    for frame_len, shift in ((256, 32), (512, 32), (256, 256)):
        x = rng.standard_normal(10000).astype(np.float32)
        frames = tensor.frame_rows(Tensor(x.astype(np.float64)), frame_len,
                                   shift, math.ceil(x.size / shift))
        back = tensor.overlap_add_rows(frames, shift, x.size).data
        worst = max(worst, float(np.abs(back - x).max()))
    report("4 ola-identity", worst <= 1e-6, f"(max deviation {worst:.2e})")


def test_05_overfit_single_mixture():
    """A small causal model memorizes one mixture to >= 20 dB SI-SNR."""
    start = time.time()
    speech = synth_speech(16000, seed=6)
    noise = np.random.default_rng(7).standard_normal(16000)
    x, s = make_mixture(MixtureRecipe("s", "n", 0, 0, -5), speech, noise,
                        16000)
    cfg = ARNConfig(width=64, frame_in=256, frame_out=256, shift=256,
                    num_blocks=2, causal=True, dropout=0.0)
    params = init_params(cfg, np.random.default_rng(8), dtype=np.float64)
    adam = AdamState.for_params(params)

    score = -math.inf
    steps_used = 0
    for step in range(1, 1001):
        out = model.arn_forward(x, params, cfg)
        tensor.backward(mse_loss(s, out))
        adam_step(params, adam, lr=2e-3)
        steps_used = step
        if step % 25 == 0:
            score = si_snr(s, model.enhance(x, params, cfg))
            if score >= 20.0:
                break
    elapsed = time.time() - start
    report("5 overfit", score >= 20.0 and elapsed < 600.0,
           f"(si-snr {score:.1f} dB after {steps_used} steps, {elapsed:.0f}s)")


def test_06_schedule_endpoints():
    """Learning rate is 2e-4 through the knee and exactly 2e-5 at the end."""
    cfg = TrainConfig()
    ok = (lr_schedule(1, cfg) == 2e-4 and lr_schedule(33, cfg) == 2e-4
          and lr_schedule(100, cfg) == 2e-5)
    report("6 lr-endpoints", ok,
           f"(lr(1)={lr_schedule(1, cfg)} lr(33)={lr_schedule(33, cfg)} "
           f"lr(100)={lr_schedule(100, cfg)})")


def test_07_mixture_construction():
    """Constructed SNR is exact; SNR draws are uniform over the six values."""
    speech = ArrayCorpus({f"s{i}": synth_speech(2400, seed=10 + i)
                          for i in range(3)})
    noise = ArrayCorpus({f"n{i}": np.random.default_rng(20 + i).standard_normal(4000)
                         for i in range(3)})
    mixer = DynamicMixer(speech, noise, target_len=800)

    rng = np.random.default_rng(9)
    worst = 0.0
    for recipe, x, s in mixer.sample_with_recipes(rng, 100):
        worst = max(worst, abs(snr(s, x) - recipe.snr_db))

    draws = [r.snr_db for r, _, _ in mixer.sample_with_recipes(rng, 10000)]
    counts = np.array([draws.count(v) for v in TRAIN_SNRS_DB])
    expected = len(draws) / len(TRAIN_SNRS_DB)
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    p_value = float(scipy.stats.chi2.sf(chi2, df=len(TRAIN_SNRS_DB) - 1))
    report("7 mixture-construction", worst < 0.01 and p_value > 0.01,
           f"(max snr error {worst:.4f} dB, chi2 p={p_value:.3f})")


def closed_form_count(width, frame_in, frame_out, num_blocks, causal):
    """Independent parameter-count arithmetic from the declared shapes."""
    n = width
    total = frame_in * n + n                      # input projection
    for _ in range(num_blocks):
        total += 5 * 2 * n                        # five layer norms
        if causal:
            total += 4 * (n * n + n * n + n)      # lstm, hidden n
        else:
            h = n // 2
            total += 2 * 4 * (n * h + h * h + h)  # blstm, hidden n/2 each way
        total += 3 * n                            # attention vectors q, k, v
        total += 3 * (n * n + n)                  # three linear maps
        total += n * 4 * n + 4 * n                # feedforward to 4n
    total += n * frame_out + frame_out            # output projection
    return total


def test_08_parameter_count_oracle():
    """Runtime enumeration equals the closed-form count at full size."""
    details = []
    ok = True
    rnn_only = None
    for causal in (True, False):
        cfg = ARNConfig.causal_16k() if causal else ARNConfig.noncausal_16k()
        params = init_params(cfg, np.random.default_rng(10), dtype=np.float32)
        runtime = model.param_count(params)
        closed = closed_form_count(cfg.width, cfg.frame_in, cfg.frame_out,
                                   cfg.num_blocks, causal)
        ok = ok and runtime == closed
        details.append(f"{'causal' if causal else 'non-causal'}={runtime:,}")
        del params
    # qualitative cross-check: attention + feedforward roughly double the
    # parameter count of an RNN-only stack
    n = 1024
    lstm_per_block = 4 * (2 * n * n + n)
    attn_ff_per_block = 3 * n + 3 * (n * n + n) + 4 * n * n + 4 * n
    ratio = (lstm_per_block + attn_ff_per_block) / lstm_per_block
    ok = ok and 1.5 < ratio < 3.0
    report("8 parameter-count", ok,
           f"({', '.join(details)}, attention growth x{ratio:.2f})")


def test_09_checkpoint_round_trip(tmp_path):
    """save -> load -> enhance is byte-identical to pre-save enhance."""
    cfg = ARNConfig(width=12, frame_in=16, frame_out=8, shift=4, num_blocks=2,
                    causal=True, dropout=0.05)
    params = init_params(cfg, np.random.default_rng(11), dtype=np.float32)
    inputs = [np.random.default_rng(30 + i).standard_normal(300 + 70 * i)
              for i in range(3)]
    before = [model.enhance(x, params, cfg).tobytes() for x in inputs]

    path = tmp_path / "round_trip.ckpt"
    save_checkpoint(checkpoint_from(params, cfg), path)
    loaded = load_checkpoint(path)
    restored = params_from_checkpoint(loaded)
    after = [model.enhance(x, restored, loaded.model_cfg).tobytes()
             for x in inputs]
    report("9 checkpoint-round-trip", before == after,
           f"({len(inputs)} inputs byte-identical)")


def test_10_training_determinism():
    """Two full toy runs with one seed produce identical losses and weights."""
    def run():
        cfg = ARNConfig(width=8, frame_in=8, frame_out=8, shift=8, num_blocks=1,
                        causal=True, dropout=0.05)
        params = init_params(cfg, np.random.default_rng(12), dtype=np.float64)
        speech = ArrayCorpus({"s0": synth_speech(2400, seed=13),
                              "s1": synth_speech(3200, seed=14)})
        noise = ArrayCorpus({"n0": np.random.default_rng(15).standard_normal(4000)})
        mixer = DynamicMixer(speech, noise, target_len=400)
        tc = TrainConfig(epochs=2, steps_per_epoch=5, batch=2, lr_knee=1, seed=16)
        adam = AdamState.for_params(params)
        trace = []
        for epoch in (1, 2):
            train_epoch(params, cfg, adam, tc, mixer, epoch,
                        log=lambda e, s, l, r: trace.append(l))
        return trace, {k: p.data.tobytes() for k, p in params.items()}

    trace_a, params_a = run()
    trace_b, params_b = run()
    report("10 determinism", trace_a == trace_b and params_a == params_b,
           f"({len(trace_a)} steps replayed bit-identically)")
