"""Fast tests of the benchmark itself, at a tiny width.

    python -m pytest perfbench -q
"""

import json
from pathlib import Path

import numpy as np
import pytest

from arn import losses, mixing, model, optim, training, wavio
from arn.tensor import Tensor
from perfbench import checks, make_inputs, reference, run, workloads

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def _run(capsys, workload, trace):
    rc = run.main(["--workload", workload, "--seed", "1", "--seconds", "0",
                   "--trace", str(trace)], tiny=True)
    return rc, json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_workloads_match_benchmark_json():
    assert tuple(w["name"] for w in SPEC["workloads"]) == workloads.WORKLOADS


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(capsys, workload, trace, section):
    rc, result = _run(capsys, workload, trace)
    assert rc == 0 and result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC[section]}
    for m in SPEC[section]:
        value = result["metrics"][m["name"]]
        assert value["unit"] == m["unit"] and np.isfinite(value["value"])


def test_corrupted_enhancement_fails_the_run(capsys, monkeypatch):
    real = wavio.write_wav
    monkeypatch.setattr(wavio, "write_wav",
                        lambda path, samples, **kw: real(path, samples * 1.001, **kw))
    rc, result = _run(capsys, "enhance_causal_dir", 0)
    assert rc == 1 and result["correct"] is False


def test_corrupted_adam_fails_the_run(capsys, monkeypatch):
    real = training.adam_step
    monkeypatch.setattr(training, "adam_step", lambda p, s, lr: real(p, s, lr * 1.1))
    rc, result = _run(capsys, "train_desk_pcm", 0)
    assert rc == 1 and result["correct"] is False


def test_inputs_rebuilt_when_sources_change(monkeypatch):
    first = make_inputs.build(1, "tiny")
    assert json.loads(first.read_text())["source_hash"] == make_inputs.source_hash()
    assert make_inputs.build(1, "tiny") == first
    monkeypatch.setattr(make_inputs, "source_hash", lambda: "0" * 16)
    second = make_inputs.build(1, "tiny")
    assert second != first and not first.parent.exists()
    assert json.loads(second.read_text())["source_hash"] == "0" * 16


@pytest.mark.parametrize("causal", [True, False])
def test_reference_forward_agrees_with_enhance(causal):
    cfg = model.ARNConfig(width=8, frame_in=64 if causal else 32, frame_out=32,
                          shift=8, num_blocks=2, causal=causal)
    params = model.init_params(cfg, np.random.default_rng(0))
    weights = {k: p.data for k, p in params.items()}
    x = np.random.default_rng(1).standard_normal(400)
    y = model.enhance(x, params, cfg)
    assert checks.reference_forward(y, reference.forward(x, weights, cfg.to_dict())) == []
    # one weight off by a little is caught
    weights["block1.ff.b"] = weights["block1.ff.b"] + 1e-2
    assert checks.reference_forward(y, reference.forward(x, weights, cfg.to_dict()))


def test_output_checks_catch_corruption():
    x = np.random.default_rng(2).standard_normal(100)
    y = x * 0.5
    assert checks.output_wav("f", x, y) == []
    assert checks.output_wav("f", x, y[:-1])
    bad = y.copy()
    bad[7] = np.nan
    assert checks.output_wav("f", x, bad)
    assert checks.rescaled("f", y, y) == []
    assert checks.rescaled("f", y * (1 + 1e-4), y)
    y[:10] = 0.0
    assert checks.warmup("f", y, 10) == []
    y[9] = 1e-30
    assert checks.warmup("f", y, 10)


def test_training_checks_catch_corruption():
    assert checks.finite_losses([1.0, 2.0]) == []
    assert checks.finite_losses([1.0, float("nan")])
    assert checks.same_loss(1.5, 1.5) == []
    assert checks.same_loss(1.5, np.nextafter(1.5, 2.0))

    rng = np.random.default_rng(3)
    x, s = rng.standard_normal(3000), rng.standard_normal(3000)
    s_hat = (0.8 * s).astype(np.float32)
    program = losses.pcm_loss(x, s, s_hat).item()
    assert checks.pcm_loss(program, reference.pcm_loss(x, s, s_hat)) == []
    assert checks.pcm_loss(program * 1.001, reference.pcm_loss(x, s, s_hat))


def test_adam_check_catches_corruption():
    rng = np.random.default_rng(4)
    p = Tensor(rng.standard_normal(50).astype(np.float32), requires_grad=True)
    state = optim.AdamState.for_params({"p": p})
    for _ in range(3):   # moments and bias correction away from their start
        p.grad = rng.standard_normal(50).astype(np.float32)
        before = [a.astype(np.float64) for a in (p.data, p.grad, state.m["p"], state.v["p"])]
        optim.adam_step({"p": p}, state, 1e-3)
    expected, _, _ = reference.adam(*before, state.step_count, 1e-3)
    assert checks.adam_update("p", p.data, expected, 1e-3) == []
    assert checks.adam_update("p", p.data + 2e-6, expected, 1e-3)
    wrong_beta, _, _ = reference.adam(*before, state.step_count, 1e-3, beta2=0.99)
    assert checks.adam_update("p", p.data, wrong_beta, 1e-3)


def test_snr_check_catches_corruption():
    rng = np.random.default_rng(5)
    speech = mixing.ArrayCorpus({"s": rng.standard_normal(5000)})
    noise = mixing.ArrayCorpus({"n": rng.standard_normal(5000)})
    recipe, x, s = mixing.sample_recipe(rng, speech, noise, target_len=4000)
    assert checks.mixture_snr(reference.snr_db(s, x), recipe.snr_db) == []
    assert checks.mixture_snr(reference.snr_db(s, s + (x - s) * 1.0001), recipe.snr_db)
