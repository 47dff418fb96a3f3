"""The benchmark's workloads: set-up, timed rounds, then correctness checks.

Every workload returns a dict with ``attempted`` and ``failed`` operations
(files enhanced, or optimizer steps), ``failures`` (check messages),
``metrics`` (end-to-end), ``op_wall_s`` (mean wall time per operation) and,
when a tracer is given, ``per_layer``.

A run does a fixed number of whole rounds: as many as take ``seconds`` at
the speed in ``ROUND_SECONDS``, and at least one. The work therefore does
not depend on how fast the machine happens to be during the run, and two
runs with the same seconds attempt the same operations.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import json
import resource
import statistics
import time
from pathlib import Path

import numpy as np
from scipy.io import wavfile

from perfbench import checks, reference

WORKLOADS = ("enhance_causal_dir", "enhance_noncausal_long", "train_desk_pcm")
# seconds one round took when the benchmark was written (README.md): the
# directory of files, the long file, one epoch of steps_per_round steps
ROUND_SECONDS = {"enhance_causal_dir": 16.0, "enhance_noncausal_long": 18.0,
                 "train_desk_pcm": 4.5}
# set-up samples taken before the timed rounds, and as many after them
# (see _Setup); the training set-up takes milliseconds, so it takes more
SETUP_REPEATS = {"enhance": 3, "train": 10}


def run(name: str, manifest: dict, seconds: float, tracer=None) -> dict:
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    rounds = max(1, int(seconds // ROUND_SECONDS[name]))
    if name == "enhance_causal_dir":
        return enhance(manifest["causal_ckpt"], Path(manifest["causal_dir"]),
                       manifest, rounds, tracer)
    if name == "enhance_noncausal_long":
        return enhance(manifest["noncausal_ckpt"], Path(manifest["long_dir"]),
                       manifest, rounds, tracer)
    return train(manifest, rounds, tracer)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class _Setup:
    """Timed calls of a set-up; the metric is their median.

    The machine's speed changes by up to a factor of two within seconds
    (README.md), so half the samples are taken before the timed rounds and
    half after them: samples taken back to back would all see one state of
    the machine.
    """

    def __init__(self, build):
        self.build = build
        self.times = []

    def sample(self):
        t0 = time.perf_counter()
        result = self.build()
        self.times.append(time.perf_counter() - t0)
        return result

    def median(self) -> float:
        return statistics.median(self.times)


@contextlib.contextmanager
def _wrapped(module, name, make_wrapper):
    """Swap ``module.name`` for ``make_wrapper(original)`` inside the block."""
    original = getattr(module, name)
    setattr(module, name, make_wrapper(original))
    try:
        yield
    finally:
        setattr(module, name, original)


def _read_f32(path) -> np.ndarray:
    return wavfile.read(path)[1].astype(np.float64)


# ---------------------------------------------------------------------------
# enhance workloads: `arn enhance` over a directory, in this process
# ---------------------------------------------------------------------------

class _IoClock:
    """When the CLI starts reading each input and finishes writing each output.

    A file's latency is read start to write end; a round's enhancement time
    is first read start to last write end, which leaves out the checkpoint
    load that precedes it.
    """

    def __init__(self):
        self.read_start, self.write_end = {}, {}

    def reader(self, read_wav):
        def read(path, *args, **kwargs):
            self.read_start[Path(path).name] = time.perf_counter()
            return read_wav(path, *args, **kwargs)
        return read

    def writer(self, write_wav):
        def write(path, *args, **kwargs):
            out = write_wav(path, *args, **kwargs)
            self.write_end[Path(path).name] = time.perf_counter()
            return out
        return write


def enhance(ckpt: str, in_dir: Path, manifest: dict, rounds: int, tracer) -> dict:
    from arn import cli, model, training, wavio

    work = Path(manifest["work_dir"])
    out_dir = work / f"out_{in_dir.name}"
    empty = work / "empty"
    empty.mkdir(exist_ok=True)
    files = sorted(in_dir.glob("*.wav"))
    audio_s = sum(_read_f32(f).size for f in files) / wavio.SAMPLE_RATE

    # set-up as `arn enhance` pays it: the CLI on a directory with no WAVs,
    # sampled before and after the timed rounds
    setup = _Setup(lambda: cli.main(
        ["enhance", "--model", ckpt, "--in", str(empty), "--out", str(work / "empty_out")]))
    for _ in range(SETUP_REPEATS["enhance"]):
        if setup.sample() != 0:
            raise RuntimeError(f"arn enhance on an empty directory failed: {ckpt}")

    clock = _IoClock()
    argv = ["enhance", "--model", ckpt, "--in", str(in_dir), "--out", str(out_dir)]
    enhance_s, latencies = [], []
    attempted = failed = 0
    gc.collect()
    before = tracer.snapshot() if tracer else None
    if tracer:
        tracer.reset_peak()
    with _wrapped(wavio, "read_wav", clock.reader), \
            _wrapped(wavio, "write_wav", clock.writer):
        for _ in range(rounds):
            clock.read_start.clear()
            clock.write_end.clear()
            rc = cli.main(argv)
            attempted += len(files)
            done = [f.name for f in files if f.name in clock.write_end]
            failed += len(files) if rc != 0 else len(files) - len(done)
            if done:
                enhance_s.append(max(clock.write_end.values()) - min(clock.read_start.values()))
                latencies += [clock.write_end[n] - clock.read_start[n] for n in done]
            if rc != 0:
                break
    peak_rss = _peak_rss_mb()
    ops = attempted - failed
    per_layer = tracer.per_op(before, max(ops, 1)) if tracer else None
    for _ in range(SETUP_REPEATS["enhance"]):
        setup.sample()

    # checks, outside the timed region
    failures = []
    ck = training.load_checkpoint(ckpt)
    params = training.params_from_checkpoint(ck)
    cfg = ck.model_cfg
    for f in files:
        x = _read_f32(f)
        if not (out_dir / f.name).exists():
            failures.append(f"{f.name}: no output written")
            continue
        y = _read_f32(out_dir / f.name)
        failures += checks.output_wav(f.name, x, y)
        r = float(np.sqrt(np.mean(x * x)))
        failures += checks.rescaled(f.name, y, r * model.enhance(x / r, params, cfg))
        if cfg.causal:
            failures += checks.warmup(f.name, y, cfg.frame_in - cfg.frame_out)
    excerpt = _read_f32(files[0])[:manifest["excerpt_samples"]]
    excerpt /= np.sqrt(np.mean(excerpt * excerpt))
    failures += checks.reference_forward(model.enhance(excerpt, params, cfg),
                                         reference.forward(excerpt, ck.tensors, cfg.to_dict()))

    return {
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "metrics": {
            "setup_s": setup.median(),
            "rtf": sum(enhance_s) / (audio_s * len(enhance_s)) if enhance_s else float("nan"),
            "op_latency_s": statistics.median(latencies) if latencies else float("nan"),
            "peak_rss_mb": peak_rss,
        },
        "op_wall_s": sum(enhance_s) / max(ops, 1),
        "per_layer": per_layer,
    }


# ---------------------------------------------------------------------------
# train_desk_pcm: the training loop behind `arn train`, at desk scale
# ---------------------------------------------------------------------------

def _train_setup(manifest: dict):
    """What `arn train` builds before its first step: corpus indexes, the
    mixer, fresh parameters and the validation pairs."""
    from arn import mixing, model
    from arn.model import ARNConfig
    from arn.training import TrainConfig

    demo = Path(manifest["demo_dir"])
    blob = json.loads((demo / "config.json").read_text())
    model_cfg = ARNConfig.from_dict({**blob["model"], **manifest["train_model"]})
    mix = blob.get("mixing", {})
    train = blob["train"]
    # epochs only bound the learning-rate schedule; a run stays in its
    # constant phase
    train_cfg = TrainConfig(
        epochs=100_000, steps_per_epoch=manifest["steps_per_round"],
        batch=manifest["batch"], lr_hi=train["lr_hi"], lr_lo=train["lr_lo"],
        lr_knee=99_999, loss="pcm", seed=manifest["seed"])
    mixer = mixing.DynamicMixer(
        mixing.CorpusIndex(demo / "speech.idx"), mixing.CorpusIndex(demo / "noise.idx"),
        snr_choices=tuple(mix.get("snr_choices", mixing.TRAIN_SNRS_DB)),
        target_len=int(mix.get("target_len", mixing.CHUNK_LEN)),
        trim_db=float(mix.get("trim_db", mixing.TRIM_THRESHOLD_DB)))
    params = model.init_params(model_cfg, np.random.default_rng(train_cfg.seed),
                               dtype=np.float32)
    mixer.sample(np.random.default_rng([train_cfg.seed, 0xA11]),
                 int(mix.get("val_pairs", 4)))
    return model_cfg, train_cfg, mixer, params


def train(manifest: dict, rounds: int, tracer) -> dict:
    from arn import model, training, wavio
    from arn.optim import AdamState
    from arn.tensor import Tensor

    setup = _Setup(lambda: _train_setup(manifest))
    for _ in range(SETUP_REPEATS["train"]):
        model_cfg, train_cfg, mixer, params = setup.sample()
    initial = {k: p.data.copy() for k, p in params.items()}
    adam = AdamState.for_params(params)

    step_s, losses = [], []
    mark = [0.0]

    def log(epoch, step, loss, lr):
        step_s.append(time.perf_counter() - mark[0])
        losses.append(loss)
        mark[0] = time.perf_counter()

    attempted = failed = 0
    gc.collect()
    before = tracer.snapshot() if tracer else None
    for epoch in range(1, rounds + 1):
        attempted += train_cfg.steps_per_epoch
        logged = len(losses)
        mark[0] = time.perf_counter()
        try:
            training.train_epoch(params, model_cfg, adam, train_cfg, mixer, epoch, log)
        except training.DivergenceError:
            failed += train_cfg.steps_per_epoch - (len(losses) - logged)
            break
    peak_rss = _peak_rss_mb()
    steps_run = len(step_s)
    per_layer = None
    if tracer:
        per_layer = tracer.per_op(before, max(steps_run, 1))
    for _ in range(SETUP_REPEATS["train"]):
        setup.sample()
    if tracer:
        epoch += 1
        per_layer.update(tracer.backward_split(
            lambda: training.train_epoch(params, model_cfg, adam, train_cfg, mixer, epoch),
            train_cfg.steps_per_epoch))

    # checks, outside the timed region
    failures = checks.finite_losses(losses)

    # the first step again from the initial parameters, with its batch and
    # the network's outputs captured, against the rfft loss
    batches, outputs, replay = [], [], []

    def keep_batch(sample):
        def wrapped(rng, count):
            batches.append(sample(rng, count))
            return batches[-1]
        return wrapped

    def keep_output(arn_forward):
        def wrapped(*args, **kwargs):
            outputs.append(arn_forward(*args, **kwargs))
            return outputs[-1]
        return wrapped

    params0 = {k: Tensor(initial[k].copy(), requires_grad=True) for k in params}
    one_step = dataclasses.replace(train_cfg, steps_per_epoch=1)
    with _wrapped(mixer, "sample", keep_batch), _wrapped(model, "arn_forward", keep_output):
        training.train_epoch(params0, model_cfg, AdamState.for_params(params0), one_step,
                             mixer, 1, lambda e, s, loss, lr: replay.append(loss))
    if losses:
        failures += checks.same_loss(replay[0], losses[0])
    pairs = [(x, s, out.data) for (x, s), out in zip(batches[0], outputs)]
    failures += checks.pcm_loss(replay[0], float(np.mean(
        [reference.pcm_loss(x, s, s_hat) for x, s, s_hat in pairs])))

    # one more step on the trained state, its Adam update against the textbook
    adam_failures, adam_calls = [], []

    def check_adam(adam_step):
        def wrapped(ps, state, lr):
            snap = {k: (p.data.astype(np.float64), p.grad.astype(np.float64),
                        state.m[k].astype(np.float64), state.v[k].astype(np.float64))
                    for k, p in ps.items()}
            adam_step(ps, state, lr)
            adam_calls.append(lr)
            for k, (p, g, m, v) in snap.items():
                expected, _, _ = reference.adam(p, g, m, v, state.step_count, lr,
                                                state.beta1, state.beta2, state.epsilon)
                adam_failures.extend(checks.adam_update(k, ps[k].data, expected, lr))
        return wrapped

    with _wrapped(training, "adam_step", check_adam):
        training.train_epoch(params, model_cfg, adam, one_step, mixer, epoch + 1)
    failures += adam_failures
    if not adam_calls:
        failures.append("the training step made no Adam update")

    # every mixture the steps above drew, drawn again with its recipe; the
    # epoch streams derive from (seed, epoch) as arn.training documents
    for e in range(1, epoch + 1):
        rng = np.random.default_rng([train_cfg.seed, e, 0])
        for _ in range(train_cfg.steps_per_epoch):
            for recipe, x, s in mixer.sample_with_recipes(rng, train_cfg.batch):
                failures += checks.mixture_snr(reference.snr_db(s, x), recipe.snr_db)

    step_audio_s = train_cfg.batch * mixer.target_len / wavio.SAMPLE_RATE
    return {
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "metrics": {
            "setup_s": setup.median(),
            "rtf": sum(step_s) / (steps_run * step_audio_s) if steps_run else float("nan"),
            "op_latency_s": statistics.median(step_s) if step_s else float("nan"),
            "peak_rss_mb": peak_rss,
        },
        "op_wall_s": sum(step_s) / max(steps_run, 1),
        "per_layer": per_layer,
    }
