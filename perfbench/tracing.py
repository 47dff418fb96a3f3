"""Per-layer timing of the arn package, installed from outside the program.

``Tracer`` replaces public functions of arn's modules with timing wrappers,
at every module that binds them (``from .wavio import read_wav`` in
``arn.mixing`` gets the same wrapper as ``arn.wavio.read_wav``), so calls
inside a module go through the wrapper too. Times are inclusive: a span
counts the spans it calls.

Backward time per layer comes from the recorded graph: when ``rnn_sequence``,
``attention_block`` or ``feedforward_block`` returns a recorded tensor, the
nodes between it and the call's tensor arguments were made by that layer,
and their backward closures are swapped for timed ones. This reads the
private ``_backward`` and ``_parents`` slots of ``arn.tensor.Tensor``.
"""

from __future__ import annotations

import gc
import importlib
import sys
import time
import tracemalloc
from collections import defaultdict

# reported or derived metric -> functions of one module timed as one span
SPANS = {
    "model.forward_s": ("arn.model", ("arn_forward",)),
    "model.blocks_s": ("arn.model", ("arn_block_forward",)),
    "model.rnn_s": ("arn.model", ("rnn_sequence",)),
    "model.attention_s": ("arn.model", ("attention_block",)),
    "model.feedforward_s": ("arn.model", ("feedforward_block",)),
    "model.layer_norm_s": ("arn.model", ("layer_norm",)),
    "tensor.backward_s": ("arn.tensor", ("backward",)),
    "losses.loss_s": ("arn.losses", ("mse_loss", "pcm_loss")),
    "optim.adam_s": ("arn.optim", ("adam_step",)),
    "mixing.sample_s": ("arn.mixing", ("sample_recipe",)),
    "training.load_checkpoint_s": ("arn.training",
                                   ("load_checkpoint", "params_from_checkpoint")),
    "wavio.read_s": ("arn.wavio", ("read_wav",)),
    "wavio.write_s": ("arn.wavio", ("write_wav",)),
}

BACKWARD = {
    "model.rnn_s": "model.rnn_backward_s",
    "model.attention_s": "model.attention_backward_s",
    "model.feedforward_s": "model.feedforward_backward_s",
}


def graph_nodes(root) -> int:
    """Recorded nodes reachable from ``root`` (what ``backward`` visits)."""
    seen = set()
    stack = [root]
    while stack:
        node = stack.pop()
        if node._backward is None or id(node) in seen:
            continue
        seen.add(id(node))
        stack.extend(node._parents)
    return len(seen)


class Tracer:
    """Accumulates seconds and call counts per metric while installed.

    ``totals`` holds seconds, ``counts`` whole numbers: calls per function
    (keyed by its name), ``tensor.graph_nodes``, ``tensor.gc_collections``
    (generation-2 passes) and ``mixing.wav_reads`` (WAV reads made while
    drawing a mixture).
    ``attention_peak`` is the largest tracemalloc peak, in bytes, seen inside
    one ``attention_block`` call since the last ``reset_peak``.
    """

    def __init__(self):
        self.totals = defaultdict(float)
        self.counts = defaultdict(int)
        self.attention_peak = 0
        self.split_backward = False
        self._active = defaultdict(int)
        self._undo = []
        self._gc_start = None

    # -- installation ------------------------------------------------------

    def install(self):
        for metric, (module_name, names) in SPANS.items():
            module = importlib.import_module(module_name)
            for name in names:
                original = getattr(module, name)
                self._rebind(original, self._span(metric, original))
        gc.callbacks.append(self._on_gc)
        return self

    def uninstall(self):
        for module, name, original in reversed(self._undo):
            setattr(module, name, original)
        self._undo.clear()
        gc.callbacks.remove(self._on_gc)

    def _rebind(self, original, wrapper):
        for mod_name, module in list(sys.modules.items()):
            if mod_name == "arn" or mod_name.startswith("arn."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._undo.append((module, attr, original))

    # -- wrappers ----------------------------------------------------------

    def _span(self, metric, fn):
        totals, counts, active = self.totals, self.counts, self._active
        backward_metric = BACKWARD.get(metric)

        def timed(*args, **kwargs):
            if metric == "tensor.backward_s":
                counts["tensor.graph_nodes"] += graph_nodes(args[0])
            elif metric == "wavio.read_s" and active["mixing.sample_s"]:
                counts["mixing.wav_reads"] += 1
            tracing_memory = metric == "model.attention_s" and not tracemalloc.is_tracing()
            if tracing_memory:
                tracemalloc.start()
            active[metric] += 1
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                totals[metric] += time.perf_counter() - t0
                counts[fn.__name__] += 1
                active[metric] -= 1
                if tracing_memory:
                    self.attention_peak = max(self.attention_peak,
                                              tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()
            if backward_metric is not None and self.split_backward:
                self._claim(out, args, backward_metric)
            return out

        timed.__wrapped__ = fn
        return timed

    def _claim(self, out, args, metric):
        """Time the backward closures of the nodes this layer call recorded."""
        stop = {id(a) for a in args}
        totals = self.totals
        stack = [out]
        while stack:
            node = stack.pop()
            bw = getattr(node, "_backward", None)
            if bw is None or id(node) in stop or hasattr(bw, "layer_metric"):
                continue

            def timed_bw(bw=bw):
                t0 = time.perf_counter()
                bw()
                totals[metric] += time.perf_counter() - t0

            timed_bw.layer_metric = metric
            node._backward = timed_bw
            stack.extend(node._parents)

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_start = time.perf_counter()
        elif self._gc_start is not None:
            self.totals["tensor.gc_s"] += time.perf_counter() - self._gc_start
            if info["generation"] == 2:
                self.counts["tensor.gc_collections"] += 1

    def backward_split(self, run_steps, steps: int) -> dict:
        """Backward seconds per step of each layer, over ``steps`` training
        steps made by ``run_steps()``.

        Only here are the layers' graph nodes timed one by one, because the
        extra closures would add to the collector's work in the timed steps;
        the collector is off meanwhile, so its passes do not land inside a
        layer (they are ``tensor.gc_s`` of the timed steps).
        """
        before = dict(self.totals)
        self.split_backward = True
        gc.disable()
        try:
            run_steps()
        finally:
            gc.enable()
            self.split_backward = False
        return {m: (self.totals[m] - before.get(m, 0.0)) / steps for m in BACKWARD.values()}

    # -- reading -----------------------------------------------------------

    def reset_peak(self):
        self.attention_peak = 0

    def snapshot(self) -> dict:
        return {"totals": dict(self.totals), "counts": dict(self.counts)}

    def per_op(self, before: dict, ops: int) -> dict:
        """Per-layer metrics per operation since ``before``; see README.md."""
        def d_total(k):
            return self.totals.get(k, 0.0) - before["totals"].get(k, 0.0)

        def d_count(k):
            return self.counts.get(k, 0) - before["counts"].get(k, 0)

        steps = d_count("backward")
        loads = self.counts.get("load_checkpoint", 0)
        out = {}
        for metric in ("model.forward_s", "model.rnn_s", "model.attention_s",
                       "model.feedforward_s", "model.layer_norm_s",
                       *BACKWARD.values(), "tensor.backward_s", "tensor.gc_s",
                       "losses.loss_s", "optim.adam_s", "mixing.sample_s",
                       "wavio.read_s", "wavio.write_s"):
            out[metric] = d_total(metric) / ops
        out["model.frame_io_s"] = (d_total("model.forward_s")
                                   - d_total("model.blocks_s")) / ops
        out["model.attention_alloc_peak_mb"] = self.attention_peak / 2 ** 20
        out["tensor.graph_nodes"] = d_count("tensor.graph_nodes") / steps if steps else 0
        out["tensor.gc_collections"] = d_count("tensor.gc_collections") / ops
        out["mixing.wav_reads"] = d_count("mixing.wav_reads") / ops
        # the load happens in set-up and in every CLI call: time per load
        out["training.load_checkpoint_s"] = (
            self.totals.get("training.load_checkpoint_s", 0.0) / loads if loads else 0.0)
        return out
