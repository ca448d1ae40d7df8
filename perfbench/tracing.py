"""Span tracing of the dyngem modules from outside, and the per-layer metrics.

``install`` replaces public functions of each module with timing wrappers.
A function is replaced under every name that refers to it in any loaded
``dyngem`` module, so a caller that imported it by name (``engine`` takes
``gf_epoch``, ``jacobi_svd`` and ``apply_plan`` that way, ``cli`` takes
``load_series`` and ``run_method``) calls the wrapper too.  A target that no
longer exists makes ``install`` raise, so a renamed or inlined function
fails the traced run instead of reading 0.  Each span records its parent, so
``nn.forward`` under ``model.loss_net_batch`` is told apart from
``nn.forward`` under ``model.embed``.  The tracer's own time (its
bookkeeping and the attribute recorders) is subtracted from every span that
encloses it, so span durations are the program's time only.

Each workload names the layers it exercises (``LAYERS`` keys).  Its traced
run fails unless every metric of those layers is non-zero and every metric
of the other layers is exactly 0, so a metric can read 0 only on a workload
that never reaches its layer, and reads 0 there on every run.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import statistics
import sys
import time

import numpy as np


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _forward_attrs(args, kwargs, result):
    layers, x = _arg(args, kwargs, 0, "layers"), _arg(args, kwargs, 1, "x")
    rows = x.shape[0] if x.ndim == 2 else 1
    return {"flops": sum(2 * rows * layer.in_dim * layer.out_dim for layer in layers)}


def _backward_attrs(args, kwargs, result):
    layers, acts = _arg(args, kwargs, 0, "layers"), _arg(args, kwargs, 1, "activations")
    rows = acts[0].shape[0] if acts[0].ndim == 2 else 1
    # weight gradient plus input gradient per layer, the first layer included
    return {"flops": sum(4 * rows * layer.in_dim * layer.out_dim for layer in layers)}


def _dense_rows_attrs(args, kwargs, result):
    rows, n = result.shape
    return {"rows": rows, "n": n, "nnz": int(np.count_nonzero(result))}


def _apply_plan_attrs(args, kwargs, result):
    params, report = result
    size = sum(layer.weights.size + layer.bias.size for layer in params.layers())
    return {"events": len(report), "params_after": int(size)}


def _checkpoint_attrs(args, kwargs, result):
    return {"bytes": os.path.getsize(result)}


# (module, attribute, span name, attribute recorder)
TARGETS = (
    ("dyngem.graph", "load_series", "graph.load_series", None),
    ("dyngem.graph", "GraphSnapshot.dense_rows", "graph.dense_rows", _dense_rows_attrs),
    ("dyngem.growth", "apply_plan", "growth.apply_plan", _apply_plan_attrs),
    ("dyngem.model", "train_snapshot", "model.train_snapshot", None),
    ("dyngem.model", "make_batch", "model.make_batch", None),
    ("dyngem.model", "loss_net_batch", "model.loss_net_batch", None),
    ("dyngem.model", "embed", "model.embed", None),
    ("dyngem.model", "save_checkpoint", "model.save_checkpoint", _checkpoint_attrs),
    ("dyngem.model", "load_checkpoint", "model.load_checkpoint", None),
    ("dyngem.model", "reconstruct_scores", "model.reconstruct_scores", None),
    ("dyngem.nn", "forward", "nn.forward", _forward_attrs),
    ("dyngem.nn", "backward", "nn.backward", _backward_attrs),
    ("dyngem.nn", "regularizer_value_and_grads", "nn.regularizer", None),
    ("dyngem.nn", "nesterov_step", "nn.nesterov_step", None),
    ("dyngem.kernels", "gf_epoch", "kernels.gf_epoch",
     lambda a, k, r: {"edges": len(_arg(a, k, 4, "order"))}),
    ("dyngem.kernels", "jacobi_svd", "kernels.jacobi_svd", None),
    ("dyngem.kernels", "jacobi_sweeps", "kernels.jacobi_sweeps", lambda a, k, r: {"sweeps": int(r)}),
    ("dyngem.engine", "run_method", "engine.run_method", None),
    ("dyngem.engine", "run_gf", "engine.run_gf", None),
    ("dyngem.engine", "align_series", "engine.align_series", None),
    ("dyngem.metrics", "eval_reconstruction", "metrics.eval_reconstruction", None),
    ("dyngem.cli", "_write_run", "cli.write_run", None),
    ("dyngem.cli", "_load_run", "cli.read_run", None),
)


class Tracer:
    """Collects spans in memory; ``dump`` writes them out once at the end.

    ``overhead`` accumulates the tracer's own time.  A span stores its value
    when the call starts and when it ends, so the overhead spent inside the
    call (by nested wrappers and their recorders) can be taken out of its
    duration.
    """

    def __init__(self):
        self.spans = []
        self._stack = []
        self.overhead = 0.0

    def wrap(self, name, fn, attrs=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            entered = time.perf_counter()
            span = {"id": len(self.spans), "name": name,
                    "parent": self._stack[-1] if self._stack else None}
            self.spans.append(span)
            self._stack.append(span["id"])
            start = time.perf_counter()
            self.overhead += start - entered
            span["start"], span["overhead_start"] = start, self.overhead
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                span["end"], span["overhead_end"] = end, self.overhead
                self._stack.pop()
            if attrs is not None:
                span.update(attrs(args, kwargs, result))
            self.overhead += time.perf_counter() - end
            return result

        return wrapper

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def install(tracer):
    """Wrap every target and every CLI command callback; returns the CLI group."""
    cli = importlib.import_module("dyngem.cli")
    for module_name, attr, span_name, attrs in TARGETS:
        owner = importlib.import_module(module_name)
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        original = getattr(owner, leaf, None)
        if original is None:
            raise RuntimeError(f"trace target {module_name}.{attr} does not exist")
        wrapper = tracer.wrap(span_name, original, attrs)
        setattr(owner, leaf, wrapper)
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] != "dyngem" or module is None:
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)

    def wrap_commands(group, prefix):
        for name, command in group.commands.items():
            if hasattr(command, "commands"):
                wrap_commands(command, f"{prefix}.{name}")
            else:
                command.callback = tracer.wrap(f"{prefix}.{name}", command.callback)

    wrap_commands(cli.main, "cli")
    return cli.main


def _duration(span):
    """Program time of a span: its duration less the tracer's time inside it."""
    return span["end"] - span["start"] - (span["overhead_end"] - span["overhead_start"])


class _Spans:
    """Query helper over the spans of several traced processes."""

    def __init__(self, processes):
        self.items = []  # (span, parent span or None, children duration)
        for spans in processes:
            child_time = [0.0] * len(spans)
            for span in spans:
                if span["parent"] is not None:
                    child_time[span["parent"]] += _duration(span)
            for span in spans:
                parent = spans[span["parent"]] if span["parent"] is not None else None
                self.items.append((span, parent, child_time[span["id"]]))

    def select(self, name, parent=None):
        return [s for s, p, _ in self.items
                if s["name"] == name and (parent is None or (p is not None and p["name"] == parent))]

    def total(self, name, parent=None):
        return sum(_duration(s) for s in self.select(name, parent))

    def self_time(self, name):
        return sum(_duration(s) - c for s, _, c in self.items if s["name"] == name)

    def attr_sum(self, name, key, parent=None):
        return sum(s.get(key, 0) for s in self.select(name, parent))


def layer_metrics(commands):
    """Per-layer metrics from traced commands, each a dict with the process
    ``wall`` time and its ``spans``."""
    q = _Spans([c["spans"] for c in commands])
    dense_entries = sum(s["rows"] * s["n"] for s in q.select("graph.dense_rows"))
    steps = [_duration(s) for s in q.select("model.train_snapshot")]
    plans = q.select("growth.apply_plan")
    command_time = sum(s["end"] - s["start"] for s, p, _ in q.items
                       if p is None and s["name"].startswith("cli."))
    batch = "model.loss_net_batch"
    return {
        "graph.load_series_s": q.total("graph.load_series"),
        "graph.dense_rows_s": q.total("graph.dense_rows"),
        "graph.dense_rows_calls": len(q.select("graph.dense_rows")),
        "graph.dense_bytes": 8 * dense_entries,
        "graph.input_nnz_ratio": q.attr_sum("graph.dense_rows", "nnz") / dense_entries if dense_entries else 0.0,
        "growth.apply_plan_s": q.total("growth.apply_plan"),
        "growth.events": q.attr_sum("growth.apply_plan", "events"),
        "growth.params_after": plans[-1]["params_after"] if plans else 0,
        "model.train_snapshot_first_s": steps[0] if steps else 0.0,
        "model.train_snapshot_warm_p50_s": statistics.median(steps[1:]) if len(steps) > 1 else 0.0,
        "model.batches": len(q.select(batch)),
        "model.loss_net_batch_s": q.total(batch),
        "model.loss_self_s": q.self_time(batch),
        "model.make_batch_s": q.total("model.make_batch"),
        "model.embed_s": q.total("model.embed"),
        "model.save_checkpoint_s": q.total("model.save_checkpoint"),
        "model.checkpoint_bytes": q.attr_sum("model.save_checkpoint", "bytes"),
        "model.load_checkpoint_s": q.total("model.load_checkpoint"),
        "model.reconstruct_scores_s": q.total("model.reconstruct_scores"),
        "nn.forward_s": q.total("nn.forward", batch),
        "nn.backward_s": q.total("nn.backward", batch),
        "nn.regularizer_s": q.total("nn.regularizer"),
        "nn.nesterov_step_s": q.total("nn.nesterov_step"),
        "nn.matmul_flops": q.attr_sum("nn.forward", "flops", batch) + q.attr_sum("nn.backward", "flops", batch),
        "kernels.gf_epoch_s": q.total("kernels.gf_epoch"),
        "kernels.gf_edge_updates": q.attr_sum("kernels.gf_epoch", "edges"),
        "kernels.jacobi_svd_s": q.total("kernels.jacobi_svd"),
        "kernels.jacobi_sweeps": q.attr_sum("kernels.jacobi_sweeps", "sweeps"),
        "engine.run_method_s": q.total("engine.run_method"),
        "engine.uncovered_s": q.self_time("engine.run_method"),
        "engine.gf_overhead_s": q.total("engine.run_gf") - q.total("kernels.gf_epoch", "engine.run_gf"),
        "engine.align_series_s": q.total("engine.align_series"),
        "metrics.eval_reconstruction_s": q.total("metrics.eval_reconstruction"),
        "metrics.stability_s": q.self_time("cli.eval.stability"),
        "metrics.anomaly_s": q.self_time("cli.eval.anomaly"),
        "cli.write_run_s": q.total("cli.write_run"),
        "cli.read_run_s": q.total("cli.read_run"),
        "cli.startup_s": sum(c["wall"] for c in commands) - command_time,
    }


# The per-layer metrics of each layer a workload may exercise.  The split is
# finer than the modules where a module's functions belong to one method
# only: dense input rows and anomaly scoring to the autoencoder, the GF
# overhead and alignment to ``gf_align``.
LAYERS = {
    "graph": ("graph.load_series_s",),
    "graph.dense": ("graph.dense_rows_s", "graph.dense_rows_calls", "graph.dense_bytes",
                    "graph.input_nnz_ratio"),
    "growth": ("growth.apply_plan_s", "growth.events", "growth.params_after"),
    "model": ("model.train_snapshot_first_s", "model.train_snapshot_warm_p50_s", "model.batches",
              "model.loss_net_batch_s", "model.loss_self_s", "model.make_batch_s", "model.embed_s",
              "model.save_checkpoint_s", "model.checkpoint_bytes", "model.load_checkpoint_s",
              "model.reconstruct_scores_s"),
    "nn": ("nn.forward_s", "nn.backward_s", "nn.regularizer_s", "nn.nesterov_step_s",
           "nn.matmul_flops"),
    "kernels": ("kernels.gf_epoch_s", "kernels.gf_edge_updates", "kernels.jacobi_svd_s",
                "kernels.jacobi_sweeps"),
    "engine": ("engine.run_method_s", "engine.uncovered_s"),
    "engine.gf": ("engine.gf_overhead_s", "engine.align_series_s"),
    "metrics": ("metrics.eval_reconstruction_s", "metrics.stability_s", "metrics.k_s"),
    "metrics.anomaly": ("metrics.anomaly_s",),
    "cli": ("cli.write_run_s", "cli.read_run_s", "cli.startup_s", "cli.run_bytes"),
}


def check_layers(values, layers):
    """Raise ``ValueError`` when a metric of ``layers`` reads 0, or a metric
    of another layer does not: the workload then runs a different program
    path than it declares.  ``values`` holds every metric of ``LAYERS``."""
    problems = []
    for layer, names in LAYERS.items():
        for name in names:
            if layer in layers:
                if not values[name] > 0:
                    problems.append(f"{name} reads {values[name]} on an exercised layer")
            elif values[name] != 0:
                problems.append(f"{name} reads {values[name]} on layer {layer}, not declared")
    if problems:
        raise ValueError("; ".join(problems))
