"""Span recorder that wraps twistnet's public functions from outside the package.

A span is (name, start, end, parent), kept in memory as parallel lists in
start order, so a parent always precedes its children. Self time is a span's
duration minus the time its direct children cover; calls are nested on one
thread, so children never overlap.

Wrapping happens at every binding site. A function imported by name into
another module (``cli`` does ``from .data import load_csv``) is a second
reference that patching only the defining module would miss, so every loaded
twistnet module is scanned for the original object. Methods are wrapped on
their class, which covers every instance.
"""

from __future__ import annotations

import functools
import importlib
import math
import os
import sys
import time
from contextlib import contextmanager

import numpy as np

LAYER_CLASSES = ("Dense", "ResidualBlock", "BatchNorm", "ReLULayer", "Dropout", "Conv1D")

# module -> public functions ("name") and methods ("Class.method") to wrap
TARGETS = {
    "featcomb": ["transform_dataset", "enumerate_subsets", "combined_feature_names"],
    "layers": [f"{c}.{m}" for c in LAYER_CLASSES for m in ("forward", "backward")]
    + ["softmax_cross_entropy"],
    "model": ["forward", "backward", "loss_from_cache", "predict", "build_tcn",
              "build_baseline", "save_checkpoint", "load_checkpoint"],
    "train": ["adam_step", "l2_penalty", "evaluate", "train_loop", "find_check_batch",
              "grad_check_report", "kink_distance"],
    "data": ["load_csv", "save_csv", "zscore_fit", "zscore_apply", "stratified_split",
             "synth_interaction"],
    "ndcore": ["Rng.raw", "Rng.uniform", "Rng.normal", "Rng.permutation"],
    "cli": ["main"],
}


def _transform_counts(args, kwargs, result):
    """Bytes written and multiplies done by one expansion, from shapes alone."""
    spec = args[1] if len(args) > 1 else kwargs["spec"]
    rows, cols = result.values.shape
    n_sub = len(result.subsets)
    per_subset = spec.m - 1 if spec.approach == "multiplicative" else math.comb(spec.m, 2)
    return {"bytes_out": rows * cols * 8, "mults": rows * n_sub * per_subset}


def _annotations():
    """Counters recorded on particular spans, computed from arguments and results."""
    return {
        "featcomb.transform_dataset": _transform_counts,
        "ndcore.Rng.raw": lambda a, k, r: {"draws": len(r)},
        "train.adam_step": lambda a, k, r: {"arrays": len(a[0])},
        "train.grad_check_report": lambda a, k, r: {"params": a[0].parameter_count()},
        "data.load_csv": lambda a, k, r: {"cells": r.features.size + r.labels.size},
        "data.save_csv": lambda a, k, r: {"bytes": os.path.getsize(a[1])},
    }


class Tracer:
    """Records spans while ``active``; wrappers call straight through otherwise."""

    def __init__(self):
        self.names: list[str] = []
        self.start: list[int] = []
        self.end: list[int] = []
        self.parent: list[int] = []
        self.attrs: dict[int, dict] = {}
        self.active = False
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def clear(self) -> None:
        self.names, self.start, self.end, self.parent = [], [], [], []
        self.attrs = {}

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, e.g. around one operation."""
        if not self.active:
            yield
            return
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, fn, name, annotate):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            label = name(args) if callable(name) else name
            idx = tracer._open(label)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if annotate is not None:
                tracer.attrs[idx] = annotate(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        """Patch every binding site of every target; ``uninstall`` reverses it."""
        importlib.import_module("twistnet")
        annotations = _annotations()
        for mod in TARGETS:
            importlib.import_module(f"twistnet.{mod}")
        sites = [m for k, m in sorted(sys.modules.items())
                 if m is not None and (k == "twistnet" or k.startswith("twistnet."))]
        for mod_name, targets in TARGETS.items():
            mod = sys.modules[f"twistnet.{mod_name}"]
            for target in targets:
                if "." in target:
                    cls_name, meth = target.split(".")
                    cls = getattr(mod, cls_name)
                    orig = cls.__dict__[meth]
                    label = (f"layers.{cls.kind}.{meth}" if mod_name == "layers"
                             else f"{mod_name}.{target}")
                    setattr(cls, meth, self._wrap(orig, label, annotations.get(label)))
                    self._undo.append((cls, meth, orig))
                    continue
                orig = getattr(mod, target)
                if mod_name == "cli" and target == "main":
                    label = _cli_label
                else:
                    label = f"{mod_name}.{target}"
                wrapped = self._wrap(orig, label, annotations.get(label))
                for site in sites:
                    for attr, value in list(vars(site).items()):
                        if value is orig:
                            setattr(site, attr, wrapped)
                            self._undo.append((site, attr, orig))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo = []

    def arrays(self):
        """(names, durations ns, self times ns, parents) as numpy arrays."""
        start = np.asarray(self.start, dtype=np.int64)
        dur = np.asarray(self.end, dtype=np.int64) - start
        parent = np.asarray(self.parent, dtype=np.int64)
        return self.names, dur, self_times(dur, parent), parent


def _cli_label(args):
    argv = args[0] if args else None
    return f"cli.{argv[0]}" if argv else "cli.main"


def self_times(dur: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Duration minus the summed durations of each span's direct children."""
    child = np.zeros_like(dur)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    return dur - child


def nearest(names: list[str], parent: np.ndarray, match) -> list[int]:
    """Index of each span's nearest ancestor-or-self whose name satisfies
    ``match``, or -1. Parents precede children, so one forward pass suffices."""
    out = [-1] * len(names)
    for i, (name, p) in enumerate(zip(names, parent.tolist())):
        if match(name):
            out[i] = i
        elif p >= 0:
            out[i] = out[p]
    return out


KINDS = ("dense", "residual", "batchnorm", "relu", "dropout")
RNG_SPANS = ("ndcore.Rng.raw", "ndcore.Rng.uniform", "ndcore.Rng.normal",
             "ndcore.Rng.permutation")


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer figures of one traced pass, keyed by metric name."""
    names, dur, own, parent = tracer.arrays()
    index: dict[str, list[int]] = {}
    for i, name in enumerate(names):
        index.setdefault(name, []).append(i)

    def calls(name):
        return len(index.get(name, ()))

    def total(name, of=dur):
        return float(of[index[name]].sum()) if name in index else 0.0

    def per_call_us(name, of=dur):
        return total(name, of) / calls(name) / 1e3 if calls(name) else 0.0

    def attr(name, key):
        return sum(tracer.attrs[i][key] for i in index.get(name, ()) if i in tracer.attrs)

    m: dict[str, float] = {}
    fc = "featcomb.transform_dataset"
    m["featcomb.transform.busy_s"] = total(fc) / 1e9
    m["featcomb.transform.bytes_out"] = attr(fc, "bytes_out")
    m["featcomb.transform.mults"] = attr(fc, "mults")
    m["featcomb.transform.GBps"] = attr(fc, "bytes_out") / total(fc) if total(fc) else 0.0
    for kind in KINDS:
        m[f"layers.{kind}.fwd_us"] = per_call_us(f"layers.{kind}.forward", own)
        m[f"layers.{kind}.bwd_us"] = per_call_us(f"layers.{kind}.backward", own)
        m[f"layers.{kind}.calls"] = calls(f"layers.{kind}.forward")
    sm = "layers.softmax_cross_entropy"
    m["layers.softmax_ce.us"] = per_call_us(sm, own)
    ctx = nearest(names, parent, lambda n: n in ("train.train_loop", "train.evaluate"))
    in_steps = sum(1 for i in index.get(sm, ()) if ctx[i] >= 0
                   and names[ctx[i]] == "train.train_loop")
    steps = calls("train.adam_step")
    m["layers.softmax_ce.calls_per_step"] = in_steps / steps if steps else 0.0
    m["model.forward.self_us"] = per_call_us("model.forward", own)
    m["model.backward.self_us"] = per_call_us("model.backward", own)
    m["model.forward.calls"] = calls("model.forward")
    m["model.save_checkpoint.busy_s"] = total("model.save_checkpoint") / 1e9
    m["model.load_checkpoint.busy_s"] = total("model.load_checkpoint") / 1e9
    m["train.adam_step.us"] = per_call_us("train.adam_step")
    arrays = attr("train.adam_step", "arrays")
    m["train.adam_step.arrays_per_call"] = arrays / steps if steps else 0.0
    m["train.l2_penalty.us"] = per_call_us("train.l2_penalty")
    m["train.evaluate.busy_s"] = total("train.evaluate") / 1e9
    m["train.train_loop.self_s"] = total("train.train_loop", own) / 1e9
    m["train.grad_check_report.self_s"] = total("train.grad_check_report", own) / 1e9
    m["train.find_check_batch.busy_s"] = total("train.find_check_batch") / 1e9
    load = total("data.load_csv")
    m["data.load_csv.busy_s"] = load / 1e9
    m["data.load_csv.cells_per_s"] = attr("data.load_csv", "cells") / load * 1e9 if load else 0.0
    m["data.save_csv.busy_s"] = total("data.save_csv") / 1e9
    m["data.save_csv.bytes"] = attr("data.save_csv", "bytes")
    m["data.zscore.busy_s"] = (total("data.zscore_fit") + total("data.zscore_apply")) / 1e9
    m["data.stratified_split.busy_s"] = total("data.stratified_split") / 1e9
    m["ndcore.rng.draws"] = attr("ndcore.Rng.raw", "draws")
    outer = [i for name in RNG_SPANS for i in index.get(name, ())
             if parent[i] < 0 or names[parent[i]] not in RNG_SPANS]
    m["ndcore.rng.busy_s"] = float(dur[outer].sum()) / 1e9 if outer else 0.0
    for name in sorted(index):
        if name.startswith("cli."):
            m[f"{name}.self_s"] = total(name, own) / 1e9
    return m


def span_table(tracer: Tracer) -> dict[str, dict]:
    """Calls, busy and self seconds for every span name of one pass."""
    names, dur, own, _ = tracer.arrays()
    table: dict[str, dict] = {}
    for i, name in enumerate(names):
        row = table.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["busy_s"] += dur[i] / 1e9
        row["self_s"] += own[i] / 1e9
    return table


@contextmanager
def count_draws(rng_class):
    """Collect every Rng made inside the block; their counters sum to the draws.

    Only construction is patched, so this counts without timing anything and
    serves the untraced pass as well as the traced one.
    """
    made = []
    orig = rng_class.__init__

    def init(self, *args, **kwargs):
        orig(self, *args, **kwargs)
        made.append(self)

    rng_class.__init__ = init
    try:
        yield made
    finally:
        rng_class.__init__ = orig
