"""Outside-in tracer: wraps the program's public functions for one run.

The program is not instrumented.  ``Tracer.installed`` replaces each target
with a wrapper that records a span, and rebinds the name in every module of
the package that holds it (``from .graphs import eigendecompose`` makes a
second binding that a patch of ``graphs`` alone would miss).  Leaving the
block restores every binding, so untraced runs never see a wrapper.

Spans are ``[name, start, end, parent, run]`` lists kept in memory; the
parent is the index of the enclosing traced span or ``None``.  The wrapped
code runs on one thread, so a per-tracer stack gives the parent.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import os
import sys
import time
import weakref
from collections import defaultdict
from contextlib import contextmanager

MB = float(1 << 20)

# (module, qualified name) of every traced function or method.
TARGETS = (
    ("graph_io", "synthetic_graph"),
    ("graphs", "build_laplacian"),
    ("graphs", "eigendecompose"),
    ("filters", "filter_matrix"),
    ("filters", "apply_exact"),
    ("filters", "max_difference_quotient"),
    ("spaces", "CircleSpace.basis_matrix"),
    ("spaces", "BandlimitedKernel.evaluate"),
    ("spaces", "GraphSpace.from_graph"),
    ("sampling", "sampled_laplacian_matrix"),
    ("sampling", "perturb_graph_detailed"),
    ("sampling", "coarsen_matching"),
    ("transfer", "evaluate_transfer"),
    ("transfer", "bound_fourier_mode"),
    ("montecarlo", "mc_trial"),
    ("montecarlo", "bound_constants"),
    ("convnet", "forward_graph"),
    ("convnet", "forward_continuous"),
    ("convnet", "hypothesis_errors"),
    ("reports", "emit_reports"),
    ("experiments", "run_experiment"),
    ("experiments", "ExperimentConfig.from_file"),
)
LABELS = tuple(f"{module}.{qualname}" for module, qualname in TARGETS)

# Counters beside calls and self time: (label, counter, unit, better).
COUNTERS = (
    ("graphs.eigendecompose", "distinct_ratio", "ratio", "higher"),
    ("graphs.eigendecompose", "projector_mb", "MB", "lower"),
    ("filters.filter_matrix", "distinct_ratio", "ratio", "higher"),
    ("sampling.sampled_laplacian_matrix", "kernel_mb", "MB", "lower"),
    ("reports.emit_reports", "bytes", "B", "lower"),
)


def _digest(*arrays) -> bytes:
    h = hashlib.blake2b(digest_size=16)
    for a in arrays:
        h.update(f"{a.dtype}{a.shape}".encode())
        h.update(a.tobytes())
    return h.digest()


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _observe_eigendecompose(tracer, label, args, kwargs, result):
    op = _arg(args, kwargs, 0, "op")
    tracer.note_key(label, _digest(op.matrix, op.inner.b_matrix))
    # Computed, not measured: one dense n x n projector per eigenvalue group.
    proj = result.groups[0].projection
    tracer.add(label, "projector_mb", len(result.groups) * proj.size * proj.itemsize / MB)


def _observe_filter_matrix(tracer, label, args, kwargs, result):
    filt = _arg(args, kwargs, 0, "filter")
    eig = _arg(args, kwargs, 1, "eig")
    identity = repr((filt.variant, filt.name, filt.scale, filt.params))
    tracer.note_key(label, (identity, tracer.serial(eig)))


def _observe_sampled_laplacian(tracer, label, args, kwargs, result):
    n = _arg(args, kwargs, 1, "sample_set").size
    tracer.add(label, "kernel_mb", n * n * 8 / MB)  # computed: dense N x N float64


def _observe_emit_reports(tracer, label, args, kwargs, result):
    tracer.add(label, "bytes", sum(os.path.getsize(p) for p in result))


OBSERVERS = {
    "graphs.eigendecompose": _observe_eigendecompose,
    "filters.filter_matrix": _observe_filter_matrix,
    "sampling.sampled_laplacian_matrix": _observe_sampled_laplacian,
    "reports.emit_reports": _observe_emit_reports,
}


def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans) -> list:
    """Each span's duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for _, start, end, parent, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    return [
        (end - start) - union_length(children[i], start, end)
        for i, (_, start, end, _, _) in enumerate(spans)
    ]


class Tracer:
    """Spans and counters of the traced runs; ``run`` tags new spans."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.run = 0
        self._stack = []
        self._keys = defaultdict(set)  # label -> {(run, content key)}
        self._calls_with_key = defaultdict(int)
        self.totals = defaultdict(float)  # (label, counter) -> sum over runs
        self._serials = {}  # id -> serial of objects still alive
        self._next_serial = itertools.count()

    def serial(self, obj) -> int:
        """A number that stays with ``obj`` while it lives (ids get reused)."""
        key = id(obj)
        if key not in self._serials:
            self._serials[key] = next(self._next_serial)
            weakref.finalize(obj, self._serials.pop, key)
        return self._serials[key]

    def note_key(self, label, key):
        self._keys[label].add((self.run, key))
        self._calls_with_key[label] += 1

    def add(self, label, counter, value):
        self.totals[label, counter] += value

    def wrap(self, label, fn):
        observe = OBSERVERS.get(label)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = [label, 0.0, 0.0, self._stack[-1] if self._stack else None, self.run]
            self.spans.append(span)
            self._stack.append(index)
            span[1] = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = self.clock()
                self._stack.pop()
            if observe is not None:
                observe(self, label, args, kwargs, result)
            return result

        return traced

    @contextmanager
    def installed(self, package: str = "spectral_transfer"):
        """Trace every target inside the block; restore all bindings after."""
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == package or name.startswith(package + "."))
        ]
        undo = []
        try:
            for (module_name, qualname), label in zip(TARGETS, LABELS):
                module = sys.modules[f"{package}.{module_name}"]
                if "." in qualname:
                    cls_name, attr = qualname.split(".")
                    owner = getattr(module, cls_name)
                    raw = owner.__dict__[attr]
                    if isinstance(raw, (classmethod, staticmethod)):
                        new = type(raw)(self.wrap(label, raw.__func__))
                    else:
                        new = self.wrap(label, raw)
                    undo.append((owner, attr, raw))
                    setattr(owner, attr, new)
                    continue
                original = getattr(module, qualname)
                wrapped = self.wrap(label, original)
                for m in modules:
                    for name, value in list(vars(m).items()):
                        if value is original:
                            undo.append((m, name, original))
                            setattr(m, name, wrapped)
            yield self
        finally:
            for owner, attr, raw in reversed(undo):
                setattr(owner, attr, raw)

    def per_layer(self, runs: int) -> dict:
        """Per-run means of calls, self time and counters of every target."""
        calls = defaultdict(int)
        busy = defaultdict(float)
        for span, own in zip(self.spans, self_times(self.spans)):
            calls[span[0]] += 1
            busy[span[0]] += own
        out = {}
        for label in LABELS:
            out[f"{label}.calls"] = (calls[label] / runs, "count")
            out[f"{label}.self_s"] = (busy[label] / runs, "s")
        for label, counter, unit, _ in COUNTERS:
            if counter == "distinct_ratio":
                made = self._calls_with_key[label]
                value = len(self._keys[label]) / made if made else 0.0
            else:
                value = self.totals[label, counter] / runs
            out[f"{label}.{counter}"] = (value, unit)
        return out

    def write_spans(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
