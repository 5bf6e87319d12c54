"""Span tracer that wraps spdc1d functions from outside the package.

While installed, each traced function records a span (operation, span
id, parent span id, name, start, end) in memory.  Self time is a span's
duration minus the durations of its direct children.  Counter hooks run
after the traced call returns, inside a span of their own named
``tracer.count``, so their cost never lands in a layer's self time.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

COUNT_SPAN = "tracer.count"
# Real flop counts: matmul 2 m k n, LU 2/3 n^3, triangular solves 2 n^2
# per right-hand side.  Complex arithmetic costs 4 times as many.
COMPLEX_FLOPS = 4.0


def _count_operands(tracer, mats):
    tracer.counters["blockmatrix.nnz"] += sum(
        int(np.count_nonzero(m)) for m in mats)
    tracer.counters["blockmatrix.entries"] += sum(m.size for m in mats)


def _hook_matmul(tracer, args, kwargs, out):
    a, b = args[0].data, args[1].data
    m, k = a.shape
    n = b.shape[1]
    tracer.counters["blockmatrix.flop"] += COMPLEX_FLOPS * 2.0 * m * k * n
    tracer.counters["blockmatrix.bytes"] += 16.0 * (m * k + k * n + m * n)
    _count_operands(tracer, (a, b))


def _hook_solve(tracer, args, kwargs, out):
    a, rhs = args[0].data, args[1].data
    n, r = a.shape[0], rhs.shape[1]
    tracer.counters["blockmatrix.flop"] += COMPLEX_FLOPS * (
        2.0 / 3.0 * n**3 + 2.0 * n * n * r)
    tracer.counters["blockmatrix.bytes"] += 16.0 * (n * n + 2 * n * r)
    _count_operands(tracer, (a, rhs))


def _hook_condition(tracer, args, kwargs, out):
    a = args[0].data
    n = a.shape[0]
    # dense inverse = LU plus n triangular solve pairs
    tracer.counters["blockmatrix.flop"] += COMPLEX_FLOPS * (
        2.0 / 3.0 * n**3 + 2.0 * n**3)
    tracer.counters["blockmatrix.bytes"] += 16.0 * 2 * n * n
    _count_operands(tracer, (a,))


def _hook_write_csv(tracer, args, kwargs, out):
    path = kwargs.get("path", args[0] if args else None)
    tracer.counters["runner.write_csv.bytes"] += os.path.getsize(path)


def _hook_emission(tracer, args, kwargs, out):
    f = out.f_linear.data
    dev = float(np.max(np.abs(f @ f.conj().T - np.eye(f.shape[0]))))
    tracer.health["max_ff_unitarity_dev"] = max(
        tracer.health.get("max_ff_unitarity_dev", 0.0), dev)
    tracer.health["condition_warnings"] = tracer.health.get(
        "condition_warnings", 0) + sum(
            "condition number" in w for w in out.warnings)


# (metric prefix, module of spdc1d, attribute path, counter hook)
TRACED = (
    ("config.load_config", "config", "load_config", None),
    ("linear.propagate_pump", "linear", "propagate_pump", None),
    ("linear.linear_transmission", "linear", "linear_transmission", None),
    ("spectral.project_to_basis", "spectral", "project_to_basis", None),
    ("matrixcore.TransferChain.build", "matrixcore", "TransferChain.build",
     None),
    ("matrixcore.input_output_map", "matrixcore", "input_output_map", None),
    ("matrixcore.build_emission", "matrixcore", "build_emission",
     _hook_emission),
    ("blockmatrix.matmul", "blockmatrix", "BlockMatrix.__matmul__",
     _hook_matmul),
    ("blockmatrix.solve", "blockmatrix", "BlockMatrix.solve", _hook_solve),
    ("blockmatrix.condition_number", "blockmatrix",
     "BlockMatrix.condition_number", _hook_condition),
    ("observables.joint_density", "observables", "joint_density", None),
    ("observables.two_photon_amplitude", "observables",
     "two_photon_amplitude", None),
    ("observables.temporal_profiles", "observables", "temporal_profiles",
     None),
    ("oracle.reference_pair_amplitude", "oracle", "reference_pair_amplitude",
     None),
    ("runner.write_csv", "runner", "write_csv", _hook_write_csv),
    ("runner.transmission_map", "runner", "transmission_map", None),
    ("runner.track_ridges", "runner", "track_ridges", None),
)
SPAN_NAMES = tuple(t[0] for t in TRACED) + (COUNT_SPAN,)


class Tracer:
    """In-memory span recorder; installed() patches spdc1d while active."""

    def __init__(self):
        self.op = None  # identifier shared by the spans of one operation
        self.spans = []  # (op, id, parent id or -1, name, t0, t1)
        self.counters = defaultdict(float)
        self.health = {}
        self.missing = []  # traced names absent from this version of spdc1d
        self._stack = []
        self._next_id = 0

    def _wrap(self, name, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            out = tracer._call(name, fn, args, kwargs)
            if hook is not None:
                tracer._call(COUNT_SPAN, hook, (tracer, args, kwargs, out), {})
            return out

        return traced

    def _call(self, name, fn, args, kwargs):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            self._stack.pop()
            self.spans.append((self.op, sid, parent, name, t0, t1))

    @contextmanager
    def installed(self):
        """Patch every traced function in every spdc1d module namespace.

        A function a later version of the package no longer has is listed
        in `missing` and reports zero calls."""
        undo = []
        try:
            for name, modname, attr, hook in TRACED:
                try:
                    mod = importlib.import_module(f"spdc1d.{modname}")
                    owner, _, meth = attr.rpartition(".")
                    raw = (vars(getattr(mod, owner))[meth] if owner
                           else getattr(mod, attr))
                except (ImportError, AttributeError, KeyError):
                    self.missing.append(name)
                    continue
                if owner:
                    cls = getattr(mod, owner)
                    if isinstance(raw, classmethod):
                        new = classmethod(self._wrap(name, raw.__func__, hook))
                    else:
                        new = self._wrap(name, raw, hook)
                    setattr(cls, meth, new)
                    undo.append((cls, meth, raw))
                    continue
                new = self._wrap(name, raw, hook)
                for mname, m in list(sys.modules.items()):
                    if mname != "spdc1d" and not mname.startswith("spdc1d."):
                        continue
                    for key, val in list(vars(m).items()):
                        if val is raw:
                            setattr(m, key, new)
                            undo.append((m, key, raw))
            yield self
        finally:
            for target, key, val in reversed(undo):
                setattr(target, key, val)

    def self_times(self, op):
        """{name: (self seconds, calls)} and summed top-level duration."""
        spans = [s for s in self.spans if s[0] == op]
        child = defaultdict(float)
        for _, _, parent, _, t0, t1 in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = {}
        top = 0.0
        for _, sid, parent, name, t0, t1 in spans:
            self_s, calls = out.get(name, (0.0, 0))
            out[name] = (self_s + (t1 - t0) - child[sid], calls + 1)
            if parent < 0:
                top += t1 - t0
        return out, top

    def durations(self, name):
        """Inclusive times of the `name` spans, less the counter hooks
        that ran inside them."""
        parent = {sid: p for _, sid, p, _, _, _ in self.spans}
        hooks = defaultdict(float)
        for _, _, p, n, t0, t1 in self.spans:
            if n == COUNT_SPAN:
                while p >= 0:
                    hooks[p] += t1 - t0
                    p = parent[p]
        return [t1 - t0 - hooks[sid]
                for _, sid, _, n, t0, t1 in self.spans if n == name]
