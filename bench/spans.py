"""Span recorder for the traced pass, kept in the benchmark's own code.

The recorder wraps the public functions of every softedge layer and records
one span per call: its name, its parent span, start and end, the number of
input elements, the size of the file a tensor_io call read or wrote, and
for codec calls the peak bytes allocated inside the call (tracemalloc).
Spans of one iteration share its index. Spans stay in memory; the caller
writes them out when the run ends.

There is one thread and no queue, so no layer waits on another: the
metrics are busy time, self time and counts, never wait times.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from softedge.codec import QuantizedTensor
from softedge.synth import DistSpec

LAYERS = ("synth", "calibration", "codec", "metrics", "tensor_io", "ssm", "cli")


@dataclass
class Span:
    id: int
    parent: int | None
    iteration: int
    name: str  # "<layer>.<function>"
    variant: str | None  # the `which` argument of fake_quant
    elems: int
    start_ns: int = 0
    end_ns: int = 0
    nbytes: int = 0
    peak_bytes: int | None = None
    error: str | None = None


def layer_functions() -> dict:
    """'<layer>.<function>' -> function, for each public function a layer
    defines (its __all__; for cli, main)."""
    out = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"softedge.{layer}")
        for name in getattr(mod, "__all__", ["main"]):
            fn = getattr(mod, name)
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                out[f"{layer}.{name}"] = fn
    return out


def _elements(values) -> int:
    for v in values:
        if isinstance(v, np.ndarray):
            return v.size
        if isinstance(v, QuantizedTensor):
            return len(v)
        if isinstance(v, DistSpec):
            return v.n
    return 0


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


class Recorder:
    """Records spans while `tracing()` has the wrapped functions patched in.

    Patching replaces every binding of a wrapped function in every loaded
    softedge module, so names imported with `from .codec import fake_quant`
    are traced too. Leaving `tracing()` restores the original functions.
    """

    def __init__(self, functions: dict, namespaces=None,
                 clock=time.perf_counter_ns):
        self.functions = functions
        self.namespaces = namespaces
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._iteration = 0
        self._patched: list = []
        self._wrappers = {n: self._wrap(n, f) for n, f in functions.items()}

    def _wrap(self, name: str, fn):
        sig = inspect.signature(fn)
        peak = name.startswith("codec.")
        file_io = name.startswith("tensor_io.")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            a = bound.arguments
            span = Span(len(self.spans), self._stack[-1] if self._stack else None,
                        self._iteration, name, a.get("which"),
                        _elements(a.values()))
            self.spans.append(span)
            self._stack.append(span.id)
            mem = peak and not tracemalloc.is_tracing()
            if mem:
                tracemalloc.start()
            span.start_ns = self.clock()
            try:
                return fn(*args, **kwargs)
            except Exception as e:
                span.error = type(e).__name__
                raise
            finally:
                span.end_ns = self.clock()
                if mem:
                    span.peak_bytes = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                if file_io:
                    span.nbytes = _file_size(a.get("path"))
                self._stack.pop()

        return traced

    @contextmanager
    def tracing(self, iteration: int):
        """Patch the wrappers in for one iteration, then restore."""
        self._iteration = iteration
        by_id = {id(fn): name for name, fn in self.functions.items()}
        namespaces = self.namespaces or [
            m for k, m in list(sys.modules.items())
            if k == "softedge" or k.startswith("softedge.")
        ]
        try:
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    name = by_id.get(id(value))
                    if name is not None:
                        setattr(ns, attr, self._wrappers[name])
                        self._patched.append((ns, attr, value))
            yield self
        finally:
            for ns, attr, value in reversed(self._patched):
                setattr(ns, attr, value)
            self._patched.clear()


def self_ns(spans: list[Span]) -> dict[int, int]:
    """Span id -> duration minus the part of it that child spans cover."""
    kids = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            kids[s.parent].append((s.start_ns, s.end_ns))
    out = {}
    for s in spans:
        covered, reach = 0, s.start_ns
        for lo, hi in sorted(kids[s.id]):
            lo, hi = max(lo, reach), min(hi, s.end_ns)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.id] = s.end_ns - s.start_ns - covered
    return out


def layer_metrics(spans: list[Span], iter_walls_s: list[float]) -> dict:
    """Per-layer metric name -> value over the traced iterations.

    Times and counts named `calls`, `self_s` and `bytes_*` are per
    iteration; `ns_per_*` divide a span's inclusive time by its input
    elements (or file bytes); `self_ns_per_elem` uses self time.
    """
    k = len(iter_walls_s)
    own = self_ns(spans)
    by_id = {s.id: s for s in spans}
    by = defaultdict(list)
    for s in spans:
        by[s.name].append(s)
        if s.variant:
            by[f"{s.name}.{s.variant}"].append(s)

    def per(num, den):
        return num / den if den else 0.0

    def dur(ss):
        return sum(s.end_ns - s.start_ns for s in ss)

    def ns_per_elem(name):
        return per(dur(by[name]), sum(s.elems for s in by[name]))

    def self_ns_per_elem(name):
        return per(sum(own[s.id] for s in by[name]), sum(s.elems for s in by[name]))

    def peak_b_per_elem(name):
        return max((s.peak_bytes / s.elems for s in by[name]
                    if s.peak_bytes is not None and s.elems), default=0.0)

    def calls(name):
        return per(len(by[name]), k)

    def within(s, name):
        while s.parent is not None:
            s = by_id[s.parent]
            if s.name == name:
                return True
        return False

    def fake_quant_per_report(report):
        fq = sum(within(s, report) for s in by["codec.fake_quant"])
        return per(fq, len(by[report]))

    m = {
        "synth.generate.ns_per_elem": ns_per_elem("synth.generate"),
        "synth.generate.calls": calls("synth.generate"),
        "calibration.percentile_abs.ns_per_elem": ns_per_elem("calibration.percentile_abs"),
        "calibration.percentile_abs.calls": calls("calibration.percentile_abs"),
        "codec.fake_quant.soft_edge.ns_per_elem": ns_per_elem("codec.fake_quant.soft_edge"),
        "codec.fake_quant.int8.ns_per_elem": ns_per_elem("codec.fake_quant.int8"),
        "codec.fake_quant.calls": calls("codec.fake_quant"),
        "codec.fake_quant.peak_b_per_elem": peak_b_per_elem("codec.fake_quant"),
        "metrics.compare_quantizers.self_ns_per_elem":
            self_ns_per_elem("metrics.compare_quantizers"),
        "metrics.region_breakdown.self_ns_per_elem":
            self_ns_per_elem("metrics.region_breakdown"),
        "metrics.fake_quant_per_report": fake_quant_per_report("metrics.compare_quantizers"),
        "tensor_io.bytes_read": per(sum(s.nbytes for s in by["tensor_io.read_tensor"]
                                        + by["tensor_io.read_packed"]), k),
        "tensor_io.bytes_written": per(sum(s.nbytes for s in by["tensor_io.write_tensor"]
                                           + by["tensor_io.write_packed"]), k),
        "ssm.ssm_forward.ns_per_step": ns_per_elem("ssm.ssm_forward"),
        "ssm.ssm_forward.calls": calls("ssm.ssm_forward"),
        "ssm.ssm_forward.iter_frac": per(dur(by["ssm.ssm_forward"]) / 1e9,
                                         sum(iter_walls_s)),
        "ssm.run_report.self_s": per(sum(own[s.id] for s in by["ssm.run_report"]) / 1e9, k),
        "ssm.fake_quant_per_report": fake_quant_per_report("ssm.run_report"),
    }
    for f in ("encode_tensor", "decode_tensor"):
        m[f"codec.{f}.ns_per_elem"] = ns_per_elem(f"codec.{f}")
        m[f"codec.{f}.peak_b_per_elem"] = peak_b_per_elem(f"codec.{f}")
        m[f"codec.{f}.calls"] = calls(f"codec.{f}")
    for f in ("read_tensor", "write_tensor", "read_packed", "write_packed"):
        ss = by[f"tensor_io.{f}"]
        m[f"tensor_io.{f}.ns_per_byte"] = per(dur(ss), sum(s.nbytes for s in ss))
    for layer in LAYERS:
        ss = [s for s in spans if s.name.startswith(layer + ".")]
        m[f"{layer}.self_s"] = per(sum(own[s.id] for s in ss) / 1e9, k)
        m[f"{layer}.errors"] = sum(s.error is not None for s in ss)
    return m
