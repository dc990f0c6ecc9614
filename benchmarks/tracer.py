"""Span tracing of halfwave's public layers, from outside the library.

``Tracer.install`` replaces the public functions and methods listed in
``TARGETS`` by wrappers, by assigning module and class attributes in the
benchmark's worker process only; the library's files are untouched.  While
``active`` is set, each call records a span ``[name, start, end, parent,
op]`` in memory, and the counters below add computed work counts for the op.
Spans are written out once, when the worker ends.

A layer's self time is its span's duration minus the durations of its direct
children (calls run on one thread, so children never overlap).
"""

from __future__ import annotations

import functools
import statistics
import time
from collections import defaultdict


def _block_values(args, kwargs, result):
    phi, _ = result
    return {"spectral.family_block.values": phi.size}


def _kernel_points(args, kwargs, result):
    return {"propagator.causal_kernel.points": result.size}


def _fd_bytes(args, kwargs, result):
    return {"oracle.fd_matrix_bytes": result.matrix.nbytes}


def _leapfrog_work(args, kwargs, result):
    # one dense matvec per step plus the starting one, each reading the matrix
    sysm = args[0]
    dt = args[3] if len(args) > 3 else kwargs["dt"]
    T = args[4] if len(args) > 4 else kwargs["T"]
    steps = int(round(T / dt))
    return {"oracle.leapfrog.steps": steps,
            "oracle.leapfrog.bytes_moved": (steps + 1) * sysm.matrix.nbytes}


# (module, owner attribute path, span name, counter)
TARGETS = (
    ("spectral", "resolve", "spectral.resolve", None),
    ("spectral", "SpectralResolution.family_block", "spectral.family_block", _block_values),
    ("spectral", "SpectralResolution.analyze", "spectral.analyze", None),
    ("spectral", "SpectralResolution.synthesize", "spectral.synthesize", None),
    ("propagator", "causal_kernel", "propagator.causal_kernel", _kernel_points),
    ("propagator", "sin_propagator", "propagator.sin_propagator", None),
    ("propagator", "build_kernel_grid", "propagator.build_kernel_grid", None),
    ("propagator", "apply_causal", "propagator.apply", None),
    ("propagator", "apply_retarded", "propagator.apply", None),
    ("propagator", "apply_advanced", "propagator.apply", None),
    ("propagator", "wentzell_apply", "propagator.apply", None),
    ("propagator", "KernelGrid.to_csv", "propagator.KernelGrid.to_csv", None),
    ("propagator", "KernelGrid.to_binary", "propagator.KernelGrid.to_binary", None),
    ("cli", "cmd_spectrum", "cli.cmd_spectrum", None),
    ("cli", "cmd_kernel", "cli.cmd_kernel", None),
    ("cli", "cmd_evolve", "cli.cmd_evolve", None),
    ("cli", "cmd_verify", "cli.cmd_verify", None),
    ("oracle", "assemble_fd", "oracle.assemble_fd", _fd_bytes),
    ("oracle", "fd_spectrum", "oracle.fd_spectrum", None),
    ("oracle", "leapfrog", "oracle.leapfrog", _leapfrog_work),
    ("triple", "spectrum_scan", "triple.spectrum_scan", None),
    ("triple", "negative_spectrum_roots", "triple.negative_spectrum_roots", None),
    ("triple", "greens_identity_residual", "triple.greens_identity_residual", None),
    ("verify", "bc_residual", "verify.bc_residual", None),
    ("verify", "causality_report", "verify.causality_report", None),
    ("verify", "energy_report", "verify.energy_report", None),
    ("verify", "emit_report", "verify.emit_report", None),
)

# per-layer metrics: name -> (source, unit); sources are "self_s", "s" or
# "calls" of a span name, or "count" of a counter, taken per traced op
LAYER_METRICS = {
    "spectral.family_block.calls": ("calls", "count"),
    "spectral.family_block.self_s": ("self_s", "s"),
    "spectral.family_block.values": ("count", "count"),
    "spectral.analyze.self_s": ("self_s", "s"),
    "spectral.synthesize.self_s": ("self_s", "s"),
    "spectral.resolve.self_s": ("self_s", "s"),
    "propagator.causal_kernel.s": ("s", "s"),
    "propagator.causal_kernel.self_s": ("self_s", "s"),
    "propagator.causal_kernel.points": ("count", "count"),
    "propagator.sin_propagator.self_s": ("self_s", "s"),
    "propagator.build_kernel_grid.self_s": ("self_s", "s"),
    "propagator.apply.self_s": ("self_s", "s"),
    "propagator.KernelGrid.to_csv.s": ("s", "s"),
    "propagator.KernelGrid.to_binary.s": ("s", "s"),
    "cli.cmd_spectrum.self_s": ("self_s", "s"),
    "cli.cmd_kernel.self_s": ("self_s", "s"),
    "cli.cmd_evolve.self_s": ("self_s", "s"),
    "cli.cmd_verify.self_s": ("self_s", "s"),
    "cli.bytes_written": ("count", "B"),
    "oracle.assemble_fd.s": ("s", "s"),
    "oracle.fd_spectrum.s": ("s", "s"),
    "oracle.leapfrog.s": ("s", "s"),
    "oracle.leapfrog.steps": ("count", "count"),
    "oracle.fd_matrix_bytes": ("count", "B"),
    "oracle.leapfrog.bytes_moved": ("count", "B"),
    "triple.spectrum_scan.s": ("s", "s"),
    "triple.negative_spectrum_roots.s": ("s", "s"),
    "triple.greens_identity_residual.s": ("s", "s"),
    "verify.bc_residual.s": ("s", "s"),
    "verify.causality_report.s": ("s", "s"),
    "verify.energy_report.s": ("s", "s"),
    "verify.emit_report.s": ("s", "s"),
    "warnings.TruncationWarning.count": ("count", "count"),
}


def _span_of(metric: str) -> str:
    return metric.rsplit(".", 1)[0]


class Tracer:
    def __init__(self):
        self.spans = []                 # [name, start, end, parent, op]
        self.counts = defaultdict(int)  # (op, counter) -> total
        self.active = False
        self.op = None
        self._stack = []

    def install(self, package) -> None:
        for module, path, name, counter in TARGETS:
            owner = getattr(package, module)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            setattr(owner, attr, self._wrap(owner.__dict__[attr], name, counter))

    def _wrap(self, fn, name, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            span = [name, time.perf_counter(), None, parent, self.op]
            self.spans.append(span)
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    self.counts[(self.op, key)] += int(value)
            return result
        return traced


def span_stats(spans) -> dict:
    """Per op and span name: calls, inclusive seconds and self seconds."""
    child_time = defaultdict(float)
    for name, start, end, parent, op in spans:
        if parent is not None:
            child_time[parent] += end - start
    stats = defaultdict(lambda: defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0}))
    for idx, (name, start, end, parent, op) in enumerate(spans):
        entry = stats[op][name]
        entry["calls"] += 1
        entry["s"] += end - start
        entry["self_s"] += end - start - child_time[idx]
    return stats


def layer_metrics(spans, counts: dict, ops) -> dict:
    """Median over the traced ``ops`` of every per-layer metric.

    ``counts`` maps (op, counter name) to the op's total; a layer an op never
    entered contributes 0.
    """
    stats = span_stats(spans)
    out = {}
    for metric, (source, unit) in LAYER_METRICS.items():
        if source == "count":
            per_op = [counts.get((op, metric), 0) for op in ops]
        else:
            per_op = [stats[op][_span_of(metric)][source] if _span_of(metric) in stats[op]
                      else 0 for op in ops]
        out[metric] = {"value": statistics.median(per_op), "unit": unit}
    return out
