"""Span tracer for the traced benchmark run; the untraced run never
imports this module.

The tracer replaces public layer functions at the module attribute the
caller looks up (``figures.spectral_interval``, ``bounds.integrate``, ...)
with a wrapper that records a span: name, start, end, parent span and job.
Spans stay in memory and are written out when the run ends.  A layer's
self time is the duration of its spans minus the time covered by their
child spans.  Counts come from the values the wrapped calls return
(``QuadratureResult``, ``DecayBoundReport``).  When a later version of the
program no longer has one of a layer's wrapped names, that layer is
reported as unmeasured instead of failing the run.
"""

from __future__ import annotations

import collections
import csv
import functools
import gzip
import importlib
import inspect
import os
import time

import numpy as np

# (layer, module, attribute, role)
TARGETS = (
    ("figures", "figures", "run_compare", "driver"),
    ("figures", "figures", "run_kron_compare", "driver"),
    ("figures", "figures", "run_figure", "driver"),
    ("figures", "figures", "run_surface", "driver"),
    ("figures", "figures", "_write_csv", "csv"),
    ("matrices", "figures", "spectral_interval", "enclosure"),
    ("matrices", "kron", "spectral_interval", "enclosure"),
    ("matrices", "cli", "parse_matrix_spec", "load"),
    ("matrices", "figures", "make_test_matrix", "load"),
    ("matrices", "figures", "banded_from_stencil", "load"),
    ("oracle", "oracle", "eigendecomposition", "eigh"),
    ("oracle", "oracle", "function_column", "column"),
    ("oracle", "oracle", "resolvent_column", "column"),
    ("oracle", "oracle", "matrix_function", "column"),
    ("graphdist", "figures", "geodesic_from", "bfs"),
    ("bounds", "bounds", "laplace_entry_bound", "entry"),
    ("bounds", "bounds", "cauchy_entry_bound", "entry"),
    ("bounds", "bounds", "exp_entry_bound", "entry"),
    ("bounds", "bounds", "demko_bound", "entry"),
    ("bounds", "bounds", "freund_resolvent_bound", "entry"),
    ("bounds", "bounds", "invsqrt_closed_bound", "entry"),
    ("bounds", "bounds", "exp_envelope", "envelope"),
    ("kron", "kron", "laplace_kron_bound", "kentry"),
    ("kron", "kron", "cauchy_kron_bound", "kentry"),
    ("kron", "kron", "exp_kron_bound", "kentry"),
    ("kron", "kron", "exp_envelope", "kenvelope"),
    ("quadrature", "bounds", "integrate", "quad"),
    ("quadrature", "bounds", "integrate_semi_infinite", "quad"),
    ("quadrature", "kron", "integrate", "quad"),
    ("quadrature", "kron", "integrate_semi_infinite", "quad"),
    ("quadrature", "quadrature", "integrate", "quad"),
    ("quadrature", "quadrature", "integrate_semi_infinite", "quad"),
)

# metric name -> (layer, unit)
METRICS = {
    "quadrature.self_s": ("quadrature", "s"),
    "quadrature.calls": ("quadrature", "count"),
    "quadrature.panels": ("quadrature", "count"),
    "quadrature.evals": ("quadrature", "count"),
    "quadrature.nonconverged": ("quadrature", "count"),
    "quadrature.err_rel_max": ("quadrature", "ratio"),
    "bounds.self_s": ("bounds", "s"),
    "bounds.envelope_s": ("bounds", "s"),
    "bounds.envelope_calls": ("bounds", "count"),
    "bounds.entry_calls": ("bounds", "count"),
    "bounds.distinct_distance_ratio": ("bounds", "ratio"),
    "kron.self_s": ("kron", "s"),
    "kron.entry_calls": ("kron", "count"),
    "kron.distinct_distance_ratio": ("kron", "ratio"),
    "matrices.enclosure_s": ("matrices", "s"),
    "matrices.enclosure_calls": ("matrices", "count"),
    "matrices.load_s": ("matrices", "s"),
    "oracle.eigh_s": ("oracle", "s"),
    "oracle.eigh_calls": ("oracle", "count"),
    "oracle.column_s": ("oracle", "s"),
    "graphdist.bfs_s": ("graphdist", "s"),
    "graphdist.bfs_calls": ("graphdist", "count"),
    "figures.driver_self_s": ("figures", "s"),
    "figures.csv_s": ("figures", "s"),
    "figures.csv_bytes": ("figures", "bytes"),
    "cli.self_s": ("cli", "s"),
}


def _entry_distance(signature, args, kwargs, result):
    """Distance an entry bound was evaluated at: from the report when
    the bound returns one, else from the ``distance`` argument or the band
    distance |k - t| / beta."""
    d = getattr(result, "distance", None)
    if d is not None:
        return d
    a = signature.bind(*args, **kwargs).arguments
    if a.get("distance") is not None:
        return float(a["distance"])
    beta = a["beta"] if "beta" in a else getattr(a["M"], "beta", None)
    return abs(a["k"] - a["t"]) / beta


class Tracer:
    """Records spans of the current job and per-pass counts."""

    def __init__(self, package):
        self.package = package
        self.spans = []          # [name, role, start, end, parent, job, pass]
        self.job = ""
        self.pass_index = -1
        self._stack = [-1]
        self._patched = []
        self.unmeasured = {}     # layer -> missing names
        self._begin = 0
        self._counts = collections.Counter()
        self._distances = collections.defaultdict(set)
        self._err_rel_max = 0.0

    # -- installation -------------------------------------------------
    def install(self):
        for layer, mod, attr, role in TARGETS:
            try:
                module = importlib.import_module(f"{self.package}.{mod}")
            except ModuleNotFoundError:
                module = None
            fn = getattr(module, attr, None)
            if fn is None:
                self.unmeasured.setdefault(layer, []).append(f"{mod}.{attr}")
                continue
            self._patched.append((module, attr, fn))
            setattr(module, attr, self.wrap(f"{mod}.{attr}", role, fn))

    def uninstall(self):
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    def wrap(self, name, role, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        hook = getattr(self, f"_on_{role}", None)
        signature = inspect.signature(fn) if role == "entry" else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, role, 0.0, 0.0, stack[-1], self.job, self.pass_index]
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            if hook is not None:
                hook(rec, result, args, kwargs, signature)
            return result

        return traced

    # -- count hooks --------------------------------------------------
    def _on_quad(self, rec, result, args, kwargs, signature):
        parent = rec[4]
        if parent >= 0 and self.spans[parent][1] == "quad":
            return      # inner call of an outer quadrature: counted there
        c = self._counts
        c["quad_calls"] += 1
        c["evals"] += result.evaluations
        c["panels"] += result.evaluations // 15
        c["nonconverged"] += 0 if result.converged else 1
        size = float(np.max(np.abs(np.asarray(result.value))))
        if size > 0:
            self._err_rel_max = max(self._err_rel_max,
                                    result.error_estimate / size)

    def _on_entry(self, rec, result, args, kwargs, signature):
        self._counts["entry"] += 1
        d = _entry_distance(signature, args, kwargs, result)
        self._distances[("bounds", rec[5], rec[0])].add(d)

    def _on_kentry(self, rec, result, args, kwargs, signature):
        self._counts["kentry"] += 1
        self._distances[("kron", rec[5], rec[0])].add(tuple(result.distance))

    def _on_csv(self, rec, result, args, kwargs, signature):
        self._counts["csv_bytes"] += os.path.getsize(args[0])

    # -- per-pass summaries -------------------------------------------
    def begin_pass(self, index):
        self.pass_index = index
        self._begin = len(self.spans)
        self._counts.clear()
        self._distances.clear()
        self._err_rel_max = 0.0

    def end_pass(self):
        """Per-layer metrics of the pass that just ended."""
        spans = self.spans[self._begin:]
        base = self._begin
        child = collections.defaultdict(float)
        for s in spans:
            if s[4] >= base:
                child[s[4]] += s[3] - s[2]
        self_s = collections.Counter()
        calls = collections.Counter()
        for i, s in enumerate(spans, start=base):
            self_s[s[1]] += s[3] - s[2] - child[i]
            calls[s[1]] += 1
        c = self._counts

        def distinct(layer, calls_key):
            # no calls: nothing for deduplication to save
            n = sum(len(v) for k, v in self._distances.items() if k[0] == layer)
            return n / c[calls_key] if c[calls_key] else 1.0

        values = {
            "quadrature.self_s": self_s["quad"],
            "quadrature.calls": c["quad_calls"],
            "quadrature.panels": c["panels"],
            "quadrature.evals": c["evals"],
            "quadrature.nonconverged": c["nonconverged"],
            "quadrature.err_rel_max": self._err_rel_max,
            "bounds.self_s": self_s["entry"],
            "bounds.envelope_s": self_s["envelope"],
            "bounds.envelope_calls": calls["envelope"],
            "bounds.entry_calls": c["entry"],
            "bounds.distinct_distance_ratio": distinct("bounds", "entry"),
            "kron.self_s": self_s["kentry"] + self_s["kenvelope"],
            "kron.entry_calls": c["kentry"],
            "kron.distinct_distance_ratio": distinct("kron", "kentry"),
            "matrices.enclosure_s": self_s["enclosure"],
            "matrices.enclosure_calls": calls["enclosure"],
            "matrices.load_s": self_s["load"],
            "oracle.eigh_s": self_s["eigh"],
            "oracle.eigh_calls": calls["eigh"],
            "oracle.column_s": self_s["column"],
            "graphdist.bfs_s": self_s["bfs"],
            "graphdist.bfs_calls": calls["bfs"],
            "figures.driver_self_s": self_s["driver"],
            "figures.csv_s": self_s["csv"],
            "figures.csv_bytes": c["csv_bytes"],
            "cli.self_s": self_s["cli"],
        }
        for name, (layer, _) in METRICS.items():
            if layer in self.unmeasured:
                values[name] = None
        return values

    def write(self, path, origin):
        """Write every span as CSV (times in seconds from ``origin``)."""
        with gzip.open(path, "wt", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(("id", "name", "start_s", "end_s", "parent", "job", "pass"))
            for i, (name, _, t0, t1, parent, job, p) in enumerate(self.spans):
                w.writerow((i, name, f"{t0 - origin:.6f}", f"{t1 - origin:.6f}",
                            parent, job, p))
