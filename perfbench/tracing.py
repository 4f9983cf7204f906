"""Per-layer tracing by wrapping the names one package module calls in another.

Nothing in the package changes: the tracer replaces module attributes (the
bindings a caller looks up at call time) with timing wrappers, records one
span per call, and derives the per-layer metrics from the spans plus the
rule caches' ``cache_info()`` deltas.  A wrapped name that a later version
of the package no longer has is listed in ``absent`` and its counters read 0.
"""

import inspect
import time

import numpy as np

# (calling module, attribute, layer).  The layer is where the callee lives.
WRAPPED = (
    ("mehler", "_hyp2f1_array", "specfun.hyp2f1"),
    ("jtransform", "_hyp2f1_array", "specfun.hyp2f1"),
    ("series", "jacobi_r_table", "specfun.table"),
    ("laguerre", "laguerre_r_table", "specfun.table"),
    ("series", "jacobi_r", "specfun.scalar"),
    ("laguerre", "laguerre_r", "specfun.scalar"),
    ("quadrature", "_golub_welsch", "quadrature.build"),
    ("series", "mapped_jacobi_rule", "quadrature.rule"),
    ("mehler", "mapped_jacobi_rule", "quadrature.rule"),
    ("mehler", "mehler_inner_rule", "quadrature.rule"),
    ("jtransform", "mapped_jacobi_rule", "quadrature.rule"),
    ("laguerre", "mapped_jacobi_rule", "quadrature.rule"),
    ("laguerre", "gauss_laguerre_rule", "quadrature.rule"),
    ("series", "_integrate_pieces", "series.integrate"),
    ("series", "_converged_values", "series.converge"),
    ("series", "sup_norm_r", "series.sup_norm"),
    ("mehler", "mehler_r", "mehler.value"),
    ("mehler", "mehler_limit_r", "mehler.value"),
    ("laguerre", "_coefficient_values", "laguerre.series"),
    ("laguerre", "step_identity_check", "laguerre.identity"),
    ("laguerre", "laguerre_bound_profile", "laguerre.bound"),
    ("jtransform", "_cosine_data", "jtransform.cosine_data"),
    ("jtransform", "_sweep_piece", "jtransform.sweep_piece"),
    ("jtransform", "transform_sweep", "jtransform.sweep"),
)

# name -> unit, in the order BENCHMARK.json lists them.
LAYER_METRICS = {
    "specfun.hyp2f1_calls": "count",
    "specfun.hyp2f1_points": "count",
    "specfun.hyp2f1_s": "s",
    "specfun.table_cells": "count",
    "specfun.table_s": "s",
    "specfun.scalar_calls": "count",
    "specfun.scalar_points": "count",
    "specfun.scalar_s": "s",
    "quadrature.rule_requests": "count",
    "quadrature.rules_built": "count",
    "quadrature.cache_hit_ratio": "ratio",
    "quadrature.build_s": "s",
    "quadrature.max_n": "count",
    "quadrature.eigvec_mb_computed": "MiB",
    "series.passes": "count",
    "series.passes_per_series": "ratio",
    "series.integrate_s": "s",
    "series.stall_accepts": "count",
    "series.sup_norm_s": "s",
    "mehler.values": "count",
    "mehler.evals_per_value": "ratio",
    "mehler.s": "s",
    "laguerre.series_s": "s",
    "laguerre.identity_s": "s",
    "laguerre.bound_s": "s",
    "jtransform.cosine_data_calls": "count",
    "jtransform.cosine_nodes": "count",
    "jtransform.cosine_data_s": "s",
    "jtransform.sweep_self_s": "s",
    "jtransform.levels_per_sweep": "ratio",
    "trace.overhead_ratio": "ratio",
}


class _Span:
    __slots__ = ("layer", "child", "passes", "levels")

    def __init__(self, layer):
        self.layer = layer
        self.child = 0.0
        self.passes = []     # series.converge: the pass results, in order
        self.levels = set()  # jtransform.sweep: the doubling levels seen


class Tracer:
    """Wraps the package's cross-module names; ``restore`` undoes it."""

    def __init__(self, package):
        self.package = package
        self.stack: list[_Span] = []
        self.calls: dict[str, int] = {}
        self.total: dict[str, float] = {}
        self.self_s: dict[str, float] = {}
        self.counts: dict[str, float] = {}
        self.builds: list[tuple[int, float]] = []
        self.absent: list[str] = []
        self.unreadable: set[str] = set()
        self._saved = []
        self._caches = self._cache_objects()
        self._cache_start = self._cache_totals()
        for module_name, attr, layer in WRAPPED:
            module = getattr(package, module_name, None)
            original = getattr(module, attr, None)
            if original is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, layer))

    def restore(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved = []

    def _cache_objects(self):
        quadrature = getattr(self.package, "quadrature", None)
        return [obj for obj in vars(quadrature).values()
                if callable(getattr(obj, "cache_info", None))] if quadrature else []

    def _cache_totals(self):
        hits = misses = 0
        for obj in self._caches:
            info = obj.cache_info()
            hits += info.hits
            misses += info.misses
        return hits, misses

    def _count(self, key, amount):
        self.counts[key] = self.counts.get(key, 0.0) + amount

    def _nearest(self, layer):
        for span in reversed(self.stack):
            if span.layer == layer:
                return span
        return None

    def _wrap(self, fn, layer):
        signature = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            span = _Span(layer)
            self.stack.append(span)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                self.stack.pop()
                if self.stack:
                    self.stack[-1].child += dur
                self.calls[layer] = self.calls.get(layer, 0) + 1
                self.total[layer] = self.total.get(layer, 0.0) + dur
                self.self_s[layer] = self.self_s.get(layer, 0.0) + dur - span.child
            try:
                self._after(layer, signature.bind(*args, **kwargs), result, span, dur)
            except (KeyError, TypeError):
                # The callee's signature changed: keep timing, drop its counters.
                self.unreadable.add(layer)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _after(self, layer, bound, result, span, dur):
        a = bound.arguments
        if layer == "specfun.hyp2f1":
            self._count("hyp2f1_points", np.size(a["z"]))
            if self._nearest("mehler.value") is not None:
                self._count("mehler_evals", 1)
        elif layer == "specfun.table":
            self._count("table_cells", (a["kmax"] + 1) * np.size(a["x"]))
        elif layer == "specfun.scalar":
            self._count("scalar_points", np.size(a["x"]))
        elif layer == "quadrature.build":
            self.builds.append((int(np.size(a["d"])), dur))
        elif layer == "jtransform.cosine_data":
            self._count("cosine_nodes", np.size(result[0]))
        elif layer == "jtransform.sweep_piece":
            sweep = self._nearest("jtransform.sweep")
            if sweep is not None:
                sweep.levels.add(a["level"])
        elif layer == "jtransform.sweep":
            self._count("levels", len(span.levels))
        elif layer == "series.integrate":
            converge = self._nearest("series.converge")
            if converge is not None:
                converge.passes.append(np.asarray(result))
        elif layer == "series.converge":
            bound.apply_defaults()
            rtol = bound.arguments["rtol"]
            if len(span.passes) >= 2:
                cur, prev = span.passes[-1], span.passes[-2]
                err = float(np.max(np.abs(cur - prev)))
                if err > rtol * max(1.0, float(np.max(np.abs(cur)))):
                    self._count("stall_accepts", 1)

    def metrics(self) -> dict:
        """Per-layer metrics (without trace.overhead_ratio) for the calls so far."""
        hits0, misses0 = self._cache_start
        hits1, misses1 = self._cache_totals()
        hits, misses = hits1 - hits0, misses1 - misses0
        # Every time is self time: span time minus the wrapped calls it made
        # into other layers, so each second is counted in one layer only.
        calls, own, count = self.calls.get, self.self_s.get, self.counts.get
        values = calls("mehler.value", 0)
        series = calls("series.converge", 0)
        sweeps = calls("jtransform.sweep", 0)
        max_n = max((n for n, _ in self.builds), default=0)
        return {
            "specfun.hyp2f1_calls": calls("specfun.hyp2f1", 0),
            "specfun.hyp2f1_points": count("hyp2f1_points", 0),
            "specfun.hyp2f1_s": own("specfun.hyp2f1", 0.0),
            "specfun.table_cells": count("table_cells", 0),
            "specfun.table_s": own("specfun.table", 0.0),
            "specfun.scalar_calls": calls("specfun.scalar", 0),
            "specfun.scalar_points": count("scalar_points", 0),
            "specfun.scalar_s": own("specfun.scalar", 0.0),
            "quadrature.rule_requests": hits + misses,
            "quadrature.rules_built": misses,
            "quadrature.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "quadrature.build_s": own("quadrature.build", 0.0),
            "quadrature.max_n": max_n,
            # Computed from the size, not measured: n x n float64 eigenvectors.
            "quadrature.eigvec_mb_computed": max_n * max_n * 8 / 2 ** 20,
            "series.passes": calls("series.integrate", 0),
            "series.passes_per_series": calls("series.integrate", 0) / series if series else 0.0,
            "series.integrate_s": own("series.integrate", 0.0),
            "series.stall_accepts": count("stall_accepts", 0),
            "series.sup_norm_s": own("series.sup_norm", 0.0),
            "mehler.values": values,
            "mehler.evals_per_value": count("mehler_evals", 0) / values if values else 0.0,
            "mehler.s": own("mehler.value", 0.0),
            "laguerre.series_s": own("laguerre.series", 0.0),
            "laguerre.identity_s": own("laguerre.identity", 0.0),
            "laguerre.bound_s": own("laguerre.bound", 0.0),
            "jtransform.cosine_data_calls": calls("jtransform.cosine_data", 0),
            "jtransform.cosine_nodes": count("cosine_nodes", 0),
            "jtransform.cosine_data_s": own("jtransform.cosine_data", 0.0),
            "jtransform.sweep_self_s": own("jtransform.sweep_piece", 0.0),
            "jtransform.levels_per_sweep": count("levels", 0) / sweeps if sweeps else 0.0,
        }

    def spans(self) -> dict:
        """Calls, inclusive and self seconds per wrapped layer."""
        return {layer: {"calls": n, "s": self.total[layer], "self_s": self.self_s[layer]}
                for layer, n in sorted(self.calls.items())}

    def rule_costs(self) -> dict:
        """Median Golub-Welsch time per rule size, for sizes of at least 1000."""
        by_n: dict[int, list[float]] = {}
        for n, dur in self.builds:
            if n >= 1000:
                by_n.setdefault(n, []).append(dur)
        return {str(n): float(np.median(v)) for n, v in sorted(by_n.items())}
