"""Outside-in layer tracing.

The tracer wraps module-level names that one ddlab layer calls in another
and records a span around every call: (name, start, end, parent, op id).
Span names are "<layer>.<what>", where the layer is a module of src/ddlab.
Nothing inside the library changes; the wrappers are installed only for
traced rounds and removed afterwards, so untraced rounds run the original
functions.  Spans stay in memory until the run writes them out.
"""
from __future__ import annotations

import functools
import json
import os
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

LAYERS = ("simplex", "deviation", "predictors", "prescriptors", "decisions", "cli")

Span = Tuple[str, float, float, int, int]  # name, start, end, parent index, op id


# ---------------------------------------------------------------------------
# counters: called with (tracer, args, result) after the wrapped call returns


def _count_lattice(tracer, args, result) -> None:
    n, d = result.shape
    tracer.add("simplex.lattice_points", n)
    tracer.add("simplex.lattice_bytes", n * d * 8)


def _count_sample(tracer, args, result) -> None:
    tracer.add("deviation.drawn_rows", result.shape[0])


def _count_dedup(tracer, args, result) -> None:
    tracer.add("deviation.distinct_rows", result[0].shape[0])
    tracer.last_multiplicity = result[2]


def _count_indicator(tracer, args, result) -> None:
    # samples landing in the disappointment region, for importance sampling
    if tracer.inside("deviation.importance") and tracer.last_multiplicity is not None:
        tracer.add("deviation.is_hits", int(tracer.last_multiplicity[result].sum()))


def _count_emit(tracer, args, result) -> None:
    out = args[2].get("out")
    if out:
        tracer.add("cli.bytes_out", os.path.getsize(out))


def _counter(name: str) -> Callable:
    def count(tracer, args, result) -> None:
        tracer.add(name, 1)
    return count


# (module, attribute, span name, counter): the boundaries that are traced.
# A name is wrapped in the namespace of the module that calls it.
BOUNDARIES = (
    ("ddlab.cli", "main", "cli.main", None),
    ("ddlab.cli", "_merged_config", "cli.config", None),
    ("ddlab.cli", "_emit", "cli.emit", _count_emit),
    ("ddlab.cli", "load_scenario", "decisions.load", None),
    ("ddlab.cli", "predict_saa", "predictors.scalar", _counter("predictors.scalar_calls")),
    ("ddlab.cli", "predict_robust", "predictors.scalar", _counter("predictors.scalar_calls")),
    ("ddlab.cli", "predict_kl_dual", "predictors.scalar", _counter("predictors.scalar_calls")),
    ("ddlab.cli", "predict_svp", "predictors.scalar", _counter("predictors.scalar_calls")),
    ("ddlab.cli", "prescribe", "prescriptors.prescribe", None),
    ("ddlab.cli", "convexity_certificate", "prescriptors.convexity", None),
    ("ddlab.cli", "disappointment_exact", "deviation.exact", None),
    ("ddlab.deviation", "disappointment_exact", "deviation.exact", None),
    ("ddlab.deviation", "disappointment_mc", "deviation.mc", None),
    ("ddlab.deviation", "disappointment_importance", "deviation.importance", None),
    ("ddlab.deviation", "importance_shift", "deviation.shift", None),
    ("ddlab.deviation", "_lattice_counts", "simplex.lattice", _count_lattice),
    ("ddlab.deviation", "_log_pmf_rows", "deviation.logpmf", None),
    ("ddlab.deviation", "_sample_count_rows", "deviation.sample", _count_sample),
    ("ddlab.deviation", "_unique_rows", "deviation.dedup", _count_dedup),
    ("ddlab.deviation", "_disappointment_indicator", "deviation.indicator", _count_indicator),
    ("ddlab.deviation", "predictor_value_rows", "predictors.rows", None),
    ("ddlab.deviation", "predictor_value_matrix", "predictors.matrix", None),
    ("ddlab.deviation", "variance_matrix", "predictors.variance_matrix", None),
    ("ddlab.deviation", "select_decisions", "prescriptors.select", None),
    ("ddlab.prescriptors", "predictor_value_matrix", "predictors.matrix", None),
    ("ddlab.prescriptors", "variance_matrix", "predictors.variance_matrix", None),
    ("ddlab.prescriptors", "select_decisions", "prescriptors.select", None),
    ("ddlab.predictors", "_kl_dual_solve", "predictors.kl_solve", _counter("predictors.kl_solves")),
)


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Optional[Span]] = []
        self.stack: List[int] = []
        self.counts: Dict[str, float] = {}
        self.op_id = -1
        self.last_multiplicity = None
        self._saved: List[Tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def add(self, name: str, amount: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def inside(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i in self.stack if self.spans[i] is not None)

    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict, counter=None):
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        # placeholder keeps the index; the name is visible to inside()
        self.spans.append((name, 0.0, 0.0, parent, self.op_id))
        self.stack.append(index)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self.stack.pop()
            self.spans[index] = (name, start, end, parent, self.op_id)
        if counter is not None:
            counter(self, args, result)
        return result

    def _wrap(self, fn: Callable, name: str, counter) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs, counter)
        return wrapper

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        import importlib

        for module_name, attr, name, counter in BOUNDARIES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, counter))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    # -- analysis ----------------------------------------------------------

    def span_totals(self, first: int, stop: int) -> Tuple[Dict[str, float], Dict[str, float]]:
        """(inclusive seconds per span name, self seconds per layer) over
        spans[first:stop].  Self time is a span's duration minus its
        children's."""
        child = [0.0] * len(self.spans)
        for i in range(first, stop):
            name, start, end, parent, _ = self.spans[i]
            if parent >= first:
                child[parent] += end - start
        inclusive: Dict[str, float] = {}
        self_by_layer: Dict[str, float] = {}
        for i in range(first, stop):
            name, start, end, _, _ = self.spans[i]
            duration = end - start
            inclusive[name] = inclusive.get(name, 0.0) + duration
            layer = name.split(".", 1)[0]
            self_by_layer[layer] = self_by_layer.get(layer, 0.0) + duration - child[i]
        return inclusive, self_by_layer

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op_id in self.spans:
                fh.write(json.dumps({
                    "name": name, "start": start, "end": end,
                    "parent": parent, "op": op_id,
                }) + "\n")
