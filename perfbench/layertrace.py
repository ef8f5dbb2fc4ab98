"""
Spans around the calls into each fpblab layer, recorded from outside the
program.

`install(tracer)` rebinds every binding of each named public function in
the loaded `fpblab.*` module namespaces, so calls made through a module
attribute (`series.avoider_series`), through a name imported with
`from .dist import fp_pmf`, or from inside the defining module (which
resolves through its globals) all land in the wrapper. Generators are not
wrapped: their consumers are (`perms.fixed_point_counts` drains
`enumerate_avoiders`), so the span covers the work, not the creation.

Spans are kept in memory and summarised once, when the pass has ended.
"""
from __future__ import annotations

import inspect
import sys
from time import perf_counter


def _arg(bound, name, default=None):
    return bound.arguments.get(name, default)


def _scaled_cells(bound, result):
    n = _arg(bound, "n_max")
    k = _arg(bound, "k_max")
    return {"cells": (n + 1) * ((n if k is None else k) + 1)}


# module -> function -> extractor(bound args, return value) -> counters.
# The extractor's counters are summed per span name; None means calls only.
SPANNED = {
    "series": {
        "avoider_series": None,
        "factorial_moment_coefficient": None,
        "avoider_polynomials": lambda b, r: {"max_n": _arg(b, "n_max")},
        "scaled_weight_rows": _scaled_cells,
        "unrestricted_weights": None,
    },
    "sampling": {
        "uniform_avoider_fp_batch": lambda b, r: {"samples": _arg(b, "count")},
        "sample_biased_unrestricted_batch": lambda b, r: {"samples": _arg(b, "count")},
        "uniform_avoider": None,
        "biased_avoider_permutation": lambda b, r: {"attempts": r[1]},
        "sample_fp_count_batch": lambda b, r: {"samples": _arg(b, "count")},
    },
    "dist": {
        "fp_pmf": None,
        "tv_distance": None,
        "kolmogorov_distance": None,
        "pmf_to_json": None,
    },
    "asymptotics": {"convergence_table": None},
    "perms": {"fixed_point_counts": None},
    "special": {"log_of_fraction": None},
    "cli": {"main": None},
}
# called too often and too cheaply for a span: counted only
COUNTED = {"special": ("normal_cdf",)}

MAX_KEYS = {"max_n"}  # counters aggregated by max instead of sum


class Tracer:
    """In-memory spans: (name, start, end, parent index, counters)."""

    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}

    def span(self, name_of, fn, extract):
        sig = inspect.signature(fn)
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[idx] = (name_of(bound), start, perf_counter(), parent, {})
                stack.pop()
                raise
            end = perf_counter()
            stack.pop()
            spans[idx] = (name_of(bound), start, end, parent, extract(bound, result) if extract else {})
            return result

        return wrapper

    def counter(self, name, fn):
        counts = self.counts
        counts[name] = 0

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper


def _span_name(module: str, func: str):
    if (module, func) == ("dist", "fp_pmf"):
        return lambda bound: f"dist.fp_pmf.{_arg(bound, 'mode', 'exact')}"
    name = f"{module}.{func}"
    return lambda bound: name


def _rebind(fn, wrapper) -> list:
    """Replace every binding of `fn` in the fpblab module namespaces; return them."""
    hits = []
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "fpblab" or mod_name.startswith("fpblab."):
            hits += [(mod, attr) for attr, value in vars(mod).items() if value is fn]
    for mod, attr in hits:
        setattr(mod, attr, wrapper)
    return [(mod, attr, fn) for mod, attr in hits]


def install(tracer: Tracer):
    """
    Wrap every function named in SPANNED and COUNTED (fpblab must be
    imported). Returns a function that puts the originals back.
    """
    originals = []
    for module, funcs in SPANNED.items():
        mod = sys.modules[f"fpblab.{module}"]
        for func, extract in funcs.items():
            fn = getattr(mod, func)
            originals += _rebind(fn, tracer.span(_span_name(module, func), fn, extract))
    for module, funcs in COUNTED.items():
        mod = sys.modules[f"fpblab.{module}"]
        for func in funcs:
            fn = getattr(mod, func)
            originals += _rebind(fn, tracer.counter(f"{module}.{func}", fn))

    def restore():
        for mod, attr, fn in originals:
            setattr(mod, attr, fn)

    return restore


def summarize(spans) -> dict[str, dict]:
    """
    Per span name: total self time (duration minus the durations of direct
    children), call count and summed counters. Self times over all names
    add up to the total duration of the root spans.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, dict] = {}
    for (name, start, end, _, counters), inner in zip(spans, child_time):
        agg = out.setdefault(name, {"self_s": 0.0, "calls": 0})
        agg["self_s"] += (end - start) - inner
        agg["calls"] += 1
        for key, value in counters.items():
            agg[key] = max(agg.get(key, value), value) if key in MAX_KEYS else agg.get(key, 0) + value
    return out
