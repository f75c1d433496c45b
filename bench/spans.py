"""Span tracing for the traced benchmark run, and the per-layer metrics
computed from the spans.

``install`` wraps every public function of each pairrank layer module (and
``__post_init__`` plus the public methods of its public classes) and binds
the wrapper at every pairrank module that imported the function by name,
so ``from .linalg import leading_eigenvector`` in rankings, quasisym and
asymptotics all reach the same wrapper. No program file changes.

A span is ``[name, start, end, parent, call, info]``: ``parent`` is the
index of the enclosing span (-1 for a root), ``call`` the index of the CLI
call it belongs to, and ``info`` the counts read from the function's return
value or raised error. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import os
import sys
import time

LAYERS = ("cli", "io", "counts", "linalg", "rankings", "bradley_terry",
          "quasisym", "asymptotics", "generators", "report")


def _iterations(args, result, exc):
    source = result if exc is None else exc
    return {"iters": getattr(source, "iterations", None) or 0,
            "failed": int(exc is not None)}


def _triplets(args, result, exc):
    counts = getattr(args[0], "counts", args[0])
    tested = math.comb(len(counts), 3)
    return {"tested": tested,
            "violations": 0 if exc else len(result.violations)}


def _monte_carlo(args, result, exc):
    if exc is not None:
        return None
    return {"draws": result.replications + result.rejections,
            "rejections": result.rejections}


# Counts read at the span boundary, by span name.
INFO = {
    "linalg.leading_eigenvector": _iterations,
    "bradley_terry.fit_bt": _iterations,
    "quasisym.check_triplets": _triplets,
    "generators.monte_carlo_covariance": _monte_carlo,
    "io.parse_input": lambda a, r, e: {"bytes": os.path.getsize(a[0])},
    "report.RunReport.render":
        lambda a, r, e: None if e else {"bytes": len(r.encode("utf-8"))},
    "asymptotics.log_iw_jacobian":
        lambda a, r, e: None if e else {"pairs": r.shape[1]},
}


class Tracer:
    """Collects spans from the wrappers it makes."""

    def __init__(self):
        self.spans: list[list] = []
        self.call = -1
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        info = INFO.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, time.perf_counter(), 0.0,
                    stack[-1] if stack else -1, self.call, None]
            spans.append(span)
            stack.append(index)
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as error:
                exc = error
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()
                if info is not None:
                    span[5] = info(args, result, exc)

        return traced


def install(tracer: Tracer, package: str = "pairrank") -> list[tuple]:
    """Wrap every public function and method of the layer modules and bind
    each wrapper wherever the original is bound. Returns the replaced
    bindings as (owner, attribute, original) for ``uninstall``."""
    modules = [importlib.import_module(f"{package}.{layer}")
               for layer in LAYERS]
    importers = [m for name, m in sys.modules.items()
                 if m is not None and (name == package or
                                       name.startswith(package + "."))]
    patches = []
    for layer, module in zip(LAYERS, modules):
        for name, obj in list(vars(module).items()):
            if name.startswith("_") or getattr(obj, "__module__", None) != \
                    module.__name__:
                continue
            if inspect.isfunction(obj):
                wrapper = tracer.wrap(f"{layer}.{name}", obj)
                for importer in importers:
                    for attr, value in list(vars(importer).items()):
                        if value is obj:
                            patches.append((importer, attr, obj))
                            setattr(importer, attr, wrapper)
            elif inspect.isclass(obj):
                for attr, fn in list(vars(obj).items()):
                    if inspect.isfunction(fn) and (
                            attr == "__post_init__" or
                            not attr.startswith("_")):
                        patches.append((obj, attr, fn))
                        setattr(obj, attr,
                                tracer.wrap(f"{layer}.{name}.{attr}", fn))
    return patches


def uninstall(patches: list[tuple]) -> None:
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of its interval that its child
    spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent, call, info in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for index, (name, start, end, *_rest) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(index, ())):
            lo, hi = max(c_start, reach), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


# Per-layer metrics ------------------------------------------------------
#
# Every *_s metric below is self time, so the layer times of a call add up
# to its traced wall time. Counts come from the span info or the number of
# spans. Names and units must match the per_layer list of BENCHMARK.json.

_SELF = {
    "io.parse_s": ("io.parse_input",),
    "counts.validate_s": ("counts.",),
    "linalg.eigen_s": ("linalg.leading_eigenvector",),
    "linalg.irreducible_s": ("linalg.is_irreducible",),
    "linalg.pinv_s": ("linalg.pseudoinverse",),
    "rankings.rank_self_s": ("rankings.",),
    "bradley_terry.fit_self_s": ("bradley_terry.fit_bt",),
    "bradley_terry.cov_s": ("bradley_terry.bt_covariance",),
    "quasisym.triplets_s": ("quasisym.check_triplets",),
    "quasisym.decompose_s": ("quasisym.decompose_qs",),
    "quasisym.equivalence_self_s": ("quasisym.verify_equivalence",),
    "quasisym.reversible_self_s": ("quasisym.is_reversible",),
    "asymptotics.jacobian_self_s": ("asymptotics.log_iw_jacobian",),
    "asymptotics.delta_cov_self_s": ("asymptotics.delta_method_covariance",
                                     "asymptotics.delta_covariance"),
    "asymptotics.closed_form_s": ("asymptotics.round_robin_covariance",
                                  "asymptotics.circular_covariance"),
    "generators.mc_self_s": ("generators.monte_carlo_covariance",),
    "report.render_s": ("report.",),
    "cli.self_s": ("cli.",),
}

_CALLS = {
    "counts.validate_calls": ("counts.CountMatrix.__post_init__",),
    "linalg.eigen_calls": ("linalg.leading_eigenvector",),
    "linalg.irreducible_calls": ("linalg.is_irreducible",),
    "linalg.pinv_calls": ("linalg.pseudoinverse",),
    "rankings.rank_calls": ("rankings.pagerank", "rankings.influence_weight",
                            "rankings.total_influence",
                            "rankings.influence_per_publication"),
    "quasisym.decompose_calls": ("quasisym.decompose_qs",),
}

_INFO_SUMS = {
    "io.parse_bytes": ("io.parse_input", "bytes"),
    "linalg.eigen_iters": ("linalg.leading_eigenvector", "iters"),
    "linalg.eigen_failed": ("linalg.leading_eigenvector", "failed"),
    "bradley_terry.fit_sweeps": ("bradley_terry.fit_bt", "iters"),
    "bradley_terry.fit_failed": ("bradley_terry.fit_bt", "failed"),
    "quasisym.triplets_tested": ("quasisym.check_triplets", "tested"),
    "quasisym.violations": ("quasisym.check_triplets", "violations"),
    "asymptotics.jacobian_pairs": ("asymptotics.log_iw_jacobian", "pairs"),
    "generators.draws": ("generators.monte_carlo_covariance", "draws"),
    "generators.rejections": ("generators.monte_carlo_covariance",
                              "rejections"),
    "report.bytes": ("report.RunReport.render", "bytes"),
}


def _matches(name: str, keys: tuple[str, ...]) -> bool:
    return any(name == key or (key.endswith(".") and name.startswith(key))
               for key in keys)


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer totals over every span of the traced run."""
    own = self_times(spans)
    out: dict[str, float] = {}
    for metric, keys in _SELF.items():
        out[metric] = sum(t for span, t in zip(spans, own)
                          if _matches(span[0], keys))
    for metric, keys in _CALLS.items():
        out[metric] = sum(1 for span in spans if _matches(span[0], keys))
    for metric, (key, field) in _INFO_SUMS.items():
        out[metric] = sum(span[5][field] for span in spans
                          if span[0] == key and span[5])
    out["io.parse_mb_per_s"] = (out["io.parse_bytes"] / 1e6 / out["io.parse_s"]
                                if out["io.parse_s"] > 0 else 0.0)
    # one solve per accepted Monte Carlo draw, read off the span tree
    out["generators.solves"] = sum(
        1 for span in spans if span[0] == "rankings.influence_weight"
        and span[3] >= 0
        and spans[span[3]][0] == "generators.monte_carlo_covariance")
    return out
