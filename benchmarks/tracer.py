"""Per-layer tracing of symcurves from outside the program.

``install`` wraps the public functions of each layer module where they are
looked up: in the defining module and at every ``from ... import`` site in
the package.  Each call of a wrapped function becomes a span with the item's
id, its parent span and its start and end; a span's self time is its
duration minus the durations of its child spans.  A recursive function is
recorded at its outermost call only.  A few tiny hot methods are counted
without being timed.  Spans stay in memory until ``write_spans``.
"""

from __future__ import annotations

import functools
import json
import sys
import types
from collections import Counter
from time import perf_counter_ns

LAYERS = ("exact", "chebyshev", "dynamics", "elliptic", "quartic",
          "demjanenko", "descent", "localglobal", "cli")

# Private functions and methods timed as spans, besides the public functions.
EXTRA_SPANS = {
    "cli": ("_render",),
    "cli.ScanCache": ("__init__", "get", "put"),
}
# Hot methods that are counted, not timed.
COUNTED = {
    "exact.IntPoly": ("eval_mod", "__call__"),
    "elliptic.EllipticCurve": ("add",),
}

ROOT_SPAN = "item"


class TraceMismatch(Exception):
    """Span times that do not add up to the measured item time."""


def _metric_name(layer: str, qualname: str) -> str:
    # "ScanCache.__init__" -> "ScanCache.init", "IntPoly.__call__" -> "IntPoly.call"
    return f"{layer}.{qualname.replace('__init__', 'init').replace('__call__', 'call')}"


class Tracer:
    def __init__(self):
        self.spans = []              # (item, span, parent, name, start, end)
        self.self_ns = Counter()     # span name -> summed self time
        self.total_ns = Counter()    # span name -> summed duration
        self.calls = Counter()       # span or counted name -> outermost calls
        self.observed = Counter()    # values read off arguments and results
        self._stack = []             # open frames: [span id, name, start, child ns]
        self._next_id = 0
        self.item = -1

    def open(self, name: str):
        self._next_id += 1
        self._stack.append([self._next_id, name, perf_counter_ns(), 0])

    def close(self):
        end = perf_counter_ns()
        span_id, name, start, child = self._stack.pop()
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
        self.self_ns[name] += duration - child
        self.total_ns[name] += duration
        self.calls[name] += 1
        self.spans.append((self.item, span_id, parent[0] if parent else 0,
                           name, start, end))

    def start_item(self, item_id: int):
        self.item = item_id
        self.open(ROOT_SPAN)

    def end_item(self):
        self.close()
        if self._stack:
            raise TraceMismatch(f"{len(self._stack)} spans left open")

    def write_spans(self, path: str):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _span_wrapper(tracer: Tracer, fn, name: str, observe=None):
    active = False

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        nonlocal active
        if active:                      # inner call of a recursive function
            return fn(*args, **kwargs)
        active = True
        tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close()
            active = False
        if observe is not None:
            observe(tracer.observed, args, result)
        return result

    return wrapper


def _count_wrapper(tracer: Tracer, fn, name: str):
    calls = tracer.calls

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)

    return wrapper


def _walk_steps(observed, args, result):
    # The walk visits n*G + T for |n| <= N and every torsion point T.
    inp, n_window = args
    observed["demjanenko.walk_steps"] += len(inp.torsion) * (2 * n_window + 1)


def _preimages(observed, args, result):
    observed["quartic.phi_preimages.points"] += len(result)


def _cache_get(observed, args, result):
    observed["cli.ScanCache.get.hits"] += result is not None


OBSERVERS = {
    "demjanenko.enumerate_and_pull_back": _walk_steps,
    "quartic.phi_preimages": _preimages,
    "cli.ScanCache.get": _cache_get,
}


def install(tracer: Tracer) -> int:
    """Wrap every layer of the imported symcurves package; returns the
    number of lookup sites patched."""
    modules = {layer: sys.modules[f"symcurves.{layer}"] for layer in LAYERS}
    wrapped = {}                        # id(original function) -> wrapper
    for layer, mod in modules.items():
        public = [n for n, obj in vars(mod).items()
                  if isinstance(obj, types.FunctionType)
                  and obj.__module__ == mod.__name__ and not n.startswith("_")]
        for n in public + list(EXTRA_SPANS.get(layer, ())):
            name = _metric_name(layer, n)
            wrapped[id(getattr(mod, n))] = _span_wrapper(
                tracer, getattr(mod, n), name, OBSERVERS.get(name))
    for key in EXTRA_SPANS.keys() | COUNTED.keys():
        if "." not in key:
            continue
        layer, cls_name = key.split(".")
        cls = getattr(modules[layer], cls_name)
        for m in EXTRA_SPANS.get(key, ()):
            name = _metric_name(layer, f"{cls_name}.{m}")
            setattr(cls, m, _span_wrapper(tracer, getattr(cls, m), name,
                                          OBSERVERS.get(name)))
        for m in COUNTED.get(key, ()):
            name = _metric_name(layer, f"{cls_name}.{m}")
            setattr(cls, m, _count_wrapper(tracer, getattr(cls, m), name))
    sites = 0
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "symcurves" or mod_name.startswith("symcurves."):
            for n, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    setattr(mod, n, wrapped[id(obj)])
                    sites += 1
    return sites


def raw(tracer: Tracer) -> dict:
    """The tracer's totals, as plain data for the parent process."""
    return {"self_ns": dict(tracer.self_ns), "total_ns": dict(tracer.total_ns),
            "calls": dict(tracer.calls), "observed": dict(tracer.observed)}


SELF_FRAC = ("exact.factorize", "exact.int_poly_disc", "exact.sqrt_mod_pk",
             "chebyshev.cheb_eval", "dynamics.conjecture_scan",
             "dynamics.chebyshev_curve_points", "elliptic.torsion_subgroup",
             "elliptic.canonical_height", "elliptic.height_gap_bounds",
             "quartic.phi_preimages", "demjanenko.build_input",
             "demjanenko.enumerate_and_pull_back", "demjanenko.equal_index_points",
             "descent.selmer_rank_bound", "descent.homspace_locally_solvable",
             "descent.root_number", "localglobal.everywhere_locally_solvable",
             "cli.ScanCache.init", "cli.envelope", "cli._render",
             "cli.ScanCache.put")
CALLS = ("exact.factorize", "exact.IntPoly.eval_mod", "exact.IntPoly.call",
         "exact.rational_sqrt", "chebyshev.cheb_eval", "elliptic.EllipticCurve.add",
         "elliptic.count_points_mod_p", "quartic.companion_curve",
         "quartic.phi_preimages", "descent.homspace_locally_solvable",
         "localglobal.count_smooth_points_quartic_Fq", "cli.ScanCache.get",
         "cli.ScanCache.put")


UNITS = {"dynamics.cheb_evals_per_item": "calls/item",
         "quartic.preimage_yield": "points/call", "demjanenko.walk_steps": "count",
         "cli.cache_hit_ratio": "ratio", "cli.cache_bytes": "bytes/item",
         "trace.item_s": "s"}


def unit(metric: str) -> str:
    if metric in UNITS:
        return UNITS[metric]
    return "count" if metric.endswith(".calls") else "frac"


def summarize(data: dict, items: int) -> dict:
    """Per-layer metrics of a traced run.  Self times are given as shares of
    the traced item time; the layer shares and ``other`` (item time outside
    every layer span) add up to one, which is checked here."""
    self_ns, total_ns = data["self_ns"], data["total_ns"]
    calls, obs = data["calls"], data["observed"]
    item_ns = total_ns[ROOT_SPAN]
    layer_ns = dict.fromkeys(LAYERS, 0)
    for name, ns in self_ns.items():
        if name != ROOT_SPAN:
            layer_ns[name.split(".", 1)[0]] += ns
    other_ns = self_ns[ROOT_SPAN]
    if sum(layer_ns.values()) + other_ns != item_ns:
        raise TraceMismatch(f"layer self times and other sum to "
                           f"{sum(layer_ns.values()) + other_ns} ns, "
                           f"but the traced item time is {item_ns} ns")

    def count(name):
        return calls.get(name, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    m = {f"{layer}.self_frac": layer_ns[layer] / item_ns for layer in LAYERS}
    m.update({f"{n}.self_frac": self_ns.get(n, 0) / item_ns for n in SELF_FRAC})
    m.update({f"{n}.calls": count(n) for n in CALLS})
    m["dynamics.cheb_evals_per_item"] = count("chebyshev.cheb_eval") / items
    m["quartic.preimage_yield"] = ratio(obs.get("quartic.phi_preimages.points", 0),
                                        count("quartic.phi_preimages"))
    m["demjanenko.walk_steps"] = obs.get("demjanenko.walk_steps", 0)
    m["cli.cache_hit_ratio"] = ratio(obs.get("cli.ScanCache.get.hits", 0),
                                     count("cli.ScanCache.get"))
    m["other.self_frac"] = other_ns / item_ns
    m["trace.item_s"] = item_ns / 1e9
    seconds = {f"{n}.self_s": ns / 1e9 for n, ns in sorted(self_ns.items())
               if n != ROOT_SPAN}
    seconds.update({f"{layer}.self_s": ns / 1e9 for layer, ns in layer_ns.items()})
    seconds["other.self_s"] = other_ns / 1e9
    seconds["chebyshev.cheb_eval.mean_us"] = ratio(
        total_ns.get("chebyshev.cheb_eval", 0) / 1e3, count("chebyshev.cheb_eval"))
    return {"metrics": m, "seconds": seconds}
