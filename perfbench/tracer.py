"""Per-layer attribution by wrapping klpoly's public names from outside.

Every public function of each layer module, every public method of the
classes those modules define, and the arithmetic methods of
``IntPolynomial`` are replaced by a wrapper.  The wrapper is installed in
every ``klpoly`` namespace that holds the original object, because
modules import each other's functions by name.  The program's own files
are not edited.

Every call through a wrapper is counted.  A span is opened only where a
call crosses from one layer into another (the benchmark's own code is
the outermost layer): ``down_set``'s calls to ``covers_down`` are
counted, but their time stays in the ``down_set`` span.  A span's self
time is its duration minus the spans it opened.  The wrappers'
bookkeeping at span boundaries is timed separately and kept out of every
layer, so that

    sum of layer self times + bench self time + tracer time = traced wall

The few instructions around each span boundary that no clock can see,
and the fraction of a microsecond it takes to count a call inside a
layer, are charged to the calling span's self time.

A name the tracer expects but cannot find (a refactor removed or
renamed it) is skipped and listed in ``missing``; its counters read 0.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("perm", "bruhat", "kl", "polynomial", "families", "verify")

# Per-function metrics, keyed by metric prefix: (layer, attribute).
NAMED = {
    "perm.length": ("perm", "length"),
    "bruhat.leq": ("bruhat", "bruhat_leq"),
    "bruhat.rank_table": ("bruhat", "rank_table"),
    "bruhat.covers_down": ("bruhat", "covers_down"),
    "bruhat.down_set": ("bruhat", "down_set"),
    "bruhat.interval": ("bruhat", "interval"),
}

# Reset hooks the benchmark calls between cases; their cost is not
# workload cost, so they stay unwrapped.
RESET_HOOKS = frozenset({"clear_caches", "clear_length_cache"})

# IntPolynomial arithmetic counted as polynomial.ops.
ARITHMETIC = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
              "__rmul__", "shift")


class Tracer:
    """Call counts for every wrapped name and self times for the spans
    opened at layer boundaries, keyed by ``<layer>.<qualified name>``."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.layer_of: dict[str, str] = {}
        self.leq_true = 0
        self.down_set_elems = 0
        self.interval_elems = 0
        self.tracer_s = 0.0
        self.bench_s = 0.0
        self.wall_s = 0.0
        self.missing: list[str] = []
        # One entry per open span: its layer, and the wrapper-inclusive
        # time of the spans it opened.  The bottom entry is the
        # benchmark's own code.
        self._layers = ["bench"]
        self._child_s = [0.0]

    def _wrap(self, key: str, layer: str, fn, post=None):
        self.layer_of[key] = layer
        layers = self._layers
        child_s = self._child_s
        calls = self.calls
        self_s = self.self_s
        perf = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            calls[key] += 1
            if layers[-1] == layer:
                result = fn(*args, **kwargs)
                if post is not None:
                    post(result)
                return result
            t_in = perf()
            layers.append(layer)
            child_s.append(0.0)
            returned = False
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
                returned = True
            finally:
                t1 = perf()
                layers.pop()
                self_s[key] += (t1 - t0) - child_s.pop()
                if returned and post is not None:
                    post(result)
                t_out = perf()
                tracer.tracer_s += (t_out - t_in) - (t1 - t0)
                child_s[-1] += t_out - t_in
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", key)
        return wrapper

    def _count_leq(self, result) -> None:
        if result:
            self.leq_true += 1

    def _count_down_set(self, result) -> None:
        self.down_set_elems += len(result)

    def _count_interval(self, result) -> None:
        self.interval_elems += len(result)

    def install(self) -> None:
        """Wrap every public name of every layer module that exists."""
        posts = {
            ("bruhat", "bruhat_leq"): self._count_leq,
            ("bruhat", "down_set"): self._count_down_set,
            ("bruhat", "interval"): self._count_interval,
        }
        replaced: dict[int, object] = {}
        for layer in LAYERS:
            try:
                mod = importlib.import_module(f"klpoly.{layer}")
            except ImportError:
                self.missing.append(f"module klpoly.{layer}")
                continue
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or name in RESET_HOOKS:
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    replaced[id(obj)] = self._wrap(
                        f"{layer}.{name}", layer, obj, posts.get((layer, name)))
                elif inspect.isclass(obj):
                    self._wrap_methods(layer, obj)
        for prefix, (layer, name) in NAMED.items():
            if f"{layer}.{name}" not in self.layer_of:
                self.missing.append(prefix)
        for modname, mod in list(sys.modules.items()):
            if modname != "klpoly" and not modname.startswith("klpoly."):
                continue
            for name, obj in list(vars(mod).items()):
                wrapper = replaced.get(id(obj))
                if wrapper is not None:
                    setattr(mod, name, wrapper)

    def _wrap_methods(self, layer: str, cls) -> None:
        for name, obj in list(vars(cls).items()):
            if not inspect.isfunction(obj):
                continue
            if name.startswith("_") and name not in ARITHMETIC:
                continue
            setattr(cls, name,
                    self._wrap(f"{layer}.{cls.__name__}.{name}", layer, obj))

    def run_case(self, fn, *args):
        """Call ``fn(*args)`` as one timed case; time outside every span
        goes to the benchmark's own bucket."""
        self._child_s[0] = 0.0
        t0 = time.perf_counter()
        result = fn(*args)
        wall = time.perf_counter() - t0
        self.wall_s += wall
        self.bench_s += wall - self._child_s[0]
        return result

    def metrics(self) -> dict[str, float]:
        """Per-layer counters and self times, by metric name."""
        out: dict[str, float] = {}
        layer_self: dict[str, float] = defaultdict(float)
        for key, seconds in self.self_s.items():
            layer_self[self.layer_of[key]] += seconds
        for layer in LAYERS:
            out[f"{layer}.self_s"] = layer_self.get(layer, 0.0)
        for prefix, (layer, name) in NAMED.items():
            key = f"{layer}.{name}"
            out[f"{prefix}.calls"] = self.calls.get(key, 0)
            out[f"{prefix}.self_s"] = self.self_s.get(key, 0.0)
        leq_calls = out["bruhat.leq.calls"]
        out["bruhat.leq.true_ratio"] = (
            self.leq_true / leq_calls if leq_calls else 0.0)
        out["bruhat.down_set.elems"] = self.down_set_elems
        out["bruhat.interval.elems"] = self.interval_elems
        out["polynomial.ops"] = sum(
            self.calls.get(f"polynomial.IntPolynomial.{m}", 0)
            for m in ARITHMETIC)
        out["bench.self_s"] = self.bench_s
        out["trace.tracer_s"] = self.tracer_s
        out["trace.wall_s"] = self.wall_s
        return out

    def store_count(self) -> int:
        """Calls to KLCache.store: memo writes, evicting or not."""
        return self.calls.get("kl.KLCache.store", 0)
