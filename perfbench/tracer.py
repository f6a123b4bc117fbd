"""Span tracer for the benchmark's traced runs.

It wraps, from outside the program, the public functions and public methods
of the gradsel layers named in TRACED_MODULES, at every place a module binds
them: `from .model import forward` leaves copies of `forward` in
`tinylm.training`, `evalmetrics` and `baselines`, and each copy is replaced.
A span is one call: its run id, its id, its parent span, its name, its start
and end in nanoseconds, and the work counts listed in COUNTERS. Spans stay
in memory until `dump` writes them; `summarize` turns a span file into
per-function calls, self time, inclusive time, percentiles and counts.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import pkgutil
import sys
import time
from collections import defaultdict

PACKAGE = "gradsel"
TRACED_MODULES = (
    "pipeline", "corpus", "tinylm", "gradstats", "selector", "baselines", "evalmetrics",
)

# Work counts recorded per call: name -> f(args, kwargs, result) -> {stat: n}.
COUNTERS = {
    "pipeline.sha256_file": lambda a, k, r: {"bytes": os.path.getsize(a[0])},
    "tinylm.forward": lambda a, k, r: {"tokens": len(a[1].tokens)},
    "tinylm.save_checkpoint": lambda a, k, r: {"bytes": os.path.getsize(a[1])},
    "tinylm.load_checkpoint": lambda a, k, r: {"bytes": os.path.getsize(a[0])},
    "selector.kde_density": lambda a, k, r: {"cells": len(a[0]) * len(a[2])},
    "gradstats.read_records": lambda a, k, r: {"records": len(r)},
    "evalmetrics.greedy_decode": lambda a, k, r: {"new_tokens": len(r)},
}


def _loss_and_grads_variant(args, kwargs) -> str:
    wants = kwargs.get("want_param_grads", args[3] if len(args) > 3 else True)
    return "param" if wants else "frozen"


# Calls split into sub-spans by an argument: name -> f(args, kwargs) -> suffix.
VARIANTS = {"tinylm.loss_and_grads": _loss_and_grads_variant}

# The parent span whose calls to `tinylm.forward` count the decode work:
# positions_forwarded is the sum of their tokens, useful_ratio is new tokens
# over those positions.
DECODE = "evalmetrics.greedy_decode"


class UnwrappedBinding(RuntimeError):
    """A gradsel module or class still holds an original of a traced function."""


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple] = []
        self._stack = [0]
        self._next_id = 1
        self._wrappers: dict[int, object] = {}   # id(original) -> wrapper
        self._originals: dict[int, object] = {}  # id(original) -> original

    def _wrap(self, fn, name: str):
        counter = COUNTERS.get(name)
        variant = VARIANTS.get(name)
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = name if variant is None else f"{name}.{variant(args, kwargs)}"
            span_id = self._next_id
            self._next_id = span_id + 1
            parent = stack[-1]
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stack.pop()
                spans.append((span_id, parent, span_name, start, clock(), None))
                raise
            end = clock()
            stack.pop()
            counts = None if counter is None else counter(args, kwargs, result)
            spans.append((span_id, parent, span_name, start, end, counts))
            return result

        traced.__traced_original__ = fn
        return traced

    def install(self) -> list[str]:
        """Wrap every traced function at every binding site; returns the names."""
        modules = _gradsel_modules()
        names = []
        for mod in modules:
            layer = _layer_of(mod.__name__)
            if layer is None:
                continue
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    names.append(self._register(obj, f"{layer}.{obj.__name__}"))
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for meth_name, meth in list(vars(obj).items()):
                        if not meth_name.startswith("_") and inspect.isfunction(meth):
                            names.append(self._register(
                                meth, f"{layer}.{obj.__name__}.{meth_name}"))
                            setattr(obj, meth_name, self._wrappers[id(meth)])
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if self._is_original(obj):
                    setattr(mod, attr, self._wrappers[id(obj)])
        self.check()
        return sorted(set(names))

    def _register(self, fn, name: str) -> str:
        if id(fn) not in self._wrappers:
            self._wrappers[id(fn)] = self._wrap(fn, name)
            self._originals[id(fn)] = fn
        return name

    def _is_original(self, obj) -> bool:
        return self._originals.get(id(obj), self) is obj

    def check(self) -> None:
        """Raise if any gradsel module or class attribute is still an original."""
        leaks = []
        for mod in _gradsel_modules():
            for attr, obj in vars(mod).items():
                if self._is_original(obj):
                    leaks.append(f"{mod.__name__}.{attr}")
                if inspect.isclass(obj):
                    for meth_name, meth in vars(obj).items():
                        if self._is_original(meth):
                            leaks.append(f"{mod.__name__}.{attr}.{meth_name}")
        if leaks:
            raise UnwrappedBinding("unwrapped traced functions: " + ", ".join(sorted(leaks)))

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps([self.run_id, *span], separators=(",", ":")) + "\n")


def _gradsel_modules() -> list:
    pkg = importlib.import_module(PACKAGE)
    for info in pkgutil.walk_packages(pkg.__path__, PACKAGE + "."):
        importlib.import_module(info.name)
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]


def _layer_of(module_name: str) -> str | None:
    parts = module_name.split(".")
    if len(parts) >= 2 and parts[1] in TRACED_MODULES:
        return parts[1]
    return None


def _percentile(sorted_values: list[int], q: float) -> float:
    """Type-7 (linear) percentile of an ascending list."""
    pos = (len(sorted_values) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def summarize(path: str) -> dict[str, float]:
    """Per-function stats of one span file, keyed `<name>.<stat>`.

    calls, self_s (duration minus the time its child spans cover), total_s,
    the counters' sums, and p50_ms / p99_ms of the per-call duration where at
    least 20 / 1000 calls leave ten samples above the percentile.
    """
    spans = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            _run, span_id, parent, name, start, end, counts = json.loads(line)
            spans.append((span_id, parent, name, end - start, counts))
    child_ns: dict[int, int] = defaultdict(int)
    name_of = {}
    for span_id, parent, name, dur, _counts in spans:
        child_ns[parent] += dur
        name_of[span_id] = name
    durations: dict[str, list[int]] = defaultdict(list)
    self_ns: dict[str, int] = defaultdict(int)
    counters: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
    for span_id, parent, name, dur, counts in spans:
        durations[name].append(dur)
        self_ns[name] += dur - child_ns.get(span_id, 0)
        for stat, n in (counts or {}).items():
            counters[name][stat] += n
        if name == "tinylm.forward" and name_of.get(parent) == DECODE:
            counters[DECODE]["positions_forwarded"] += counts["tokens"]
    out: dict[str, float] = {}
    for name, durs in durations.items():
        out[f"{name}.calls"] = len(durs)
        out[f"{name}.self_s"] = self_ns[name] / 1e9
        out[f"{name}.total_s"] = sum(durs) / 1e9
        durs.sort()
        if len(durs) >= 20:
            out[f"{name}.p50_ms"] = _percentile(durs, 0.50) / 1e6
        if len(durs) >= 1000:
            out[f"{name}.p99_ms"] = _percentile(durs, 0.99) / 1e6
        for stat, n in counters[name].items():
            out[f"{name}.{stat}"] = n
    decode = counters.get(DECODE)
    if decode and decode["positions_forwarded"]:
        out[f"{DECODE}.useful_ratio"] = decode["new_tokens"] / decode["positions_forwarded"]
    out["trace.spans"] = len(spans)
    return out
