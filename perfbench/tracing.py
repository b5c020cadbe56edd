"""Layer tracing from outside mvtrop.

``Tracer`` wraps every public function of the 11 layer modules (plus the CLI
verb handlers) and patches the wrapper in wherever the original is bound: in
the defining module, in every mvtrop module that imported the name, and in
the CLI's handler table.  Leaving the ``with`` block restores the originals.

Coarse boundaries (``cli.main`` → verb handler → ``logic`` checks, ``export``,
``qpoints`` entry points) are recorded as spans with name, parent, start, end
and the report's ``checked`` count.  Every other wrapped function, hot leaves
such as ``mv_oplus``, ``mv_neg``, ``group_add``, ``contains_rational`` and the
recursive ``evaluate`` included, only adds to its call count and time, which
keeps memory flat.  A layer's self time is the time inside its wrapped
functions minus the time inside wrapped functions they call.
"""

from __future__ import annotations

import inspect
import json
import statistics
import sys
import time

LAYERS = ("algebra", "groups", "characteristics", "terms", "logic", "functors",
          "bisemirings", "qpoints", "jsonio", "export", "cli")

_LOGIC_CHECKS = ("tautology_check", "axiom_suite", "vc_membership")
_QPOINTS_LEAVES = ("contains", "rational_gcd", "common_measure")


def is_span(layer: str, name: str) -> bool:
    if layer == "cli":
        return name == "main" or name.startswith("_cmd_")
    if layer == "logic":
        return name.startswith("check_equation") or name in _LOGIC_CHECKS
    if layer == "algebra":
        return name == "check_mv_axioms"
    if layer == "qpoints":
        return name not in _QPOINTS_LEAVES
    return layer == "export"


def _traceable(module, name, obj) -> bool:
    if getattr(obj, "__module__", None) != module.__name__:
        return False
    if not (inspect.isfunction(obj) or hasattr(obj, "cache_info")):
        return False
    return not name.startswith("_") or name.startswith("_cmd_")


class Tracer:
    def __init__(self, mvtrop):
        self.mvtrop = mvtrop
        self.layer = {name: [0.0, 0] for name in LAYERS}   # self seconds, calls
        self.funcs = {}                                     # qualname -> [calls, seconds]
        self.spans = []                                     # [name, parent, start, end, checked]
        self._stack = [0.0]        # time spent in wrapped children, per active frame
        self._span_stack = [-1]
        self._patches = []

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, fn, layer, name):
        qual = f"{layer}.{name}"
        acc, fstat = self.layer[layer], self.funcs.setdefault(qual, [0, 0.0])
        stack, clock = self._stack, time.perf_counter
        if not is_span(layer, name):
            def wrapper(*args, **kwargs):
                stack.append(0.0)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    elapsed = clock() - t0
                    acc[0] += elapsed - stack.pop()
                    acc[1] += 1
                    stack[-1] += elapsed
                    fstat[0] += 1
                    fstat[1] += elapsed
        else:
            spans, span_stack = self.spans, self._span_stack

            def wrapper(*args, **kwargs):
                record = [qual, span_stack[-1], 0.0, 0.0, None]
                span_stack.append(len(spans))
                spans.append(record)
                stack.append(0.0)
                result = None
                t0 = clock()
                try:
                    result = fn(*args, **kwargs)
                    return result
                finally:
                    t1 = clock()
                    elapsed = t1 - t0
                    acc[0] += elapsed - stack.pop()
                    acc[1] += 1
                    stack[-1] += elapsed
                    fstat[0] += 1
                    fstat[1] += elapsed
                    span_stack.pop()
                    record[2], record[3] = t0, t1
                    record[4] = getattr(result, "checked", None)
        wrapper.__wrapped__ = fn
        return wrapper

    def __enter__(self):
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "mvtrop" or n.startswith("mvtrop."))]
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"mvtrop.{layer}"]
            for name, obj in list(vars(module).items()):
                if _traceable(module, name, obj):
                    wrappers[id(obj)] = self._wrap(obj, layer, name)
        for module in modules:
            for name, obj in list(vars(module).items()):
                if id(obj) in wrappers:
                    self._patches.append((module, name, obj))
                    setattr(module, name, wrappers[id(obj)])
        handlers = self.mvtrop.cli._HANDLERS
        for verb, fn in list(handlers.items()):
            if id(fn) in wrappers:
                self._patches.append((handlers, verb, fn))
                handlers[verb] = wrappers[id(fn)]
        return self

    def __exit__(self, *exc):
        for target, name, original in reversed(self._patches):
            if isinstance(target, dict):
                target[name] = original
            else:
                setattr(target, name, original)
        self._patches.clear()
        return False

    # -- results -------------------------------------------------------------

    def summary(self, jobs: int, untraced_s: float, traced_s: float) -> dict:
        spans = self.spans
        logic_top = [s for s in spans if s[0].startswith("logic.")
                     and (s[1] < 0 or not spans[s[1]][0].startswith("logic."))]
        logic_time = sum(s[3] - s[2] for s in logic_top)
        checked = sum(s[4] or 0 for s in logic_top)
        child_time = {}
        for s in spans:
            if s[1] >= 0:
                child_time[s[1]] = child_time.get(s[1], 0.0) + s[3] - s[2]
        dispatch = [(s[3] - s[2] - child_time.get(i, 0.0)) * 1000
                    for i, s in enumerate(spans) if s[0] == "cli.main"]
        metrics = {
            "logic.checked_per_s": (checked / logic_time if logic_time else 0.0, "1/s"),
            "cli.dispatch_overhead_ms": (statistics.median(dispatch) if dispatch else 0.0, "ms"),
            "trace.overhead_s": (traced_s - untraced_s, "s"),
        }
        for layer, (self_s, n) in self.layer.items():
            metrics[f"{layer}.self_s"] = (self_s, "s")
            metrics[f"{layer}.calls"] = (n, "count")
        return {
            "jobs": jobs,
            "untraced_s": untraced_s, "traced_s": traced_s,
            "layers": {k: {"self_s": v[0], "calls": v[1]} for k, v in self.layer.items()},
            "metrics": metrics,
        }

    def write(self, path) -> None:
        names = ("name", "parent", "start", "end", "checked")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"layers": self.layer, "functions": self.funcs,
                       "spans": [dict(zip(names, s)) for s in self.spans]}, fh)
