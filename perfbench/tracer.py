"""Span recorder wrapped around the program's public functions.

Nothing inside the package is edited: `install` replaces every public
function and public method of each module, and every name re-bound to one of
them by `from .x import y`, with a wrapper that records a span.  Spans are
folded into per-function totals in memory (calls, duration, self time) and
read out when the run ends.  Self time is a span's duration minus the time
its child spans cover; the program is single-threaded, so one stack
suffices.
"""

from __future__ import annotations

import functools
import importlib
import time

LAYERS = ("hyptrig", "topology", "halfplane", "holonomy", "geometry",
          "lamination", "metric", "asymptotics", "cli")


class Tracer:
    def __init__(self):
        self.stats = {}       # (layer, name) -> [calls, total_s, self_s]
        self.pairs = set()    # distinct (lamination, class) of intersection_number
        self.enabled = False
        self._stack = []
        self._patched = []    # (owner, attribute, original)

    def _wrap(self, layer, name, fn):
        key = (layer, name)
        rec = self.stats.setdefault(key, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter
        count_pairs = key == ("lamination", "intersection_number")
        pairs = self.pairs
        tracer = self

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            if count_pairs:
                pairs.add((args[0], args[1]))
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                child = stack.pop()
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - child
                if stack:
                    stack[-1] += dur

        return span

    def install(self, package="arcmetric"):
        """Wrap the public callables of every layer module of `package`."""
        modules = {layer: importlib.import_module(f"{package}.{layer}")
                   for layer in LAYERS}
        replaced = {}  # id(original) -> wrapper
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, type):
                    for mname, meth in list(vars(obj).items()):
                        if not mname.startswith("_") and callable(meth) \
                                and not isinstance(meth, (type, staticmethod, classmethod)):
                            wrapper = self._wrap(layer, f"{name}.{mname}", meth)
                            self._patch(obj, mname, wrapper)
                elif callable(obj):
                    replaced[id(obj)] = (obj, self._wrap(layer, name, obj))
        # re-bind the wrappers in every module that holds the original
        owners = list(modules.values()) + [importlib.import_module(package)]
        for mod in owners:
            for name, obj in list(vars(mod).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(mod, name, hit[1])

    def _patch(self, owner, attr, wrapper):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def summary(self):
        """Per-layer totals plus the per-function entries the metrics name."""
        layers = {layer: {"calls": 0, "self_s": 0.0} for layer in LAYERS}
        functions = {}
        for (layer, name), (calls, total, self_s) in self.stats.items():
            layers[layer]["calls"] += calls
            layers[layer]["self_s"] += self_s
            if calls:
                functions[f"{layer}.{name}"] = {"calls": calls, "total_s": total,
                                                "self_s": self_s}
        return {"layers": layers, "functions": functions,
                "intersection_pairs": len(self.pairs)}


def parse_importtime(stderr: str) -> dict:
    """Seconds of import self time from `python -X importtime` output."""
    out = {"total_s": 0.0, "numpy_s": 0.0, "scipy_s": 0.0, "arcmetric_self_s": 0.0}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue  # the header row
        self_s = int(fields[0]) * 1e-6
        top = fields[2].strip().split(".")[0]
        out["total_s"] += self_s
        if top == "numpy":
            out["numpy_s"] += self_s
        elif top == "scipy":
            out["scipy_s"] += self_s
        elif top == "arcmetric":
            out["arcmetric_self_s"] += self_s
    return out
