"""Per-layer tracing from outside the program.

`Tracer.install()` wraps the public functions of every chaingeom layer
module and rebinds each module attribute that still holds the original
function object, so that names imported with `from chaingeom.x import f`
are traced too.  It also patches the hot ring methods on the `Ring`,
`Matrix2Ring` and `OppositeRing` classes.

Every wrapped call has a frame on one stack, so a call's self time is its
duration minus the time of the wrapped calls it made.  Calls to layer
functions are also recorded as full spans (name, parent span, start, end)
in compact arrays.  The ring methods run about two million times on
matrix2(3), so they keep only a call count and a self time per name.
`write()` saves the aggregates and the spans when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array

LAYERS = ("rings", "projline", "chains", "duality", "compat", "isomorph",
          "suites", "cli")

# Ring methods traced as counts and time only, grouped under one name each.
RING_METHODS = {
    "mul": "rings.mul",
    "add": "rings.add",
    "neg": "rings.neg",
    "sub": "rings.sub",
    "left_products": "rings.products",
    "right_products": "rings.products",
    "canonical_pair_left": "rings.canonical_pair",
    "canonical_pair_right": "rings.canonical_pair",
}
RING_CLASSES = ("Ring", "Matrix2Ring", "OppositeRing")

# Functions whose distinct argument tuples are counted (the useful-work ratio).
DISTINCT = frozenset({"projline.is_admissible", "duality.perp_point"})


def _is_layer_function(obj, module_name: str) -> bool:
    """A plain function, or a functools.cache wrapper of one, defined in
    module_name."""
    target = getattr(obj, "__wrapped__", obj)
    return hasattr(target, "__code__") and target.__module__ == module_name


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.distinct: dict[int, set] = {}
        # spans, one entry per call of a layer function
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        # one frame per active wrapped call: [child time, own span index]
        self._stack: list[list] = [[0.0, -1]]
        self._restore: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
        return self._ids[name]

    def wrap_counted(self, fn, name: str):
        """Wrapper keeping a call count and self time only."""
        nid = self._name_id(name)
        stack, calls, self_s, clock = self._stack, self.calls, self.self_s, time.perf_counter

        @functools.wraps(fn)
        def counted(*args):
            frame = [0.0, stack[-1][1]]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args)
            finally:
                dt = clock() - t0
                stack.pop()
                stack[-1][0] += dt
                calls[nid] += 1
                self_s[nid] += dt - frame[0]

        return counted

    def wrap_spanned(self, fn, name: str):
        """Wrapper recording a full span per call, plus count and self time."""
        nid = self._name_id(name)
        stack, calls, self_s, clock = self._stack, self.calls, self.self_s, time.perf_counter
        s_name, s_parent = self.span_name, self.span_parent
        s_start, s_end = self.span_start, self.span_end
        seen = self.distinct.setdefault(nid, set()) if name in DISTINCT else None

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            if seen is not None:
                seen.add((args, tuple(sorted(kwargs.items()))))
            idx = len(s_name)
            s_name.append(nid)
            s_parent.append(stack[-1][1])
            s_start.append(0.0)
            s_end.append(0.0)
            frame = [0.0, idx]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                dt = t1 - t0
                stack.pop()
                stack[-1][0] += dt
                s_start[idx] = t0
                s_end[idx] = t1
                calls[nid] += 1
                self_s[nid] += dt - frame[0]

        return spanned

    def install(self) -> None:
        """Wrap every layer's public functions and the hot ring methods."""
        modules = [importlib.import_module(f"chaingeom.{m}") for m in LAYERS]
        wrapped: dict[int, object] = {}  # id of the original -> its wrapper
        for mod, layer in zip(modules, LAYERS):
            for attr, obj in list(vars(mod).items()):
                if (not attr.startswith("_") and id(obj) not in wrapped
                        and _is_layer_function(obj, mod.__name__)):
                    wrapped[id(obj)] = self.wrap_spanned(obj, f"{layer}.{attr}")
        for mod_name, mod in list(sys.modules.items()):
            if mod is not None and (mod_name == "chaingeom" or mod_name.startswith("chaingeom.")):
                for attr, obj in list(vars(mod).items()):
                    if id(obj) in wrapped:
                        self._rebind(mod, attr, wrapped[id(obj)])
        rings = modules[0]
        for cls_name in RING_CLASSES:
            cls = getattr(rings, cls_name)
            for meth, name in RING_METHODS.items():
                if meth in vars(cls):
                    self._rebind(cls, meth, self.wrap_counted(vars(cls)[meth], name))

    def _rebind(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        """Put every original function and method back."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def summary(self) -> dict:
        """Per name: calls, self time and, where tracked, distinct arguments."""
        out = {}
        for nid, name in enumerate(self.names):
            if not self.calls[nid]:
                continue
            entry = {"calls": self.calls[nid], "self_s": self.self_s[nid]}
            if nid in self.distinct:
                entry["distinct"] = len(self.distinct[nid])
            out[name] = entry
        return out

    def write(self, path: str) -> None:
        """Save the summary as JSON at path and the spans at path + '.spans'
        (four native arrays back to back: name id, parent index, start, end)."""
        with open(path, "w") as fh:
            json.dump({"names": self.names, "spans": len(self.span_name),
                       "summary": self.summary()}, fh, indent=1, sort_keys=True)
        with open(path + ".spans", "wb") as fh:
            for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
                arr.tofile(fh)
