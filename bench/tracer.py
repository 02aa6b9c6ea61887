"""Layer tracing installed from outside the package.

The layers are smmskit's modules.  ``Tracer.install`` wraps every public
function of each module and every public method of the classes the module
defines, and rebinds each name other modules imported with ``from ... import``,
so every call into a layer passes through a wrapper.  A wrapper times the call,
counts it, and keeps self time as the call's duration minus the durations of
the wrapped calls it made.  Nothing under ``src/`` changes.

Three kinds of call are left unwrapped on purpose: the expression-node
``eval`` methods of ``profiles`` (they are the tree walk itself, counted once
per walk through ``Profile1D.jet`` and ``Profile1D.value``), dunder methods
such as the jet arithmetic operators, and the methods of the small value types
in VALUE_TYPES.  Each of these runs hundreds of thousands of times per
operation for well under a microsecond, so wrapping them would multiply the
traced time without naming a new layer; their cost lands in the self time of
the wrapped caller.

Two names are split by context.  ``weighted.einstein_residuals`` is recorded
as ``[base]`` or ``[hat]`` (a conformally transformed instance), with the
grid's point count as items; ``ConformalMap.forward`` and ``quad`` are
recorded as ``[inverse]`` while a ``ConformalMap.inverse`` call is open, so
that the plain names count only the forward map at arbitrary points.

Span records (id, parent id, name, start, end) are kept in memory for calls
lasting at least MIN_SPAN_S; a parent always lasts at least as long as its
child, so every kept span's parent is kept too.  Shorter calls, hundreds of
thousands per operation, only update the per-name aggregates.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

PACKAGE = "smmskit"
MODULES = ("profiles", "geometry", "odes", "weighted", "conformal", "classify",
           "catalog", "cli")

MIN_SPAN_S = 1e-3

# names the public-name rule misses that still belong to a layer: scipy's
# quad as conformal imports it, and the per-point fiber diagnostics that only
# base residual calls compute
EXTRA = (("conformal", "quad"), ("weighted", "_fiber_diagnostics"))

# value types whose methods are not wrapped (see the module docstring)
VALUE_TYPES = ("jets.Jet2", "jets.BiJet2", "profiles.Interval")

# the names split by context (see the module docstring)
RESIDUALS = "weighted.einstein_residuals"
RES_BASE, RES_HAT = RESIDUALS + "[base]", RESIDUALS + "[hat]"
INVERSE = "conformal.ConformalMap.inverse"
UNDER_INVERSE = ("conformal.ConformalMap.forward", "conformal.quad")


class Tracer:
    def __init__(self):
        self.active = False
        self.stats = {}       # name -> record, see _record
        self.spans = []       # (id, parent id, name, start, end)
        self._stack = []      # open frames: [child seconds, span id]
        self._next_id = 0
        self._patched = []    # (owner, attribute, original)

    # -- recording ---------------------------------------------------------

    def _record(self, name: str) -> list:
        rec = self.stats.get(name)
        if rec is None:
            # calls, inclusive s, self s, items, open calls (recursion guard)
            rec = self.stats[name] = [0, 0.0, 0.0, 0, 0]
        return rec

    def call(self, name, fn, args, kwargs, items=0):
        """Runs fn as a traced call named name."""
        return self._timed(self._record(name), name, fn, args, kwargs, items)

    def _timed(self, rec, name, fn, args, kwargs, items):
        stack = self._stack
        parent = stack[-1] if stack else None
        frame = [0.0, self._next_id]
        self._next_id += 1
        stack.append(frame)
        rec[4] += 1
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            rec[4] -= 1
            dur = end - start
            rec[0] += 1
            if not rec[4]:
                rec[1] += dur
            rec[2] += dur - frame[0]
            rec[3] += items
            if parent is not None:
                parent[0] += dur
            if dur >= MIN_SPAN_S:
                self.spans.append((frame[1], None if parent is None else parent[1],
                                   name, start, end))

    def wrap(self, name: str, fn):
        tracer = self
        if name == RESIDUALS:
            @functools.wraps(fn)
            def residuals(*args, **kwargs):
                if not tracer.active:
                    return fn(*args, **kwargs)
                metric = args[0] if args else kwargs["metric"]
                points = args[4] if len(args) > 4 else kwargs["points"]
                hat = type(metric.phi).__name__ == "ReparamProfile"
                return tracer.call(RES_HAT if hat else RES_BASE, fn, args, kwargs,
                                   len(points))
            return residuals

        rec = self._record(name)
        timed = self._timed
        if name in UNDER_INVERSE:
            inverse = self._record(INVERSE)
            inner_name = name + "[inverse]"
            inner = self._record(inner_name)

            @functools.wraps(fn)
            def split(*args, **kwargs):
                if not tracer.active:
                    return fn(*args, **kwargs)
                if inverse[4]:
                    return timed(inner, inner_name, fn, args, kwargs, 0)
                return timed(rec, name, fn, args, kwargs, 0)
            return split

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            return timed(rec, name, fn, args, kwargs, 0)
        return traced

    # -- installation ------------------------------------------------------

    def install(self):
        """Wraps the layers of the imported package; undo with ``uninstall``."""
        wrapped = {}   # id(original) -> (original, wrapper)
        for short in MODULES:
            mod = sys.modules[f"{PACKAGE}.{short}"]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[id(obj)] = (obj, self.wrap(f"{short}.{attr}", obj))
                elif (inspect.isclass(obj) and not _is_expression_node(obj)
                        and f"{short}.{attr}" not in VALUE_TYPES):
                    self._wrap_methods(f"{short}.{attr}", obj)
        for short, attr in EXTRA:
            obj = getattr(sys.modules[f"{PACKAGE}.{short}"], attr)
            wrapped[id(obj)] = (obj, self.wrap(f"{short}.{attr}", obj))
        # rebind the originals wherever a package module holds them
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == PACKAGE
                                   or modname.startswith(PACKAGE + ".")):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
                    self._patched.append((mod, attr, obj))

    def _wrap_methods(self, prefix: str, cls):
        for mname, raw in list(vars(cls).items()):
            if mname.startswith("_"):
                continue
            name = f"{prefix}.{mname}"
            if isinstance(raw, staticmethod):
                new = staticmethod(self.wrap(name, raw.__func__))
            elif isinstance(raw, classmethod):
                new = classmethod(self.wrap(name, raw.__func__))
            elif inspect.isfunction(raw):
                new = self.wrap(name, raw)
            else:
                continue
            setattr(cls, mname, new)
            self._patched.append((cls, mname, raw))

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- results -----------------------------------------------------------

    def calls(self, *names) -> int:
        return sum(self.stats.get(n, (0,))[0] for n in names)

    def inclusive(self, *names) -> float:
        return sum(self.stats.get(n, (0, 0.0))[1] for n in names)

    def self_time(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0, 0.0))[2]

    def items(self, name: str) -> int:
        return self.stats.get(name, (0, 0.0, 0.0, 0))[3]

    def module_self(self, short: str) -> float:
        prefix = short + "."
        return sum(st[2] for name, st in self.stats.items()
                   if name.startswith(prefix))

    def write(self, path: str):
        """Writes the kept spans and the per-name aggregates as JSON."""
        out = {
            "spans": [{"id": s[0], "parent": s[1], "name": s[2],
                       "start": s[3], "end": s[4]} for s in self.spans],
            "min_span_s": MIN_SPAN_S,
            "stats": {name: {"calls": st[0], "inclusive_s": st[1],
                             "self_s": st[2], "items": st[3]}
                      for name, st in sorted(self.stats.items())},
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(out, fh)


def _is_expression_node(cls) -> bool:
    node = getattr(sys.modules.get(cls.__module__), "Node", None)
    return isinstance(node, type) and issubclass(cls, node)
