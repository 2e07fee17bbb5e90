"""Per-layer tracing from outside the program.

`Tracer.install` replaces nilcat's public functions and methods with
wrappers at the attribute where callers look them up: the class attribute
for methods, every module global bound to the same function object for
imported functions, and the entries of `normalizers.DISPATCH`.  A span
wrapper records (name, start, end, parent) in memory and adds its
duration minus the time covered by its child spans to that name's self
time.  Field arithmetic is counted only: its methods take well under a
microsecond, so timing them would time the wrapper.
"""

from __future__ import annotations

import json
import sys
import time
from array import array

# Wrapped with spans: (module, class, method, span name) ...
SPAN_METHODS = [
    ("linalg", "Matrix", "rref", "linalg.rref"),
    ("linalg", "Matrix", "solve", "linalg.solve"),
    ("linalg", "Matrix", "invert", "linalg.invert"),
    ("linalg", "Matrix", "__mul__", "linalg.mul"),
    ("linalg", "Matrix", "matvec", "linalg.matvec"),
    ("liealg", "LieAlgebra", "bracket", "liealg.bracket"),
    ("liealg", "LieAlgebra", "validate", "liealg.validate"),
    ("liealg", "LieAlgebra", "lower_central_series", "liealg.lcs"),
    ("liealg", "LieAlgebra", "center", "liealg.center"),
    ("liealg", "LieAlgebra", "strip_central_component", "liealg.strip_central_component"),
    ("liealg", "LinearMap", "is_isomorphism", "liealg.verify"),
    ("autgroups", "AutTemplate", "__call__", "autgroups.template"),
]
# ... and (module, function, span name); every NormEngine method is a
# "recognize.engine" span and every DISPATCH case a "normalizers.case" span.
SPAN_FUNCTIONS = [
    ("cli", "parse_algebra_text", "cli.parse"),
    ("cohomology", "factor_by_center", "cohomology.factor_by_center"),
    ("cohomology", "compute_spaces", "cohomology.compute_spaces"),
    ("cohomology", "central_extension", "cohomology.central_extension"),
    ("catalog", "instantiate", "catalog.instantiate"),
    ("recognize", "recognize", "recognize.recognize"),
    ("oracle", "iso_search", "oracle.iso_search"),
    ("oracle", "invariant_vector", "oracle.invariant_vector"),
]
# Counted only: FieldElem arithmetic is "field.arith", FieldCtx.el is
# "field.coerce".
FIELD_ARITH = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
               "__truediv__", "__rtruediv__", "__neg__", "inv")

# Spans are kept in memory up to this many; past it only the per-name
# totals grow, and the dropped count is written with the spans.
MAX_SPANS = 2_000_000


class Tracer:
    """Wrappers for the layers of the nilcat package held in namespace nc;
    `install` and `uninstall` switch them on and off, and the totals and
    spans accumulate over every installed period."""

    def __init__(self, nc):
        self.names: list[str] = []
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.dropped = 0
        self._ids: dict[str, int] = {}
        self._stack: list[list] = []
        self._name = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._patches = self._plan(nc)

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
        return self._ids[name]

    def count(self, name: str) -> int:
        return self.calls[self._ids[name]] if name in self._ids else 0

    def self_time(self, name: str) -> float:
        return self.self_s[self._ids[name]] if name in self._ids else 0.0

    # -- wrappers ----------------------------------------------------------

    def _span(self, name, fn):
        nid = self._id(name)
        calls, self_s, stack = self.calls, self.self_s, self._stack
        names, parents, starts, ends = self._name, self._parent, self._start, self._end
        perf = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            idx = len(starts)
            if idx < MAX_SPANS:
                names.append(nid)
                parents.append(stack[-1][2] if stack else -1)
                starts.append(0.0)
                ends.append(0.0)
            else:
                idx = -1
                tracer.dropped += 1
            frame = [perf(), 0.0, idx]  # start, time covered by children, span index
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                dur = end - frame[0]
                self_s[nid] += dur - frame[1]
                calls[nid] += 1
                if stack:
                    stack[-1][1] += dur
                if idx >= 0:
                    starts[idx] = frame[0]
                    ends[idx] = end

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, name, fn):
        nid = self._id(name)
        calls = self.calls

        def wrapper(*args):
            calls[nid] += 1
            return fn(*args)

        wrapper.__wrapped__ = fn
        return wrapper

    def _plan(self, nc):
        """(owner, attribute, original, wrapper) for every wrapped layer
        boundary of the nilcat package held in namespace nc."""
        plan = []

        def method(cls, attr, wrapper):
            plan.append((cls, attr, cls.__dict__[attr], wrapper))

        modules = [m for k, m in sorted(sys.modules.items())
                   if (k == "nilcat" or k.startswith("nilcat.")) and m is not None]
        for mod_name, cls_name, attr, name in SPAN_METHODS:
            cls = getattr(getattr(nc, mod_name), cls_name)
            method(cls, attr, self._span(name, cls.__dict__[attr]))
        for mod_name, attr, name in SPAN_FUNCTIONS:
            fn = getattr(getattr(nc, mod_name), attr)
            wrapper = self._span(name, fn)
            # every module global bound to fn, e.g. recognize.factor_by_center
            for mod in modules:
                for key, val in vars(mod).items():
                    if val is fn:
                        plan.append((mod, key, fn, wrapper))
        engine = nc.recognize.NormEngine
        for attr, val in vars(engine).items():
            if callable(val) and not isinstance(val, (staticmethod, classmethod)):
                method(engine, attr, self._span("recognize.engine", val))
        dispatch = nc.normalizers.DISPATCH
        wrapped = {}
        for key, (reps, case) in dispatch.items():
            if case not in wrapped:
                wrapped[case] = self._span("normalizers.case", case)
            plan.append((dispatch, key, (reps, case), (reps, wrapped[case])))
        elem, ctx = nc.field.FieldElem, nc.field.FieldCtx
        for attr in FIELD_ARITH:
            method(elem, attr, self._counter("field.arith", elem.__dict__[attr]))
        method(ctx, "el", self._counter("field.coerce", ctx.__dict__["el"]))
        return plan

    def install(self):
        for owner, attr, _, wrapper in self._patches:
            if isinstance(owner, dict):
                owner[attr] = wrapper
            else:
                setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, orig, _ in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = orig
            else:
                setattr(owner, attr, orig)

    def write_spans(self, path):
        """Spans as JSON: names, then one [name, parent, start, end] row per
        span, with times in seconds from the first span's start."""
        t0 = self._start[0] if len(self._start) else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('{"names": %s, "dropped": %d, "spans": [\n'
                     % (json.dumps(self.names), self.dropped))
            rows = zip(self._name, self._parent, self._start, self._end)
            first = True
            for n, par, s, e in rows:
                fh.write("%s[%d,%d,%.7f,%.7f]" % ("" if first else ",\n", n, par, s - t0, e - t0))
                first = False
            fh.write("\n]}\n")
