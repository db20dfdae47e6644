"""Span tracing around the public functions of the tautilt layers.

``Tracer.install`` replaces every public function of each layer module,
in every layer namespace that binds it (``compile_bound_quiver`` lives in
both ``algebra`` and ``workspace``), with a wrapper that records one span:
name, start, end and parent span.  Public classes get their constructor
wrapped, except the scalar and algebra-element types whose constructors
run once per arithmetic operation and the shape helpers (``ncols``,
``zeros``, ...) that cost less than a wrapper; their time counts as self
time of the caller.  Spans stay in flat arrays until the run ends;
``summary`` then derives calls, inclusive time and self time (a span's
duration minus the part its child spans cover).  Nothing is wrapped unless
``install`` is called, so untraced runs pay nothing.
"""

import array
import functools
import gzip
import importlib
import inspect
import json
import sys
import time

LAYERS = ("linalg", "algebra", "modules", "tauops", "twoterm", "explorer", "workspace")
UNWRAPPED = {
    # constructors that run once per arithmetic operation
    "PrimeFieldElement", "AlgebraElement",
    # shape helpers that cost less than the wrapper around them
    "ncols", "zeros", "identity", "mat_copy",
}


class Tracer:
    """Spans of the wrapped calls.  ``hooks`` maps a span name to a function
    called with each result of that call; set it before ``install``."""

    def __init__(self):
        self.names = []
        self.nonnull = []
        self.start = array.array("d")
        self.end = array.array("d")
        self.parent = array.array("q")
        self.name_id = array.array("l")
        self.outer = array.array("b")
        self.hooks = {}
        self._active = []
        self._stack = [-1]
        self._saved = []

    def _wrap(self, name, fn):
        nid = len(self.names)
        self.names.append(name)
        self.nonnull.append(0)
        self._active.append(0)
        start, end, parent, name_id, outer = (
            self.start, self.end, self.parent, self.name_id, self.outer
        )
        stack, active, nonnull = self._stack, self._active, self.nonnull
        clock = time.perf_counter
        hook = self.hooks.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            parent.append(stack[-1])
            name_id.append(nid)
            outer.append(active[nid] == 0)
            end.append(0.0)
            stack.append(idx)
            active[nid] += 1
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                active[nid] -= 1
                stack.pop()
            if result is not None:
                nonnull[nid] += 1
            if hook is not None:
                hook(result)
            return result

        return wrapper

    def install(self):
        """Wrap the layers."""
        mods = [importlib.import_module(f"tautilt.{layer}") for layer in LAYERS]
        namespaces = mods + [importlib.import_module("tautilt")]
        for layer, mod in zip(LAYERS, mods):
            for attr, obj in list(vars(mod).items()):
                if (
                    attr.startswith("_")
                    or attr in UNWRAPPED
                    or getattr(obj, "__module__", None) != mod.__name__
                ):
                    continue
                name = f"{layer}.{attr}"
                if inspect.isfunction(obj):
                    wrapped = self._wrap(name, obj)
                    for ns in namespaces:
                        for bound, value in list(vars(ns).items()):
                            if value is obj:
                                self._saved.append((ns, bound, obj))
                                setattr(ns, bound, wrapped)
                elif inspect.isclass(obj) and "__init__" in vars(obj):
                    init = vars(obj)["__init__"]
                    self._saved.append((obj, "__init__", init))
                    obj.__init__ = self._wrap(name, init)

    def uninstall(self):
        while self._saved:
            ns, bound, original = self._saved.pop()
            setattr(ns, bound, original)

    def summary(self):
        """{name: (calls, inclusive_s, self_s, nonnull_results)}; recursive
        calls count once towards inclusive time."""
        n = len(self.start)
        dur = array.array("d", (self.end[i] - self.start[i] for i in range(n)))
        child = array.array("d", bytes(8 * n))
        parent = self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += dur[i]
        k = len(self.names)
        calls = [0] * k
        incl = [0.0] * k
        own = [0.0] * k
        name_id, outer = self.name_id, self.outer
        for i in range(n):
            nid = name_id[i]
            calls[nid] += 1
            own[nid] += dur[i] - child[i]
            if outer[i]:
                incl[nid] += dur[i]
        return {
            self.names[j]: (calls[j], incl[j], own[j], self.nonnull[j]) for j in range(k)
        }

    def write(self, path):
        """All spans, gzip'd: one JSON header line naming the arrays, then
        the arrays' raw bytes in that order (machine byte order)."""
        arrays = {
            "name_id": self.name_id, "parent": self.parent,
            "start": self.start, "end": self.end,
        }
        header = {
            "names": self.names,
            "spans": len(self.start),
            "arrays": [[k, a.typecode, a.itemsize] for k, a in arrays.items()],
            "byteorder": sys.byteorder,
        }
        with gzip.open(path, "wb", compresslevel=1) as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for a in arrays.values():
                fh.write(a.tobytes())
