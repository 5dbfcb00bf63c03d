"""Span tracer that wraps the package's public functions from outside.

``Tracer.install()`` rebinds every public (non-underscore) module-level
function of each layer module, in the module that defines it and in every
package module that imported it by name, to a wrapper that records one
span (name, start, end, parent) per call.  Spans live in flat arrays
until ``write`` saves them; ``uninstall`` restores the original functions.
"""
from __future__ import annotations

import array
import collections
import functools
import importlib
import inspect
from time import perf_counter

PACKAGE = "casimir_plates"
LAYERS = ("cli", "verification", "symmetry", "pressure", "free_energy", "epstein", "specfun")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_of = array.array("l")
        self.start = array.array("d")
        self.end = array.array("d")
        self.parent = array.array("l")
        self.terms = array.array("l")  # terms the call's result reports, else 0
        self._stack = [-1]
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        name_of, start, end, parent, terms, stack = (
            self.name_of, self.start, self.end, self.parent, self.terms, self._stack)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(start)
            name_of.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            terms.append(0)
            stack.append(sid)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = perf_counter()
                stack.pop()
            n = getattr(result, "terms_used", None)
            if n is None and type(result) is tuple and len(result) == 3:
                n = result[2]  # sum_until returns (value, bound, terms)
            if type(n) is int:
                terms[sid] = n
            return result

        return traced

    def install(self):
        mods = {m: importlib.import_module(f"{PACKAGE}.{m}") for m in LAYERS}
        wrappers = {}
        for short, mod in mods.items():
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrappers[obj] = self._wrap(f"{short}.{attr}", obj)
        package = importlib.import_module(PACKAGE)
        for mod in (package, *mods.values()):
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._saved.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])

    def uninstall(self):
        for mod, attr, obj in reversed(self._saved):
            setattr(mod, attr, obj)
        self._saved.clear()

    def mark(self) -> int:
        """Index of the next span, to summarise only spans recorded after it."""
        return len(self.start)

    def summary(self, since: int = 0) -> dict[str, dict[str, float]]:
        """Per function name: calls, self seconds and terms, since span `since`.

        Self time is a span's duration minus the time its child spans cover.
        """
        until = len(self.start)
        child = collections.defaultdict(float)
        for i in range(since, until):
            p = self.parent[i]
            if p >= since:
                child[p] += self.end[i] - self.start[i]
        out: dict[str, dict[str, float]] = {}
        for i in range(since, until):
            rec = out.setdefault(self.names[self.name_of[i]],
                                 {"calls": 0, "self_s": 0.0, "terms": 0})
            rec["calls"] += 1
            rec["self_s"] += self.end[i] - self.start[i] - child[i]
            rec["terms"] += self.terms[i]
        return out

    def write(self, path: str):
        """Save every span as a tab-separated row: id, name, start, end, parent."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tname\tstart_s\tend_s\tparent\n")
            for i in range(len(self.start)):
                fh.write(f"{i}\t{self.names[self.name_of[i]]}\t{self.start[i]:.9f}\t"
                         f"{self.end[i]:.9f}\t{self.parent[i]}\n")
