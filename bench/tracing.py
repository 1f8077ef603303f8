"""In-memory span tracer that wraps the public functions of the cipm modules.

Every public module-level function of each traced module is replaced by a
wrapper that records one span (name, start, end, parent). The wrapper is
rebound under every name that refers to the original function in any traced
module, so calls through ``from .solver import min_norm_qp`` style imports
are recorded too. Spans stay in memory until ``write``; self time is a span's
duration minus the durations of its direct children.
"""

import functools
import gzip
import types
import time

import numpy as np

ROOT_SPAN = "bench.op"


class Tracer:
    def __init__(self):
        self.spans = []        # (name, start_ns, end_ns, parent index or -1)
        self.stack = []
        self.observed = {}     # counters and maxima filled by observers
        self._patches = []     # (owner, attribute, original value)

    def _call(self, name, fn, args, kwargs):
        spans, stack = self.spans, self.stack
        idx = len(spans)
        spans.append(None)
        parent = stack[-1] if stack else -1
        stack.append(idx)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            spans[idx] = (name, start, time.perf_counter_ns(), parent)
            stack.pop()

    def _wrap(self, name, fn, observe=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self._call(name, fn, args, kwargs)
            if observe is not None:
                observe(self.observed, args, result)
            return result

        return wrapper

    def install(self, modules, observers=None, methods=()):
        """Wrap public functions of ``modules`` (short name -> module).

        ``observers`` maps a span name to ``f(observed, args, result)``, run
        after the call returns. ``methods`` lists (module short name, class
        name, method name) classmethods to wrap as well.
        """
        observers = observers or {}
        wrappers = {}
        for short, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (isinstance(obj, types.FunctionType) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    name = f"{short}.{attr}"
                    wrappers[id(obj)] = (obj, self._wrap(name, obj, observers.get(name)))
        for mod in {id(m): m for m in modules.values()}.values():
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])
        for short, cls_name, meth in methods:
            cls = getattr(modules[short], cls_name)
            original = cls.__dict__[meth]
            name = f"{short}.{cls_name}.{meth}"
            self._patches.append((cls, meth, original))
            setattr(cls, meth, classmethod(
                self._wrap(name, original.__func__, observers.get(name))))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def root(self, fn, *args):
        """Run one benchmark operation under a root span."""
        return self._call(ROOT_SPAN, fn, args, {})

    def _arrays(self):
        names = [s[0] for s in self.spans]
        start = np.array([s[1] for s in self.spans], dtype=np.int64)
        end = np.array([s[2] for s in self.spans], dtype=np.int64)
        parent = np.array([s[3] for s in self.spans], dtype=np.int64)
        root = np.arange(len(names))
        for i in range(len(names)):     # a parent is always recorded first
            if parent[i] >= 0:
                root[i] = root[parent[i]]
        return names, start, end, parent, root

    def self_times(self):
        """(name, self seconds, parent name) of each span inside an operation."""
        names, start, end, parent, root = self._arrays()
        dur = (end - start).astype(float)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(names))
        self_s = (dur - child) * 1e-9
        return [(n, self_s[i], names[parent[i]] if parent[i] >= 0 else None)
                for i, n in enumerate(names) if names[root[i]] == ROOT_SPAN]

    def write(self, path):
        """Write every span as gzip CSV: id, op (root span id), name, times."""
        names, start, end, parent, root = self._arrays()
        with gzip.open(path, "wt", encoding="ascii") as fh:
            fh.write("id,op,name,start_ns,end_ns,parent\n")
            for i, name in enumerate(names):
                fh.write(f"{i},{root[i]},{name},{start[i]},{end[i]},{parent[i]}\n")
