"""Outside-in span tracer for the lockeysim modules.

`Tracer` replaces every public function of the traced modules with a timing
wrapper, in every ``lockeysim`` module namespace that holds it (the defining
module, the modules that imported it by name, and the package re-exports),
so intra-module calls and cross-module calls are both seen.  Each call
records one span: name, start, end and the index of the span that was open
when it began.  Spans stay in flat in-memory arrays; `summary` reduces them
to per-function call counts, inclusive times and self times.  Leaving the
context restores every original function object.  No source file changes.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array

#: Traced modules of the package, and the layer name each one reports under.
LAYERS = {
    "cli": "cli",
    "config": "config",
    "harness": "harness",
    "protocol": "protocol",
    "fading": "fading",
    "ris": "ris",
    "ofdm": "ofdm",
    "keygen": "keygen",
    "analysis": "analysis",
    "_rng": "rng",
}

PACKAGE = "lockeysim"


def public_functions():
    """``{label: function}`` for every public function the layers define."""
    found = {}
    for module_name, layer in LAYERS.items():
        module = importlib.import_module(f"{PACKAGE}.{module_name}")
        for name, obj in vars(module).items():
            if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not name.startswith("_"):
                found[f"{layer}.{name}"] = obj
    return found


def package_namespaces():
    """Namespaces of the package and its loaded submodules."""
    return [
        vars(module)
        for name, module in list(sys.modules.items())
        if module is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


class Tracer:
    """Span recorder that wraps the package's public functions while active.

    `observers` maps a span label to ``fn(args, kwargs, result) -> dict`` whose
    values are added to `counts` after each call of that function; it lets a
    workload count units of work (samples drawn, subcarriers kept) where the
    work happens.
    """

    def __init__(self, observers=None):
        self.observers = dict(observers or {})
        self.labels = []
        self._label_ids = {}
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.counts = {}
        self._stack = [-1]
        self._patches = []

    def clear(self):
        """Drop recorded spans and counts; wrappers stay installed."""
        for buf in (self.name_ids, self.parents, self.starts, self.ends):
            del buf[:]
        self.counts = {}

    def _wrap(self, fn, label):
        nid = self._label_ids.get(label)
        if nid is None:   # a label keeps its id across installs
            nid = self._label_ids[label] = len(self.labels)
            self.labels.append(label)
        name_ids, parents, starts, ends, stack = (
            self.name_ids, self.parents, self.starts, self.ends, self._stack)
        clock = time.perf_counter
        observe = self.observers.get(label)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()
            if observe is not None:
                for key, value in observe(args, kwargs, result).items():
                    self.counts[key] = self.counts.get(key, 0) + value
            return result

        return traced

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        originals = public_functions()
        wrappers = {id(fn): self._wrap(fn, label) for label, fn in originals.items()}
        try:
            for namespace in package_namespaces():
                for attr, value in list(namespace.items()):
                    wrapper = wrappers.get(id(value))
                    if wrapper is not None:
                        self._patches.append((namespace, attr, value))
                        namespace[attr] = wrapper
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self):
        while self._patches:
            namespace, attr, original = self._patches.pop()
            namespace[attr] = original

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def spans(self):
        """Recorded spans as numpy arrays ``(name_ids, parents, starts, ends)``."""
        import numpy as np

        return (
            np.frombuffer(self.name_ids, dtype=np.intc).astype(np.int64),
            np.frombuffer(self.parents, dtype=np.intc).astype(np.int64),
            np.frombuffer(self.starts, dtype=np.float64).copy(),
            np.frombuffer(self.ends, dtype=np.float64).copy(),
        )

    def summary(self):
        """Per-label ``{"calls", "total_s", "self_s"}`` over the recorded spans.

        ``total_s`` sums the durations of a function's outermost spans (a
        span nested inside a span of the same function is already covered);
        ``self_s`` is each span's duration minus the durations of its direct
        children, summed.  Labels never called report zeros.
        """
        import numpy as np

        names, parents, starts, ends = self.spans()
        n_labels = len(self.labels)
        durations = ends - starts
        has_parent = parents >= 0
        child_time = np.bincount(parents[has_parent], weights=durations[has_parent], minlength=names.size)
        self_time = durations - child_time

        nested = np.zeros(names.size, dtype=bool)
        ancestor = parents.copy()
        while np.any(ancestor >= 0):
            live = ancestor >= 0
            nested[live] |= names[ancestor[live]] == names[live]
            ancestor[live] = parents[ancestor[live]]

        calls = np.bincount(names, minlength=n_labels)
        total = np.bincount(names[~nested], weights=durations[~nested], minlength=n_labels)
        own = np.bincount(names, weights=self_time, minlength=n_labels)
        return {
            label: {"calls": int(calls[i]), "total_s": float(total[i]), "self_s": float(own[i])}
            for i, label in enumerate(self.labels)
        }

    def durations(self, label):
        """Durations of every span of `label`, in call order (none for a
        label that was never wrapped)."""
        nid = self._label_ids.get(label)
        if nid is None:
            return []
        names, _, starts, ends = self.spans()
        return list(ends[names == nid] - starts[names == nid])
