"""In-memory span tracer for the calls the benchmark makes into a package.

``Tracer.patch`` replaces each public function of the given layer modules,
in every namespace that binds it (``from .x import y`` makes a second
binding), with a wrapper that records one span per call: function name,
start, end, parent span and op id.  Spans stay in memory until the run
ends.  A span's self time is its duration minus the durations of its direct
children; calls run in one thread, so direct children never overlap.

This module uses only the standard library, so its arithmetic can be
checked without importing the package under test.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import Counter


class Tracer:
    """Span recorder plus named counters for one traced pass at a time."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.ops: list[int] = []
        self.raised: list[bool] = []
        self.counts: Counter = Counter()
        self.keys: dict[str, set] = {}
        self.op = -1
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []

    def clear(self) -> None:
        """Drop recorded spans and counters; patched wrappers stay in place."""
        for column in (self.names, self.starts, self.ends, self.parents, self.ops, self.raised):
            column.clear()
        self.counts.clear()
        self.keys.clear()

    def wrap(self, name: str, fn, after=None):
        """Return ``fn`` recording a span called ``name`` per call.

        ``after(tracer, args, kwargs, result)`` runs once the span has
        closed, to update counters; its cost lands in the caller's span.
        """
        names, starts, ends = self.names, self.starts, self.ends
        parents, ops, raised, stack, clock = (
            self.parents, self.ops, self.raised, self._stack, self.clock,
        )

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(names)
            names.append(name)
            parents.append(stack[-1])
            ops.append(self.op)
            raised.append(False)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                ends[index] = clock()
                raised[index] = True
                stack.pop()
                raise
            ends[index] = clock()
            stack.pop()
            if after is not None:
                after(self, args, kwargs, result)
            return result

        return traced

    def replace(self, namespace, attr: str, replacement) -> None:
        """Set ``namespace.attr`` to ``replacement`` until :meth:`unpatch`."""
        self._patched.append((namespace, attr, getattr(namespace, attr)))
        setattr(namespace, attr, replacement)

    def patch(self, layers: dict, namespaces, hooks: dict | None = None) -> None:
        """Trace every public function defined in each layer module.

        ``layers`` maps a layer name to its module; each wrapper is
        installed in every module of ``namespaces`` that binds the original
        function.  ``hooks`` maps a span name such as ``"layer.function"``
        to an ``after`` callback.
        """
        hooks = hooks or {}
        wrapped, names = {}, []
        for layer, module in layers.items():
            for attr, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not attr.startswith("_")
                ):
                    name = f"{layer}.{attr}"
                    wrapped[obj] = self.wrap(name, obj, hooks.get(name))
                    names.append(name)
        missing = set(hooks) - set(names)
        if missing:
            raise ValueError(f"hooks name no public layer function: {sorted(missing)}")
        for namespace in namespaces:
            for attr, obj in list(vars(namespace).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self.replace(namespace, attr, wrapped[obj])

    def unpatch(self) -> None:
        """Restore every binding replaced by :meth:`patch` or :meth:`replace`."""
        while self._patched:
            namespace, attr, original = self._patched.pop()
            setattr(namespace, attr, original)

    def self_times(self) -> list[float]:
        """Per span: duration minus the durations of its direct children."""
        child = [0.0] * len(self.names)
        for start, end, parent in zip(self.starts, self.ends, self.parents):
            if parent >= 0:
                child[parent] += end - start
        return [end - start - c for start, end, c in zip(self.starts, self.ends, child)]

    def by_name(self) -> dict[str, tuple[int, float]]:
        """Per span name: (calls, total self seconds)."""
        totals: dict[str, list] = {}
        for name, self_s in zip(self.names, self.self_times()):
            entry = totals.setdefault(name, [0, 0.0])
            entry[0] += 1
            entry[1] += self_s
        return {name: (calls, self_s) for name, (calls, self_s) in totals.items()}

    def escaped(self, layer: str) -> int:
        """Exceptions that left ``layer``: raising spans whose caller is outside it."""
        prefix = layer + "."
        count = 0
        for name, parent, raised in zip(self.names, self.parents, self.raised):
            if raised and name.startswith(prefix):
                if parent < 0 or not self.names[parent].startswith(prefix):
                    count += 1
        return count
