"""Spans around the program's layers, recorded from outside the program.

``Tracer.install`` wraps every public function of each layer module, and
``UnicastInstance.keep_edges``, at every place the package binds it: the
defining module and each module that imported it by name (for example
``connectivity_level`` in ``flows``, ``transform``, ``constructors`` and
``cli``).  A span is (name, start, end, parent, request): ``parent`` is the
index of the enclosing span or -1, and ``request`` numbers the operation
that caused it.  Times are process CPU seconds, as in the end-to-end
metrics.  Spans stay in memory until ``write``.
"""

from __future__ import annotations

import functools
import sys
import time
import types
from collections import Counter, defaultdict

LAYERS = ("cli", "graph", "flows", "transform", "constructors", "netcode", "gf", "oracle")
# both searches run the same engine; one span name covers them
ALIASES = {
    "oracle.brute_force_scalar": "oracle.search",
    "oracle.brute_force_routing": "oracle.search",
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.request = 0
        self.blocks = 0
        self.names: set[str] = set()
        self._open: list[int] = []

    def _wrap(self, name: str, fn):
        self.names.add(name)
        spans, stack, clock = self.spans, self._open, time.process_time
        counts_blocks = name == "oracle.search"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, clock(), 0.0, stack[-1] if stack else -1, self.request]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if counts_blocks:
                self.blocks += result.enumerated
            return result

        return traced

    def install(self, package: str) -> None:
        wrapped = {}
        for layer in LAYERS:
            module = sys.modules[f"{package}.{layer}"]
            for attr, obj in vars(module).items():
                if (
                    isinstance(obj, types.FunctionType)
                    and not attr.startswith("_")
                    and obj.__module__ == module.__name__
                ):
                    name = ALIASES.get(f"{layer}.{attr}", f"{layer}.{attr}")
                    wrapped[id(obj)] = self._wrap(name, obj)
        for mod_name, module in list(sys.modules.items()):
            if mod_name == package or mod_name.startswith(package + "."):
                for attr, obj in list(vars(module).items()):
                    if id(obj) in wrapped:
                        setattr(module, attr, wrapped[id(obj)])
        instance = sys.modules[f"{package}.graph"].UnicastInstance
        instance.keep_edges = self._wrap("graph.keep_edges", instance.keep_edges)

    def totals(self) -> tuple[Counter, dict[str, float]]:
        """Calls and self time per span name.  Self time is a span's duration
        minus the durations of its direct children."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        calls: Counter = Counter()
        self_s: dict[str, float] = defaultdict(float)
        for (name, start, end, _, _), child in zip(self.spans, covered):
            calls[name] += 1
            self_s[name] += end - start - child
        return calls, self_s

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart\tend\tparent\trequest\n")
            for name, start, end, parent, request in self.spans:
                fh.write(f"{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{request}\n")
