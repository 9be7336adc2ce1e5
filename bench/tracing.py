"""Outside-in span tracing of the dlss layers.

``Tracer.install`` wraps every public function of ``dlss.grid``,
``dlss.functionals``, ``dlss.solver``, ``dlss.linalg``,
``dlss.inequalities`` and ``dlss.runio``, plus ``Field.__post_init__``
and the factor/solve methods of the two LU classes.  The package's
modules import many of these names with ``from .grid import derivative``
and the like, so a wrapper is bound in place of the original under every
name that refers to it in any ``dlss`` module; class methods are patched
on the class.  ``uninstall`` restores the originals.

Each call becomes a span ``(name, start, end, parent, op_id)`` held in
memory.  Self time is a span's duration minus the durations of its direct
children; all spans of one operation nest inside its root span, so the
self times of an operation sum exactly to the root span's duration.
"""

from __future__ import annotations

import gzip
import inspect
import sys
from collections import defaultdict
from time import perf_counter

LAYER_MODULES = ("grid", "functionals", "solver", "linalg", "inequalities", "runio")
ROOT_SPAN = "bench.op"
# certify_constant returns only its best start, so the descent iterations
# of every start are summed from the results of this span.
DESCENT_SPAN = "inequalities.minimize_quotient"


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.op_id = 0
        self._last_op = 0
        self.descent_iterations = defaultdict(int)
        self._stack: list = []
        self._patches: list = []

    # -- recording -----------------------------------------------------

    def call(self, name: str, fn, args, kwargs):
        stack = self._stack
        parent = stack[-1] if stack else -1
        index = len(self.spans)
        self.spans.append(None)
        stack.append(index)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            self.spans[index] = (name, start, end, parent, self.op_id)

    def operation(self, fn, *args):
        """Run ``fn(*args)`` as the root span of a new operation id.

        Spans recorded outside any operation get id 0 and belong to none."""
        self._last_op += 1
        self.op_id = self._last_op
        try:
            return self.call(ROOT_SPAN, fn, args, {})
        finally:
            self.op_id = 0

    def _wrap(self, name: str, fn):
        call = self.call

        def traced(*args, **kwargs):
            return call(name, fn, args, kwargs)

        def traced_descent(*args, **kwargs):
            result = call(name, fn, args, kwargs)
            self.descent_iterations[self.op_id] += result.iterations
            return result

        if name == DESCENT_SPAN:
            traced = traced_descent

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- installation --------------------------------------------------

    def install(self) -> None:
        import dlss
        from dlss import grid, linalg

        wrappers = {}
        for layer in LAYER_MODULES:
            module = sys.modules[f"dlss.{layer}"]
            for attr in module.__all__:
                obj = getattr(module, attr)
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)
        modules = [dlss] + [m for n, m in sys.modules.items() if n.startswith("dlss.")]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patch(module, attr, wrappers[value])

        self._patch(grid.Field, "__post_init__",
                    self._wrap("grid.field_new", grid.Field.__post_init__))
        for cls, kind in ((linalg.DenseLU, "dense"), (linalg.CyclicBandedLU, "banded")):
            self._patch(cls, "__init__", self._wrap(f"linalg.{kind}.factor", cls.__init__))
            self._patch(cls, "solve", self._wrap(f"linalg.{kind}.solve", cls.solve))

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis ------------------------------------------------------

    def op_spans(self, op_id: int) -> list:
        """Spans of one operation as (index, name, start, end, parent)."""
        return [(i, s[0], s[1], s[2], s[3]) for i, s in enumerate(self.spans) if s[4] == op_id]

    def aggregate(self, op_id: int) -> dict:
        """Per span name: calls, total seconds and self seconds."""
        spans = self.op_spans(op_id)
        child_time = defaultdict(float)
        for _, _, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        stats: dict = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for index, name, start, end, _ in spans:
            entry = stats[name]
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child_time[index]
        return dict(stats)

    def child_starts(self, op_id: int, name: str) -> dict:
        """Start times of spans called ``name``, grouped by parent span."""
        groups = defaultdict(list)
        for _, span_name, start, _, parent in self.op_spans(op_id):
            if span_name == name:
                groups[parent].append(start)
        return groups

    def write(self, path) -> None:
        """Write every recorded span as gzip-compressed CSV."""
        with gzip.open(path, "wt", newline="\n") as handle:
            handle.write("op_id,span,parent,name,start_s,end_s\n")
            for i, (name, start, end, parent, op_id) in enumerate(self.spans):
                handle.write(f"{op_id},{i},{parent},{name},{start:.9f},{end:.9f}\n")
