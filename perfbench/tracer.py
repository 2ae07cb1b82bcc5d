"""In-memory span tracer installed around the package's public functions.

Spans are recorded from outside the package: each traced function is
replaced, in every ``cuspcheck`` module namespace that holds it, by a
wrapper that appends ``(name, start, end, parent, op)`` to a list.
Hot primitives such as ``linalg.dot`` and ``det_int`` are left alone,
so the traced run measures the layers rather than the tracer.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time
from pathlib import Path

# (defining module, attribute, span name)
TARGETS = (
    ("cuspcheck.polytope", "facet_polytope", "polytope.facet_polytope"),
    ("cuspcheck.polytope", "is_delzant", "polytope.is_delzant"),
    ("cuspcheck.blowup", "tower_step", "blowup.tower_step"),
    ("cuspcheck.blowup", "blow_up_vertex", "blowup.blow_up_vertex"),
    ("cuspcheck.moments", "polytope_moments", "moments.polytope_moments"),
    ("cuspcheck.moments", "boundary_moments", "moments.boundary_moments"),
    ("cuspcheck.extremal", "extremal_affine", "extremal.extremal_affine"),
    ("cuspcheck.linalg", "solve_linear", "linalg.solve_linear"),
    ("cuspcheck.obstruction", "check_facet_condition", "obstruction.check_facet_condition"),
)
BUILD = "polytope.build"
# Spans whose per-op durations are kept, for per-round and per-dimension costs.
PER_OP = ("blowup.tower_step", "obstruction.check_facet_condition")


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self.op_names: list[str] = []
        self.candidates = 0
        self.vertices_found = 0
        self._stack: list[int] = []

    def begin_op(self, name: str) -> None:
        self.op_names.append(name)

    def wrap(self, name: str, fn, after=None):
        spans = self.spans
        stack = self._stack
        op_names = self.op_names
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(args)
                return result
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, len(op_names) - 1)

        return traced

    def _after_build(self, args) -> None:
        poly = args[0]
        self.candidates += math.comb(len(poly.facets), poly.dim)
        self.vertices_found += len(poly.vertices)

    def install(self) -> None:
        """Wrap every target in each namespace that imported it by name."""
        from cuspcheck.polytope import DelzantPolytope

        modules = [
            m for key, m in sys.modules.items()
            if m is not None and (key == "cuspcheck" or key.startswith("cuspcheck."))
        ]
        for home, attr, name in TARGETS:
            original = getattr(sys.modules[home], attr)
            wrapped = self.wrap(name, original)
            for module in modules:
                if getattr(module, attr, None) is original:
                    setattr(module, attr, wrapped)
        DelzantPolytope.__post_init__ = self.wrap(
            BUILD, DelzantPolytope.__post_init__, after=self._after_build
        )

    def summary(self, scales: list[float]) -> dict:
        """Per-name call counts and self times, and per-op inclusive times.

        Each span's times are multiplied by its op's entry in ``scales``,
        the factor that brings that op's timings to nominal machine speed.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        by_op: dict[str, dict[str, list[float]]] = {}
        for i, (name, start, end, parent, op) in enumerate(self.spans):
            scale = scales[op] if op >= 0 else 1.0
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + ((end - start) - child[i]) * scale
            if op >= 0 and name in PER_OP:
                by_op.setdefault(self.op_names[op], {}).setdefault(name, []).append((end - start) * scale)
        return {
            "calls": calls,
            "self_s": self_s,
            "by_op": by_op,
            "candidates": self.candidates,
            "vertices_found": self.vertices_found,
        }

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            for name, start, end, parent, op in self.spans:
                op_name = self.op_names[op] if op >= 0 else None
                handle.write(json.dumps([name, start, end, parent, op, op_name]) + "\n")
