"""Span tracing of lagrangelab's public functions, from outside the package.

The tracer replaces each covered function with a wrapper in every
``lagrangelab`` module that binds it, so calls made through
``from .polytope import ...`` and through function-local imports are seen
too. Spans (name, start, end, parent, op) stay in memory; the per-layer
table is computed from them after the traced pass, never during it.
"""

from __future__ import annotations

import functools
import math
import sys
from collections import Counter, defaultdict
from dataclasses import dataclass
from time import perf_counter

# module -> public functions whose spans make up that module's layer
COVERED: dict[str, tuple[str, ...]] = {
    "exactlinalg": (
        "hnf", "snf", "det", "solve_rational", "rational_rank",
        "integer_kernel", "lattice_index",
    ),
    "fme": ("feasible_point", "find_positive_functional"),
    "polytope": ("enumerate_vertices", "structural_flags", "delzant_check", "fano_check"),
    "gale": ("polytope_to_quadrics", "quadrics_to_polytope", "embedded_check"),
    "lattice": ("lattice_data",),
    "maslov": ("generator_report",),
    "fibration": ("fibration_report",),
    "topology": ("classify_fiber", "merge_fixpoint", "connectivity_bound", "normalize"),
    "numerics": ("numeric_report",),
    "report": ("check_polytope", "check_quadrics", "report_dict", "render_text"),
    "families": ("build",),
    "cli": ("main", "parse_input"),
}
# span name -> (module, class, method); the dataclass __init__ calls the
# method through the class, so patching the class attribute is enough
METHODS: dict[str, tuple[str, str, str]] = {
    "gale.QuadricSystem.validate": ("gale", "QuadricSystem", "__post_init__"),
}
EXIT_CODES = (0, 1, 2, 3)


def span_names() -> list[str]:
    names = [f"{mod}.{fn}" for mod, fns in COVERED.items() for fn in fns]
    return names + list(METHODS)


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric the traced run reports, with its unit."""
    out = []
    for name in span_names():
        out += [(f"{name}.calls", "count"), (f"{name}.self_s", "s"),
                (f"{name}.raised", "count")]
    out += [
        ("polytope.enumerate_vertices.subsets", "count"),
        ("polytope.enumerate_vertices.vertices", "count"),
        ("polytope.vertex_yield", "ratio"),
    ]
    out += [(f"cli.exit_{code}", "count") for code in EXIT_CODES]
    out.append(("trace.overhead_s", "s"))
    return out


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root
    op: int  # the op (one CLI invocation) the span belongs to
    raised: bool = False


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(i)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        reach = s.start
        for lo, hi in sorted((spans[c].start, spans[c].end) for c in children[i]):
            lo, hi = max(lo, reach), min(hi, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((s.end - s.start) - covered)
    return out


def layer_table(spans: list[Span]) -> dict[str, dict[str, float]]:
    """calls, self_s and raised for every covered name (zeros included)."""
    table = {name: {"calls": 0, "self_s": 0.0, "raised": 0} for name in span_names()}
    for s, own in zip(spans, self_times(spans)):
        row = table[s.name]
        row["calls"] += 1
        row["self_s"] += own
        row["raised"] += s.raised
    return table


class Tracer:
    """Context manager that patches the covered functions while active."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: Counter[str] = Counter()
        self.op = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, after=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, 0.0, 0.0, stack[-1] if stack else -1, self.op)
            stack.append(len(spans))
            spans.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.raised = True
                raise
            finally:
                span.end = perf_counter()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def _count_vertices(self, args, kwargs, result) -> None:
        p = args[0] if args else kwargs["p"]
        self.counters["polytope.enumerate_vertices.subsets"] += math.comb(p.n, p.dim)
        self.counters["polytope.enumerate_vertices.vertices"] += len(result)

    def __enter__(self) -> "Tracer":
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "lagrangelab" or k.startswith("lagrangelab."))]
        for mod, fns in COVERED.items():
            home = sys.modules[f"lagrangelab.{mod}"]
            for fn_name in fns:
                original = getattr(home, fn_name)
                name = f"{mod}.{fn_name}"
                after = self._count_vertices if name == "polytope.enumerate_vertices" else None
                wrapper = self._wrap(name, original, after)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._undo.append((module, attr, original))
                            setattr(module, attr, wrapper)
        for name, (mod, cls_name, method) in METHODS.items():
            cls = getattr(sys.modules[f"lagrangelab.{mod}"], cls_name)
            original = cls.__dict__[method]
            self._undo.append((cls, method, original))
            setattr(cls, method, self._wrap(name, original))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()
