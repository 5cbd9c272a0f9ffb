"""Run-time spans around falg's public callables, installed from outside.

`Tracer.install` wraps every public module function and every public method
or operator of every public class in the seven falg modules, and rebinds each
wrapped function in every falg module namespace that holds it, so calls made
through `from .x import y` names are seen as well.  Three extra hooks read
state that no public call returns: the coordinates handed to a vector's
constructor (what `_clean_coords` re-validates), `len(table.entries)` before
and after each `StructureTable.lookup` (memo hits and size), and the rule
closure of each builtin table (`catalog.rule`).

Backend's raw-value primitives (check, add, mul, neg, norm, from_int,
from_rational, parse, render) stay unwrapped: Scalar calls them from inside
its own operations, so their cost is part of the Scalar span's self time.

Each span records its callable, its parent span and the benchmark operation
that caused it.  A span's self time is its duration minus the time of its
child spans.  Spans of the hot leaf callables (Scalar operations, bound
arithmetic, lookups, vector constructors, rules) are only counted and timed
in aggregate; all others are kept in memory and written out by `dump`.
"""

from __future__ import annotations

import collections
import importlib
import json
import sys
import time
import types

LAYERS = ("ring", "hamel", "algebra", "catalog", "tensor", "schauder", "cli")
RAW_PRIMITIVES = {"check", "add", "mul", "neg", "norm", "from_int", "from_rational", "parse", "render"}
OPERATORS = {"__add__", "__sub__", "__neg__", "__mul__", "__rmul__", "__call__"}
CONSTRUCTOR_HOOKS = {"HamelVector", "DualFunctional"}
AGGREGATE_ONLY = {
    "ring.Scalar.__add__", "ring.Scalar.__sub__", "ring.Scalar.__mul__", "ring.Scalar.__neg__",
    "ring.Scalar.is_zero", "ring.Scalar.norm",
    "algebra.StructureTable.lookup", "catalog.rule",
    "hamel.HamelVector.__post_init__", "hamel.DualFunctional.__post_init__",
}
DATA_LAYERS = {"hamel", "algebra", "tensor", "schauder"}


def _size(value) -> int:
    """Stored coefficients of a falg result (0 for anything else)."""
    for attr in ("coords", "cols", "prefix", "finite"):
        inner = getattr(value, attr, None)
        if inner is None:
            continue
        if attr == "cols":
            return sum(len(col.coords) for col in inner.values())
        if attr in ("prefix", "finite"):
            return _size(inner)
        return len(inner) if isinstance(inner, dict) else 0
    return 0


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent id, op id, name, start ns, end ns)
        self.count: collections.Counter = collections.Counter()
        self.self_ns: collections.Counter = collections.Counter()
        self.total_ns: collections.Counter = collections.Counter()
        self.child_ns: collections.Counter = collections.Counter()  # keyed (parent, child)
        self.coeffs_checked = 0
        self.outputs = 0
        self.lookups = 0
        self.memo_hits = 0
        self.memo_sizes: dict[int, int] = {}
        self.schauder_depth = 0
        self.mass_recomputes = 0
        self.op_id = -1
        self._stack: list[list] = []  # [name, span id or None, child ns]
        self._next_id = 0
        self._undo: list = []

    # wrapping ------------------------------------------------------------

    def wrap(self, name: str, fn):
        """`fn` with a span named `name` around every call."""
        tracer = self
        layer = name.split(".", 1)[0]
        keep = name not in AGGREGATE_ONLY
        in_schauder = layer == "schauder"
        mass = name in ("hamel.HamelVector.l1", "hamel.ColumnFiniteMap.l1_total")
        clock = time.perf_counter_ns
        stack = self._stack

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            span_id = None
            if keep:
                span_id = tracer._next_id
                tracer._next_id += 1
            frame = [name, span_id, 0]
            stack.append(frame)
            if in_schauder:
                tracer.schauder_depth += 1
            elif mass and tracer.schauder_depth:
                tracer.mass_recomputes += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if in_schauder:
                    tracer.schauder_depth -= 1
                duration = end - start
                tracer.count[name] += 1
                tracer.total_ns[name] += duration
                tracer.self_ns[name] += duration - frame[2]
                if parent is not None:
                    parent[2] += duration
                    tracer.child_ns[(parent[0], name)] += duration
                if keep:
                    tracer.spans.append(
                        (span_id, _kept_parent(stack), tracer.op_id, name, start, end)
                    )
            if layer in DATA_LAYERS and (parent is None or parent[0].split(".", 1)[0] in ("cli", "catalog")):
                tracer.outputs += _size(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_constructor(self, name: str, fn):
        tracer = self
        inner = self.wrap(name, fn)

        def post_init(obj):
            tracer.coeffs_checked += len(obj.coords)
            return inner(obj)

        return post_init

    def _wrap_lookup(self, name: str, fn):
        tracer = self
        inner = self.wrap(name, fn)

        def lookup(table, i, j):
            before = len(table.entries)
            entry = inner(table, i, j)
            after = len(table.entries)
            tracer.lookups += 1
            tracer.memo_hits += after == before
            tracer.memo_sizes[id(table)] = after
            return entry

        return lookup

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap falg's public callables; `uninstall` restores them."""
        replaced: dict[int, object] = {}
        modules = [importlib.import_module(f"falg.{layer}") for layer in LAYERS]
        for layer, module in zip(LAYERS, modules):
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or getattr(value, "__module__", None) != module.__name__:
                    continue
                if isinstance(value, types.FunctionType):
                    replaced[id(value)] = self.wrap(f"{layer}.{attr}", value)
                elif isinstance(value, type):
                    self._wrap_class(layer, value)
        for module in [sys.modules["falg"], *modules]:
            for attr, value in list(vars(module).items()):
                if id(value) in replaced and isinstance(value, types.FunctionType):
                    self._set(module, attr, replaced[id(value)])
        load = sys.modules["falg.catalog"].load_builtin
        tracer = self

        def load_builtin(*args, **kwargs):
            fixture = load(*args, **kwargs)
            tracer.wrap_rule(fixture.table)
            return fixture

        for module in (sys.modules["falg"], sys.modules["falg.catalog"], sys.modules["falg.cli"]):
            self._set(module, "load_builtin", load_builtin)

    def _wrap_class(self, layer: str, cls: type) -> None:
        for attr, raw in list(cls.__dict__.items()):
            name = f"{layer}.{cls.__name__}.{attr}"
            if attr == "__post_init__" and cls.__name__ in CONSTRUCTOR_HOOKS:
                self._set(cls, attr, self._wrap_constructor(name, raw))
            elif attr.startswith("_") and attr not in OPERATORS:
                continue
            elif layer == "ring" and attr in RAW_PRIMITIVES and cls.__name__ != "Scalar":
                continue
            elif attr == "lookup" and cls.__name__ == "StructureTable":
                self._set(cls, attr, self._wrap_lookup(name, raw))
            elif isinstance(raw, classmethod):
                self._set(cls, attr, classmethod(self.wrap(name, raw.__func__)))
            elif isinstance(raw, staticmethod):
                self._set(cls, attr, staticmethod(self.wrap(name, raw.__func__)))
            elif isinstance(raw, types.FunctionType):
                self._set(cls, attr, self.wrap(name, raw))

    def wrap_rule(self, table) -> None:
        """Trace the rule closure of a rule-backed table (catalog.rule spans)."""
        if table.rule is not None and not hasattr(table.rule, "__wrapped__"):
            table.rule = self.wrap("catalog.rule", table.rule)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    # results -------------------------------------------------------------

    def dump(self, path: str) -> None:
        """Write kept spans as JSON lines, after one line of aggregates."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"aggregates": self.aggregates()}) + "\n")
            for span_id, parent, op, name, start, end in self.spans:
                fh.write(
                    json.dumps({"id": span_id, "parent": parent, "op": op, "name": name,
                                "start_ns": start, "end_ns": end}) + "\n"
                )

    def aggregates(self) -> dict:
        return {
            "count": dict(self.count),
            "self_ns": dict(self.self_ns),
            "total_ns": dict(self.total_ns),
            "child_ns": {f"{p} > {c}": ns for (p, c), ns in self.child_ns.items()},
            "coeffs_checked": self.coeffs_checked,
            "outputs": self.outputs,
            "lookups": self.lookups,
            "memo_hits": self.memo_hits,
            "memo_entries": sum(self.memo_sizes.values()),
            "mass_recomputes": self.mass_recomputes,
        }


def _kept_parent(stack: list) -> int | None:
    for frame in reversed(stack):
        if frame[1] is not None:
            return frame[1]
    return None


def merge(parts: list[dict]) -> dict:
    """Sum aggregates of several traced processes (one per cold CLI call)."""
    out: dict = {"count": collections.Counter(), "self_ns": collections.Counter(),
                 "total_ns": collections.Counter(), "child_ns": collections.Counter()}
    for part in parts:
        for key, value in part.items():
            if isinstance(value, dict):
                out[key].update(value)
            else:
                out[key] = out.get(key, 0) + value
    return {k: dict(v) if isinstance(v, collections.Counter) else v for k, v in out.items()}
