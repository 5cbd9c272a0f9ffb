"""Shared generators and checkers for the test suite.

Everything takes an explicit random.Random so suites stay seeded and
reproducible.  The tail-soundness harness lives here because both the unit
tests and the acceptance suite drive it, at different trial counts.  The
expression printer is the parser's round-trip oracle; no command prints
expressions, so it is not part of falg.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from falg import (
    FLOAT64,
    RATIONAL,
    ColumnFiniteMap,
    DualFunctional,
    HamelVector,
    Scalar,
    TailMap,
    TailVector,
    TensorElement,
    load_builtin,
    tail_mul,
)
from falg.cli import Assoc, Basis, Chain, Comm, Label, Lit, Name, Neg


def rand_scalar(rng: random.Random, backend, span: int = 5) -> Scalar:
    n = rng.randint(-span, span)
    if backend is RATIONAL:
        return backend.scalar(Fraction(n, rng.randint(1, 4)))
    return backend.scalar(n)


def rand_nonzero_scalar(rng: random.Random, backend, span: int = 5) -> Scalar:
    while True:
        s = rand_scalar(rng, backend, span)
        if not s.is_zero():
            return s


def rand_vector(rng: random.Random, backend, max_index: int = 16, max_support: int = 4) -> HamelVector:
    coords = {}
    for _ in range(rng.randint(0, max_support)):
        coords[rng.randint(0, max_index)] = rand_scalar(rng, backend)
    return HamelVector(backend, coords)


def rand_map(
    rng: random.Random, backend, max_index: int = 16, max_cols: int = 3, max_rows: int = 3
) -> ColumnFiniteMap:
    cols = {}
    for _ in range(rng.randint(0, max_cols)):
        col = {}
        for _ in range(rng.randint(1, max_rows)):
            col[rng.randint(0, max_index)] = rand_scalar(rng, backend)
        cols[rng.randint(0, max_index)] = HamelVector(backend, col)
    return ColumnFiniteMap(backend, cols)


def assert_canonical(obj) -> None:
    """Structural invariant: zero-free finite storage, consistent backends."""
    if isinstance(obj, (HamelVector, DualFunctional)):
        for i, c in obj.coords.items():
            assert isinstance(i, int) and i >= 0, f"bad index {i!r}"
            assert isinstance(c, Scalar) and c.backend is obj.backend
            assert not c.is_zero(), f"stored zero at index {i}"
    elif isinstance(obj, ColumnFiniteMap):
        for j, col in obj.cols.items():
            assert isinstance(j, int) and j >= 0
            assert not col.is_zero(), f"stored empty column {j}"
            assert col.backend is obj.backend
            assert_canonical(col)
    elif isinstance(obj, TensorElement):
        for key, c in obj.coords.items():
            assert isinstance(key, tuple) and len(key) == obj.arity
            assert all(isinstance(i, int) and i >= 0 for i in key)
            assert not c.is_zero(), f"stored zero at {key}"
    elif isinstance(obj, TailVector):
        assert obj.tail >= 0
        assert_canonical(obj.prefix)
    elif isinstance(obj, TailMap):
        assert obj.tail >= 0
        assert_canonical(obj.finite)
    elif isinstance(obj, Scalar):
        pass
    else:
        raise TypeError(f"assert_canonical cannot check {type(obj).__name__}")


def l1_distance(a: HamelVector, b: HamelVector):
    """Exact sum of |a_i - b_i| over the union of supports."""
    total = a.backend.norm_zero
    for i in set(a.coords) | set(b.coords):
        total = a.backend.norm_add(total, (a.coefficient(i) - b.coefficient(i)).norm())
    return total


# tail-soundness harness ----------------------------------------------------
#
# Random expression trees over add/scale/mul/apply/compose, evaluated twice:
# once on exact rationals (the ground truth) and once, on the backend under
# test, on truncated inputs with certified tails.  Every input coefficient
# is drawn as a small fraction.  On rat the input holds it as it is; on f64
# the input holds the nearest double, and the ground truth holds that
# double's exact value, so the truth is the exact result of the inputs the
# certified side saw.  A truncated input's tail is its exact dropped mass,
# rounded up to a double on f64.  Soundness means the exact l1 distance
# between the ground truth and the result's prefix never exceeds its tail.

_TABLES: dict = {}


def _table(name: str, backend):
    """The builtin table name on backend, loaded once, so its memo is shared by every tree."""
    if (name, backend) not in _TABLES:
        _TABLES[name, backend] = load_builtin(name, backend).table
    return _TABLES[name, backend]


def _coefficient(backend, q: Fraction):
    """The drawn fraction q on backend: q itself, or the nearest double on f64."""
    return float(q) if backend is FLOAT64 else q


def _bound(backend, q: Fraction):
    """The exact bound q on backend: q itself, or the least double >= q on f64."""
    if backend is not FLOAT64:
        return q
    x = float(q)
    return x if Fraction(x) >= q else math.nextafter(x, math.inf)


def _exact(value):
    """The vector or map on rat that holds the exact value of each coefficient of value."""
    if value.backend is RATIONAL:
        return value
    if isinstance(value, ColumnFiniteMap):
        return ColumnFiniteMap(RATIONAL, {j: _exact(col) for j, col in value.cols.items()})
    return HamelVector(RATIONAL, {i: Fraction(c.value) for i, c in value.coords.items()})


def _long_vector(rng: random.Random, backend) -> HamelVector:
    coords = {}
    for _ in range(rng.randint(6, 12)):
        coords[rng.randint(0, 24)] = _coefficient(backend, Fraction(rng.randint(-9, 9), rng.randint(1, 5)))
    return HamelVector(backend, coords)


def _truncate_vector(rng: random.Random, v: HamelVector) -> TailVector:
    kept, dropped = {}, Fraction(0)
    for i, c in v.coords.items():
        if rng.random() < 0.6:
            kept[i] = c
        else:
            dropped += abs(Fraction(c.value))
    return TailVector(HamelVector(v.backend, kept), _bound(v.backend, dropped))


def _long_map(rng: random.Random, backend) -> ColumnFiniteMap:
    cols = {}
    for _ in range(rng.randint(3, 6)):
        col = {}
        for _ in range(rng.randint(1, 4)):
            col[rng.randint(0, 24)] = _coefficient(backend, Fraction(rng.randint(-9, 9), rng.randint(1, 5)))
        cols[rng.randint(0, 24)] = HamelVector(backend, col)
    return ColumnFiniteMap(backend, cols)


def _truncate_map(rng: random.Random, f: ColumnFiniteMap) -> TailMap:
    cols: dict[int, dict] = {}
    dropped = Fraction(0)
    for i, j, c in f.entries():
        if rng.random() < 0.7:
            cols.setdefault(j, {})[i] = c
        else:
            dropped += abs(Fraction(c.value))
    finite = ColumnFiniteMap(f.backend, {j: HamelVector(f.backend, col) for j, col in cols.items()})
    return TailMap(finite, _bound(f.backend, dropped))


def _gen_map_node(rng: random.Random, depth: int, backend):
    if depth <= 0 or rng.random() < 0.4:
        f = _long_map(rng, backend)
        return _exact(f), _truncate_map(rng, f)
    f_exact, f_tail = _gen_map_node(rng, depth - 1, backend)
    g_exact, g_tail = _gen_map_node(rng, depth - 1, backend)
    return f_exact.compose(g_exact), f_tail.compose(g_tail)


def _leaf(rng: random.Random, backend):
    v = _long_vector(rng, backend)
    return _exact(v), _truncate_vector(rng, v)


def gen_vector_node(rng: random.Random, depth: int, backend=RATIONAL, tables=None):
    """One random tree; returns (exact ground truth on rat, certified result on backend).

    Without tables the nodes are add, scale, mul in ``polynomial`` and apply,
    drawn as criterion 8 draws them.  tables, a tuple of builtin names, adds
    sub and truncate nodes and draws each product's table from it; the
    operands of a product then hold no product (they are drawn with tables
    empty), since products in ``free:2`` share no basis elements and their
    supports multiply.
    """
    if depth <= 0:
        return _leaf(rng, backend)
    if tables is None:
        op = rng.choice(("leaf", "add", "scale", "mul", "apply"))
    else:
        op = rng.choice(("leaf", "add", "sub", "scale", "apply", "truncate") + (("mul",) if tables else ()))
    if op == "leaf":
        return _leaf(rng, backend)
    if op in ("add", "sub"):
        ue, ut = gen_vector_node(rng, depth - 1, backend, tables)
        ve, vt = gen_vector_node(rng, depth - 1, backend, tables)
        return (ue + ve, ut + vt) if op == "add" else (ue - ve, ut - vt)
    if op == "scale":
        d = _coefficient(backend, Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
        ve, vt = gen_vector_node(rng, depth - 1, backend, tables)
        return ve.scale(RATIONAL.scalar(Fraction(d))), vt.scale(backend.scalar(d))
    if op == "truncate":
        ve, vt = gen_vector_node(rng, depth - 1, backend, tables)
        return ve, vt.truncate([i for i in vt.prefix.support() if rng.random() < 0.6])
    if op == "mul":
        name, inner = ("polynomial", None) if tables is None else (rng.choice(tables), ())
        ue, ut = gen_vector_node(rng, depth - 1, backend, inner)
        ve, vt = gen_vector_node(rng, depth - 1, backend, inner)
        return _table(name, RATIONAL).mul(ue, ve), tail_mul(_table(name, backend), ut, vt)
    fe, ft = _gen_map_node(rng, depth - 1, backend)
    ve, vt = gen_vector_node(rng, depth - 1, backend, tables)
    return fe.apply(ve), ft.apply(vt)


def soundness_tree(rng: random.Random, max_depth: int = 4, backend=RATIONAL, tables=None) -> tuple:
    """One tree of 1 to max_depth levels; returns (exact ground truth, certified result)."""
    return gen_vector_node(rng, rng.randint(1, max_depth), backend, tables)


def soundness_trial(rng: random.Random, max_depth: int = 4, backend=RATIONAL) -> tuple:
    """Run one tree; returns the exact (error, bound), with error <= bound demanded."""
    exact, certified = soundness_tree(rng, max_depth, backend)
    return l1_distance(exact, _exact(certified.prefix)), Fraction(certified.tail)


# expression printer ------------------------------------------------------


def print_expr(node) -> str:
    """Render with the fewest parentheses that re-parse to the same tree."""
    return _print(node, 1)


def _print(node, level: int) -> str:
    """node as an operand at level: 1 anywhere, 2 in a + or - chain, 3 in a * chain or after a unary minus."""
    if isinstance(node, Chain):
        inner = 3 if node.ops[0] == "*" else 2  # a chain in a chain of its own kind would read as part of it
        text = _print(node.operands[0], inner)
        for op, x in zip(node.ops, node.operands[1:]):
            text += f" {op} {_print(x, inner)}"
        return f"({text})" if level >= inner else text
    if isinstance(node, Lit):
        return node.text
    if isinstance(node, Label):
        return f"`{node.text}`"
    if isinstance(node, Basis):
        return f"e{node.index}"
    if isinstance(node, Name):
        return node.ident
    if isinstance(node, Comm):
        return f"[{_print(node.a, 1)}, {_print(node.b, 1)}]"
    if isinstance(node, Assoc):
        return f"<{_print(node.a, 1)}, {_print(node.b, 1)}, {_print(node.c, 1)}>"
    if isinstance(node, Neg):
        return f"-{_print(node.a, 3)}"
    raise TypeError(f"not an expression node: {type(node).__name__}")
