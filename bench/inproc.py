"""In-process workloads: dense_exact and acceptance_mix.

A plan is a list of rounds; a round is a list of windows; a window is a list
of operations timed back to back between two readings of the reference
kernel.  Every round of a workload has the same make-up, and its inputs come
from `random.Random(f"{workload}:{seed}:{round}")`, so a round's inputs do
not depend on how many rounds the run makes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

import falg
from falg import FLOAT64, INTEGER, RATIONAL

import oracles
from oracles import banded, frac, randint


@dataclass
class Op:
    cls: str
    run: Callable[[], object]
    # oracle: recomputes the expected result without falg; timed apart
    expect: Optional[Callable[[], object]]
    # returns None when `result` is right, else a description of the fault
    verify: Callable[[object, object], Optional[str]]
    # float64 certificate operations that violate their bound today; only a
    # certificate violation counts as that fault, any other problem is wrong
    known_fault: bool = False
    # fills the rule memos this operation reads; run during set-up
    warm: Optional[Callable[[], object]] = None
    # filled by verify for certified results: error / bound
    ratios: list = field(default_factory=list)


@dataclass
class Plan:
    rounds: list[list[list[Op]]]
    tables: list  # every StructureTable the operations use (for tracing rules)


def raw(v) -> dict:
    return {i: c.value for i, c in v.coords.items()}


def raw_cols(f) -> dict:
    return {j: raw(col) for j, col in f.cols.items()}


def zero_free(v) -> Optional[str]:
    for i, c in v.coords.items():
        if c.value == 0:
            return f"stored zero at {i}"
    return None


def check_equal(result, expected) -> Optional[str]:
    """`result` is a HamelVector or ColumnFiniteMap; `expected` a raw dict."""
    if hasattr(result, "cols"):
        got = raw_cols(result)
        for col in result.cols.values():
            if not col.coords:
                return "stored empty column"
            fault = zero_free(col)
            if fault:
                return fault
    else:
        got = raw(result)
        fault = zero_free(result)
        if fault:
            return fault
    return None if got == expected else "result differs from the oracle"


def check_tensor(result, expected) -> Optional[str]:
    got = {k: c.value for k, c in result.coords.items()}
    if any(c == 0 for c in got.values()):
        return "stored zero in tensor"
    return None if got == expected else "tensor differs from the oracle"


def _dense(rng, indices) -> dict:
    return {i: frac(rng) for i in indices}


def _vec(backend, coords: dict):
    return falg.HamelVector(backend, coords)


def _map(backend, cols: dict):
    return falg.ColumnFiniteMap(backend, {j: falg.HamelVector(backend, c) for j, c in cols.items()})


# dense_exact ----------------------------------------------------------------
#
# One round: 40 operations, one window each.  The multiplicities put the
# median in the middle of the poly n=16 block and the 90th percentile in the
# middle of the poly/group_z n=32 block (two classes of equal cost), away
# from the edges between classes of different cost.

DENSE_ROUND = (
    ("apply.n64", 11), ("mul.poly_n16", 18), ("map_via_tensor.free2", 1), ("tensor_pure.n16", 1),
    ("mul.free2_n16", 2), ("compose.n64", 1), ("apply.n256", 1), ("mul.poly_n32", 1),
    ("mul.group_z_n32", 1), ("compose.n256", 1), ("mul.free2_n32", 1), ("mul.poly_n64", 1),
)


def build_dense(seed: int, rounds: int) -> Plan:
    poly = falg.load_builtin("polynomial", RATIONAL).table
    free2 = falg.load_builtin("free:2", RATIONAL).table
    group_z = falg.load_builtin("group_z", RATIONAL).table
    products = {
        "poly": (poly, oracles.poly_index),
        "free2": (free2, oracles.free2_index),
        "group_z": (group_z, oracles.group_z_index),
    }
    plan = Plan([], [poly, free2, group_z])
    for r in range(rounds):
        rng = random.Random(f"dense_exact:{seed}:{r}")
        windows = []
        for cls, times in DENSE_ROUND:
            for _ in range(times):
                windows.append([_dense_op(cls, rng, products)])
        plan.rounds.append(windows)
    _warm_dense(plan)
    return plan


def _dense_op(cls: str, rng, products) -> Op:
    kind, size = cls.split(".")
    if kind == "mul":
        name, n = size.rsplit("_n", 1)
        table, index = products[name]
        a, b = _dense(rng, range(int(n))), _dense(rng, range(int(n)))
        va, vb = _vec(RATIONAL, a), _vec(RATIONAL, b)
        return Op(
            cls,
            lambda: table.mul(va, vb),
            lambda: oracles.mul_by_index(index, a, b),
            check_equal,
            warm=lambda: [table.lookup(i, j) for i in a for j in b],
        )
    if kind in ("apply", "compose"):
        n = int(size[1:])
        f = banded(rng, n)
        fm = _map(RATIONAL, f)
        if kind == "apply":
            v = _dense(rng, range(n))
            vv = _vec(RATIONAL, v)
            return Op(cls, lambda: fm.apply(vv), lambda: oracles.apply(f, v), check_equal)
        g = banded(rng, n)
        gm = _map(RATIONAL, g)
        return Op(cls, lambda: fm.compose(gm), lambda: oracles.compose(f, g), check_equal)
    if kind == "tensor_pure":
        factors = [_dense(rng, range(16)) for _ in range(3)]
        vs = [_vec(RATIONAL, x) for x in factors]
        return Op(cls, lambda: falg.tensor_pure(vs), lambda: oracles.pure_tensor(factors), check_tensor)
    # map_via_tensor over free:2: t on words of length <= 1, f banded on 8 columns
    table, index = products["free2"]
    t = {(i, j): frac(rng) for i in range(4) for j in range(4)}
    f = {j: {(j + d) % 15: frac(rng) for d in range(4)} for j in range(8)}
    x = _dense(rng, range(8))
    tt = falg.TensorElement(RATIONAL, 2, t)
    fm, xv = _map(RATIONAL, f), _vec(RATIONAL, x)
    spot_seed = rng.randrange(1 << 30)

    def run():
        return falg.map_via_tensor(table, tt, fm, xv, samples=64, seed=spot_seed)

    return Op(cls, run, lambda: oracles.sandwich(index, t, f, x), check_equal, warm=run)


def _warm_dense(plan: Plan) -> None:
    """Fill the rule memos every product will read, so timing sees warm tables."""
    for windows in plan.rounds:
        for window in windows:
            for op in window:
                if op.warm is not None:
                    op.warm()


# acceptance_mix -------------------------------------------------------------
#
# The acceptance suite's traffic at its own sizes: supports <= 4, indices
# <= 12 (polynomial) or 3 (quaternion), criterion-8 trees over depth <= 4.
# Every falg object is built inside the operation from raw data, as the
# suite's trials do.

BUILTINS = ("polynomial", "quaternion", "complex", "group_z", "free:1", "free:2", "free:3")
F64_TWINS = ("f64.add", "f64.tail_mul", "f64.apply", "f64.compose", "f64.scale", "f64.tpoly_apply")


def build_acceptance(seed: int, rounds: int) -> Plan:
    tables = {(name, "rat"): falg.load_builtin(name, RATIONAL).table for name in BUILTINS}
    for name in ("polynomial", "quaternion"):
        tables[(name, "int")] = falg.load_builtin(name, INTEGER).table
    f64_poly = falg.load_builtin("polynomial", FLOAT64).table
    plan = Plan([], [*tables.values(), f64_poly])
    for r in range(rounds):
        rng = random.Random(f"acceptance_mix:{seed}:{r}")
        windows = []
        for table_name, cap, index in (("polynomial", 12, oracles.poly_index), ("quaternion", 3, None)):
            window = []
            for backend in (RATIONAL, INTEGER):
                table = tables[(table_name, backend.name)]
                window += [_law_op(rng, table, backend, cap) for _ in range(8)]
                window += [_mul_op(rng, table, backend, cap, index) for _ in range(17)]
            windows.append(window)
        poly = tables[("polynomial", "rat")]
        windows.append(
            [_apply_op(rng) for _ in range(10)]
            + [_pure_op(rng) for _ in range(10)]
            + [_tree_op(rng, poly) for _ in range(64)]
            + [_nest_op(rng) for _ in range(16)]
            + [_tail_mul_op(rng, poly) for _ in range(16)]
            + [_tail_compose_op(rng) for _ in range(16)]
            + _f64_ops(f64_poly)
        )
        windows += [[_check_laws_op(rng, tables[(name, "rat")])] for name in BUILTINS]
        plan.rounds.append(windows)
    return plan


def _scalar(rng, backend):
    n = randint(rng, -5, 5)
    return Fraction(n, randint(rng, 1, 4)) if backend is RATIONAL else n


def _small(rng, backend, cap: int, support: int = 4) -> dict:
    return {randint(rng, 0, cap): _scalar(rng, backend) for _ in range(randint(rng, 0, support))}


def _law_op(rng, table, backend, cap) -> Op:
    """Criterion-1 trial: module axioms, bilinearity and distributivity."""
    a, b, d = (_small(rng, backend, cap) for _ in range(3))
    c = _scalar(rng, backend)

    def run():
        u, v, w = _vec(backend, a), _vec(backend, b), _vec(backend, d)
        s = backend.scalar(c)
        return [
            ((u + v) + w, u + (v + w)),
            (table.mul(u.scale(s) + v, w), table.mul(u, w).scale(s) + table.mul(v, w)),
            (table.mul(w, u.scale(s) + v), table.mul(w, u).scale(s) + table.mul(w, v)),
            (table.mul(u + v, w), table.mul(u, w) + table.mul(v, w)),
        ]

    def verify(result, _):
        for lhs, rhs in result:
            fault = zero_free(lhs) or zero_free(rhs)
            if fault:
                return fault
            if raw(lhs) != raw(rhs):
                return "law trial: the two sides differ"
        return None

    return Op(f"law.{table.name}_{backend.name}", run, None, verify)


def _mul_op(rng, table, backend, cap, index) -> Op:
    a, b = _small(rng, backend, cap), _small(rng, backend, cap)

    def expect():
        if index is None:
            return oracles.mul_quaternion(a, b)
        return oracles.mul_by_index(index, a, b)

    return Op(
        f"oracle.mul_{table.name}_{backend.name}",
        lambda: table.mul(_vec(backend, a), _vec(backend, b)),
        expect,
        check_equal,
    )


def _apply_op(rng) -> Op:
    cols, v = _rand_cols(rng, 16), _small(rng, RATIONAL, 16)
    return Op(
        "oracle.apply_rat",
        lambda: _map(RATIONAL, cols).apply(_vec(RATIONAL, v)),
        lambda: oracles.apply(cols, v),
        check_equal,
    )


def _pure_op(rng) -> Op:
    factors = [_small(rng, RATIONAL, 6) for _ in range(randint(rng, 2, 3))]
    return Op(
        "oracle.pure_rat",
        lambda: falg.tensor_pure([_vec(RATIONAL, f) for f in factors]),
        lambda: oracles.pure_tensor([{i: c for i, c in f.items() if c} for f in factors]),
        check_tensor,
    )


def _check_laws_op(rng, table) -> Op:
    law_seed = rng.randrange(1 << 30)

    def verify(report, _):
        if not report.ok:
            return f"law check failed on {table.name}: {report.to_data()}"
        if any(r.trials != 10 for r in report.results):
            return "law check ran short"
        return None

    return Op(f"check_laws.{table.name}", lambda: table.check_laws(trials=10, seed=law_seed), None, verify)


# certified operations (rational) ---------------------------------------------


def _long_vector(rng) -> dict:
    out = {}
    for _ in range(randint(rng, 6, 12)):
        out[randint(rng, 0, 24)] = Fraction(randint(rng, -9, 9), randint(rng, 1, 5))
    return {i: c for i, c in out.items() if c}


def _split(rng, coords: dict, p: float):
    kept, dropped = {}, Fraction(0)
    for i, c in coords.items():
        if rng.random() < p:
            kept[i] = c
        else:
            dropped += abs(c)
    return kept, dropped


def _vec_leaf(rng):
    full = _long_vector(rng)
    return ("leaf", full, *_split(rng, full, 0.6))


def _map_leaf(rng):
    cols = {}
    for _ in range(randint(rng, 3, 6)):
        col = {}
        for _ in range(randint(rng, 1, 4)):
            col[randint(rng, 0, 24)] = Fraction(randint(rng, -9, 9), randint(rng, 1, 5))
        cols[randint(rng, 0, 24)] = {i: c for i, c in col.items() if c}
    cols = {j: c for j, c in cols.items() if c}
    kept, dropped = {}, Fraction(0)
    for j, col in cols.items():
        for i, c in col.items():
            if rng.random() < 0.7:
                kept.setdefault(j, {})[i] = c
            else:
                dropped += abs(c)
    return ("mleaf", cols, kept, dropped)


def _map_tree(rng, depth):
    if depth <= 0 or rng.random() < 0.4:
        return _map_leaf(rng)
    return ("compose", _map_tree(rng, depth - 1), _map_tree(rng, depth - 1))


def _vec_tree(rng, depth):
    kind = "leaf" if depth <= 0 else rng.choice(("leaf", "add", "scale", "mul", "apply"))
    if kind == "leaf":
        return _vec_leaf(rng)
    if kind == "scale":
        return ("scale", Fraction(randint(rng, -4, 4), randint(rng, 1, 3)), _vec_tree(rng, depth - 1))
    if kind == "apply":
        return ("apply", _map_tree(rng, depth - 1), _vec_tree(rng, depth - 1))
    return (kind, _vec_tree(rng, depth - 1), _vec_tree(rng, depth - 1))


def _certified(node, poly):
    kind = node[0]
    if kind == "leaf":
        return falg.TailVector(_vec(RATIONAL, node[2]), node[3])
    if kind == "mleaf":
        return falg.TailMap(_map(RATIONAL, node[2]), node[3])
    if kind == "add":
        return _certified(node[1], poly) + _certified(node[2], poly)
    if kind == "scale":
        return _certified(node[2], poly).scale(RATIONAL.scalar(node[1]))
    if kind == "mul":
        return falg.tail_mul(poly, _certified(node[1], poly), _certified(node[2], poly))
    if kind == "apply":
        return _certified(node[1], poly).apply(_certified(node[2], poly))
    return _certified(node[1], poly).compose(_certified(node[2], poly))


def sound(op: Op, prefix, tail, truth: dict) -> Optional[str]:
    """l1(truth - prefix) <= tail, with the ratio kept for certificate tightness."""
    fault = zero_free(prefix)
    if fault:
        return fault
    err = oracles.l1_distance(truth, oracles.exact(raw(prefix)))
    bound = Fraction(tail)
    if bound:
        op.ratios.append(err / bound)
    if err > bound:
        return f"certificate violated: error {float(err):.3g} > tail {float(bound):.3g}"
    return None


def _products(node) -> int:
    if node[0] in ("leaf", "mleaf"):
        return 0
    return (node[0] == "mul") + sum(_products(c) for c in node[1:] if isinstance(c, tuple))


def _tree_op(rng, poly) -> Op:
    # Criterion-8 trees with at most one polynomial product: nested products
    # make the cost so heavy-tailed (1% of trees, 46% of the time) that a
    # run's total would hinge on a few seed-dependent trees.
    tree = _vec_tree(rng, randint(rng, 1, 4))
    while _products(tree) > 1:
        tree = _vec_tree(rng, randint(rng, 1, 4))
    op = Op("cert.tree", lambda: _certified(tree, poly), lambda: oracles.tree_truth(tree), None)
    op.verify = lambda result, truth: sound(op, result.prefix, result.tail, truth)
    return op


def _tail_mul_op(rng, poly) -> Op:
    """Criterion-9 algebra norm with K = 1, plus the prefix against the oracle."""
    a, b = _small(rng, RATIONAL, 8), _small(rng, RATIONAL, 8)
    ta, tb = Fraction(randint(rng, 0, 6), 8), Fraction(randint(rng, 0, 6), 8)

    def verify(result, expected):
        fault = check_equal(result.prefix, expected)
        if fault:
            return fault
        hi = oracles.l1(raw(result.prefix)) + result.tail
        if hi > (oracles.l1(a) + ta) * (oracles.l1(b) + tb):
            return "tail_mul breaks the algebra-norm inequality"
        return None

    return Op(
        "cert.tail_mul",
        lambda: falg.tail_mul(poly, falg.TailVector(_vec(RATIONAL, a), ta), falg.TailVector(_vec(RATIONAL, b), tb)),
        lambda: oracles.mul_by_index(oracles.poly_index, {i: c for i, c in a.items() if c}, {i: c for i, c in b.items() if c}),
        verify,
    )


def _rand_cols(rng, cap: int) -> dict:
    cols = {}
    for _ in range(randint(rng, 1, 3)):
        col = {randint(rng, 0, cap): _scalar(rng, RATIONAL) for _ in range(randint(rng, 1, 3))}
        col = {i: Fraction(c) for i, c in col.items() if c}
        if col:
            cols[randint(rng, 0, cap)] = col
    return cols


def _tail_compose_op(rng) -> Op:
    """Composition of tail maps: exact prefix, submultiplicative total mass."""
    f, g = _rand_cols(rng, 16), _rand_cols(rng, 16)
    tf, tg = Fraction(randint(rng, 0, 4), 8), Fraction(randint(rng, 0, 4), 8)

    def verify(result, expected):
        fault = check_equal(result.finite, expected)
        if fault:
            return fault
        hi = oracles.l1_total(raw_cols(result.finite)) + result.tail
        if hi > (oracles.l1_total(f) + tf) * (oracles.l1_total(g) + tg):
            return "composition breaks sigma-submultiplicativity"
        return None

    return Op(
        "cert.compose",
        lambda: falg.TailMap(_map(RATIONAL, f), tf).compose(falg.TailMap(_map(RATIONAL, g), tg)),
        lambda: oracles.compose(f, g),
        verify,
    )


def _nest_op(rng) -> Op:
    """Criterion-9 bilinear nest: exact prefix and the bound-product inequality."""
    slots = {randint(rng, 0, 6): (_rand_cols(rng, 6), Fraction(randint(rng, 0, 4), 8)) for _ in range(randint(rng, 1, 3))}
    top = Fraction(randint(rng, 0, 4), 8)
    xs = [(_small(rng, RATIONAL, 6), Fraction(randint(rng, 0, 4), 8)) for _ in range(2)]
    xs = [({i: Fraction(c) for i, c in x.items() if c}, t) for x, t in xs]

    def run():
        nest = falg.TailPolyMap(
            RATIONAL, 2, {j: falg.TailMap(_map(RATIONAL, c), t) for j, (c, t) in slots.items()}, top
        )
        args = [falg.TailVector(_vec(RATIONAL, x), t) for x, t in xs]
        return falg.tpoly_apply(nest, args), falg.tpoly_bound(nest).hi

    def verify(result, expected):
        value, nest_hi = result
        fault = check_equal(value.prefix, expected)
        if fault:
            return fault
        bound = nest_hi
        for x, t in xs:
            bound *= oracles.l1(x) + t
        if oracles.l1(raw(value.prefix)) + value.tail > bound:
            return "bilinear nest breaks the bound-product inequality"
        return None

    return Op(
        "cert.nest",
        run,
        lambda: oracles.bilinear({j: c for j, (c, _) in slots.items()}, xs[0][0], xs[1][0]),
        verify,
    )


# float64 twins ----------------------------------------------------------------
#
# The certified operations again on the float64 backend, exact inputs (tail 0)
# that are the same in every run.  Each is checked against the Fraction truth
# of its float inputs.  Today schauder rounds its bound terms upward but never
# adds the rounding of the prefix arithmetic to the tail, so these violate
# their certificate and count as failed operations.

F64_A = {0: 0.1, 1: 0.7}
F64_B = {0: 0.3, 1: 0.9}
F64_F = {0: {0: 0.1, 1: 0.7}, 1: {1: 0.3}}
F64_G = {0: {0: 0.3, 1: 0.9}, 1: {0: 0.7}}


def _f64_ops(poly) -> list[Op]:
    tv = lambda c: falg.TailVector.make(FLOAT64, c)  # noqa: E731
    tm = lambda c: falg.TailMap.lift(_map(FLOAT64, c))  # noqa: E731
    exact = oracles.exact
    ex_cols = lambda cols: {j: exact(c) for j, c in cols.items()}  # noqa: E731
    nest = {0: F64_F, 1: F64_G}
    cases = {
        "f64.add": (lambda: tv({0: 1.0}) + tv({0: 1e-17}), lambda: {0: Fraction(1.0) + Fraction(1e-17)}),
        "f64.tail_mul": (
            lambda: falg.tail_mul(poly, tv(F64_A), tv(F64_B)),
            lambda: oracles.mul_by_index(oracles.poly_index, exact(F64_A), exact(F64_B)),
        ),
        "f64.apply": (lambda: tm(F64_F).apply(tv(F64_B)), lambda: oracles.apply(ex_cols(F64_F), exact(F64_B))),
        "f64.compose": (
            lambda: tm(F64_F).compose(tm(F64_G)),
            lambda: oracles.compose(ex_cols(F64_F), ex_cols(F64_G)),
        ),
        "f64.scale": (
            lambda: tv(F64_A).scale(FLOAT64.scalar(0.3)),
            lambda: oracles.scale(Fraction(0.3), exact(F64_A)),
        ),
        "f64.tpoly_apply": (
            lambda: falg.tpoly_apply(
                falg.TailPolyMap(FLOAT64, 2, {j: tm(c) for j, c in nest.items()}, 0.0), [tv(F64_A), tv(F64_B)]
            ),
            lambda: oracles.bilinear({j: ex_cols(c) for j, c in nest.items()}, exact(F64_A), exact(F64_B)),
        ),
    }
    ops = []
    for cls in F64_TWINS:
        run, expect = cases[cls]
        op = Op(cls, run, expect, None, known_fault=True)
        op.verify = _f64_verify
        ops.append(op)
    return ops


F64_VIOLATION = "float64 certificate violated"


def _f64_verify(result, truth) -> Optional[str]:
    if hasattr(result, "finite"):
        got = {}
        for j, col in result.finite.cols.items():
            for i, c in col.coords.items():
                got[(i, j)] = Fraction(c.value)
        truth = {(i, j): c for j, col in truth.items() for i, c in col.items()}
    else:
        got = oracles.exact(raw(result.prefix))
    err = oracles.l1_distance(truth, got)
    if err > Fraction(result.tail):
        return f"{F64_VIOLATION}: error {float(err):.3g} > tail {result.tail!r}"
    return None


WORKLOAD_PLANS = {"dense_exact": build_dense, "acceptance_mix": build_acceptance}
