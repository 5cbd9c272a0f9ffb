"""The behaviour every falg value class keeps: equality, immutability, hash, repr.

Each case builds one instance from fixed arguments; the expected repr is the
exact text printed for it, so a change of field names, field order or
rendering shows here.  Every operation that takes falg values rejects one of
another class with TypeError and one over another backend with
BackendMismatchError; ``+`` asks for its own class, so a subclass's ``+``
refuses its base class, except a map's, which joins either way round.  The
import guard checks that loading the CLI pulls in no code generator.  The
constructors that read raw coordinates keep an int subclass key as it is,
drop every zero, and reject a bool or negative key and another backend's
Scalar with the exception and message they always gave; a str where a
Mapping or pairs are expected is a TypeError naming the argument.  A coordinate table's ``coords`` reads as the dict of Scalars it
stands for (repr, ``==`` and the values read) and cannot be written.
"""

import math
import operator
import os
import subprocess
import sys
import types
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

import falg
from falg import (
    FLOAT64,
    INTEGER,
    RATIONAL,
    AlgebraFixture,
    BackendMismatchError,
    ColumnFiniteMap,
    DualFunctional,
    HamelVector,
    NormInterval,
    PolyMap,
    Scalar,
    StructureTable,
    TailMap,
    TailPolyMap,
    TailVector,
    TensorElement,
    map_via_tensor,
    poly_apply,
    tail_mul,
    tensor_pure,
    tpoly_apply,
)
from falg.algebra import AssociatorDefect, CenterReport, CommutatorDefect, LawReport, LawResult
from falg.cli import Add, Assoc, Basis, Comm, Label, Lit, Mul, Name, Neg, Sub, _Token

SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(falg.__file__)))

R = RATIONAL
V = HamelVector(R, {1: 2})
W = HamelVector(R, {0: 1})
F = ColumnFiniteMap(R, {0: {1: 1}})
G = ColumnFiniteMap(R, {0: {0: 3}})
TABLE = StructureTable(R, "t", {(0, 0): {0: 1}}, pair_bound=1, claims_associative=True)
OTHER_TABLE = StructureTable(R, "u", {(0, 0): {0: 1}}, pair_bound=1, claims_associative=True)
RESULT = LawResult("associative", True, 3, None)

V_REPR = "HamelVector(backend=rat, coords={1: Scalar(backend=rat, value=Fraction(2, 1))})"
W_REPR = "HamelVector(backend=rat, coords={0: Scalar(backend=rat, value=Fraction(1, 1))})"
F_REPR = (
    "ColumnFiniteMap(backend=rat, cols={0: "
    "HamelVector(backend=rat, coords={1: Scalar(backend=rat, value=Fraction(1, 1))})})"
)
TABLE_REPR = (
    "StructureTable(backend=rat, name='t', entries={(0, 0): " + W_REPR + "}, rule=None, "
    "pair_bound=1, claims_associative=True, claims_commutative=False)"
)
RESULT_REPR = "LawResult(law='associative', ok=True, trials=3, counterexample=None)"

# class, arguments, the same arguments with one field changed, a field name,
# whether instances hash, and the repr of cls(*args)
CASES = [
    (Scalar, (R, Fraction(1, 2)), (R, Fraction(1, 3)), "value", True,
     "Scalar(backend=rat, value=Fraction(1, 2))"),
    (HamelVector, (R, {1: 2}), (R, {1: 3}), "coords", False, V_REPR),
    (DualFunctional, (R, {1: 2}), (R, {2: 2}), "coords", False,
     "DualFunctional(backend=rat, coords={1: Scalar(backend=rat, value=Fraction(2, 1))})"),
    (ColumnFiniteMap, (R, {0: {1: 1}}), (R, {1: {1: 1}}), "cols", False, F_REPR),
    (PolyMap, (R, 2, {0: F}), (R, 2, {1: F}), "slots", False,
     f"PolyMap(backend=rat, arity=2, slots={{0: {F_REPR}}})"),
    (AssociatorDefect, ("left", V, W, V), ("right", V, W, V), "slot", False,
     f"AssociatorDefect(slot='left', x={V_REPR}, y={W_REPR}, value={V_REPR})"),
    (CommutatorDefect, (V, W), (W, W), "x", False, f"CommutatorDefect(x={V_REPR}, value={W_REPR})"),
    (CenterReport, ((), ()), ((CommutatorDefect(V, W),), ()), "commutator_defects", True,
     "CenterReport(commutator_defects=(), associator_defects=())"),
    (LawResult, ("associative", True, 3, None), ("associative", False, 3, "u=1"), "ok", True, RESULT_REPR),
    (LawReport, ("t", 0, 3, (RESULT,)), ("t", 1, 3, (RESULT,)), "seed", True,
     f"LawReport(table='t', seed=0, trials=3, results=({RESULT_REPR},))"),
    (TensorElement, (R, 2, {(0, 1): 1}), (R, 2, {(1, 0): 1}), "coords", False,
     "TensorElement(backend=rat, arity=2, coords={(0, 1): Scalar(backend=rat, value=Fraction(1, 1))})"),
    (NormInterval, (R, Fraction(1, 2), 2), (R, 0, 2), "lo", True,
     "NormInterval(backend=rat, lo=Fraction(1, 2), hi=2)"),
    (TailVector, (V, Fraction(1, 4)), (V, 0), "tail", False,
     f"TailVector(prefix={V_REPR}, tail=Fraction(1, 4))"),
    (TailMap, (F, 1), (G, 1), "finite", False, f"TailMap(finite={F_REPR}, tail=1)"),
    (TailPolyMap, (R, 2, {0: TailMap(F, 1)}, Fraction(1, 8)), (R, 2, {0: TailMap(F, 1)}, 0), "tail", False,
     f"TailPolyMap(backend=rat, arity=2, slots={{0: TailMap(finite={F_REPR}, tail=1)}}, tail=Fraction(1, 8))"),
    (AlgebraFixture, (TABLE, int, str), (OTHER_TABLE, int, str), "table", False,
     f"AlgebraFixture(table={TABLE_REPR}, encoder=<class 'int'>, decoder=<class 'str'>)"),
    (_Token, ("num", "12", 1, 3), ("num", "12", 1, 4), "col", True,
     "_Token(kind='num', text='12', line=1, col=3)"),
    (Lit, ("1/2",), ("1/3",), "text", True, "Lit(text='1/2')"),
    (Label, ("x",), ("y",), "text", True, "Label(text='x')"),
    (Basis, (3,), (4,), "index", True, "Basis(index=3)"),
    (Name, ("v",), ("w",), "ident", True, "Name(ident='v')"),
    (Neg, (Basis(1),), (Basis(2),), "a", True, "Neg(a=Basis(index=1))"),
    (Add, (Basis(1), Name("v")), (Basis(1), Name("w")), "b", True, "Add(a=Basis(index=1), b=Name(ident='v'))"),
    (Sub, (Basis(1), Name("v")), (Basis(2), Name("v")), "a", True, "Sub(a=Basis(index=1), b=Name(ident='v'))"),
    (Mul, (Basis(1), Name("v")), (Name("v"), Basis(1)), "a", True, "Mul(a=Basis(index=1), b=Name(ident='v'))"),
    (Comm, (Basis(1), Name("v")), (Basis(1), Basis(1)), "b", True,
     "Comm(a=Basis(index=1), b=Name(ident='v'))"),
    (Assoc, (Basis(1), Basis(2), Basis(3)), (Basis(1), Basis(2), Basis(4)), "c", True,
     "Assoc(a=Basis(index=1), b=Basis(index=2), c=Basis(index=3))"),
]


@pytest.mark.parametrize("cls, args, changed, field, hashable, text", CASES, ids=[c[0].__name__ for c in CASES])
def test_value_class_behaviour(cls, args, changed, field, hashable, text):
    x = cls(*args)
    y = cls(*args)
    assert x == y and not (x != y)
    assert x != cls(*changed)
    twin = type(f"Other{cls.__name__}", (cls,), {})(*args)  # equal fields, another class
    assert x != twin and twin != x and not (x == twin)
    with pytest.raises(AttributeError):
        setattr(x, field, getattr(y, field))
    with pytest.raises(AttributeError):
        delattr(x, field)
    assert x == y
    if hashable:
        assert hash(x) == hash(y)
    else:
        with pytest.raises(TypeError):
            hash(x)
    assert repr(x) == text


def test_vector_and_functional_with_equal_fields_differ():
    assert HamelVector(R, {1: 2}) != DualFunctional(R, {1: 2})


def test_structure_table_is_a_mutable_record():
    table = StructureTable(R, "t", {(0, 0): {0: 1}}, pair_bound=1, claims_associative=True)
    assert table == TABLE and repr(table) == TABLE_REPR
    assert table != OTHER_TABLE
    with pytest.raises(TypeError):
        hash(table)
    table.name = "u"
    assert table == OTHER_TABLE
    table.rule = abs
    assert table != OTHER_TABLE
    assert StructureTable(backend=R) == StructureTable(R, "anonymous", {}, None, None, False, False)


def test_cli_import_loads_no_code_generator():
    # after the import and one usage error, the first list holds the costly imports a
    # cold call avoids: generated code, and argparse with the gettext and locale it
    # loads; the second every top-level module loaded that is neither falg nor the
    # standard library (__main__ is the -c script): the runtime needs no other
    code = (
        "import contextlib, io, sys, falg.cli\n"
        "with contextlib.redirect_stderr(io.StringIO()): falg.cli.main(['eval'])\n"
        "print(sorted({'dataclasses', 'inspect', 'argparse', 'gettext', 'locale'} & set(sys.modules)))\n"
        "print(sorted({m.partition('.')[0] for m in sys.modules}"
        " - set(sys.stdlib_module_names) - {'falg', '__main__'}))"
    )
    env = dict(os.environ, PYTHONPATH=SRC_DIR)
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, env=env, timeout=30)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n[]\n"


PUBLIC_NAMES = [
    "AlgebraFixture", "AssociatorDefect", "BACKENDS", "Backend", "BackendMismatchError", "CenterReport",
    "CertificateError", "ColumnFiniteMap", "CommutatorDefect", "DualFunctional", "FLOAT64", "HamelVector",
    "INTEGER", "LabelError", "LawReport", "LawResult", "NonAssociativeError", "NormInterval", "PolyMap",
    "RATIONAL", "Scalar", "StructureTable", "TailMap", "TailPolyMap", "TailVector", "TensorElement",
    "basis_map", "basis_vector", "dual_basis", "embed_int", "embed_rational", "fixture_from_data",
    "identity_on", "load_builtin", "map_via_tensor", "parse_scalar", "poly_apply", "table_from_data",
    "table_to_data", "tail_mul", "tensor_pure", "tpoly_apply", "tpoly_bound", "zero_map", "zero_tensor",
    "zero_vector",
]


def test_public_names_are_the_package_imports():
    # __all__ is derived from falg/__init__.py's imports; a star import binds those names and no submodule
    assert sorted(falg.__all__) == PUBLIC_NAMES
    namespace: dict = {}
    exec("from falg import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == PUBLIC_NAMES
    assert not [name for name, value in namespace.items() if isinstance(value, types.ModuleType)]


def _values(b):
    """One value of each kind over backend b, and the table the products use."""
    v = HamelVector(b, {0: 1, 1: 2})
    f = ColumnFiniteMap(b, {0: {1: 1}, 1: {0: 3}})
    table = StructureTable(b, "t", {(0, 0): {0: 1}}, pair_bound=1, claims_associative=True)
    return {
        "v": v, "phi": DualFunctional(b, {1: 2}), "f": f, "t": TensorElement(b, 2, {(0, 1): 1}),
        "d": b.scalar(3), "tv": TailVector(v, 0), "tm": TailMap(f, 0), "table": table,
        "nest": PolyMap(b, 2, {0: f, 1: f}), "tnest": TailPolyMap(b, 2, {0: TailMap(f, 0)}, 0),
    }


VALUES, INT_VALUES = _values(R), _values(INTEGER)

# operation on one operand x, the key of x's kind, and a value of another class
OPERAND_CASES = {
    "vector+": (lambda x: VALUES["v"] + x, "v", VALUES["phi"]),
    "functional+": (lambda x: VALUES["phi"] + x, "phi", VALUES["v"]),
    "map+": (lambda x: VALUES["f"] + x, "f", VALUES["v"]),
    "tensor+": (lambda x: VALUES["t"] + x, "t", VALUES["v"]),
    "tail-vector+": (lambda x: VALUES["tv"] + x, "tv", VALUES["v"]),
    "tail-map+": (lambda x: VALUES["tm"] + x, "tm", VALUES["f"]),
    "vector-scale": (lambda x: VALUES["v"].scale(x), "d", 3),
    "functional-scale": (lambda x: VALUES["phi"].scale(x), "d", 3),
    "map-scale": (lambda x: VALUES["f"].scale(x), "d", 3),
    "tensor-scale": (lambda x: VALUES["t"].scale(x), "d", 3),
    "tail-vector-scale": (lambda x: VALUES["tv"].scale(x), "d", 3),
    "tail-map-scale": (lambda x: VALUES["tm"].scale(x), "d", 3),
    "tail-vector-": (lambda x: VALUES["tv"] - x, "tv", VALUES["v"]),
    "tail-map-": (lambda x: VALUES["tm"] - x, "tm", VALUES["f"]),
    "vector-d*": (lambda x: x * VALUES["v"], "d", 3),
    "functional-d*": (lambda x: x * VALUES["phi"], "d", 3),
    "map-d*": (lambda x: x * VALUES["f"], "d", 3),
    "tensor-d*": (lambda x: x * VALUES["t"], "d", 3),
    "tail-vector-d*": (lambda x: x * VALUES["tv"], "d", 3),
    "tail-map-d*": (lambda x: x * VALUES["tm"], "d", 3),
    "evaluate": (lambda x: VALUES["phi"].evaluate(x), "v", VALUES["phi"]),
    "apply": (lambda x: VALUES["f"].apply(x), "v", VALUES["phi"]),
    "compose": (lambda x: VALUES["f"].compose(x), "f", VALUES["v"]),
    "tail-apply": (lambda x: VALUES["tm"].apply(x), "tv", VALUES["v"]),
    "tail-compose": (lambda x: VALUES["tm"].compose(x), "tm", VALUES["f"]),
    "mul": (lambda x: VALUES["table"].mul(VALUES["v"], x), "v", VALUES["phi"]),
    "tail_mul": (lambda x: tail_mul(VALUES["table"], VALUES["tv"], x), "tv", VALUES["v"]),
    "poly_apply": (lambda x: poly_apply(VALUES["nest"], [VALUES["v"], x]), "v", VALUES["phi"]),
    "tpoly_apply": (lambda x: tpoly_apply(VALUES["tnest"], [VALUES["tv"], x]), "tv", VALUES["v"]),
    "tensor_pure": (lambda x: tensor_pure([VALUES["v"], x]), "v", VALUES["phi"]),
    "map_via_tensor": (
        lambda x: map_via_tensor(VALUES["table"], VALUES["t"], VALUES["f"], x, samples=1), "v", VALUES["phi"]
    ),
}


@pytest.mark.parametrize("op, kind, other_class", OPERAND_CASES.values(), ids=OPERAND_CASES)
def test_operations_check_their_operands(op, kind, other_class):
    op(VALUES[kind])
    with pytest.raises(BackendMismatchError):
        op(INT_VALUES[kind])
    with pytest.raises(TypeError):
        op(other_class)


class _IntKey(int):
    """An int subclass: a basis index the constructors accept and keep as it is."""


# every public constructor that reads raw coordinates, a map's raw column included
RAW_CONSTRUCTORS = {
    "vector": lambda coords: HamelVector(R, coords),
    "functional": lambda coords: DualFunctional(R, coords),
    "map-column": lambda coords: ColumnFiniteMap(R, {0: coords}),
    "tail-vector": lambda coords: TailVector.make(R, coords, 0),
}


def _stored(value) -> dict:
    value = getattr(value, "prefix", value)
    return value.cols[0].coords if isinstance(value, ColumnFiniteMap) else value.coords


@pytest.mark.parametrize("build", RAW_CONSTRUCTORS.values(), ids=RAW_CONSTRUCTORS)
def test_constructors_keep_an_int_subclass_key(build):
    (key,) = _stored(build({_IntKey(2): Fraction(1, 2)}))
    assert type(key) is _IntKey and key == 2


MISMATCH = "coefficient backend int does not match rat"
EDGE_REJECTIONS = {
    "bool-key": ({True: 1}, TypeError, "basis index must be int, got bool"),
    "negative-key": ({0: 1, -1: 1}, ValueError, "basis index must be >= 0, got -1"),
    "other-backend-scalar": ({0: INTEGER.scalar(1)}, BackendMismatchError, MISMATCH),
    "other-backend-zero": ({0: INTEGER.zero}, BackendMismatchError, MISMATCH),
}


@pytest.mark.parametrize("coords, error, message", EDGE_REJECTIONS.values(), ids=EDGE_REJECTIONS)
@pytest.mark.parametrize("build", RAW_CONSTRUCTORS.values(), ids=RAW_CONSTRUCTORS)
def test_constructors_reject_edge_inputs_with_their_messages(build, coords, error, message):
    with pytest.raises(error) as caught:
        build(coords)
    assert type(caught.value) is error and str(caught.value) == message


@pytest.mark.parametrize("build", RAW_CONSTRUCTORS.values(), ids=RAW_CONSTRUCTORS)
def test_constructors_drop_every_zero(build):
    value = build({0: 0, 1: Fraction(0), 2: R.zero, 3: Fraction(1, 2), 4: -0})
    assert list(_stored(value)) == [3]
    assert ColumnFiniteMap(R, {0: {0: 0}, 1: {}}).cols == {}
    assert HamelVector(FLOAT64, {0: -0.0, 1: 0.0, 2: FLOAT64.zero, 3: 0}).coords == {}


# every public constructor that reads a Mapping or (key, value) pairs, and the argument it names
PAIR_READERS = {
    "vector": (lambda data: HamelVector(R, data), "coords"),
    "map": (lambda data: ColumnFiniteMap(R, data), "cols"),
    "map-column": (lambda data: ColumnFiniteMap(R, {0: data}), "coords"),
    "tensor": (lambda data: TensorElement(R, 2, data), "coords"),
    "poly-map": (lambda data: PolyMap(R, 2, data), "slots"),
    "tail-poly-map": (lambda data: TailPolyMap(R, 2, data, 0), "slots"),
}


@pytest.mark.parametrize("text", ["ab", ""], ids=["chars", "empty"])
@pytest.mark.parametrize("build, what", PAIR_READERS.values(), ids=PAIR_READERS)
def test_constructors_reject_a_string_of_pairs(build, what, text):
    # iterating a str yields characters, which are no (key, value) pairs
    with pytest.raises(TypeError) as caught:
        build(text)
    assert str(caught.value) == f"{what} must be a mapping or (key, value) pairs, got str"


# a coordinate table stores raw values; its coords view reads as the dict of Scalars

TABLE_KINDS = {
    "vector": (HamelVector, (), st.integers(0, 5)),
    "functional": (DualFunctional, (), st.integers(0, 5)),
    "tensor": (TensorElement, (2,), st.tuples(st.integers(0, 3), st.integers(0, 3))),
}
VIEW_VALUES = {
    "int": st.integers(-3, 3) | st.integers(-(2**100), 2**100),
    "rat": st.fractions(max_denominator=12) | st.integers(-3, 3),
    "f64": st.floats(allow_nan=False, allow_infinity=False),
}


@pytest.mark.parametrize("backend", [INTEGER, RATIONAL, FLOAT64], ids=lambda b: b.name)
@pytest.mark.parametrize("kind", TABLE_KINDS)
@given(data=st.data())
def test_coords_view_reads_as_the_dict_of_scalars(kind, backend, data):
    cls, shape, keys = TABLE_KINDS[kind]
    t = cls(backend, *shape, data.draw(st.dictionaries(keys, VIEW_VALUES[backend.name], max_size=6)))
    view = t.coords
    as_dict = dict(view.items())
    assert all(type(c) is Scalar and c.backend is backend and not c.is_zero() for c in as_dict.values())
    assert repr(view) == repr(as_dict)
    assert view == as_dict and as_dict == view and not (view != as_dict)
    for k in view:
        assert t.coefficient(k) == view[k]
    with pytest.raises(TypeError):
        hash(t)
    with pytest.raises(TypeError):
        view[data.draw(keys)] = backend.one
    assert cls.from_data(backend, t.to_data()) == t


@pytest.mark.parametrize("kind", TABLE_KINDS)
@given(drawn=st.dictionaries(st.integers(0, 3), st.integers(-3, 3), max_size=4))
@example(drawn={0: 1})
def test_coords_views_compare_as_their_dicts_across_backends(kind, drawn):
    # int values read the same on every backend, but Scalars of two backends differ
    cls, shape, _ = TABLE_KINDS[kind]
    if shape:
        drawn = {(k, k): x for k, x in drawn.items()}
    views = [cls(b, *shape, drawn).coords for b in (INTEGER, RATIONAL, FLOAT64)]
    for u in views:
        for w in views:
            assert (u == w) == (dict(u.items()) == dict(w.items()))
    # two empty views over different backends compare equal, as two empty dicts did
    assert cls(INTEGER, *shape).coords == cls(RATIONAL, *shape).coords == cls(FLOAT64, *shape).coords


# every linear value takes a - b and d * a, written once from its +, unary - and scale

def _drawn(draw, b, keys, max_size=4) -> dict:
    return draw(st.dictionaries(keys, VIEW_VALUES[b.name], max_size=max_size))


SMALL, PAIRS = st.integers(0, 3), st.tuples(st.integers(0, 2), st.integers(0, 2))
TAILS = st.integers(0, 3) | st.fractions(min_value=0, max_denominator=6)

LINEAR_KINDS = {
    "vector": lambda draw, b: HamelVector(b, _drawn(draw, b, SMALL)),
    "functional": lambda draw, b: DualFunctional(b, _drawn(draw, b, SMALL)),
    "tensor": lambda draw, b: TensorElement(b, 2, _drawn(draw, b, PAIRS)),
    "map": lambda draw, b: ColumnFiniteMap(
        b, {j: _drawn(draw, b, SMALL, 3) for j in draw(st.sets(SMALL, max_size=3))}
    ),
    "tail-vector": lambda draw, b: TailVector(LINEAR_KINDS["vector"](draw, b), draw(TAILS)),
    "tail-map": lambda draw, b: TailMap(LINEAR_KINDS["map"](draw, b), draw(TAILS)),
}


@pytest.mark.parametrize("backend", [INTEGER, RATIONAL], ids=lambda b: b.name)
@pytest.mark.parametrize("kind", LINEAR_KINDS)
@given(data=st.data())
def test_minus_and_scalar_times_are_the_linear_identities(kind, backend, data):
    build = LINEAR_KINDS[kind]
    x, y = build(data.draw, backend), build(data.draw, backend)
    d = backend.scalar(data.draw(VIEW_VALUES[backend.name]))
    assert x - y == x + (-y)
    assert -(-x) == x
    assert d * x == x.scale(d)
    if kind.startswith("tail"):
        assert (-x).tail == x.tail  # l1 is symmetric: negation moves no mass


# + (and compose) of each linear kind: its class, a builder of a value of a given subclass, and
# a value of another class
JOIN_KINDS = {
    "vector": (HamelVector, lambda cls, b: cls(b, {0: 1}), DualFunctional(R, {0: 1})),
    "functional": (DualFunctional, lambda cls, b: cls(b, {0: 1}), V),
    "tensor": (TensorElement, lambda cls, b: cls(b, 2, {(0, 1): 1}), V),
    "map": (ColumnFiniteMap, lambda cls, b: cls(b, {0: {1: 1}}), V),
    "tail-vector": (TailVector, lambda cls, b: cls(HamelVector(b, {0: 1}), 1), V),
    "tail-map": (TailMap, lambda cls, b: cls(ColumnFiniteMap(b, {0: {1: 1}}), 1), TailVector(V, 0)),
}


@pytest.mark.parametrize("kind", JOIN_KINDS)
def test_linear_values_join_operands_of_their_class_backend_and_shape(kind):
    cls, build, other = JOIN_KINDS[kind]
    x, sub = build(cls, R), build(type("Sub", (cls,), {}), R)
    for op in [operator.add, *([cls.compose] if hasattr(cls, "compose") else [])]:
        with pytest.raises(TypeError, match=f"^operand must be {cls.__name__}, got {type(other).__name__}$"):
            op(x, other)
        with pytest.raises(BackendMismatchError, match="^operand backend int does not match rat$"):
            op(x, build(cls, INTEGER))
        if cls is ColumnFiniteMap:  # a map asks for ColumnFiniteMap itself, so a subclass joins either way
            assert type(op(sub, x)) is type(op(x, sub)) is ColumnFiniteMap
        else:  # every other kind asks for type(self): a subclass refuses its base class
            with pytest.raises(TypeError, match=f"^operand must be Sub, got {cls.__name__}$"):
                op(sub, x)
            assert type(op(x, sub)) is cls
    if cls is TensorElement:
        with pytest.raises(ValueError, match="^cannot combine arity 2 and 3$"):
            x + TensorElement(R, 3, {(0, 0, 0): 1})


class _NeverZero(Scalar):
    """A Scalar subclass whose is_zero always says no: a constructor must test its value."""

    __slots__ = ()

    def is_zero(self):
        return False


@pytest.mark.parametrize("backend", [INTEGER, RATIONAL, FLOAT64], ids=lambda b: b.name)
@pytest.mark.parametrize("kind", TABLE_KINDS)
def test_constructors_drop_the_zero_of_a_scalar_subclass(kind, backend):
    cls, shape, _ = TABLE_KINDS[kind]
    key = (lambda i: (i, i)) if shape else (lambda i: i)
    t = cls(backend, *shape, {key(0): _NeverZero(backend, 0), key(1): _NeverZero(backend, -2)})
    assert list(t.coords) == [key(1)] and t.coords[key(1)] == backend.scalar(-2)
    zero = cls(backend, *shape, {key(0): _NeverZero(backend, 0)})
    assert zero.is_zero() and not zero.coords and zero == cls(backend, *shape, {})


# a constructor given a plain dict of basis indices tries one exact-type pass first;
# it must give what the checked loop gives the same pairs, or raise as it does

class _FractionSub(Fraction):
    """A Fraction subclass, which the rational backend converts to a Fraction."""


EXACT_VALUES = {
    "int": st.integers(-2, 2) | st.integers(-(2**70), 2**70),
    "rat": st.builds(Fraction, st.integers(-2, 2), st.integers(1, 4)),
    "f64": st.floats(-2, 2) | st.sampled_from([-0.0, 5e-324, 1e308]),
}
JUNK_KEYS = [True, False, -1, -(2**70), _IntKey(1), "1", 1.0, None]
JUNK_VALUES = [True, False, 0, 3, 2**70, Fraction(0), Fraction(1, 3), _FractionSub(1, 3), _FractionSub(0),
               0.5, -0.0, 0.0, math.nan, math.inf, -math.inf, "1/2", "x", None,
               INTEGER.one, RATIONAL.zero, RATIONAL.scalar(Fraction(1, 2)), FLOAT64.scalar(1.5), FLOAT64.zero]


def _builders(backend):
    return {
        "vector": lambda coords: HamelVector(backend, coords),
        "functional": lambda coords: DualFunctional(backend, coords),
        "map-column": lambda coords: ColumnFiniteMap(backend, {0: coords}),
        "tail-vector": lambda coords: TailVector.make(backend, coords, 0),
    }


def _outcome(build, coords):
    """Each stored (key type, key, value type, value repr), or the exception type and message."""
    try:
        value = build(coords)
    except (ArithmeticError, TypeError, ValueError) as e:
        return type(e), str(e)
    value = getattr(value, "prefix", value)
    tables = value.cols.values() if isinstance(value, ColumnFiniteMap) else [value]
    return [(type(k), k, type(c.value), repr(c.value)) for t in tables for k, c in t.coords.items()]


def _assert_pass_agrees(backend, coords: dict):
    for name, build in _builders(backend).items():
        assert _outcome(build, coords) == _outcome(build, list(coords.items())), name


@pytest.mark.parametrize("backend", [INTEGER, RATIONAL, FLOAT64], ids=lambda b: b.name)
@given(data=st.data())
def test_exact_type_pass_agrees_with_the_checked_loop(backend, data):
    exact = EXACT_VALUES[backend.name]
    keys = st.integers(0, 5) | st.sampled_from(JUNK_KEYS)
    values = exact | st.builds(backend.scalar, exact) | st.sampled_from(JUNK_VALUES)
    _assert_pass_agrees(backend, data.draw(st.dictionaries(keys, values, max_size=5)))


EXACT_ONE = {"int": 1, "rat": Fraction(1, 2), "f64": 0.5}
EXACT_ZERO = {"int": 0, "rat": Fraction(0), "f64": -0.0}


@pytest.mark.parametrize("case", ["bool-key", "negative-key", "zero", "nonfinite", "all-exact"])
@pytest.mark.parametrize("backend", [INTEGER, RATIONAL, FLOAT64], ids=lambda b: b.name)
def test_exact_type_pass_examples(backend, case):
    one, zero = EXACT_ONE[backend.name], EXACT_ZERO[backend.name]
    coords = {
        "bool-key": {0: one, True: one},
        "negative-key": {0: one, -1: one},
        "zero": {2: one, 0: zero, 1: one},
        "nonfinite": {0: one, 1: math.inf},
        "all-exact": {3: one, 0: one},
    }[case]
    _assert_pass_agrees(backend, coords)
    if case in ("zero", "all-exact"):
        assert list(HamelVector(backend, coords).coords) == [k for k, x in coords.items() if x]
