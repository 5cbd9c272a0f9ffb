"""Seeded differential corpus over falg's kernels and tail operations.

    python3 scripts/differential.py                 # check block 0 of every family
    python3 scripts/differential.py --full          # check every block
    python3 scripts/differential.py --dump f64/tpoly_apply_tail [--block N]
    python3 scripts/differential.py --write         # record this tree's digests

A family is one operation on one backend, named ``backend/operation``.
Block b of a family draws its cases from ``random.Random(f"{family}:{b}")``
alone, so any block can be recomputed by itself.  Each case records the
``repr`` of its result (key order and float bits included), or the type and
message of the exception it raised.  The digest of a block is the sha256 of
its records, one per line, and ``tests/differential.json`` holds one digest
per family and block.  Two trees agree on a family exactly when its digests
match; ``--dump`` prints the records, so two trees' outputs can be diffed.

The inputs favour cancellation: few distinct indices, few distinct
magnitudes, and on rat denominators from 1 up to large primes.  The float64
values include quotients that round, and rare huge and tiny values whose
sums and products overflow or underflow.  ``check_laws`` records whole
reports of small extensional tables with random, often false, claims and
pair bounds, at widths ``max_index + 1`` that include powers of two;
``norm_bounds`` records ``l1``, ``l1_total``, both norm intervals and a
truncated tail over int and Fraction values with many distinct
denominators.  ``construct_zeros`` builds a vector, a functional, a tensor,
a map column and a tail vector from coordinates that mix nonzero values
with Scalar subclasses holding 0, one whose ``is_zero`` says no among them,
so a constructor that trusts ``is_zero`` keeps a zero.  ``wire`` writes a
value of each class with a wire format, an algebra table or a builtin
reference and reads it back, or reads it with one field, key or value
corrupted or with a field added that its format does not define.  ``cli`` runs
``falg.cli.main`` in process on seeded argv
over every subcommand and option, spelled out, with ``=``, by unique
prefix, repeated, missing or unknown, with ambiguous prefixes, bad ints,
bad choices, values that start with ``-``, and missing or malformed files;
the files are written on the family's backend, which most of its argv name
with ``--backend``.  It records the argv, the
exit code, stdout (``<help>`` when it printed help, whose layout is free)
and stderr without its usage message; the files live in a temporary
directory written ``<dir>`` in the records.  falg is imported from ``src/``
next to this script unless another copy is already on ``sys.path``.

Exit 0 when every checked digest matches, 1 otherwise (naming the
mismatched family and block).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import random
import sys
import tempfile
import types
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
try:
    import falg  # noqa: F401
except ImportError:
    sys.path.insert(0, str(ROOT / "src"))

from falg import (  # noqa: E402
    BACKENDS,
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
    basis_map,
    basis_vector,
    dual_basis,
    embed_int,
    embed_rational,
    fixture_from_data,
    identity_on,
    load_builtin,
    map_via_tensor,
    parse_scalar,
    poly_apply,
    table_from_data,
    table_to_data,
    tail_mul,
    tensor_pure,
    tpoly_apply,
    tpoly_bound,
)
from falg import cli  # noqa: E402

DIGESTS = ROOT / "tests" / "differential.json"
BLOCKS = 8
CASES = 12  # per block

RAT_DENOMINATORS = (1, 1, 2, 3, 7, 65537, 10**9 + 7)


def _value(rng: random.Random, backend):
    n = rng.choice((-3, -2, -1, 1, 2, 3))
    if backend.name == "int":
        return n * rng.choice((1, 1, 1, 10**12 + 39))
    if backend.name == "rat":
        return Fraction(n, rng.choice(RAT_DENOMINATORS))
    roll = rng.random()
    if roll < 0.03:
        return n * 1e300
    if roll < 0.06:
        return n * 2.0 ** -600
    return n / rng.choice((1, 3, 7, 10))


def _coords(rng, backend, size: int, max_index: int = 5) -> dict:
    return {rng.randint(0, max_index): _value(rng, backend) for _ in range(rng.randint(size // 2, size))}


def _vector(rng, backend, size: int = 5) -> HamelVector:
    return HamelVector(backend, _coords(rng, backend, size))


def _functional(rng, backend) -> DualFunctional:
    return DualFunctional(backend, _coords(rng, backend, 5))


def _tensor(rng, backend, arity: int = 2) -> TensorElement:
    coords = {
        tuple(rng.randint(0, 3) for _ in range(arity)): _value(rng, backend)
        for _ in range(rng.randint(0, 6))
    }
    return TensorElement(backend, arity, coords)


def _map(rng, backend, cols: int = 4) -> ColumnFiniteMap:
    return ColumnFiniteMap(backend, {
        rng.randint(0, 5): _coords(rng, backend, 4) for _ in range(rng.randint(cols // 2, cols))
    })


def _scalar(rng, backend):
    return backend.scalar(0 if rng.random() < 0.1 else _value(rng, backend))


def _tail(rng, backend):
    return backend.norm_check(Fraction(rng.randint(0, 4), rng.choice((1, 3, 8))))


def _tail_vector(rng, backend) -> TailVector:
    return TailVector(_vector(rng, backend), _tail(rng, backend))


def _tail_map(rng, backend) -> TailMap:
    return TailMap(_map(rng, backend), _tail(rng, backend))


def _nest(rng, backend, arity: int, tails: bool):
    if arity == 1:
        return _tail_map(rng, backend) if tails else _map(rng, backend, cols=3)
    slots = {rng.randint(0, 5): _nest(rng, backend, arity - 1, tails) for _ in range(rng.randint(1, 4))}
    if tails:
        return TailPolyMap(backend, arity, slots, _tail(rng, backend))
    return PolyMap(backend, arity, slots)


def _table(rng, backend, name: str) -> StructureTable:
    if name == "mixed":  # entries over 2, 3 and 7: running denominators rescale
        entries = {
            (i, j): {(i + j) % 4: _value(rng, backend), (i * j) % 4: _value(rng, backend)}
            for i in range(6) for j in range(6) if rng.random() < 0.8
        }
        return StructureTable(backend, "mixed", entries=entries, pair_bound=rng.choice((None, 1, 10**13)))
    return load_builtin(name, backend).table


_LIAR = {(i, j): {(i + j + (i == 1 and j == 1)) % 4: 1} for i in range(4) for j in range(4)}


def _assoc_table(rng, backend) -> StructureTable:
    name = rng.choice(("polynomial", "free:2", "quaternion", "liar"))
    if name == "liar":  # claims associativity, fails at (1, 1, k)
        return StructureTable(backend, "liar", entries=_LIAR, claims_associative=True)
    return load_builtin(name, backend).table


def _operands(rng, backend, kind: str):
    make = {"vector": _vector, "functional": _functional, "tensor": _tensor, "map": _map,
            "tail_vector": _tail_vector, "tail_map": _tail_map}[kind]
    return make(rng, backend), make(rng, backend)


def _binary(kind: str, op):
    def case(rng, backend):
        a, b = _operands(rng, backend, kind)
        if rng.random() < 0.2:
            b = -a if op == "add" else a  # cancels to zero
        return a + b if op == "add" else a - b
    return case


def _scale(kind: str):
    def case(rng, backend):
        a, _ = _operands(rng, backend, kind)
        return a.scale(_scalar(rng, backend))
    return case


def _apply(rng, backend):
    return _map(rng, backend).apply(_vector(rng, backend))


def _compose(rng, backend):
    return _map(rng, backend).compose(_map(rng, backend))


def _mul(rng, backend):
    table = _table(rng, backend, rng.choice(("polynomial", "quaternion", "free:2", "mixed")))
    return table.mul(_vector(rng, backend), _vector(rng, backend))


def _mul_group_z(rng, backend):
    return load_builtin("group_z", backend).table.mul(_vector(rng, backend), _vector(rng, backend))


# far-apart exponents whose sums still meet: 0 + 1007 = 7 + 1000, and so on
_SPARSE_EXPONENTS = (0, 7, 1000, 1007, 10**6, 10**6 + 7, 10**12)


def _mul_sparse_powers(rng, backend):
    name, symbol, signs = rng.choice((("polynomial", "x", (1,)), ("group_z", "g", (1, -1))))
    fixture = load_builtin(name, backend)

    def vector():
        return HamelVector(backend, {
            fixture.encode(f"{symbol}^{rng.choice(signs) * rng.choice(_SPARSE_EXPONENTS)}"): _value(rng, backend)
            for _ in range(rng.randint(1, 5))
        })

    return fixture.table.mul(vector(), vector())


def _poly_apply(rng, backend):
    arity = rng.randint(2, 3)
    return poly_apply(_nest(rng, backend, arity, tails=False), [_vector(rng, backend) for _ in range(arity)])


def _tensor_pure(rng, backend):
    return tensor_pure([_vector(rng, backend, size=4) for _ in range(rng.randint(1, 3))])


def _map_via_tensor(rng, backend):
    table = _assoc_table(rng, backend)
    return map_via_tensor(table, _tensor(rng, backend), _map(rng, backend), _vector(rng, backend),
                          samples=8, seed=rng.randint(0, 9), max_index=3)


def _evaluate(rng, backend):
    return _functional(rng, backend).evaluate(_vector(rng, backend))


def _tail_apply(rng, backend):
    return _tail_map(rng, backend).apply(_tail_vector(rng, backend))


def _tail_compose(rng, backend):
    return _tail_map(rng, backend).compose(_tail_map(rng, backend))


def _tail_mul(rng, backend):
    table = _table(rng, backend, rng.choice(("polynomial", "free:2", "mixed")))
    return tail_mul(table, _tail_vector(rng, backend), _tail_vector(rng, backend))


def _tail_mul_group_z(rng, backend):
    return tail_mul(load_builtin("group_z", backend).table, _tail_vector(rng, backend), _tail_vector(rng, backend))


def _tpoly_apply(rng, backend):
    arity = rng.randint(1, 3)
    return tpoly_apply(_nest(rng, backend, arity, tails=True), [_tail_vector(rng, backend) for _ in range(arity)])


def _tpoly_bound(rng, backend):
    return tpoly_bound(_nest(rng, backend, rng.randint(1, 3), tails=True))


# widths max_index + 1 of 1, 2, 4, 8, 16, 32 and 64, and widths in between
_LAW_MAX_INDICES = (0, 1, 2, 3, 4, 6, 7, 8, 15, 16, 31, 63, 64)


def _law_table(rng, backend) -> StructureTable:
    """A small extensional table with random claims, often false, and sometimes a pair bound."""
    n = rng.randint(1, 3)
    entries = {
        (i, j): {rng.randint(0, n): _value(rng, backend) for _ in range(rng.randint(0, 3))}
        for i in range(n + 1) for j in range(n + 1) if rng.random() < 0.7
    }
    return StructureTable(
        backend, "random", entries=entries, pair_bound=rng.choice((None, None, 1, 3, 10**13)),
        claims_associative=rng.random() < 0.6, claims_commutative=rng.random() < 0.6,
    )


def _check_laws(rng, backend):
    table = _law_table(rng, backend)
    trials, max_index = rng.choice((1, 5, 20)), rng.choice(_LAW_MAX_INDICES)
    return table.check_laws(trials, max_index, seed=rng.randint(0, 999)).to_data()


# repeated small denominators, and many distinct large ones, primes among them
_WIDE_PRIMES = (65537, 999983, 1000003, 9999991, 10**9 + 7)


def _wide_denominator(rng) -> int:
    roll = rng.random()
    if roll < 0.4:
        return rng.choice((1, 2, 3, 4, 6, 12))
    if roll < 0.6:
        return rng.choice(_WIDE_PRIMES)
    return rng.randint(1, 10**7)


def _wide_value(rng, backend):
    if backend.name == "rat":
        return Fraction(rng.choice((-1, 1)) * rng.randint(1, 10**6), _wide_denominator(rng))
    return _value(rng, backend)


def _wide_tail(rng, backend):
    if rng.random() < 0.3:
        return backend.norm_check(rng.randint(0, 5))
    return backend.norm_check(Fraction(rng.randint(0, 9), _wide_denominator(rng)))


def _norm_bounds(rng, backend):
    v = HamelVector(backend, {rng.randint(0, 40): _wide_value(rng, backend) for _ in range(rng.randint(0, 24))})
    m = ColumnFiniteMap(backend, {
        rng.randint(0, 20): {rng.randint(0, 20): _wide_value(rng, backend) for _ in range(rng.randint(1, 8))}
        for _ in range(rng.randint(0, 8))
    })
    tv, tm = TailVector(v, _wide_tail(rng, backend)), TailMap(m, _wide_tail(rng, backend))
    keep = [i for i in v.coords if rng.random() < 0.5]
    return v.l1(), m.l1_total(), tv.norm_interval(), tm.bound(), tv.truncate(keep).tail


# junk raw data for the public constructors and the wire format

class _IntKey(int):
    """An int subclass: constructors keep such a key as it is."""

    def __repr__(self):
        return f"_IntKey({int(self)})"


class _SubScalar(Scalar):
    """A Scalar subclass: constructors store its value, which reads back as a plain Scalar."""

    __slots__ = ()


class _NeverZero(Scalar):
    """A Scalar subclass whose is_zero says no: constructors test its value, so its zero is dropped."""

    __slots__ = ()

    def is_zero(self):
        return False


class _FractionSub(Fraction):
    """A Fraction subclass: the rational backend converts it."""


_JUNK_KEYS = (True, False, -1, -7, "1", "x", 1.0, None, (1,), _IntKey(2), _IntKey(0), _IntKey(-1), 2**70)
_JUNK_VALUES = (True, False, "1/2", "3", "x", "1/0", 1.5, 2.0, -0.0, 0.0, 0, Fraction(0), Fraction(4, 2),
                _FractionSub(1, 3), _IntKey(3), None, [1], 10**400, math.inf)
_JUNK_BOUNDS = (0, 2, -1, Fraction(1, 3), Fraction(-1, 2), _FractionSub(1, 2), True, None, "1/2", "x", "-1",
                0.5, -0.0, math.inf, math.nan, 10**400, _IntKey(1))


def _junk_key(rng):
    return rng.randint(0, 5) if rng.random() < 0.75 else rng.choice(_JUNK_KEYS)


def _junk_value(rng, backend):
    roll = rng.random()
    if roll < 0.5:
        return _value(rng, backend)
    if roll < 0.6:
        return backend.scalar(_value(rng, backend))
    if roll < 0.65:
        return backend.zero
    if roll < 0.7:
        return rng.choice([b for b in BACKENDS.values() if b is not backend]).one
    if roll < 0.75:
        return rng.choice((_SubScalar, _NeverZero))(backend, rng.choice((0, 1, -2)))
    return rng.choice(_JUNK_VALUES)


def _junk_bound(rng):
    return rng.randint(0, 3) if rng.random() < 0.5 else rng.choice(_JUNK_BOUNDS)


def _junk_container(rng, pairs: list):
    """pairs as a dict, another Mapping, a list, tuple or iterator of pairs, or junk."""
    roll = rng.random()
    if roll < 0.45:
        return dict(pairs)
    if roll < 0.55:
        return types.MappingProxyType(dict(pairs))
    if roll < 0.7:
        return pairs
    if roll < 0.8:
        return tuple(pairs)
    if roll < 0.9:
        return iter(pairs)
    return rng.choice((5, "ab", [1, 2], None, [(1, 2, 3)], {1, 2}))


def _junk_coords(rng, backend, key=_junk_key):
    return _junk_container(rng, [(key(rng), _junk_value(rng, backend)) for _ in range(rng.randint(0, 5))])


def _junk_tensor_key(rng):
    roll = rng.random()
    if roll < 0.7:
        return (rng.randint(0, 3), rng.randint(0, 3))
    return rng.choice(((1,), (1, 2, 3), 1, (True, 0), (-1, 0), (_IntKey(1), 2), ("1", 0), ()))


def _junk_column(rng, backend):
    roll = rng.random()
    if roll < 0.5:
        return _junk_coords(rng, backend)
    if roll < 0.7:
        return _vector(rng, backend)
    if roll < 0.8:
        return _vector(rng, rng.choice(list(BACKENDS.values())))
    return rng.choice((_functional(rng, backend), None, 3, HamelVector(backend, {}), {}))


def _junk_map(rng, backend):
    if rng.random() < 0.8:
        return _map(rng, backend)
    return rng.choice((_vector(rng, backend), _map(rng, rng.choice(list(BACKENDS.values()))), {}, None))


def _junk_arity(rng):
    return rng.choice((2, 2, 2, 3, 1, 0, True, 2.0, "2", None))


def _junk_slots(rng, backend, arity, leaf):
    def slot():
        roll = rng.random()
        if roll < 0.6 and arity == 2:
            return leaf(rng, backend)
        if roll < 0.6:
            return _nest(rng, backend, 2, tails=leaf is _tail_map)
        return rng.choice((_map(rng, backend), _tail_map(rng, backend), _vector(rng, backend), None,
                           _nest(rng, backend, 2, tails=False), _nest(rng, backend, 2, tails=True),
                           leaf(rng, rng.choice(list(BACKENDS.values())))))
    return _junk_container(rng, [(_junk_key(rng), slot()) for _ in range(rng.randint(0, 3))])


def _construct(rng, backend):
    kind = rng.randrange(20)
    if kind < 4:
        return HamelVector(backend, _junk_coords(rng, backend))
    if kind == 4:
        return DualFunctional(backend, _junk_coords(rng, backend))
    if kind == 5:
        arity = rng.choice((2, 2, 2, 1, 0, True, "2"))
        return TensorElement(backend, arity, _junk_coords(rng, backend, _junk_tensor_key))
    if kind < 9:
        pairs = [(_junk_key(rng), _junk_column(rng, backend)) for _ in range(rng.randint(0, 4))]
        return ColumnFiniteMap(backend, _junk_container(rng, pairs))
    if kind == 9:
        arity = _junk_arity(rng)
        return PolyMap(backend, arity, _junk_slots(rng, backend, arity, lambda r, b: _map(r, b, cols=3)))
    if kind == 10:
        prefix = _vector(rng, backend) if rng.random() < 0.8 else rng.choice((_functional(rng, backend), {0: 1}))
        return TailVector(prefix, _junk_bound(rng))
    if kind < 13:
        return TailVector.make(backend, _junk_coords(rng, backend), _junk_bound(rng))
    if kind == 13:
        return TailMap(_junk_map(rng, backend), _junk_bound(rng))
    if kind == 14:
        arity = _junk_arity(rng)
        return TailPolyMap(backend, arity, _junk_slots(rng, backend, arity, _tail_map), _junk_bound(rng))
    if kind == 15:
        return NormInterval(backend, _junk_bound(rng), _junk_bound(rng))
    if kind == 16:
        return Scalar(backend, _junk_value(rng, backend))
    if kind == 17:
        entries = {(rng.randint(0, 2), rng.randint(0, 2)): _junk_column(rng, backend)
                   for _ in range(rng.randint(0, 4))}
        return StructureTable(backend, "junk", entries=entries, pair_bound=rng.choice((None, _junk_bound(rng))))
    if kind == 18:
        i, j = _junk_key(rng), _junk_key(rng)
        return (basis_vector(backend, i), dual_basis(backend, j), basis_map(backend, i, j),
                identity_on(backend, [_junk_key(rng) for _ in range(rng.randint(0, 3))]))
    p, q = rng.choice((1, -2, True, 1.5, "3", _IntKey(2))), rng.choice((1, 3, 0, True, _IntKey(4)))
    certified = rng.choice((TailVector, TailMap))
    part = rng.choice((_vector(rng, backend), _map(rng, backend), None))
    return (certified.lift(part), embed_int(backend, p), embed_rational(backend, p, q),
            parse_scalar(backend, rng.choice(("1/2", "x", "7"))))


def _construct_zeros(rng, backend):
    """Every coordinate constructor on values that mix Scalar subclasses holding 0 with nonzero values."""
    def coords(key=lambda: rng.randint(0, 5)):
        return {key(): rng.choice((_NeverZero(backend, 0), _SubScalar(backend, 0), _value(rng, backend)))
                for _ in range(rng.randint(1, 5))}
    return (HamelVector(backend, coords()), DualFunctional(backend, coords()),
            TensorElement(backend, 2, coords(lambda: (rng.randint(0, 3), rng.randint(0, 3)))),
            ColumnFiniteMap(backend, {rng.randint(0, 5): coords()}),
            TailVector.make(backend, coords(), _tail(rng, backend)))


# malformed wire keys and values, and fields no format defines or some format defines elsewhere,
# read by from_data, table_from_data and fixture_from_data
_BAD_WIRE_KEYS = ("01", "-0", " 1", "1_0", "+1", "a", "", "1,2", "-1", "1.0", "0,0,0")
_BAD_WIRE_VALUES = (1, 1.5, None, [], "1/0", "1e99999", "x", "nan", "inf", "-inf", "1" * 4301, True, "0x10")
_UNKNOWN_FIELDS = ("tail", "junk", "pairbound", "pairBound", "note", "assoc", "builtin", "structure", "name", "")
_BUILTINS = ("polynomial", "quaternion", "complex", "group_z", "free:2", "free:0", "octonion")


def _wire_value(rng, backend):
    """A value of each class with a wire format, an algebra table, or a builtin's name (read as a reference)."""
    kind = rng.randrange(8)
    if kind == 0:
        return _vector(rng, backend)
    if kind == 1:
        return _functional(rng, backend)
    if kind == 2:
        return _tensor(rng, backend, rng.randint(1, 3))
    if kind == 3:
        return _map(rng, backend)
    if kind == 4:
        return _tail_vector(rng, backend)
    if kind == 5:
        return _tail_map(rng, backend)
    if kind == 6:
        return _law_table(rng, backend)
    return rng.choice(_BUILTINS)


def _corrupt(rng, data):
    """data with one field, key or value replaced by junk, or a field added; nested objects are copied."""
    data = json.loads(json.dumps(data))
    roll = rng.random()
    if roll < 0.1:
        return rng.choice(([], "x", 3, None))
    holders = [data] + [v for v in data.values() if isinstance(v, dict)]
    holders += [c for h in list(holders) for c in h.values() if isinstance(c, dict)]
    holders += [row for row in data.get("structure", [])]
    holder = rng.choice(holders)
    if roll < 0.2:
        holder[rng.choice(_UNKNOWN_FIELDS)] = rng.choice(("0", "1/2", True, {}, []))
        return data
    if not holder or roll < 0.3:
        holder[rng.choice(("coords", "cols", "tail", "arity", "structure", "pairBound", "i", "c"))] = (
            rng.choice(_BAD_WIRE_VALUES + ([], {}, [[1]])))
        return data
    key = rng.choice(list(holder))
    if roll < 0.55:
        holder[rng.choice(_BAD_WIRE_KEYS)] = holder.pop(key)
    elif roll < 0.85:
        holder[key] = rng.choice(_BAD_WIRE_VALUES)
    else:
        del holder[key]
    return data


def _wire(rng, backend):
    value = _wire_value(rng, backend)
    if isinstance(value, StructureTable):
        write, read = table_to_data, lambda b, data: table_from_data(b, data)
    elif isinstance(value, str):
        write, read = (lambda name: {"builtin": name}), lambda b, data: fixture_from_data(data, b).name
    else:
        write, read = type(value).to_data, type(value).from_data
    data = write(value)
    if rng.random() < 0.4:
        back = read(backend, json.loads(json.dumps(data)))
        assert write(back) == data, (data, back)
        return data, back
    data = _corrupt(rng, data)
    return data, read(backend, data)


# the command line in process: argv over every subcommand and option, and the ways argv goes wrong

# each subcommand's options after --backend and --json, written out here so the
# corpus pins the grammar instead of reading it from the parser it checks
_CLI_OPTIONS = {
    "eval": ("--algebra", "--expr", "--let"),
    "apply": ("--map", "--vector"),
    "compose": ("--f", "--g"),
    "tensor": ("--pure", "--algebra", "--tensor", "--map", "--vector", "--samples", "--seed"),
    "norm": ("--vector", "--map"),
    "check": ("--algebra", "--trials", "--seed", "--max-index"),
    "dual": ("--functional", "--vector"),
}
_CLI_INTS = ("--samples", "--seed", "--trials", "--max-index")
_CLI_ALGEBRAS = ("builtin:polynomial", "builtin:quaternion", "builtin:complex", "builtin:group_z",
                 "builtin:free:2", "builtin:octonion")
_CLI_EXPRS = ("(1 + `x`)*(1 + `x`)", "[`i`, `j`]", "<e1, e2, e3>", "e1 * e2 - 3/4", "v * v + w", "v +", "2 * e0",
              "`q`", "1/0", "-e1", "w - v * e2")
_CLI_UNKNOWN = ("--nope", "--nope=1", "-x", "stray", "--json=1", "--backend=", "-", "--", "---", "--=x", "-hx",
                "--help=x", "-h=", "--expr x", "", "-1x", "--pure=")
_CLI_BAD_INTS = ("x", "1.5", "", "0x10", " 7", "1_0", "-1.5", "+3", "1e3", "٣", "-0", "9" * 5000)
_CLI_BAD_CHOICES = ("f32", "RAT", "", "ra", "int ", "-int", "--rat")
_CLI_DASHED = ("-1", "-3", "-0", "-.5", "-e1", "-e1 + e2", "-3/4", "-`x`", "-x=1", "--", "-")
_CLI_HELP = ("-h", "--help", "--he", "-hh", "--h")


def _cli_files(rng, backend, root: str) -> dict[str, str]:
    """One file of each kind the subcommands read, written under root; name -> path."""
    values = {"v": _vector(rng, backend), "w": _vector(rng, backend), "f": _map(rng, backend),
              "g": _map(rng, backend), "phi": _functional(rng, backend), "t": _tensor(rng, backend),
              "tv": _tail_vector(rng, backend), "tm": _tail_map(rng, backend), "table": _law_table(rng, backend)}
    paths = {name: f"{root}/{name}.json" for name in (*values, "bad", "missing")}
    for name, value in values.items():
        data = table_to_data(value) if isinstance(value, StructureTable) else value.to_data()
        Path(paths[name]).write_text(json.dumps(data))
    Path(paths["bad"]).write_text("{not json")
    paths["dir"] = root
    return paths


def _cli_options(rng, backend, command: str, paths: dict) -> list[list]:
    """A well-formed [option, values] list for one subcommand."""
    pick = rng.choice
    if command == "eval":
        opts = [["--algebra", [pick(_CLI_ALGEBRAS[:5] + (paths["table"],))]], ["--expr", [pick(_CLI_EXPRS)]]]
        opts += [["--let", [f"{name}={paths[name]}"]] for name in rng.sample(("v", "w"), rng.randint(0, 2))]
    elif command == "apply":
        tail = rng.random() < 0.3
        opts = [["--map", [paths["tm" if tail else "f"]]], ["--vector", [paths[pick(("v", "tv")) if tail else "v"]]]]
    elif command == "compose":
        opts = [["--f", [paths[pick(("f", "tm"))]]], ["--g", [paths["g"]]]]
    elif command == "tensor" and rng.random() < 0.5:
        opts = [["--pure", [paths[pick(("v", "w"))] for _ in range(rng.randint(1, 3))]]]
    elif command == "tensor":
        opts = [["--algebra", [pick(_CLI_ALGEBRAS[:3])]], ["--tensor", [paths["t"]]], ["--map", [paths["f"]]],
                ["--vector", [paths["v"]]]]
        opts += [[name, [str(rng.randint(0, 9))]] for name in ("--samples", "--seed") if rng.random() < 0.4]
    elif command == "norm":
        opts = [pick((["--vector", [paths[pick(("v", "tv"))]]], ["--map", [paths[pick(("f", "tm"))]]]))]
    elif command == "check":
        opts = [["--algebra", [pick(_CLI_ALGEBRAS[:4] + (paths["table"],))]], ["--trials", [pick(("1", "3", "10"))]]]
        opts += [[name, [str(rng.randint(0, 9))]] for name in ("--seed", "--max-index") if rng.random() < 0.4]
    else:
        opts = [["--functional", [paths["phi"]]], ["--vector", [paths["v"]]]]
    if rng.random() < 0.7:
        opts.append(["--backend", [backend.name if rng.random() < 0.85 else rng.choice(sorted(BACKENDS))]])
    if rng.random() < 0.4:
        opts.append(["--json", []])
    rng.shuffle(opts)
    return opts


def _cli_spell(rng, names: tuple, name: str) -> str:
    """name, or a prefix of it that no other of names starts with."""
    shortest = next(n for n in range(3, len(name) + 1)
                    if not any(o.startswith(name[:n]) for o in names if o != name))
    return name[:rng.randint(shortest, len(name))]


def _cli_mutate(rng, command: str, opts: list, paths: dict) -> list:
    """opts with one thing wrong, or one more thing said; returns extra tokens to insert."""
    kind = rng.randrange(10)
    if kind == 0 and opts:
        del opts[rng.randrange(len(opts))]
    elif kind == 1 and opts:
        opts.append(list(rng.choice(opts)))
    elif kind == 2:
        return [rng.choice(_CLI_UNKNOWN)] + ([rng.choice(("1", "x"))] if rng.random() < 0.3 else [])
    elif kind == 3:
        return [rng.choice(("--s", "--s=1", "--m", "--e", "--=x")), rng.choice(("1", "-1", "x"))]
    elif kind in (4, 5) and command in ("tensor", "check"):
        name = rng.choice([n for n in _CLI_INTS if n in _CLI_OPTIONS[command]])
        opts.append([name, [rng.choice(_CLI_BAD_INTS if kind == 4 else _CLI_DASHED)]])
    elif kind in (4, 6):
        opts.append(["--backend", [rng.choice(_CLI_BAD_CHOICES)]])
    elif kind in (5, 7):
        opts.append([rng.choice(_CLI_OPTIONS[command]), [rng.choice(_CLI_DASHED)]])
    elif kind == 8:
        files = [o for o in opts if o[1] and o[1][0] in paths.values()]
        if files:
            rng.choice(files)[1][0] = paths[rng.choice(("missing", "bad", "dir"))]
    else:
        return [rng.choice(_CLI_HELP)]
    return []


def _cli_argv(rng, backend, paths: dict) -> list[str]:
    roll = rng.random()
    if roll < 0.06:  # no subcommand, an unknown one, or options before it
        head = rng.choice(([], ["frobnicate"], ["EVAL"], ["ev"], [""], ["--"], ["-x"], ["--json"], ["-h"],
                           ["--backend", "int"], ["--", "eval"], ["-x", "eval"]))
        return head + rng.choice(([], ["--algebra", "builtin:polynomial", "--expr", "1"]))
    command = rng.choice(sorted(_CLI_OPTIONS))
    names = ("--help", "--backend", "--json") + _CLI_OPTIONS[command]
    opts = _cli_options(rng, backend, command, paths)
    extra = []
    for _ in range(rng.choice((0, 1, 1, 2))):
        extra += _cli_mutate(rng, command, opts, paths)
    tokens = []
    for name, values in opts:
        spelled = _cli_spell(rng, names, name) if rng.random() < 0.2 else name
        if values and rng.random() < 0.2:
            tokens += [f"{spelled}={values[0]}", *values[1:]]
        else:
            tokens += [spelled, *values]
    at = rng.randint(0, len(tokens))
    return [command] + tokens[:at] + extra + tokens[at:]


def _strip_usage(err: str) -> str:
    """err without a leading usage message: its 'usage:' line and the indented lines that continue it."""
    lines = err.splitlines(keepends=True)
    if lines and lines[0].startswith("usage:"):
        lines.pop(0)
        while lines and lines[0].startswith(" "):
            lines.pop(0)
    return "".join(lines)


def _cli(rng, backend):
    """(exit code, stdout, stderr) of cli.main in process; stdout is '<help>' when it printed help.

    Files live in a temporary directory whose path is written <dir> in the record.
    """
    with tempfile.TemporaryDirectory(prefix="falg-cli-") as root:
        argv = _cli_argv(rng, backend, _cli_files(rng, backend, root))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        out, err = out.getvalue(), _strip_usage(err.getvalue())
        if code == 0 and out.startswith("usage:"):
            out = "<help>"
        return [a.replace(root, "<dir>") for a in argv], code, out.replace(root, "<dir>"), err.replace(root, "<dir>")


OPERATIONS = {
    **{f"{kind}_{op}": _binary(kind, op)
       for kind in ("vector", "functional", "tensor", "map") for op in ("add", "sub")},
    **{f"{kind}_scale": _scale(kind) for kind in ("vector", "functional", "tensor", "map")},
    "apply": _apply,
    "compose": _compose,
    "mul": _mul,
    "mul_group_z": _mul_group_z,
    "mul_sparse_powers": _mul_sparse_powers,
    "poly_apply": _poly_apply,
    "tensor_pure": _tensor_pure,
    "map_via_tensor": _map_via_tensor,
    "evaluate": _evaluate,
    "tail_vector_add": _binary("tail_vector", "add"),
    "tail_map_add": _binary("tail_map", "add"),
    "tail_vector_scale": _scale("tail_vector"),
    "tail_map_scale": _scale("tail_map"),
    "tail_apply": _tail_apply,
    "tail_compose": _tail_compose,
    "tail_mul": _tail_mul,
    "tail_mul_group_z": _tail_mul_group_z,
    # one computation, recorded as two families: its prefix and its tail bound
    "tpoly_apply": lambda rng, backend: _tpoly_apply(rng, backend).prefix,
    "tpoly_apply_tail": lambda rng, backend: _tpoly_apply(rng, backend).tail,
    "tpoly_bound": _tpoly_bound,
    "check_laws": _check_laws,
    "norm_bounds": _norm_bounds,
    "construct": _construct,
    "construct_zeros": _construct_zeros,
    "wire": _wire,
    "cli": _cli,
}

FAMILIES = [f"{b}/{op}" for b in BACKENDS for op in OPERATIONS]


def records(family: str, block: int) -> list[str]:
    """The records of one block: repr of each result, or 'Type: message'."""
    backend_name, op = family.split("/", 1)
    backend, case = BACKENDS[backend_name], OPERATIONS[op]
    rng = random.Random(f"{family}:{block}")
    out = []
    for _ in range(CASES):
        try:
            out.append(repr(case(rng, backend)))
        except (ArithmeticError, AttributeError, LookupError, TypeError, ValueError) as e:
            out.append(f"{type(e).__name__}: {e}")
    return out


def digest(family: str, block: int) -> str:
    return hashlib.sha256("\n".join(records(family, block)).encode()).hexdigest()


def mismatches(expected: dict, blocks) -> list[str]:
    """'family block' for every family and block whose digest differs from expected."""
    return [
        f"{family} {b}"
        for family in FAMILIES
        for b in blocks
        if expected.get(family, [None] * BLOCKS)[b] != digest(family, b)
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--full", action="store_true", help="check every block, not only block 0")
    parser.add_argument("--dump", metavar="FAMILY", help="print the records of one family")
    parser.add_argument("--block", type=int, help="with --dump: only this block")
    parser.add_argument("--write", action="store_true", help=f"write this tree's digests to {DIGESTS.name}")
    args = parser.parse_args(argv)
    if args.dump:
        if args.dump not in FAMILIES:
            parser.error(f"unknown family {args.dump!r}; one of {', '.join(FAMILIES)}")
        for b in range(BLOCKS) if args.block is None else [args.block]:
            for i, line in enumerate(records(args.dump, b)):
                print(f"{b}.{i}\t{line}")
        return 0
    if args.write:
        table = {family: [digest(family, b) for b in range(BLOCKS)] for family in FAMILIES}
        DIGESTS.write_text(json.dumps(table, indent=1) + "\n")
        print(f"wrote {len(table)} families x {BLOCKS} blocks to {DIGESTS}")
        return 0
    bad = mismatches(json.loads(DIGESTS.read_text()), range(BLOCKS) if args.full else [0])
    for line in bad:
        print(f"mismatch: {line}")
    print(f"{len(bad)} mismatched of {len(FAMILIES) * (BLOCKS if args.full else 1)} blocks")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
