"""The accumulate-once kernels against naive Fraction oracles.

Every sum of products (products, map application and composition, polylinear
and tensor evaluation, scaling) follows one reduction rule, on numerator
forms or, in map application, reading the stored columns in place; these
properties pin its results to sums written out directly from the
definitions, on inputs whose partial sums cancel to zero and reappear, and
check that no zero is ever stored.  On the exact backends the sums run over
integer numerators with one common denominator; those tests use large
coprime denominators and also pin the key order to that of a left-to-right
chain of canonical additions.  The float tests pin the rounding: each result
must equal a left-to-right sequential sum of the same terms, bit for bit,
and a result that overflows must raise.  Products in the power bases add
exponents instead of looking up table entries; those properties pin them to
the lookup loop's results, repr for repr.
"""

import itertools
import math
import re
import time
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from falg import (
    FLOAT64,
    INTEGER,
    RATIONAL,
    CertificateError,
    ColumnFiniteMap,
    DualFunctional,
    HamelVector,
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
    identity_on,
    load_builtin,
    map_via_tensor,
    poly_apply,
    table_from_data,
    tail_mul,
    tensor_pure,
    tpoly_apply,
)
from falg import hamel, ring

from support import assert_canonical

# few distinct values, so partial sums cancel often
coeffs = st.sampled_from([Fraction(n, d) for n in (-2, -1, 1, 2) for d in (1, 3)])
raw_vectors = st.dictionaries(st.integers(0, 6), coeffs, max_size=5)
raw_maps = st.dictionaries(st.integers(0, 6), raw_vectors.filter(bool), max_size=4)


def _add_term(acc: dict, k, x) -> None:
    acc[k] = acc.get(k, 0) + x


def _nonzero(acc: dict) -> dict:
    return {k: x for k, x in acc.items() if x != 0}


def _raw(obj) -> dict:
    if isinstance(obj, ColumnFiniteMap):
        return {j: _raw(col) for j, col in obj.cols.items()}
    return {k: c.value for k, c in obj.coords.items()}


def _vec(raw: dict) -> HamelVector:
    return HamelVector(RATIONAL, raw)


def _map(raw: dict) -> ColumnFiniteMap:
    return ColumnFiniteMap(RATIONAL, {j: _vec(col) for j, col in raw.items()})


def _neg(raw: dict) -> dict:
    return {k: -x for k, x in raw.items()}


# naive oracles, written from the definitions --------------------------------

_WORDS = ["".join(w) for n in range(9) for w in itertools.product("ab", repeat=n)]
_WORD_INDEX = {w: i for i, w in enumerate(_WORDS)}
_QUAT = {(0, n): (n, 1) for n in range(4)} | {(n, 0): (n, 1) for n in range(4)}
_QUAT |= {(n, n): (0, -1) for n in (1, 2, 3)}
for (_i, _j), _k in {(1, 2): 3, (2, 3): 1, (3, 1): 2}.items():
    _QUAT[(_i, _j)], _QUAT[(_j, _i)] = (_k, 1), (_k, -1)

RULES = {
    "polynomial": lambda i, j: {i + j: 1},
    "free:2": lambda i, j: {_WORD_INDEX[_WORDS[i] + _WORDS[j]]: 1},
    "quaternion": lambda i, j: {_QUAT[(i, j)][0]: _QUAT[(i, j)][1]} if (i, j) in _QUAT else {},
}


def oracle_mul(rule, a: dict, b: dict) -> dict:
    out: dict = {}
    for i, ai in a.items():
        for j, bj in b.items():
            for k, c in rule(i, j).items():
                _add_term(out, k, ai * bj * c)
    return _nonzero(out)


def oracle_apply(f: dict, x: dict) -> dict:
    out: dict = {}
    for j, xj in x.items():
        for i, c in f.get(j, {}).items():
            _add_term(out, i, xj * c)
    return _nonzero(out)


def oracle_compose(f: dict, g: dict) -> dict:
    cols = {j: oracle_apply(f, col) for j, col in g.items()}
    return {j: col for j, col in cols.items() if col}


def oracle_bilinear(slots: dict, x: dict, y: dict) -> dict:
    out: dict = {}
    for j, xj in x.items():
        for i, c in oracle_apply(slots.get(j, {}), y).items():
            _add_term(out, i, xj * c)
    return _nonzero(out)


def oracle_pure(factors: list) -> dict:
    out = {}
    for combo in itertools.product(*(f.items() for f in factors)):
        value = Fraction(1)
        for _, c in combo:
            value *= c
        out[tuple(i for i, _ in combo)] = value
    return _nonzero(out)


# exact properties -----------------------------------------------------------


@given(name=st.sampled_from(sorted(RULES)), a=raw_vectors, b=raw_vectors)
def test_mul_matches_oracle(name, a, b):
    if name == "quaternion":
        a = {i % 4: c for i, c in a.items()}
        b = {i % 4: c for i, c in b.items()}
    result = load_builtin(name).table.mul(_vec(a), _vec(b))
    assert_canonical(result)
    assert _raw(result) == oracle_mul(RULES[name], a, b)


def test_mul_coordinate_cancels_then_returns():
    # c(1 + x + x^2) * d(x^2 - x + 1): x^2 reaches zero at (1, 1), then (2, 0) adds it back
    c, d = Fraction(2, 3), Fraction(-5, 7)
    a = {0: c, 1: c, 2: c}
    b = {2: d, 1: -d, 0: d}
    result = load_builtin("polynomial").table.mul(_vec(a), _vec(b))
    assert_canonical(result)
    assert _raw(result) == oracle_mul(RULES["polynomial"], a, b) == {0: c * d, 2: c * d, 4: c * d}


@given(f=raw_maps, x=raw_vectors)
def test_apply_matches_oracle(f, x):
    result = _map(f).apply(_vec(x))
    assert_canonical(result)
    assert _raw(result) == oracle_apply(f, x)


@given(v=raw_vectors.filter(bool), w=raw_vectors, c=coeffs, d=coeffs)
def test_apply_cancels_partway(v, w, c, d):
    # columns v and -v at equal weight cancel to zero before w and v add back
    f = {0: v, 1: _neg(v), 2: w, 3: v}
    x = {0: c, 1: c, 2: d, 3: d}
    result = _map(f).apply(_vec(x))
    assert_canonical(result)
    assert _raw(result) == oracle_apply(f, x)


@given(f=raw_maps, g=raw_maps, v=raw_vectors.filter(bool))
def test_compose_matches_oracle(f, g, v):
    f = {**f, 5: v, 6: _neg(v)}
    g = {**g, 7: {5: Fraction(1), 6: Fraction(1)}}  # composes to v + (-v): an empty column
    result = _map(f).compose(_map(g))
    assert_canonical(result)
    assert 7 not in result.cols
    assert _raw(result) == oracle_compose(f, g)


@given(slots=st.dictionaries(st.integers(0, 4), raw_maps, max_size=4), m=raw_maps,
       x=raw_vectors, y=raw_vectors, c=coeffs)
def test_poly_apply_matches_oracle(slots, m, x, y, c):
    # slots 5 and 6 hold m and -m at equal weight: their sum cancels
    slots = {**slots, 5: m, 6: {j: _neg(col) for j, col in m.items()}}
    x = {**x, 5: c, 6: c}
    nest = PolyMap(RATIONAL, 2, {j: _map(s) for j, s in slots.items()})
    result = poly_apply(nest, [_vec(x), _vec(y)])
    assert_canonical(result)
    assert _raw(result) == oracle_bilinear(slots, x, y)


@given(factors=st.lists(raw_vectors, min_size=1, max_size=3))
def test_tensor_pure_matches_oracle(factors):
    t = tensor_pure([_vec(f) for f in factors])
    assert_canonical(t)
    assert t.arity == len(factors)
    assert _raw(t) == oracle_pure(factors)


@given(a=raw_vectors, b=raw_vectors, c=coeffs)
def test_tensor_add_and_scale_cancel(a, b, c):
    s, t = tensor_pure([_vec(a), _vec(b)]), tensor_pure([_vec(b), _vec(a)])
    assert_canonical(s + t.scale(RATIONAL.scalar(c)))
    assert (s + (-s)).is_zero() and (s - s) == TensorElement(RATIONAL, 2, {})


@given(t=st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)), coeffs, max_size=4),
       f=st.dictionaries(st.integers(0, 3), raw_vectors, max_size=3),
       x=st.dictionaries(st.integers(0, 3), coeffs, max_size=3))
def test_map_via_tensor_matches_oracle(t, f, x):
    table = load_builtin("free:2").table
    result = map_via_tensor(table, TensorElement(RATIONAL, 2, t), _map(f), _vec(x), samples=4)
    fx = oracle_apply(f, x)
    expected: dict = {}
    for (i, j), c in t.items():
        for k, v in fx.items():
            _add_term(expected, _WORD_INDEX[_WORDS[i] + _WORDS[k] + _WORDS[j]], c * v)
    assert_canonical(result)
    assert _raw(result) == _nonzero(expected)


# float64: the same terms, summed left to right ------------------------------

# quotients like 7/3 round, so a different association or order changes bits
floats = st.builds(lambda n, d: n / d, st.integers(-10**6, 10**6), st.integers(1, 999)) | st.floats(
    min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False
)
float_vectors = st.dictionaries(st.integers(0, 5), floats, min_size=1, max_size=6)
float_columns = st.dictionaries(st.integers(0, 2), floats, min_size=1, max_size=3)


def _sequential(terms) -> dict:
    out: dict = {}
    for k, x in terms:
        out[k] = out.get(k, 0.0) + x
    return {k: x for k, x in out.items() if x}


@given(cells=st.dictionaries(st.tuples(st.integers(0, 5), st.integers(0, 5)),
                             float_columns, max_size=12),
       a=float_vectors, b=float_vectors)
def test_float_mul_is_sequential_sum(cells, a, b):
    table = StructureTable(FLOAT64, entries=cells)
    av, bv = HamelVector(FLOAT64, a), HamelVector(FLOAT64, b)
    terms = [
        (k, (ai.value * bj.value) * c.value)
        for i, ai in av.coords.items()
        for j, bj in bv.coords.items()
        for k, c in table.lookup(i, j).coords.items()
    ]
    assert _raw(table.mul(av, bv)) == _sequential(terms)


def _float_map(raw: dict) -> ColumnFiniteMap:
    return ColumnFiniteMap(FLOAT64, {j: HamelVector(FLOAT64, col) for j, col in raw.items()})


def _seq_apply(fm: ColumnFiniteMap, xv: HamelVector) -> dict:
    return _sequential(
        (i, xj.value * c.value)
        for j, xj in xv.coords.items()
        if j in fm.cols
        for i, c in fm.cols[j].coords.items()
    )


float_maps = st.dictionaries(st.integers(0, 5), float_columns, max_size=6)


@given(f=float_maps, x=float_vectors)
def test_float_apply_is_sequential_sum(f, x):
    fm, xv = _float_map(f), HamelVector(FLOAT64, x)
    assert _raw(fm.apply(xv)) == _seq_apply(fm, xv)


@given(f=float_maps, g=float_maps)
def test_float_compose_is_sequential_sum(f, g):
    fm, gm = _float_map(f), _float_map(g)
    result = fm.compose(gm)
    assert_canonical(result)
    expected = {j: _seq_apply(fm, col) for j, col in gm.cols.items()}
    assert _raw(result) == {j: col for j, col in expected.items() if col}


def _seq_poly(nest, xs) -> dict:
    if isinstance(nest, ColumnFiniteMap):
        return _seq_apply(nest, xs[0])
    return _sequential(
        (k, c.value * y)
        for j, c in xs[0].coords.items()
        if j in nest.slots
        for k, y in _seq_poly(nest.slots[j], xs[1:]).items()
    )


@given(data=st.data(), arity=st.integers(2, 3))
def test_float_poly_apply_is_sequential_sum(data, arity):
    def nest(depth):
        if depth == 1:
            return _float_map(data.draw(float_maps))
        slots = data.draw(st.lists(st.integers(0, 5), max_size=3, unique=True))
        return PolyMap(FLOAT64, depth, {j: nest(depth - 1) for j in slots})

    top = nest(arity)
    xs = [HamelVector(FLOAT64, data.draw(float_vectors)) for _ in range(arity)]
    assert _raw(poly_apply(top, xs)) == _seq_poly(top, xs)


# coordinates near 2**-400: a product of two or three of them can underflow to 0
tiny_floats = floats | st.builds(lambda m, e: m * 2.0 ** e, floats.filter(bool), st.integers(-600, -300))


@given(factors=st.lists(st.dictionaries(st.integers(0, 5), tiny_floats, max_size=4), min_size=1, max_size=3))
def test_float_tensor_pure_is_sequential_product(factors):
    vs = [HamelVector(FLOAT64, f) for f in factors]
    t = tensor_pure(vs)
    assert_canonical(t)
    expected = {}
    for combo in itertools.product(*(v.coords.items() for v in vs)):
        value = 1.0
        for _, c in combo:
            value *= c.value
        expected[tuple(i for i, _ in combo)] = value
    assert _raw(t) == {k: x for k, x in expected.items() if x}


def test_float_tensor_pure_drops_underflow():
    tiny = HamelVector(FLOAT64, {0: 2.0 ** -600, 1: 3.0})
    assert _raw(tensor_pure([tiny, tiny])) == {(0, 1): 3 * 2.0 ** -600, (1, 0): 3 * 2.0 ** -600, (1, 1): 9.0}


@given(t=st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)), floats, max_size=4),
       f=st.dictionaries(st.integers(0, 3), float_columns, max_size=3), x=float_vectors)
def test_float_map_via_tensor_is_sequential_sum(t, f, x):
    table = load_builtin("polynomial", FLOAT64).table
    tt = TensorElement(FLOAT64, 2, t)
    fm, xv = _float_map(f), HamelVector(FLOAT64, x)
    fx = fm.apply(xv)
    terms = []
    for (i, j), c in tt.coords.items():
        e_i, e_j = HamelVector(FLOAT64, {i: 1.0}), HamelVector(FLOAT64, {j: 1.0})
        terms += [(k, c.value * y.value) for k, y in table.mul(table.mul(e_i, fx), e_j).coords.items()]
    assert _raw(map_via_tensor(table, tt, fm, xv, samples=4)) == _sequential(terms)


def _f64(coords) -> HamelVector:
    return HamelVector(FLOAT64, coords)


_BIG = _f64({0: 1e308})
_POLY64 = load_builtin("polynomial", FLOAT64).table


@pytest.mark.parametrize("op", [
    lambda: _BIG + _BIG,
    lambda: _BIG.scale(FLOAT64.scalar(10)),
    lambda: FLOAT64.scalar(1e308) + FLOAT64.scalar(1e308),
    lambda: FLOAT64.scalar(1e308) * FLOAT64.scalar(10),
    lambda: DualFunctional(FLOAT64, {0: 1e308}).evaluate(_f64({0: 10})),
    lambda: DualFunctional(FLOAT64, {0: 1e308}).scale(FLOAT64.scalar(10)),
    lambda: TensorElement(FLOAT64, 1, {(0,): 1e308}).scale(FLOAT64.scalar(10)),
    lambda: _float_map({0: {0: 1e308}}).apply(_f64({0: 10})),
    lambda: _float_map({0: {0: 1e308}}).compose(_float_map({0: {0: 10}})),
    lambda: _POLY64.mul(_BIG, _BIG),
    lambda: poly_apply(PolyMap(FLOAT64, 2, {0: _float_map({0: {0: 1e308}})}), [_f64({0: 10})] * 2),
    lambda: tensor_pure([_BIG, _BIG]),
    lambda: map_via_tensor(_POLY64, TensorElement(FLOAT64, 2, {(0, 0): 10}), _float_map({0: {0: 1e308}}), _f64({0: 1})),
], ids=["add", "scale", "scalar-add", "scalar-mul", "evaluate", "dual-scale", "tensor-scale",
        "apply", "compose", "mul", "poly_apply", "tensor_pure", "map_via_tensor"])
def test_float_overflow_raises(op):
    with pytest.raises(ValueError, match="float coefficients must be finite"):
        op()


# exact backends: integer numerators over one denominator --------------------

# few numerators over large coprime denominators: partial sums still cancel,
# and a shared denominator is a product of big primes
BIG_DENOMINATORS = (1, 3, 7, 65537, 2**31 - 1, 10**9 + 7, 2**61 - 1)
exact_backends = st.sampled_from([INTEGER, RATIONAL])
pairs = st.tuples(st.sampled_from((-2, -1, 1, 2)), st.sampled_from(BIG_DENOMINATORS))
pair_vectors = st.dictionaries(st.integers(0, 6), pairs, max_size=5)
pair_maps = st.dictionaries(st.integers(0, 6), pair_vectors.filter(bool), max_size=4)


def _exact(backend, pair):
    """n/d on the rational backend; n*d, a large integer, on the integer one."""
    n, d = pair
    return Fraction(n, d) if backend is RATIONAL else n * d


def _exact_vec(backend, raw: dict) -> HamelVector:
    return HamelVector(backend, {k: _exact(backend, p) for k, p in raw.items()})


def _exact_map(backend, raw: dict) -> ColumnFiniteMap:
    return ColumnFiniteMap(backend, {j: _exact_vec(backend, col) for j, col in raw.items()})


def _chain(terms) -> dict:
    """Fraction sum of (k, x) terms, left to right, as canonical additions go:
    a zero term is skipped and a coordinate whose sum cancels is removed."""
    out: dict = {}
    for k, x in terms:
        if x == 0:
            continue
        if k in out:
            x = out[k] + x
            if x == 0:
                del out[k]
                continue
        out[k] = Fraction(x)
    return out


def _pairs(obj) -> list:
    """(key, Fraction value) in stored order."""
    return [(k, Fraction(c.value)) for k, c in obj.coords.items()]


def _assert_exact(result, expected: dict) -> None:
    """Same values in the same key order, each stored as its backend's own type:
    an int, or a Fraction (not a subclass) in lowest terms over a positive denominator."""
    assert_canonical(result)
    assert _pairs(result) == list(expected.items())
    for c in result.coords.values():
        x = c.value
        if result.backend is INTEGER:
            assert type(x) is int
        elif result.backend is FLOAT64:
            assert type(x) is float
        else:
            assert type(x) is Fraction
            assert x.denominator > 0 and gcd(x.numerator, x.denominator) == 1


def _ref_apply(f: ColumnFiniteMap, x) -> dict:
    return _chain(
        (i, xj * c.value)
        for j, xj in x
        if j in f.cols
        for i, c in f.cols[j].coords.items()
    )


def _ref_mul(table: StructureTable, a, b) -> dict:
    return _chain(
        (k, xi * yj * c.value)
        for i, xi in a
        for j, yj in b
        for k, c in table.lookup(i, j).coords.items()
    )


@given(backend=exact_backends, f=pair_maps, x=pair_vectors)
def test_exact_apply_is_chained_sum(backend, f, x):
    fm, xv = _exact_map(backend, f), _exact_vec(backend, x)
    _assert_exact(fm.apply(xv), _ref_apply(fm, _pairs(xv)))


@given(backend=exact_backends, f=pair_maps, g=pair_maps, v=pair_vectors.filter(bool))
def test_exact_compose_is_chained_sum(backend, f, g, v):
    f = {**f, 5: v, 6: {k: (-n, d) for k, (n, d) in v.items()}}
    g = {**g, 7: {5: (1, 1), 6: (1, 1)}}  # composes to v + (-v): an empty column
    fm, gm = _exact_map(backend, f), _exact_map(backend, g)
    result = fm.compose(gm)
    assert_canonical(result)
    expected = {j: _ref_apply(fm, _pairs(col)) for j, col in gm.cols.items()}
    expected = {j: col for j, col in expected.items() if col}
    assert list(result.cols) == list(expected)
    for j, col in result.cols.items():
        _assert_exact(col, expected[j])


# structure constants over 2, 3 and 7: the running denominator of a product
# grows as pairs with new denominators arrive, and the sum is rescaled
MIXED = StructureTable(
    RATIONAL,
    "mixed",
    entries={
        (i, j): {(i + j) % 5: Fraction(1 + i, (2, 3, 7)[(i + 2 * j) % 3]),
                 (i * j) % 5: Fraction(-1 - j, (2, 3, 7)[(i + j) % 3])}
        for i in range(5)
        for j in range(5)
        if (i, j) != (4, 4)
    },
)


def _mixed_rule(i, j):
    entry = MIXED.entries.get((i, j))
    return {} if entry is None else _raw(entry)


@given(backend=exact_backends, name=st.sampled_from(["polynomial", "free:2", "mixed"]),
       a=pair_vectors, b=pair_vectors)
def test_exact_mul_is_chained_sum(backend, name, a, b):
    if name == "mixed":
        backend, a, b = RATIONAL, {k % 5: p for k, p in a.items()}, {k % 5: p for k, p in b.items()}
    table = MIXED if name == "mixed" else load_builtin(name, backend).table
    av, bv = _exact_vec(backend, a), _exact_vec(backend, b)
    result = table.mul(av, bv)
    _assert_exact(result, _ref_mul(table, _pairs(av), _pairs(bv)))
    rule = _mixed_rule if name == "mixed" else RULES[name]
    assert _raw(result) == oracle_mul(rule, _raw(av), _raw(bv))


def test_mul_rescales_across_new_denominators():
    # (0,0) sums over 6; (0,1) brings 7, so the sum is rescaled to 42 just as
    # coordinate 0 cancels; (0,2) then brings 0 back, now last in key order
    table = StructureTable(RATIONAL, entries={
        (0, 0): {0: Fraction(1, 2), 1: Fraction(1, 3)},
        (0, 1): {0: Fraction(-1, 2), 2: Fraction(1, 7)},
        (0, 2): {0: Fraction(1, 2)},
    })
    result = table.mul(HamelVector(RATIONAL, {0: 1}), HamelVector(RATIONAL, {0: 1, 1: 1, 2: 1}))
    _assert_exact(result, {1: Fraction(1, 3), 2: Fraction(1, 7), 0: Fraction(1, 2)})


def _ref_poly(nest, xs) -> dict:
    if isinstance(nest, ColumnFiniteMap):
        return _ref_apply(nest, xs[0])
    terms = []
    for j, c in xs[0]:
        if j in nest.slots:
            terms += [(k, c * x) for k, x in _ref_poly(nest.slots[j], xs[1:]).items()]
    return _chain(terms)


@given(backend=exact_backends, data=st.data(), arity=st.integers(2, 3))
def test_exact_poly_apply_is_chained_sum(backend, data, arity):
    def nest(depth):
        if depth == 1:
            return _exact_map(backend, data.draw(pair_maps))
        slots = data.draw(st.lists(st.integers(0, 6), max_size=3, unique=True))
        return PolyMap(backend, depth, {j: nest(depth - 1) for j in slots})

    top = nest(arity)
    xs = [_exact_vec(backend, data.draw(pair_vectors)) for _ in range(arity)]
    _assert_exact(poly_apply(top, xs), _ref_poly(top, [_pairs(x) for x in xs]))


@given(backend=exact_backends, factors=st.lists(pair_vectors, min_size=1, max_size=3))
def test_exact_tensor_pure_matches_products(backend, factors):
    vs = [_exact_vec(backend, f) for f in factors]
    t = tensor_pure(vs)
    expected = {}
    for combo in itertools.product(*(_pairs(v) for v in vs)):
        value = Fraction(1)
        for _, c in combo:
            value *= c
        expected[tuple(i for i, _ in combo)] = value
    _assert_exact(t, expected)


@given(backend=exact_backends,
       t=st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)), pairs, max_size=4),
       f=st.dictionaries(st.integers(0, 3), pair_vectors, max_size=3),
       x=st.dictionaries(st.integers(0, 3), pairs, max_size=3))
def test_exact_map_via_tensor_is_chained_sum(backend, t, f, x):
    table = load_builtin("free:2", backend).table
    tt = TensorElement(backend, 2, {k: _exact(backend, p) for k, p in t.items()})
    fm, xv = _exact_map(backend, f), _exact_vec(backend, x)
    result = map_via_tensor(table, tt, fm, xv, samples=4)
    fx = list(_ref_apply(fm, _pairs(xv)).items())
    terms = []
    for (i, j), c in tt.coords.items():
        left = list(_ref_mul(table, [(i, Fraction(1))], fx).items())
        terms += [(k, c.value * v) for k, v in _ref_mul(table, left, [(j, Fraction(1))]).items()]
    _assert_exact(result, _chain(terms))


# scale: one split, times the scalar's numerator, over the scalar's denominator

SCALE_VALUES = {
    INTEGER: st.integers(-(10**20), 10**20),
    RATIONAL: st.builds(Fraction, st.integers(-50, 50), st.sampled_from(BIG_DENOMINATORS)),
    FLOAT64: tiny_floats,  # products of two of these can underflow to 0
}


def _scaled(table, s) -> dict:
    """The nonzero s * value of every coordinate, in stored order: Fraction
    products on the exact backends, the float product itself on float64."""
    out = {}
    for k, c in table.coords.items():
        x = s.value * c.value if table.backend is FLOAT64 else Fraction(s.value) * Fraction(c.value)
        if x:
            out[k] = Fraction(x)
    return out


@given(data=st.data(), backend=st.sampled_from([INTEGER, RATIONAL, FLOAT64]),
       kind=st.sampled_from(["vector", "functional", "tensor", "map", "tail_vector", "tail_map"]))
def test_scale_is_per_coordinate_product(data, backend, kind):
    values = SCALE_VALUES[backend]
    raw = st.dictionaries(st.integers(0, 6), values, max_size=6)
    s = backend.scalar(data.draw(st.just(0) | values))
    tail = backend.norm_check(Fraction(data.draw(st.integers(0, 9)), 4))
    if kind in ("map", "tail_map"):
        part = ColumnFiniteMap(backend, data.draw(st.dictionaries(st.integers(0, 4), raw, max_size=4)))
    elif kind == "tensor":
        keys = st.tuples(st.integers(0, 3), st.integers(0, 3))
        part = TensorElement(backend, 2, data.draw(st.dictionaries(keys, values, max_size=6)))
    else:
        part = (DualFunctional if kind == "functional" else HamelVector)(backend, data.draw(raw))
    value = {"tail_vector": TailVector, "tail_map": TailMap}.get(kind, lambda p, t: p)(part, tail)
    result = value.scale(s)
    if kind.startswith("tail_"):
        assert result.tail == backend.norm_mul(s.norm(), tail)
        result = result.prefix if kind == "tail_vector" else result.finite
    assert type(result) is type(part)
    if isinstance(part, ColumnFiniteMap):
        expected = {j: _scaled(col, s) for j, col in part.cols.items()}
        expected = {j: col for j, col in expected.items() if col}
        assert list(result.cols) == list(expected)
        for j, col in result.cols.items():
            _assert_exact(col, expected[j])
    else:
        _assert_exact(result, _scaled(part, s))
        assert getattr(result, "arity", None) == getattr(part, "arity", None)
    if s.is_zero():
        assert result.is_zero()


@pytest.mark.parametrize("backend", [INTEGER, RATIONAL, FLOAT64])
def test_pair_bound_violation_raises_on_every_mul(backend):
    table = StructureTable(backend, entries={(0, 0): {0: 1}, (0, 1): {0: 3}}, pair_bound=2)
    a = HamelVector(backend, {0: 1})
    b = HamelVector(backend, {0: 1, 1: 1})
    for _ in range(2):
        with pytest.raises(CertificateError):
            table.mul(a, b)
    assert table.mul(a, a) == HamelVector(backend, {0: 1})
    with pytest.raises(CertificateError):
        table.mul(a, b)
    assert len(table.entries) == 2


def test_float_pair_bound_check_reads_one_entry_exactly():
    # the mass of a single term is exact, so it must not be rounded down
    table = StructureTable(FLOAT64, entries={(0, 0): {0: 1.5}}, pair_bound=math.nextafter(1.5, 0))
    with pytest.raises(CertificateError, match="sum of [|]C[|] is 1.5,"):
        table.mul(_f64({0: 1}), _f64({0: 1}))


@pytest.mark.parametrize("entry, error, message", [
    ({0: 0.5, 1: 0.5}, None, None),
    ({0: 0.5, 1: 0.75}, CertificateError, "sum of [|]C[|] is 1.2499999999999998, declared bound 1.0"),
    ({0: 1e308, 1: 1e308}, OverflowError, "bound arithmetic left the finite range"),
], ids=["at-bound", "over-bound", "overflow"])
def test_float_pair_bound_check_under_one(entry, error, message):
    # the lo end of the mass is one ulp under the rounded sum, so a sum of exactly K passes
    table = StructureTable(FLOAT64, entries={(0, 0): entry}, pair_bound=1.0)
    if error is None:
        assert table.mul(_f64({0: 1}), _f64({0: 1})) == _f64(entry)
        return
    with pytest.raises(error, match=message):
        table.mul(_f64({0: 1}), _f64({0: 1}))


# column sums read the stored columns in place -------------------------------

# Each case is a map f, a weight vector x and the expected result of
# sum_j x[j] * f[j] in stored key order (or the ValueError it raises).  The
# same sum is taken three ways: f.apply(x); column 5 of f.compose(g) with
# g's column 5 equal to x; and tpoly_apply of the arity-2 nest whose slot j
# holds f[j] as column 0, fed x and then e_0, whose leaf column is that sum.
COLUMN_CASES = {
    # column lcms 6, 1 and 20 under D = 60; column 1 is integral
    "rat-denominators": (RATIONAL,
        {0: {0: Fraction(1, 2), 1: Fraction(1, 3)}, 1: {1: 2, 2: -5}, 2: {0: Fraction(1, 4), 2: Fraction(3, 10)}},
        {0: 1, 1: Fraction(1, 7), 2: Fraction(2, 3)},
        [(0, Fraction(2, 3)), (1, Fraction(13, 21)), (2, Fraction(-18, 35))]),
    # coordinate 1 cancels after column 1, then column 2 brings it back, last but one
    "rat-cancel-and-return": (RATIONAL,
        {0: {0: Fraction(1, 2), 1: Fraction(1, 3)}, 1: {1: Fraction(-1, 3), 2: Fraction(1, 5)},
         2: {1: Fraction(2, 7), 3: 1}},
        {0: Fraction(3, 4), 1: Fraction(3, 4), 2: Fraction(2, 5)},
        [(0, Fraction(3, 8)), (2, Fraction(3, 20)), (1, Fraction(4, 35)), (3, Fraction(2, 5))]),
    "int-cancel-and-return": (INTEGER,
        {0: {0: 2, 1: 3}, 1: {1: -3, 2: 5}, 2: {1: 7, 3: 1}}, {0: 1, 1: 1, 2: 2},
        [(0, 2), (2, 5), (1, 14), (3, 2)]),
    "f64-cancel-and-return": (FLOAT64,
        {0: {0: 0.5, 1: 0.25}, 1: {1: -0.25, 2: 1.5}, 2: {1: 3.0, 3: 1.0}}, {0: 1.0, 1: 1.0, 2: 0.5},
        [(0, 0.5), (2, 1.5), (1, 1.5), (3, 0.5)]),
    # 2^-600 * 2^-600 underflows to 0.0 and is skipped, so coordinate 0 comes last
    "f64-underflow": (FLOAT64,
        {0: {0: 2.0**-600, 1: 1.0}, 1: {0: 1.0}}, {0: 2.0**-600, 1: 1.0},
        [(1, 2.0**-600), (0, 1.0)]),
    # each term is finite; their sum is not
    "f64-overflow": (FLOAT64,
        {0: {0: 1e307}, 1: {0: 1e307}}, {0: 10.0, 1: 10.0},
        "float coefficients must be finite"),
}


def _column_sum_by(op: str, backend, f: dict, x: dict) -> HamelVector:
    if op == "apply":
        return ColumnFiniteMap(backend, f).apply(HamelVector(backend, x))
    if op == "compose":
        result = ColumnFiniteMap(backend, f).compose(ColumnFiniteMap(backend, {5: x}))
        assert list(result.cols) == [5]
        return result.cols[5]
    slots = {j: TailMap.lift(ColumnFiniteMap(backend, {0: col})) for j, col in f.items()}
    nest = TailPolyMap(backend, 2, slots)
    return tpoly_apply(nest, [TailVector.make(backend, x), TailVector.make(backend, {0: 1})]).prefix


@pytest.mark.parametrize("op", ["apply", "compose", "tpoly_apply"])
@pytest.mark.parametrize("case", list(COLUMN_CASES))
def test_column_sum_examples(case, op):
    backend, f, x, expected = COLUMN_CASES[case]
    if isinstance(expected, str):
        with pytest.raises(ValueError, match=expected):
            _column_sum_by(op, backend, f, x)
        return
    result = _column_sum_by(op, backend, f, x)
    _assert_exact(result, dict(expected))
    assert [(k, c.value) for k, c in result.coords.items()] == expected


# power bases multiply by exponent arithmetic --------------------------------

# on f64: quotients that round, and values whose products underflow to 0.0 or overflow
POWER_VALUES = {
    INTEGER: st.sampled_from([-2, -1, 1, 2, 10**12 + 39]),
    RATIONAL: st.sampled_from([Fraction(n, d) for n in (-2, -1, 1, 2) for d in (1, 3, 65537)]),
    FLOAT64: st.sampled_from([-2.0, -1.0, 1.0, 2.0, 1 / 3, -1 / 3, 0.1, 2.0**-600, -(2.0**-600), 1e300, -1e300]),
}


def _generic_twin(table: StructureTable) -> StructureTable:
    """The same rule without the exponent codec, so products take the lookup loop."""
    return StructureTable(table.backend, table.name, rule=table.rule, pair_bound=1)


def _power_mul(backend, name, a: dict, b: dict):
    """table.mul(a, b) on the builtin, after checking it against the lookup loop, repr for repr."""
    table = load_builtin(name, backend).table
    av, bv = HamelVector(backend, a), HamelVector(backend, b)
    try:
        result = table.mul(av, bv)
    except ValueError as e:
        with pytest.raises(type(e), match=f"^{re.escape(str(e))}$"):
            _generic_twin(table).mul(av, bv)
        raise
    assert repr(result) == repr(_generic_twin(table).mul(av, bv))
    return result


@given(data=st.data(), backend=st.sampled_from([INTEGER, RATIONAL, FLOAT64]),
       name=st.sampled_from(["polynomial", "group_z"]))
def test_power_basis_mul_matches_the_lookup_loop(data, backend, name):
    # dict draws list their keys unsorted; on group_z, even indices >= 2 are negative exponents
    vectors = st.dictionaries(st.integers(0, 8), POWER_VALUES[backend], max_size=6)
    try:
        _power_mul(backend, name, data.draw(vectors), data.draw(vectors))
    except ValueError:
        assert backend is FLOAT64  # an overflow, raised alike by both


@pytest.mark.parametrize("backend, name, a, b, expected", [
    # (1 + x + x^2)(x^2 - x + 1): x^2 cancels twice and comes back last
    (RATIONAL, "polynomial", {0: 1, 1: 1, 2: 1}, {2: 1, 1: -1, 0: 1}, [(0, 1), (4, 1), (2, 1)]),
    # (g^-2 + g^2 + 1 + g^-1)(2g^-1 - 2g + g^2), zig-zag indexed: g^-1 cancels,
    # and g cancels and comes back last
    (INTEGER, "group_z", {4: 1, 3: 1, 0: 1, 2: 1}, {2: 2, 1: -2, 3: 1},
     [(6, 2), (0, -1), (5, -2), (7, 1), (3, 1), (4, 2), (1, 1)]),
    # 2^-600 * 2^-600 underflows to 0.0 and is skipped, so x comes last
    (FLOAT64, "polynomial", {1: 2.0**-600, 0: 1.0}, {0: 2.0**-600, 1: 1.0},
     [(2, 2.0**-600), (0, 2.0**-600), (1, 1.0)]),
    (FLOAT64, "group_z", {2: 1e300}, {2: 1e300, 0: 1.0}, "float coefficients must be finite"),
], ids=["cancel-and-return", "negative-exponents", "underflow", "overflow"])
def test_power_basis_mul_examples(backend, name, a, b, expected):
    if isinstance(expected, str):
        with pytest.raises(ValueError, match=expected):
            _power_mul(backend, name, a, b)
    else:
        assert list(_raw(_power_mul(backend, name, a, b)).items()) == expected


def test_power_basis_far_apart_exponents_are_cheap():
    poly = load_builtin("polynomial", RATIONAL).table
    start = time.process_time()
    result = poly.mul(_vec({100000: 1}), _vec({1: 1}))
    group = load_builtin("group_z", RATIONAL).table
    inverse = group.mul(_vec({2 * 10**9: 3}), _vec({2 * 10**9 - 1: Fraction(1, 3)}))  # g^-10^9 * g^10^9
    assert time.process_time() - start < 0.5
    assert _raw(result) == {100001: 1} and _raw(inverse) == {0: 1}


@pytest.mark.parametrize("backend", [INTEGER, RATIONAL, FLOAT64])
@pytest.mark.parametrize("name", ["polynomial", "group_z"])
def test_power_basis_rebound_pair_bound_raises(backend, name):
    table = load_builtin(name, backend).table
    table.pair_bound = backend.norm_check(Fraction(1, 2))
    with pytest.raises(CertificateError, match="pair bound violated at [(]0, 0[)]"):
        table.mul(HamelVector(backend, {0: 1}), HamelVector(backend, {0: 1}))


# kernel Fractions are built without Fraction's constructor ------------------


def test_fraction_slots_are_as_assumed():
    # RationalBackend._coords and _mass write these two slots, and _split,
    # _column_sum and _num_den read them; a stdlib that renames them must fail here
    assert Fraction.__slots__ == ("_numerator", "_denominator")


multi_limb = st.integers(-(2**200), 2**200)


@given(n=st.one_of(st.integers(-12, 12), multi_limb), d=st.one_of(st.integers(1, 12), st.integers(1, 2**200)))
@example(n=0, d=6)
@example(n=-12, d=4)
@example(n=2**130 * 3, d=2**130)
def test_rational_coords_builds_reduced_fractions(n, d):
    # each Fraction is reduced by one gcd and its slots set in place
    raw = RATIONAL._coords((d, {0: n}))
    if n == 0:
        assert raw == {}  # a zero numerator is dropped over any denominator
        return
    r, f = raw[0], Fraction(n, d)
    assert type(r) is Fraction
    assert (r.numerator, r.denominator) == (f.numerator, f.denominator)
    assert r == f and hash(r) == hash(f)
    # read through a table, the value is a Scalar of the backend
    c = hamel._form_vector(RATIONAL, (d, {0: n})).coords[0]
    assert type(c) is Scalar and c.backend is RATIONAL and c.value == r


_ROUND_TRIP_VALUES = {
    "int": st.one_of(st.integers(-12, 12), multi_limb),
    "rat": st.builds(Fraction, st.one_of(st.integers(-12, 12), multi_limb), st.sampled_from(BIG_DENOMINATORS)),
    "f64": st.floats(allow_nan=False, allow_infinity=False),
}


@pytest.mark.parametrize("backend", [INTEGER, RATIONAL, FLOAT64], ids=lambda b: b.name)
@given(data=st.data())
def test_coords_inverts_split(backend, data):
    drawn = data.draw(st.dictionaries(st.integers(0, 9), _ROUND_TRIP_VALUES[backend.name], max_size=6))
    v = HamelVector(backend, drawn)
    den, nums = backend._split(v._raw)
    back = backend._coords((den, nums))
    assert list(back) == list(v._raw)
    for k, x in back.items():
        assert type(x) is type(v._raw[k]) and repr(x) == repr(v._raw[k])
    assert repr(hamel._form_vector(backend, (den, nums))) == repr(v)  # the same Scalars on read
    # a zero numerator is dropped, wherever it stands in the form
    at = data.draw(st.integers(0, len(nums)))
    items = list(nums.items())
    zero = 0.0 if backend is FLOAT64 else 0
    assert list(backend._coords((den, dict(items[:at] + [(10, zero)] + items[at:]))).items()) == list(back.items())


# no kernel builds a Scalar or a coords view ---------------------------------


def _kernel_calls(backend) -> dict:
    """Each kernel as a call on operands built beforehand."""
    poly = load_builtin("polynomial", backend).table
    quat = load_builtin("quaternion", backend).table
    v, w = HamelVector(backend, {0: 1, 1: 2, 3: -1}), HamelVector(backend, {1: 3, 2: 1})
    f = ColumnFiniteMap(backend, {0: {0: 1, 1: 2}, 1: {1: -1}, 2: {0: 3, 2: 1}})
    g = ColumnFiniteMap(backend, {0: {1: 1}, 2: {0: 2, 2: -1}})
    nest, t, d = PolyMap(backend, 2, {0: f, 1: g}), tensor_pure([v, w]), backend.scalar(3)
    tv, tw = TailVector.make(backend, {0: 1, 1: 2, 3: -1}, 1), TailVector.make(backend, {1: 3, 2: 1}, 0)
    tf = TailMap(f, 1)
    tnest = TailPolyMap(backend, 2, {0: tf, 1: TailMap(g, 0)}, 1)
    return {
        "add": lambda: v + w,
        "sub": lambda: v - w,
        "scale": lambda: v.scale(d),
        "mul-lookup": lambda: quat.mul(v, w),
        "mul-convolve": lambda: poly.mul(v, w),
        "apply": lambda: f.apply(v),
        "compose": lambda: f.compose(g),
        "poly_apply": lambda: poly_apply(nest, [v, w]),
        "tensor_pure": lambda: tensor_pure([v, w, v]),
        "map_via_tensor": lambda: map_via_tensor(poly, t, f, v),
        "tail-sub": lambda: tv - tw,
        "tail-apply": lambda: tf.apply(tv),
        "truncate": lambda: tv.truncate([0]),
        "norm_interval": lambda: tv.norm_interval(),
        "bound": lambda: tf.bound(),
        "tail_mul": lambda: tail_mul(quat, tv, tw),
        "tpoly_apply": lambda: tpoly_apply(tnest, [tv, tw]),
    }


def _count_builds(backend, monkeypatch) -> list:
    """The list every coords view and Scalar built from now on appends "view" or "Scalar" to."""
    built = []

    def counted(what, fn):
        def wrapper(*args, **kwargs):
            built.append(what)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(hamel._Coords, "__init__", counted("view", hamel._Coords.__init__))
    monkeypatch.setattr(Scalar, "__init__", counted("Scalar", Scalar.__init__))
    for module in (ring, hamel):
        monkeypatch.setattr(module, "_scalar", counted("Scalar", module._scalar))
    assert HamelVector(backend, {0: 1}).coords[0] and built == ["view", "Scalar"]  # the counters count
    built.clear()
    return built


@pytest.mark.parametrize("backend", [INTEGER, RATIONAL, FLOAT64], ids=lambda b: b.name)
def test_kernels_build_no_scalar_and_no_view(backend, monkeypatch):
    # tables hold raw values: a Scalar or a coords view is built only when a caller reads one
    calls = _kernel_calls(backend)
    for call in calls.values():
        call()  # the first lookups of a rule table build its entries
    built = _count_builds(backend, monkeypatch)
    for name, call in calls.items():
        call()
        assert built == [], name


BUILTINS = ("polynomial", "quaternion", "complex", "group_z", "free:2")
STRUCTURE = [  # two rows that add up, two that cancel
    {"i": 0, "j": 0, "k": 0, "c": "1"}, {"i": 0, "j": 0, "k": 0, "c": "2"},
    {"i": 0, "j": 1, "k": 1, "c": "3"}, {"i": 0, "j": 1, "k": 1, "c": "-3"}, {"i": 1, "j": 1, "k": 2, "c": "-1"},
]


@pytest.mark.parametrize("backend", [INTEGER, RATIONAL, FLOAT64], ids=lambda b: b.name)
def test_builtins_and_readers_build_no_scalar_a_caller_does_not_read(backend, monkeypatch):
    built = _count_builds(backend, monkeypatch)
    for name in BUILTINS:
        table = load_builtin(name, backend).table
        for i, j in itertools.product(range(8), repeat=2):
            table.lookup(i, j)  # cold: each pair runs the rule or reads an entry for the first time
        assert built == [], name
    readers = {
        "basis_vector": lambda: basis_vector(backend, 3),
        "dual_basis": lambda: dual_basis(backend, 3),
        "basis_map": lambda: basis_map(backend, 1, 2),
        "identity_on": lambda: identity_on(backend, [0, 2, 5]),
        "table_from_data": lambda: table_from_data(backend, {"name": "t", "structure": STRUCTURE}),
    }
    for name, call in readers.items():
        call()
        assert built == [], name
    table = readers["table_from_data"]()  # parsed and summed on raw values, and the cancelled cell dropped
    assert {key: e._raw for key, e in table.entries.items()} == {
        (0, 0): {0: backend.from_int(3)}, (1, 1): {2: backend.from_int(-1)}
    }
    v = HamelVector(backend, {0: 1, 4: -2})
    for key, expected in ((4, -2), (7, 0)):  # a hit and a miss
        c = v.coefficient(key)
        assert built == ["Scalar"] and type(c) is Scalar and c.backend is backend and c.value == expected, key
        built.clear()
    f = ColumnFiniteMap(backend, {0: {0: 1, 1: 2}, 2: {0: 3}})
    assert [(i, j, c.value) for i, j, c in f.entries()] == [(0, 0, 1), (1, 0, 2), (0, 2, 3)]
    assert built == ["Scalar"] * 3


BAD_INDICES = {
    "negative": (-1, ValueError, "basis index must be >= 0, got -1"),
    "bool": (True, TypeError, "basis index must be int, got bool"),
    "str": ("1", TypeError, "basis index must be int, got str"),
}
BASIS_BUILDERS = {
    "vector": lambda b, i: basis_vector(b, i),
    "functional": lambda b, i: dual_basis(b, i),
    "map-row": lambda b, i: basis_map(b, i, 0),
    "map-column": lambda b, i: basis_map(b, 0, i),
    "identity": lambda b, i: identity_on(b, [0, i]),
}


@pytest.mark.parametrize("index, error, message", BAD_INDICES.values(), ids=BAD_INDICES)
@pytest.mark.parametrize("build", BASIS_BUILDERS.values(), ids=BASIS_BUILDERS)
def test_basis_builders_check_the_index(build, index, error, message):
    # the basis builders skip the constructors' checks, so each checks its index itself
    for backend in (INTEGER, RATIONAL, FLOAT64):
        with pytest.raises(error) as caught:
            build(backend, index)
        assert type(caught.value) is error and str(caught.value) == message


# + and - of coordinate tables: one merge, on Fraction slots on rat -----------

# equal, coprime and partly shared denominators, a 7-digit prime among them
MERGE_DENOMINATORS = (1, 2, 3, 4, 6, 10, 12, 15, 5, 7, 1000003)
MERGE_VALUES = {
    "int": st.integers(-3, 3) | st.integers(-(2**70), 2**70),
    "rat": st.builds(Fraction, st.integers(-9, 9), st.sampled_from(MERGE_DENOMINATORS)),
    "f64": st.sampled_from([0.5, -0.5, 0.1, -0.3, 1e308, -1e308, 5e-324]) | st.floats(-10, 10),
}


def _merge_reference(a: dict, b: dict, sign: int) -> dict:
    """a + sign * b as a chain of Python operators: b's values folded into a copy of a, in order."""
    acc = dict(a)
    for k, y in b.items():
        if k in acc:
            y = acc[k] + y if sign > 0 else acc[k] - y
            if not y:
                del acc[k]
                continue
        elif sign < 0:
            y = -y
        acc[k] = y
    return acc


def _assert_merges_are_chained(backend, a: dict, b: dict):
    u, v = HamelVector(backend, a), HamelVector(backend, b)
    ra, rb = ({k: c.value for k, c in t.coords.items()} for t in (u, v))
    for sign, op in ((1, lambda: u + v), (-1, lambda: u - v)):
        expected = _merge_reference(ra, rb, sign)
        if not all(map(math.isfinite, expected.values())):  # only a float sum can leave the range
            with pytest.raises(ValueError, match="float coefficients must be finite"):
                op()
            continue
        got = {k: c.value for k, c in op().coords.items()}
        assert [(k, type(x), repr(x)) for k, x in got.items()] == [
            (k, type(x), repr(x)) for k, x in expected.items()]
        for x in got.values():
            assert x and type(x) is type(backend.check(x))
            if type(x) is Fraction:
                assert x._denominator > 0 and gcd(x._numerator, x._denominator) == 1


@pytest.mark.parametrize("backend", [INTEGER, RATIONAL, FLOAT64], ids=lambda b: b.name)
@given(data=st.data())
def test_add_and_sub_are_the_chained_operators(backend, data):
    values = MERGE_VALUES[backend.name]
    a = data.draw(st.dictionaries(st.integers(0, 7), values, max_size=6))
    b = data.draw(st.dictionaries(st.integers(0, 7), values, max_size=6))
    for k, x in a.items():  # some of b's values cancel a's under + or under -
        roll = data.draw(st.integers(0, 3))
        if roll < 2:
            b[k] = -x if roll == 0 else x
    _assert_merges_are_chained(backend, a, b)


F, R7 = Fraction, 1000003
MERGE_EXAMPLES = {
    # rat sums by Henrici's gcds: the second gcd reduces 1/6 + 1/6 and 1/6 + 1/10
    "rat-equal": (RATIONAL, {0: F(1, 6), 1: F(1, 4)}, {0: F(1, 6), 1: F(3, 4)}),
    "rat-partly-shared": (RATIONAL, {0: F(1, 6), 1: F(1, 4)}, {0: F(1, 10), 1: F(1, 6)}),
    "rat-coprime": (RATIONAL, {0: F(1, 3), 1: F(2, R7)}, {0: F(1, 5), 1: F(-3, 7)}),
    "rat-cancel": (RATIONAL, {2: F(1, 6), 0: F(1, R7), 1: F(1, 2)}, {0: F(-1, R7), 3: F(5), 2: F(-1, 6)}),
    "int-cancel": (INTEGER, {2: 1, 0: 2**70, 1: -3}, {0: -(2**70), 3: 5, 2: -1}),
    "f64-cancel": (FLOAT64, {2: 0.1, 0: 0.5, 1: -0.3}, {0: -0.5, 3: 5e-324, 2: -0.1}),
    "f64-overflow": (FLOAT64, {0: 1e308, 1: 1.0}, {0: 1e308}),
    "f64-overflow-sub": (FLOAT64, {1: 1.0, 0: 1e308}, {0: -1e308}),
}


@pytest.mark.parametrize("backend, a, b", MERGE_EXAMPLES.values(), ids=MERGE_EXAMPLES)
def test_add_and_sub_examples(backend, a, b):
    _assert_merges_are_chained(backend, a, b)
    _assert_merges_are_chained(backend, b, a)
