"""The accumulate-once kernel against naive Fraction oracles.

Every internal sum (products, map application and composition, polylinear
and tensor evaluation) goes through one raw-value accumulator; these
properties pin its results to sums written out directly from the
definitions, on inputs whose partial sums cancel to zero and reappear, and
check that no zero is ever stored.  The float tests pin the rounding: each
result must equal a left-to-right sequential sum of the same terms, bit for
bit.
"""

import itertools
from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st

from falg import (
    FLOAT64,
    RATIONAL,
    ColumnFiniteMap,
    HamelVector,
    PolyMap,
    StructureTable,
    TensorElement,
    load_builtin,
    map_via_tensor,
    poly_apply,
    tensor_pure,
)

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


@given(f=st.dictionaries(st.integers(0, 5), float_columns, max_size=6), x=float_vectors)
def test_float_apply_is_sequential_sum(f, x):
    fm = ColumnFiniteMap(FLOAT64, {j: HamelVector(FLOAT64, col) for j, col in f.items()})
    xv = HamelVector(FLOAT64, x)
    terms = [
        (i, xj.value * c.value)
        for j, xj in xv.coords.items()
        if j in fm.cols
        for i, c in fm.cols[j].coords.items()
    ]
    assert _raw(fm.apply(xv)) == _sequential(terms)
