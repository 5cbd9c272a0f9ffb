import os
import random
import re
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from falg import (
    INTEGER,
    RATIONAL,
    BackendMismatchError,
    ColumnFiniteMap,
    HamelVector,
    LabelError,
    PolyMap,
    TailMap,
    TailPolyMap,
    TailVector,
    TensorElement,
    basis_map,
    basis_vector,
    dual_basis,
    DualFunctional,
    fixture_from_data,
    identity_on,
    load_builtin,
    map_via_tensor,
    poly_apply,
    table_from_data,
    tensor_pure,
    zero_map,
    zero_vector,
)
from falg.cli import CliError, _max_index

from support import assert_canonical, rand_map, rand_scalar, rand_vector

coeffs = st.fractions(min_value=-10, max_value=10, max_denominator=8)
indices = st.integers(min_value=0, max_value=20)
vectors = st.dictionaries(indices, coeffs, max_size=5).map(
    lambda d: HamelVector(RATIONAL, d)
)
scalars = coeffs.map(RATIONAL.scalar)


def test_construction_prunes_zeros():
    v = HamelVector(RATIONAL, {0: 1, 3: 0, 7: Fraction(0, 5)})
    assert v.support() == (0,)
    assert_canonical(v)


def test_construction_rejects_bad_indices():
    with pytest.raises(ValueError):
        HamelVector(RATIONAL, {-1: 1})
    with pytest.raises(TypeError):
        HamelVector(RATIONAL, {"0": 1})


def test_coefficient_lookup():
    v = HamelVector(RATIONAL, {2: Fraction(5, 3)})
    assert v.coefficient(2).value == Fraction(5, 3)
    assert v.coefficient(9).is_zero()
    with pytest.raises(ValueError):
        v.coefficient(-2)


def test_add_cancellation_leaves_no_zero():
    u = HamelVector(RATIONAL, {0: 1, 1: 2})
    v = HamelVector(RATIONAL, {1: -2, 5: 3})
    w = u + v
    assert w.support() == (0, 5)
    assert_canonical(w)


def test_backend_mismatch():
    with pytest.raises(BackendMismatchError):
        HamelVector(RATIONAL, {0: 1}) + HamelVector(INTEGER, {0: 1})
    with pytest.raises(BackendMismatchError):
        HamelVector(RATIONAL, {0: INTEGER.scalar(1)})


@given(vectors, vectors, vectors)
def test_addition_laws(u, v, w):
    assert (u + v) + w == u + (v + w)
    assert u + v == v + u
    assert u + zero_vector(RATIONAL) == u
    assert u + (-u) == zero_vector(RATIONAL)


@given(scalars, scalars, vectors, vectors)
def test_scaling_laws(d, c, u, v):
    assert (u + v).scale(d) == u.scale(d) + v.scale(d)
    assert u.scale(d + c) == u.scale(d) + u.scale(c)
    assert u.scale(d * c) == u.scale(c).scale(d)
    assert u.scale(RATIONAL.one) == u
    assert d * u == u.scale(d)


def test_scale_by_zero_gives_zero():
    v = HamelVector(RATIONAL, {3: 4})
    assert v.scale(RATIONAL.zero).is_zero()


def test_effectiveness_of_basis_coordinates():
    rng = random.Random(2)
    for _ in range(1000):
        s = rand_scalar(rng, RATIONAL)
        i = rng.randint(0, 30)
        v = basis_vector(RATIONAL, i).scale(s)
        assert v.coefficient(i) == s


def test_dual_basis_kronecker():
    for i in range(6):
        phi = dual_basis(RATIONAL, i)
        for j in range(6):
            value = phi(basis_vector(RATIONAL, j))
            assert value == (RATIONAL.one if i == j else RATIONAL.zero)


def test_dual_reads_coordinates():
    rng = random.Random(3)
    for _ in range(300):
        v = rand_vector(rng, RATIONAL)
        for i in list(v.support()) + [31, 45, 57]:
            assert dual_basis(RATIONAL, i)(v) == v.coefficient(i)


@given(vectors, vectors, scalars)
def test_dual_linearity(u, v, d):
    phi = DualFunctional(RATIONAL, {0: Fraction(1, 2), 3: -2, 7: 1})
    assert phi(u + v) == phi(u) + phi(v)
    assert phi(u.scale(d)) == d * phi(u)


def test_map_apply_shift():
    shift = ColumnFiniteMap(RATIONAL, {j: {j + 1: 1} for j in range(10)})
    v = HamelVector(RATIONAL, {0: 1, 1: 2})
    assert shift.apply(v) == HamelVector(RATIONAL, {1: 1, 2: 2})


def test_map_apply_matches_per_coordinate_oracle():
    rng = random.Random(7)
    for _ in range(400):
        f = rand_map(rng, RATIONAL)
        v = rand_vector(rng, RATIONAL)
        result = f.apply(v)
        rows = {i for col in f.cols.values() for i in col.coords}
        for i in rows | set(result.coords):
            total = RATIONAL.zero
            for j in v.coords:
                total = total + f.entry(i, j) * v.coefficient(j)
            assert result.coefficient(i) == total
        assert_canonical(result)


def test_map_linearity():
    rng = random.Random(8)
    for _ in range(400):
        f = rand_map(rng, RATIONAL)
        u, v = rand_vector(rng, RATIONAL), rand_vector(rng, RATIONAL)
        d = rand_scalar(rng, RATIONAL)
        assert f.apply(u + v) == f.apply(u) + f.apply(v)
        assert f.apply(u.scale(d)) == f.apply(u).scale(d)


def test_compose_is_associative_and_matches_pointwise():
    rng = random.Random(9)
    for _ in range(200):
        f, g, h = (rand_map(rng, RATIONAL) for _ in range(3))
        v = rand_vector(rng, RATIONAL)
        assert f.compose(g).apply(v) == f.apply(g.apply(v))
        assert f.compose(g.compose(h)) == f.compose(g).compose(h)


def test_identity_composition():
    rng = random.Random(10)
    f = rand_map(rng, RATIONAL, max_index=9)
    ident = identity_on(RATIONAL, range(30))
    assert f.compose(ident).cols == f.cols  # identity covers f's columns
    assert ident.compose(f) == f


def test_basis_map_expansion():
    # any map is the finite sum of its entries against basis maps
    rng = random.Random(12)
    for _ in range(100):
        f = rand_map(rng, RATIONAL, max_index=8)
        total = zero_map(RATIONAL)
        for i, j, c in f.entries():
            total = total + basis_map(RATIONAL, i, j).scale(c)
        assert total == f


def test_basis_map_action():
    e = basis_map(RATIONAL, 4, 2)
    assert e.apply(basis_vector(RATIONAL, 2)) == basis_vector(RATIONAL, 4)
    assert e.apply(basis_vector(RATIONAL, 3)).is_zero()


def test_map_add_scale_canonical():
    f = ColumnFiniteMap(RATIONAL, {0: {1: 1}})
    g = ColumnFiniteMap(RATIONAL, {0: {1: -1}, 2: {0: 5}})
    s = f + g
    assert 0 not in s.cols  # cancelled column dropped entirely
    assert_canonical(s)
    assert s.scale(RATIONAL.zero).is_zero()


def test_poly_apply_bilinear_matches_double_sum():
    rng = random.Random(13)
    for _ in range(200):
        slots = {}
        for _ in range(rng.randint(0, 3)):
            slots[rng.randint(0, 6)] = rand_map(rng, RATIONAL, max_index=6)
        nest = PolyMap(RATIONAL, 2, slots)
        x, y = rand_vector(rng, RATIONAL, max_index=6), rand_vector(rng, RATIONAL, max_index=6)
        result = poly_apply(nest, [x, y])
        oracle = zero_vector(RATIONAL)
        for j, xj in x.coords.items():
            sub = nest.slots.get(j)
            if sub is None:
                continue
            for k, yk in y.coords.items():
                oracle = oracle + sub.column(k).scale(xj * yk)
        assert result == oracle


def test_poly_apply_multilinearity_arity_3():
    rng = random.Random(14)
    inner = lambda: PolyMap(
        RATIONAL, 2, {rng.randint(0, 4): rand_map(rng, RATIONAL, max_index=4) for _ in range(2)}
    )
    nest = PolyMap(RATIONAL, 3, {0: inner(), 2: inner(), 4: inner()})
    for _ in range(100):
        xs = [rand_vector(rng, RATIONAL, max_index=4) for _ in range(3)]
        extra = rand_vector(rng, RATIONAL, max_index=4)
        d = rand_scalar(rng, RATIONAL)
        for slot in range(3):
            bumped = list(xs)
            bumped[slot] = xs[slot] + extra
            assert poly_apply(nest, bumped) == poly_apply(nest, xs) + poly_apply(
                nest, xs[:slot] + [extra] + xs[slot + 1 :]
            )
            scaled = list(xs)
            scaled[slot] = xs[slot].scale(d)
            assert poly_apply(nest, scaled) == poly_apply(nest, xs).scale(d)


def test_poly_apply_depth_one_is_map_apply():
    rng = random.Random(15)
    f = rand_map(rng, RATIONAL)
    v = rand_vector(rng, RATIONAL)
    assert poly_apply(f, [v]) == f.apply(v)


def test_poly_apply_arity_mismatch():
    nest = PolyMap(RATIONAL, 2, {0: ColumnFiniteMap(RATIONAL, {0: {0: 1}})})
    with pytest.raises(ValueError):
        poly_apply(nest, [zero_vector(RATIONAL)])
    with pytest.raises(ValueError):
        poly_apply(ColumnFiniteMap(RATIONAL, {}), [zero_vector(RATIONAL)] * 2)


_F = ColumnFiniteMap(RATIONAL, {0: {0: 1}})


@pytest.mark.parametrize(
    "xs, error",
    [
        ([HamelVector(RATIONAL, {5: 1}), "junk"], TypeError),
        ([HamelVector(RATIONAL, {5: 1}), HamelVector(INTEGER, {0: 1})], BackendMismatchError),
        ([zero_vector(RATIONAL), None], TypeError),
    ],
    ids=["junk", "other-backend", "zero-first"],
)
def test_poly_apply_checks_every_argument_before_reading_the_nest(xs, error):
    # the first argument reaches no slot, so only a check made up front reads the second
    with pytest.raises(error, match="argument"):
        poly_apply(PolyMap(RATIONAL, 2, {0: _F}), xs)


@pytest.mark.parametrize("make", [list, tuple, iter], ids=["list", "tuple", "iterator"])
def test_poly_map_reads_slot_pairs(make):
    pairs = [(3, PolyMap(RATIONAL, 2, {1: _F})), (0, PolyMap(RATIONAL, 2, {0: _F}))]
    assert PolyMap(RATIONAL, 3, make(pairs)) == PolyMap(RATIONAL, 3, dict(pairs))


@pytest.mark.parametrize("slots", [None, 5], ids=repr)
def test_poly_map_rejects_non_iterable_slots(slots):
    with pytest.raises(TypeError):
        PolyMap(RATIONAL, 2, slots)


def test_poly_map_validates_slots():
    with pytest.raises(ValueError):
        PolyMap(RATIONAL, 1, {})
    with pytest.raises(TypeError):
        PolyMap(RATIONAL, 3, {0: ColumnFiniteMap(RATIONAL, {0: {0: 1}})})


@given(vectors)
def test_vector_json_round_trip(v):
    assert HamelVector.from_data(RATIONAL, v.to_data()) == v


def test_map_json_round_trip():
    rng = random.Random(16)
    for _ in range(50):
        f = rand_map(rng, RATIONAL)
        assert ColumnFiniteMap.from_data(RATIONAL, f.to_data()) == f


def test_l1_mass():
    v = HamelVector(RATIONAL, {0: 3, 1: -4})
    assert v.l1() == 7
    assert zero_vector(RATIONAL).l1() == 0


def test_functional_negation_difference_and_scalar_product():
    phi = DualFunctional(RATIONAL, {0: 1, 2: Fraction(1, 2)})
    psi = DualFunctional(RATIONAL, {2: 3, 5: -1})
    d = RATIONAL.scalar(Fraction(-2, 3))
    for v in (HamelVector(RATIONAL, {0: 1, 2: 4, 5: 7}), HamelVector(RATIONAL, {5: 1})):
        assert (-phi).evaluate(v) == -phi.evaluate(v)
        assert (phi - psi).evaluate(v) == phi.evaluate(v) - psi.evaluate(v)
        assert (d * phi).evaluate(v) == d * phi.evaluate(v) == phi.scale(d).evaluate(v)
    assert phi - phi == DualFunctional(RATIONAL)


@pytest.mark.parametrize("key", ["01", "1_0", "+1", " 1", "1 ", "-0", "١", "1.0", "0,1"])
def test_wire_keys_must_be_canonical_decimals(key):
    with pytest.raises(ValueError):
        HamelVector.from_data(RATIONAL, {"coords": {key: "1"}})
    with pytest.raises(ValueError):
        DualFunctional.from_data(RATIONAL, {"coords": {key: "1"}})
    with pytest.raises(ValueError):
        ColumnFiniteMap.from_data(RATIONAL, {"cols": {key: {"0": "1"}}})
    with pytest.raises(ValueError):
        ColumnFiniteMap.from_data(RATIONAL, {"cols": {"0": {key: "1"}}})
    with pytest.raises(ValueError):
        TensorElement.from_data(RATIONAL, {"arity": 2, "coords": {f"0,{key}": "1"}})


# every wire reader refuses a field its format does not define, "tail" included where the format has none,
# and names the record it reads: (record name, reader of its good data updated with extra fields)
_ROW = {"i": 0, "j": 0, "k": 0, "c": "1"}
WIRE_READERS = {
    "vector": ("HamelVector data", lambda extra: HamelVector.from_data(RATIONAL, {"coords": {"0": "1"}, **extra})),
    "functional": ("DualFunctional data",
                   lambda extra: DualFunctional.from_data(RATIONAL, {"coords": {"0": "1"}, **extra})),
    "tensor": ("TensorElement data",
               lambda extra: TensorElement.from_data(RATIONAL, {"arity": 1, "coords": {"0": "1"}, **extra})),
    "map": ("ColumnFiniteMap data",
            lambda extra: ColumnFiniteMap.from_data(RATIONAL, {"cols": {"0": {"0": "1"}}, **extra})),
    "tail-vector": ("TailVector data",
                    lambda extra: TailVector.from_data(RATIONAL, {"coords": {"0": "1"}, "tail": "5", **extra})),
    "tail-map": ("TailMap data",
                 lambda extra: TailMap.from_data(RATIONAL, {"cols": {"0": {"0": "1"}}, "tail": "5", **extra})),
    "algebra": ("algebra data", lambda extra: table_from_data(RATIONAL, {"structure": [_ROW], **extra})),
    "structure-row": ("structure row 0", lambda extra: table_from_data(RATIONAL, {"structure": [{**_ROW, **extra}]})),
    "claims": ("'claims'", lambda extra: table_from_data(
        RATIONAL, {"structure": [_ROW], "claims": {"associative": True, **extra}})),
    "builtin": ("builtin reference", lambda extra: fixture_from_data({"builtin": "polynomial", **extra})),
}
JUNK_FIELDS = {
    "tail": ("tail", "5", "'tail'"), "tail-text": ("tail", "x", "'tail'"), "junk": ("junk", 3, "'junk'"),
    "empty": ("", None, "''"),
    "long": ("t" * 100, 1, "'tttttttttttttttttttttttttttttttttttttttt'... (100 characters)"),
}


@pytest.mark.parametrize("kind, case", [
    pytest.param(kind, case, id=f"{kind}-{case}") for kind in WIRE_READERS for case in JUNK_FIELDS
    if not (kind.startswith("tail-") and case.startswith("tail"))  # a tail reader's own field
])
def test_exact_wire_readers_refuse_unknown_fields(kind, case):
    what, read = WIRE_READERS[kind]
    field, value, shown = JUNK_FIELDS[case]
    read({})
    with pytest.raises(ValueError, match=f"^unexpected field {re.escape(shown)} in {re.escape(what)}$"):
        read({field: value})


@pytest.mark.parametrize("cls, data", [
    (TailVector, {"coords": {"0": "1"}}), (TailMap, {"cols": {"0": {"0": "1"}}}),
], ids=["tail-vector", "tail-map"])
def test_tail_readers_read_part_and_tail_as_one_record(cls, data):
    part = cls._part_cls.from_data(RATIONAL, data)
    assert cls.from_data(RATIONAL, {**data, "tail": "5"}) == cls(part, 5)
    assert cls.from_data(RATIONAL, data) == cls.lift(part)
    with pytest.raises(ValueError, match=f"^{cls.__name__} data has no '{next(iter(data))}' field$"):
        cls.from_data(RATIONAL, {"tail": "5"})
    with pytest.raises(ValueError, match=f"^{cls.__name__} data must be a JSON object, got list$"):
        cls.from_data(RATIONAL, [data])


def _sandwich(**options):
    unit = basis_vector(RATIONAL, 0)
    return map_via_tensor(load_builtin("polynomial").table, tensor_pure([unit, unit]), identity_on(RATIONAL, [0]),
                          unit, **options)


def _env_max_index(text):
    with mock.patch.dict(os.environ, {"FALG_MAX_INDEX": text}):
        return _max_index()


# every int falg reads goes through hamel._check_index: (read, what it calls the value, its floor, a non-int of
# the kind a caller may pass); each refuses that non-int and a bool with TypeError, and floor - 1 with ValueError
INT_SITES = {
    "basis-index": (lambda n: basis_vector(RATIONAL, n), "basis index", 0, "1"),
    "label-index": (lambda n: load_builtin("free:2").decode(n), "basis index", 0, "1"),
    "trials": (lambda n: load_builtin("polynomial").table.check_laws(trials=n), "trials", 1, "3"),
    "laws-max-index": (lambda n: load_builtin("polynomial").table.check_laws(max_index=n), "max_index", 0, "3"),
    "samples": (lambda n: _sandwich(samples=n), "samples", 0, "3"),
    "sandwich-max-index": (lambda n: _sandwich(max_index=n), "max_index", 0, "3"),
    "tensor-arity": (lambda n: TensorElement(RATIONAL, n, {}), "tensor arity", 1, "2"),
    "poly-arity": (lambda n: PolyMap(RATIONAL, n, {}), "PolyMap arity", 2, "2"),
    "tail-poly-arity": (lambda n: TailPolyMap(RATIONAL, n, {}), "TailPolyMap arity", 2, "2"),
    "structure-row": (lambda n: table_from_data(RATIONAL, {"structure": [{**_ROW, "k": n}]}),
                      "structure row 0 field 'k'", 0, 1.5),
}
INTEGER_RULE = {
    **{f"{site}-{case}": (read, value, error, message)
       for site, (read, what, least, other) in INT_SITES.items()
       for case, value, error, message in (
           ("non-int", other, TypeError, f"{what} must be int, got {type(other).__name__}"),
           ("bool", True, TypeError, f"{what} must be int, got bool"),
           ("below-floor", least - 1, ValueError, f"{what} must be >= {least}, got {least - 1}"),
       )},
    # every decimal text goes through hamel._wire_index, then the int it names through _check_index
    "wire-key-non-canonical": (lambda s: HamelVector.from_data(RATIONAL, {"coords": {s: "1"}}), "01", ValueError,
                               "wire key '01' is not a canonical decimal index"),
    "wire-key-below-floor": (lambda s: HamelVector.from_data(RATIONAL, {"coords": {s: "1"}}), "-1", ValueError,
                             "basis index must be >= 0, got -1"),
    "power-label-non-canonical": (lambda s: load_builtin("polynomial").encode(s), "x^02", LabelError,
                                  "malformed label 'x^02'"),
    "power-label-below-floor": (lambda s: load_builtin("polynomial").encode(s), "x^-1", LabelError,
                                "negative power in label 'x^-1'"),
    "letter-count-non-canonical": (load_builtin, "free:02", ValueError, "'free:02' needs a letter count k >= 1"),
    "letter-count-below-floor": (load_builtin, "free:0", ValueError, "'free:0' needs a letter count k >= 1"),
    "table-label-non-canonical": (lambda s: fixture_from_data({"structure": []}).encode(s), "01", LabelError,
                                  "label '01' is not a basis index"),
    "table-label-below-floor": (lambda s: fixture_from_data({"structure": []}).encode(s), "-1", LabelError,
                                "label '-1' is not a basis index"),
    # the environment's cap is read with int(), as the CLI's int options are, then checked by the rule
    "env-max-index-non-int": (_env_max_index, "1.5", CliError, "FALG_MAX_INDEX must be an integer, got '1.5'"),
    "env-max-index-below-floor": (_env_max_index, "-1", ValueError, "FALG_MAX_INDEX must be >= 0, got -1"),
}


@pytest.mark.parametrize("read, value, error, message", INTEGER_RULE.values(), ids=INTEGER_RULE)
def test_every_integer_read_follows_one_rule(read, value, error, message):
    with pytest.raises(error) as caught:
        read(value)
    assert type(caught.value) is error and str(caught.value) == message
