import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from falg import (
    INTEGER,
    RATIONAL,
    BackendMismatchError,
    ColumnFiniteMap,
    HamelVector,
    PolyMap,
    TensorElement,
    basis_map,
    basis_vector,
    dual_basis,
    DualFunctional,
    identity_on,
    poly_apply,
    zero_map,
    zero_vector,
)

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
