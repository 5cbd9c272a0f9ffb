import random
from fractions import Fraction

import pytest

from falg import (
    FLOAT64,
    RATIONAL,
    ColumnFiniteMap,
    HamelVector,
    NonAssociativeError,
    StructureTable,
    TensorElement,
    basis_vector,
    identity_on,
    load_builtin,
    map_via_tensor,
    tensor_pure,
    zero_tensor,
    zero_vector,
)

from support import assert_canonical, rand_map, rand_scalar, rand_vector


def test_pure_tensor_components():
    v = HamelVector(RATIONAL, {0: 1, 1: 2})
    w = HamelVector(RATIONAL, {1: -2, 5: 3})
    t = tensor_pure([v, w])
    assert t.arity == 2
    assert t.standard_components() == {
        (0, 1): RATIONAL.scalar(-2),
        (0, 5): RATIONAL.scalar(3),
        (1, 1): RATIONAL.scalar(-4),
        (1, 5): RATIONAL.scalar(6),
    }


def test_pure_tensor_with_zero_factor():
    v = HamelVector(RATIONAL, {0: 1})
    assert tensor_pure([v, HamelVector(RATIONAL, {})]).is_zero()


def test_pure_matches_product_of_supports_oracle():
    rng = random.Random(31)
    for _ in range(300):
        arity = rng.randint(2, 3)
        factors = [rand_vector(rng, RATIONAL, max_index=6) for _ in range(arity)]
        t = tensor_pure(factors)
        oracle = {}
        if all(not v.is_zero() for v in factors):
            def walk(key, acc, rest):
                if not rest:
                    if acc != 0:
                        oracle[key] = acc
                    return
                for i, c in rest[0].coords.items():
                    walk(key + (i,), acc * c.value, rest[1:])
            walk((), Fraction(1), factors)
        assert {k: c.value for k, c in t.coords.items()} == oracle
        assert_canonical(t)


def test_balanced_relations():
    rng = random.Random(32)
    for _ in range(200):
        arity = rng.randint(2, 3)
        xs = [rand_vector(rng, RATIONAL, max_index=5) for _ in range(arity)]
        extra = rand_vector(rng, RATIONAL, max_index=5)
        d = rand_scalar(rng, RATIONAL)
        for slot in range(arity):
            bumped = list(xs)
            bumped[slot] = xs[slot] + extra
            alt = list(xs)
            alt[slot] = extra
            assert tensor_pure(bumped) == tensor_pure(xs) + tensor_pure(alt)
            scaled = list(xs)
            scaled[slot] = xs[slot].scale(d)
            assert tensor_pure(scaled) == tensor_pure(xs).scale(d)


def test_tensor_addition_cancels_canonically():
    v = HamelVector(RATIONAL, {0: 1})
    w = HamelVector(RATIONAL, {1: 1})
    t = tensor_pure([v, w])
    s = t + (-t)
    assert s.is_zero()
    assert_canonical(s)


def test_arity_mismatch_rejected():
    t2 = zero_tensor(RATIONAL, 2)
    t3 = zero_tensor(RATIONAL, 3)
    with pytest.raises(ValueError):
        t2 + t3
    with pytest.raises(ValueError):
        TensorElement(RATIONAL, 2, {(0, 1, 2): 1})


def test_map_via_tensor_unit_sandwich_reproduces_f():
    rng = random.Random(33)
    q = load_builtin("quaternion").table
    unit = basis_vector(RATIONAL, 0)
    t = tensor_pure([unit, unit])
    for _ in range(50):
        f = rand_map(rng, RATIONAL, max_index=3)
        x = rand_vector(rng, RATIONAL, max_index=3)
        assert map_via_tensor(q, t, f, x, max_index=3) == f.apply(x)


def test_map_via_tensor_quaternion_sandwich():
    q = load_builtin("quaternion").table
    i, j = basis_vector(RATIONAL, 1), basis_vector(RATIONAL, 2)
    t = tensor_pure([i, j])
    ident = identity_on(RATIONAL, range(4))
    one = basis_vector(RATIONAL, 0)
    # i * 1 * j = ij = k
    assert map_via_tensor(q, t, ident, one, max_index=3) == basis_vector(RATIONAL, 3)


def test_map_via_tensor_linear_in_tensor_and_vector():
    rng = random.Random(34)
    q = load_builtin("quaternion").table
    f = identity_on(RATIONAL, range(4))
    for _ in range(100):
        t1 = tensor_pure([rand_vector(rng, RATIONAL, max_index=3), rand_vector(rng, RATIONAL, max_index=3)])
        t2 = tensor_pure([rand_vector(rng, RATIONAL, max_index=3), rand_vector(rng, RATIONAL, max_index=3)])
        x, y = rand_vector(rng, RATIONAL, max_index=3), rand_vector(rng, RATIONAL, max_index=3)
        d = rand_scalar(rng, RATIONAL)
        assert map_via_tensor(q, t1 + t2, f, x, max_index=3) == map_via_tensor(
            q, t1, f, x, max_index=3
        ) + map_via_tensor(q, t2, f, x, max_index=3)
        assert map_via_tensor(q, t1, f, x + y, max_index=3) == map_via_tensor(
            q, t1, f, x, max_index=3
        ) + map_via_tensor(q, t1, f, y, max_index=3)
        assert map_via_tensor(q, t1.scale(d), f, x, max_index=3) == map_via_tensor(
            q, t1, f, x, max_index=3
        ).scale(d)


def test_map_via_tensor_needs_claimed_associativity():
    t = StructureTable(RATIONAL, entries={(0, 0): {0: 1}})  # no claim
    pure = tensor_pure([basis_vector(RATIONAL, 0), basis_vector(RATIONAL, 0)])
    f = identity_on(RATIONAL, [0])
    with pytest.raises(NonAssociativeError):
        map_via_tensor(t, pure, f, basis_vector(RATIONAL, 0))


def liar():
    """A table that claims associativity but has (e1 e1) e1 = e1 != 0 = e1 (e1 e1)."""
    entries = {(0, n): {n: 1} for n in range(3)}
    entries.update({(n, 0): {n: 1} for n in range(3)})
    entries[(1, 1)] = {2: 1}
    entries[(2, 1)] = {1: 1}
    return StructureTable(RATIONAL, name="liar", entries=entries, claims_associative=True)


@pytest.mark.parametrize("samples", [-1, -64, True, False])
def test_map_via_tensor_rejects_negative_or_bool_samples(samples):
    # a negative count used to run no spot check at all
    table = load_builtin("polynomial").table
    pure = tensor_pure([basis_vector(RATIONAL, 0), basis_vector(RATIONAL, 0)])
    with pytest.raises(ValueError, match="samples must be a non-negative integer"):
        map_via_tensor(table, pure, identity_on(RATIONAL, [0]), basis_vector(RATIONAL, 0), samples=samples)


def test_map_via_tensor_spot_check_catches_false_claim():
    t = liar()
    pure = tensor_pure([basis_vector(RATIONAL, 0), basis_vector(RATIONAL, 0)])
    f = identity_on(RATIONAL, [0])
    with pytest.raises(NonAssociativeError):
        map_via_tensor(t, pure, f, basis_vector(RATIONAL, 0), samples=64, seed=0, max_index=2)


def reference_map_via_tensor(table, t, f, x, samples, seed, max_index):
    """map_via_tensor from the public associator, mul, apply, scale and +."""
    b = table.backend
    rng = random.Random(seed)
    for _ in range(samples):
        i, j, k = (rng.randint(0, max_index) for _ in range(3))
        if not table.associator(*(basis_vector(b, n) for n in (i, j, k))).is_zero():
            raise NonAssociativeError(
                f"table {table.name!r} fails associativity at basis triple ({i}, {j}, {k})"
            )
    fx = f.apply(x)
    total = zero_vector(b)
    for (i, j), s in t.coords.items():
        total = total + table.mul(table.mul(basis_vector(b, i), fx), basis_vector(b, j)).scale(s)
    return total


def _outcome(call):
    try:
        return call()
    except ValueError as e:  # NonAssociativeError, and float64 overflow
        return type(e), str(e)


def _wide():
    """Float64: (e1 e1) e1 = 1e308 e0 and e1 (e1 e1) = -1e308 e0, so the associator overflows."""
    entries = {(0, 0): {0: 1.0}, (1, 1): {2: 1.0}, (2, 1): {0: 1e308}, (1, 2): {0: -1e308}}
    return StructureTable(FLOAT64, name="wide", entries=entries, claims_associative=True)


def _poly64():
    return load_builtin("polynomial", FLOAT64).table


def test_map_via_tensor_matches_reference():
    rng = random.Random(35)
    cases = []
    for seed in range(40):
        t = TensorElement(RATIONAL, 2, {(rng.randint(0, 2), rng.randint(0, 2)): rand_scalar(rng, RATIONAL)})
        f, x = rand_map(rng, RATIONAL, max_index=2), rand_vector(rng, RATIONAL, max_index=2)
        for samples, max_index in [(1, 2), (4, 2), (64, 2), (64, 0)]:
            cases.append((liar, t, f, x, samples, seed, max_index))
    one = basis_vector(FLOAT64, 0)
    unit = TensorElement(FLOAT64, 2, {(0, 0): 1.0})
    for seed in range(10):
        cases.append((_wide, unit, identity_on(FLOAT64, [0]), one, 64, seed, 2))
    big = ColumnFiniteMap(FLOAT64, {0: {0: 1e308}})  # the sandwich sum overflows
    cases.append((_poly64, TensorElement(FLOAT64, 2, {(0, 0): 10.0}), big, one, 4, 0, 3))
    seen = set()
    for make, t, f, x, samples, seed, max_index in cases:
        real = _outcome(lambda: map_via_tensor(make(), t, f, x, samples=samples, seed=seed, max_index=max_index))
        ref = _outcome(lambda: reference_map_via_tensor(make(), t, f, x, samples, seed, max_index))
        assert real == ref, (make.__name__, seed, samples, max_index)
        seen.add(real[0] if isinstance(real, tuple) else type(real))
    assert seen == {HamelVector, NonAssociativeError, ValueError}


@pytest.mark.parametrize("max_index, error", [(True, TypeError), (2.5, TypeError), (-1, ValueError)])
def test_map_via_tensor_validates_max_index(max_index, error):
    q = load_builtin("quaternion").table
    pure = tensor_pure([basis_vector(RATIONAL, 0), basis_vector(RATIONAL, 0)])
    with pytest.raises(error, match="max_index"):
        map_via_tensor(q, pure, identity_on(RATIONAL, [0]), basis_vector(RATIONAL, 0), max_index=max_index)


def test_map_via_tensor_rejects_wrong_arity():
    q = load_builtin("quaternion").table
    t3 = zero_tensor(RATIONAL, 3)
    with pytest.raises(ValueError):
        map_via_tensor(q, t3, identity_on(RATIONAL, [0]), basis_vector(RATIONAL, 0))


def test_tensor_arity_rejects_a_bool():
    with pytest.raises(ValueError, match="tensor arity must be an int >= 1, got True"):
        TensorElement(RATIONAL, True, {(0,): 1})


@pytest.mark.parametrize("arity", [2.5, 2.0, "2", True], ids=repr)
def test_tensor_wire_arity_is_read_strictly(arity):
    with pytest.raises(ValueError, match="tensor arity must be an int >= 1"):
        TensorElement.from_data(RATIONAL, {"arity": arity, "coords": {"0,1": "1"}})


def test_tensor_json_round_trip():
    rng = random.Random(35)
    for _ in range(50):
        t = tensor_pure([rand_vector(rng, RATIONAL), rand_vector(rng, RATIONAL)])
        assert TensorElement.from_data(RATIONAL, t.to_data()) == t
