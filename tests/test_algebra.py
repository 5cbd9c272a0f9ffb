import random
from fractions import Fraction

import pytest

from falg import (
    RATIONAL,
    CertificateError,
    ColumnFiniteMap,
    HamelVector,
    StructureTable,
    basis_vector,
    load_builtin,
    table_from_data,
    table_to_data,
    zero_vector,
)

from support import assert_canonical, rand_map, rand_scalar, rand_vector


def poly():
    return load_builtin("polynomial").table


def quat():
    return load_builtin("quaternion").table


def non_associative_table():
    # e0 is a unit; e1*e1 = e2, e1*e2 = 0, e2*e1 = e1, e2*e2 = 0
    entries = {(0, n): {n: 1} for n in range(3)}
    entries.update({(n, 0): {n: 1} for n in range(3)})
    entries[(1, 1)] = {2: 1}
    entries[(1, 2)] = {}
    entries[(2, 1)] = {1: 1}
    entries[(2, 2)] = {}
    return StructureTable(RATIONAL, name="twisted", entries=entries)


def mul_oracle(table, a, b):
    """Brute-force double loop over raw Fractions; independent of vector ops."""
    acc = {}
    for i, ai in a.coords.items():
        for j, bj in b.coords.items():
            for k, c in table.lookup(i, j).coords.items():
                acc[k] = acc.get(k, Fraction(0)) + ai.value * bj.value * c.value
    return {k: v for k, v in acc.items() if v != 0}


def test_polynomial_lookup():
    assert poly().lookup(1, 2) == basis_vector(RATIONAL, 3)
    assert poly().lookup(0, 0) == basis_vector(RATIONAL, 0)


def test_quaternion_table_cells():
    t = quat()
    assert t.lookup(1, 1) == HamelVector(RATIONAL, {0: -1})
    assert t.lookup(1, 2) == HamelVector(RATIONAL, {3: 1})
    assert t.lookup(2, 1) == HamelVector(RATIONAL, {3: -1})
    assert t.lookup(0, 3) == basis_vector(RATIONAL, 3)


def test_binomial_square():
    one_plus_x = HamelVector(RATIONAL, {0: 1, 1: 1})
    assert poly().mul(one_plus_x, one_plus_x) == HamelVector(RATIONAL, {0: 1, 1: 2, 2: 1})


def test_mul_matches_oracle_across_tables():
    rng = random.Random(21)
    tables = [poly(), quat(), load_builtin("free:2").table, non_associative_table()]
    for _ in range(500):
        table = rng.choice(tables)
        cap = 3 if table.rule is None else 10
        a = rand_vector(rng, RATIONAL, max_index=cap)
        b = rand_vector(rng, RATIONAL, max_index=cap)
        result = table.mul(a, b)
        assert {k: c.value for k, c in result.coords.items()} == mul_oracle(table, a, b)
        assert_canonical(result)


def test_mul_with_zero_and_unit():
    t = quat()
    v = HamelVector(RATIONAL, {1: 2, 3: -1})
    unit = basis_vector(RATIONAL, 0)
    assert t.mul(v, zero_vector(RATIONAL)).is_zero()
    assert t.mul(unit, v) == v
    assert t.mul(v, unit) == v


def test_commutator_ij():
    t = quat()
    i, j = basis_vector(RATIONAL, 1), basis_vector(RATIONAL, 2)
    assert t.commutator(i, j) == HamelVector(RATIONAL, {3: 2})
    assert t.commutator(i, i).is_zero()


def test_commutator_antisymmetry():
    rng = random.Random(22)
    t = quat()
    for _ in range(200):
        a, b = rand_vector(rng, RATIONAL, max_index=3), rand_vector(rng, RATIONAL, max_index=3)
        assert t.commutator(a, b) == -t.commutator(b, a)


def test_associator_zero_for_quaternions():
    rng = random.Random(23)
    t = quat()
    for _ in range(100):
        a, b, c = (rand_vector(rng, RATIONAL, max_index=3) for _ in range(3))
        assert t.associator(a, b, c).is_zero()


def test_associator_detects_twist():
    t = non_associative_table()
    e1 = basis_vector(RATIONAL, 1)
    # (e1 e1) e1 = e2 e1 = e1 while e1 (e1 e1) = e1 e2 = 0
    assert t.associator(e1, e1, e1) == HamelVector(RATIONAL, {1: 1})


def test_nucleus_defects_empty_for_unit():
    t = quat()
    basis = [basis_vector(RATIONAL, n) for n in range(4)]
    pairs = [(x, y) for x in basis for y in basis]
    assert t.nucleus_defects(basis_vector(RATIONAL, 0), pairs) == ()


def test_nucleus_defects_found_in_twisted_table():
    t = non_associative_table()
    e1 = basis_vector(RATIONAL, 1)
    defects = t.nucleus_defects(e1, [(e1, e1)])
    assert defects  # e1 fails to associate with (e1, e1)
    slots = {d.slot for d in defects}
    assert slots <= {"left", "middle", "right"}
    for d in defects:
        assert not d.value.is_zero()
        assert d.value == t.associator(*{
            "left": (e1, d.x, d.y),
            "middle": (d.x, e1, d.y),
            "right": (d.x, d.y, e1),
        }[d.slot])


def test_center_report_for_quaternions():
    t = quat()
    basis = [basis_vector(RATIONAL, n) for n in range(4)]
    report = t.center_defects(basis_vector(RATIONAL, 0), basis)
    assert report.ok  # the unit is central
    report = t.center_defects(basis_vector(RATIONAL, 1), [basis_vector(RATIONAL, 2)])
    assert not report.ok
    assert report.associator_defects == ()  # quaternions associate
    (defect,) = report.commutator_defects
    assert defect.value == HamelVector(RATIONAL, {3: 2})  # [i, j] = 2k


def test_check_laws_pass_for_builtins():
    for name in ("polynomial", "quaternion", "complex", "group_z", "free:2"):
        report = load_builtin(name).table.check_laws(trials=60, max_index=8, seed=5)
        assert report.ok, report.to_data()


def test_check_laws_catches_false_claims():
    t = non_associative_table()
    t.claims_associative = True
    t.claims_commutative = True
    report = t.check_laws(trials=200, max_index=2, seed=1)
    failed = {r.law for r in report.results if not r.ok}
    assert "associative" in failed
    assert "commutative" in failed
    for r in report.results:
        if not r.ok:
            assert r.counterexample


def test_check_laws_rejects_zero_trials():
    with pytest.raises(ValueError):
        poly().check_laws(trials=0)


def test_check_laws_deterministic():
    a = quat().check_laws(trials=40, max_index=5, seed=9).to_data()
    b = quat().check_laws(trials=40, max_index=5, seed=9).to_data()
    assert a == b


def test_pair_bound_violation_detected():
    entries = {(0, 0): {0: 1, 1: 1}}  # mass 2
    t = StructureTable(RATIONAL, name="fat", entries=entries, pair_bound=1)
    v = basis_vector(RATIONAL, 0)
    with pytest.raises(CertificateError):
        t.mul(v, v)


def test_pair_bound_satisfied_passes():
    t = StructureTable(RATIONAL, entries={(0, 0): {0: Fraction(1, 2), 1: Fraction(1, 2)}}, pair_bound=1)
    v = basis_vector(RATIONAL, 0)
    assert t.mul(v, v) == HamelVector(RATIONAL, {0: Fraction(1, 2), 1: Fraction(1, 2)})


def test_endo_mul_is_composition():
    rng = random.Random(24)
    for _ in range(200):
        f, g = rand_map(rng, RATIONAL), rand_map(rng, RATIONAL)
        v = rand_vector(rng, RATIONAL)
        assert f.compose(g).apply(v) == f.apply(g.apply(v))


def test_endo_mul_bilinear():
    rng = random.Random(25)
    for _ in range(200):
        f, g, h = (rand_map(rng, RATIONAL) for _ in range(3))
        d = rand_scalar(rng, RATIONAL)
        assert (f + g).compose(h) == f.compose(h) + g.compose(h)
        assert f.compose(g + h) == f.compose(g) + f.compose(h)
        assert f.scale(d).compose(g) == f.compose(g).scale(d)
        assert f.compose(g.scale(d)) == f.compose(g).scale(d)


def test_table_json_round_trip():
    t = quat()
    data = table_to_data(t)
    back = table_from_data(RATIONAL, data)
    assert back.entries == t.entries
    assert back.pair_bound == t.pair_bound
    assert back.claims_associative and not back.claims_commutative


def test_table_from_data_accumulates_duplicate_rows():
    data = {
        "name": "dup",
        "structure": [
            {"i": 0, "j": 0, "k": 1, "c": "1/2"},
            {"i": 0, "j": 0, "k": 1, "c": "1/2"},
        ],
    }
    t = table_from_data(RATIONAL, data)
    assert t.lookup(0, 0) == HamelVector(RATIONAL, {1: 1})


def test_rule_backed_table_refuses_serialization():
    with pytest.raises(ValueError):
        table_to_data(poly())


def test_absent_pair_is_zero():
    t = StructureTable(RATIONAL, entries={(0, 0): {0: 1}})
    assert t.lookup(5, 7).is_zero()
    assert t.mul(basis_vector(RATIONAL, 5), basis_vector(RATIONAL, 7)).is_zero()
