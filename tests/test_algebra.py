import random
from fractions import Fraction

import pytest

from falg import (
    FLOAT64,
    INTEGER,
    RATIONAL,
    CertificateError,
    ColumnFiniteMap,
    HamelVector,
    LawReport,
    StructureTable,
    basis_vector,
    load_builtin,
    table_from_data,
    table_to_data,
    zero_vector,
)
from falg.algebra import _below

from support import assert_canonical, rand_map, rand_scalar, rand_vector


def poly():
    return load_builtin("polynomial").table


def quat():
    return load_builtin("quaternion").table


def non_associative_table(**claims):
    # e0 is a unit; e1*e1 = e2, e1*e2 = 0, e2*e1 = e1, e2*e2 = 0
    entries = {(0, n): {n: 1} for n in range(3)}
    entries.update({(n, 0): {n: 1} for n in range(3)})
    entries[(1, 1)] = {2: 1}
    entries[(1, 2)] = {}
    entries[(2, 1)] = {1: 1}
    entries[(2, 2)] = {}
    return StructureTable(RATIONAL, name="twisted", entries=entries, **claims)


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
    t = non_associative_table(claims_associative=True, claims_commutative=True)
    report = t.check_laws(trials=200, max_index=2, seed=1)
    failed = {r.law for r in report.results if not r.ok}
    assert "associative" in failed
    assert "commutative" in failed
    for r in report.results:
        if not r.ok:
            assert r.counterexample


def test_table_fields_are_fixed_but_rule():
    v = HamelVector(RATIONAL, {0: 1})
    t = StructureTable(RATIONAL, entries={(0, 0): {0: 1}}, pair_bound=1)
    t.mul(v, v)  # memoizes row (0, 0), checked under bound 1
    fields, rows = [getattr(t, name) for name in StructureTable._fields], t._rows
    # each value once broke the table when assigned: a row checked under another bound, raw dict
    # entries, a bool key, an int backend over rat entries
    for name, value in [("backend", INTEGER), ("name", "u"), ("entries", {(0, 0): {0: 5}}),
                        ("entries", {(True, 1): v}), ("pair_bound", Fraction(1, 2)), ("pair_bound", None),
                        ("claims_associative", True), ("claims_commutative", True)]:
        with pytest.raises(AttributeError, match=f"^cannot assign to field {name!r}$"):
            setattr(t, name, value)
        assert [getattr(t, name) for name in StructureTable._fields] == fields and t._rows is rows
    with pytest.raises(AttributeError, match="^cannot delete field 'rule'$"):
        del t.rule
    assert t.rule is None and t.mul(v, v) == v and t._rows is rows
    # a rule may be rebound (wrapped) on a warmed table without emptying its memo
    free = load_builtin("free:2").table
    free.mul(basis_vector(RATIONAL, 1), basis_vector(RATIONAL, 2))
    rows, rule = free._rows, free.rule
    free.rule = lambda i, j: rule(i, j)
    assert free._rows is rows and rows


@pytest.mark.parametrize("backend, bound", [
    (RATIONAL, "x"), (RATIONAL, -1), (RATIONAL, [1]), (INTEGER, "1"), (FLOAT64, "-1"), (FLOAT64, "nan"),
], ids=["rat-text", "rat-negative", "rat-list", "int-text", "f64-negative", "f64-nan"])
def test_assigned_pair_bound_is_checked_as_the_constructor_checks_it(backend, bound):
    with pytest.raises((TypeError, ValueError)):
        StructureTable(backend, entries={(0, 0): {0: 1}}, pair_bound=bound)
    t = StructureTable(backend, entries={(0, 0): {0: 1}}, pair_bound=1)
    v = basis_vector(backend, 0)
    t.mul(v, v)
    rows = t._rows
    with pytest.raises(AttributeError, match="^cannot assign to field 'pair_bound'$"):
        t.pair_bound = bound
    # refused before anything changes: the table is as it was
    assert t.pair_bound == 1 and t._rows is rows and t.mul(v, v) == v


def test_assigned_pair_bound_reads_as_the_constructor_reads_it():
    t = StructureTable(RATIONAL, entries={(0, 0): {0: 1}}, pair_bound="1/2")
    assert t.pair_bound == Fraction(1, 2)
    with pytest.raises(CertificateError, match="declared bound 1/2$"):
        t.lookup(0, 0)
    with pytest.raises(AttributeError, match="^cannot assign to field 'pair_bound'$"):
        t.pair_bound = None
    assert StructureTable(RATIONAL, entries={(0, 0): {0: 1}}).lookup(0, 0) == basis_vector(RATIONAL, 0)


def test_check_laws_rejects_zero_trials():
    with pytest.raises(ValueError):
        poly().check_laws(trials=0)


@pytest.mark.parametrize("trials", [True, False])
def test_check_laws_rejects_bool_trials(trials):
    # True is an int equal to 1, but a report of "trials": true is not a count
    with pytest.raises(TypeError, match="trials must be int, got bool"):
        poly().check_laws(trials=trials)


@pytest.mark.parametrize("max_index, error", [(True, TypeError), (2.5, TypeError), ("3", TypeError), (-1, ValueError)])
def test_check_laws_validates_max_index(max_index, error):
    with pytest.raises(error, match="max_index"):
        poly().check_laws(trials=1, max_index=max_index)


# reference law checker: the probes written from public operations only --------


def _ref_scalar(table, rng):
    n = rng.randint(-5, 5)
    if table.backend.name == "rat":
        return table.backend.scalar(Fraction(n, rng.randint(1, 4)))
    return table.backend.scalar(n)


def _ref_vector(table, rng, max_index):
    size = rng.randint(0, 3)
    coords = {}
    for _ in range(size):
        coords[rng.randint(0, max_index)] = _ref_scalar(table, rng)
    return HamelVector(table.backend, coords)


def _ref_render(value):
    if isinstance(value, HamelVector):
        return "{" + ", ".join(f"{i}: {value.coords[i].render()}" for i in sorted(value.coords)) + "}"
    return value.render()


def reference_check_laws(table, trials, max_index, seed):
    """check_laws(...).to_data(), from vector +, scale, mul, commutator and associator."""
    rng = random.Random(seed)
    mul = table.mul

    def vectors(n):
        return [_ref_vector(table, rng, max_index) for _ in range(n)]

    def left_distributive():
        u, v, w = vectors(3)
        if mul(u + v, w) != mul(u, w) + mul(v, w):
            return {"u": u, "v": v, "w": w}

    def right_distributive():
        u, v, w = vectors(3)
        if mul(u, v + w) != mul(u, v) + mul(u, w):
            return {"u": u, "v": v, "w": w}

    def scalar_left():
        d = _ref_scalar(table, rng)
        u, v = vectors(2)
        if mul(u.scale(d), v) != mul(u, v).scale(d):
            return {"d": d, "u": u, "v": v}

    def scalar_right():
        d = _ref_scalar(table, rng)
        u, v = vectors(2)
        if mul(u, v.scale(d)) != mul(u, v).scale(d):
            return {"d": d, "u": u, "v": v}

    def commutative():
        u, v = vectors(2)
        if mul(u, v) != mul(v, u):
            return {"u": u, "v": v, "commutator": table.commutator(u, v)}

    def associative():
        u, v, w = vectors(3)
        value = table.associator(u, v, w)
        if not value.is_zero():
            return {"u": u, "v": v, "w": w, "associator": value}

    probes = [left_distributive, right_distributive, scalar_left, scalar_right]
    if table.claims_commutative:
        probes.append(commutative)
    if table.claims_associative:
        probes.append(associative)
    laws = []
    for probe in probes:
        failure, done = None, 0
        for _ in range(trials):
            failure = probe()
            done += 1
            if failure is not None:
                break
        law = {"law": probe.__name__, "ok": failure is None, "trials": done}
        if failure is not None:
            law["counterexample"] = "; ".join(f"{k}={_ref_render(v)}" for k, v in failure.items())
        laws.append(law)
    ok = all(law["ok"] for law in laws)
    return {"table": table.name, "seed": seed, "trials": trials, "ok": ok, "laws": laws}


def _rand_table(rng, backend):
    """A small extensional table with random claims and, sometimes, a pair bound.

    Float64 entries mix small values with constants near 1e300 and 1e308, so
    some products, sums and differences overflow.
    """
    def coeff():
        if backend is RATIONAL:
            return Fraction(rng.randint(-5, 5), rng.randint(1, 6))
        if backend is INTEGER:
            return rng.randint(-4, 4)
        return rng.choice([0.0, 1.0, -2.0, 0.5, 0.1, 1e300, -1e300, 8e307, -1e308])

    n = rng.randint(1, 3)
    entries = {}
    for i in range(n + 1):
        for j in range(n + 1):
            if rng.random() < 0.7:
                entries[(i, j)] = {rng.randint(0, n): coeff() for _ in range(rng.randint(0, 3))}
    bound = rng.choice([None, None, 1, 3, 10])
    return StructureTable(
        backend,
        name="random",
        entries=entries,
        pair_bound=None if bound is None else backend.norm_check(bound),
        claims_associative=rng.random() < 0.6,
        claims_commutative=rng.random() < 0.6,
    )


def _outcome(call):
    try:
        result = call()
    except (ValueError, ArithmeticError) as e:
        return type(e), str(e)
    return result.to_data() if isinstance(result, LawReport) else result


@pytest.mark.parametrize("backend", [RATIONAL, INTEGER, FLOAT64], ids=lambda b: b.name)
def test_check_laws_matches_reference(backend):
    rng = random.Random(808)
    seen = set()
    for n in range(60):
        table_seed = rng.randrange(10**6)
        for trials, max_index, seed in [
            (1, 0, n), (8, 2, n + 1), (25, 4, n + 2), (8, 3, n + 3), (8, 7, n + 4), (8, 15, n + 5),
            # widths 2, 32 and 33: the edges of the index draw's bit widths
            (8, 1, n + 6), (8, 31, n + 7), (8, 32, n + 8),
        ]:
            real = _outcome(lambda: _rand_table(random.Random(table_seed), backend).check_laws(trials, max_index, seed))
            ref = _outcome(lambda: reference_check_laws(_rand_table(random.Random(table_seed), backend), trials, max_index, seed))
            assert real == ref, (table_seed, trials, max_index, seed)
            seen.add(real[0] if isinstance(real, tuple) else real["ok"])
    # the run covers passing reports, failing reports and raised certificate errors
    assert {True, False, CertificateError} <= seen
    if backend is FLOAT64:
        assert ValueError in seen


# every width 1-70, the powers of two and their neighbours up to 2^64, and a 100-bit width
_DRAW_WIDTHS = sorted(
    set(range(1, 71)) | {2**k + d for k in range(1, 65) for d in (-1, 0, 1)} | {2**100 - 3}
)


@pytest.mark.parametrize("seed", [0, 1, 808, 2**40 + 7])
def test_below_draws_the_randint_stream(seed):
    # a + _below(rng, b - a + 1) is rng.randint(a, b), draw for draw, from one state
    ours, theirs = random.Random(seed), random.Random(seed)
    for width in _DRAW_WIDTHS:
        for a in (0, -5):
            for _ in range(3):
                assert a + _below(ours, width) == theirs.randint(a, a + width - 1), (seed, width)
    assert ours.getstate() == theirs.getstate()


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


@pytest.mark.parametrize("table, i, j, error", [
    ("polynomial", 5, -2, ValueError),
    ("polynomial", True, 2, TypeError),
    ("free:1", 3, -2, ValueError),
    ("extensional", -1, 0, ValueError),
    # memo hits: False and 0.0 equal 0, and (0, 0) is memoized first
    ("polynomial", False, 0, TypeError),
    ("polynomial", 0.0, 0, TypeError),
    ("free:1", 0, False, TypeError),
    ("extensional", 0, 0.0, TypeError),
])
def test_lookup_checks_both_indices_before_memoizing(table, i, j, error):
    if table == "extensional":
        t = StructureTable(RATIONAL, entries={(0, 0): {0: 1}})
    else:
        t = load_builtin(table).table
    t.lookup(0, 0)
    rows = {k: dict(row) for k, row in t._rows.items()}
    entries = dict(t.entries)
    with pytest.raises(error, match="basis index must be"):
        t.lookup(i, j)
    assert t._rows == rows
    assert t.entries == entries


@pytest.mark.parametrize("key, error", [((-1, 0), ValueError), ((True, 2), TypeError), (("a", 0), TypeError)],
                         ids=["negative", "bool", "str"])
def test_table_entries_are_keyed_by_basis_index_pairs(key, error):
    with pytest.raises(error, match="basis index must be"):
        StructureTable(RATIONAL, entries={(0, 1): {0: 1}, key: {0: 1}})


@pytest.mark.parametrize("key, error", [((-1, 0), ValueError), ((True, 2), TypeError), (("a", 0), TypeError)],
                         ids=["negative", "bool", "str"])
def test_table_to_data_refuses_keys_its_reader_rejects(key, error):
    # a key written into entries after the table was built never reaches the wire
    t = StructureTable(RATIONAL, entries={(0, 1): {0: 1}})
    t.entries[key] = t.entries[(0, 1)]
    with pytest.raises(error, match="basis index must be"):
        table_to_data(t)


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


@pytest.mark.parametrize("backend", [INTEGER, RATIONAL, FLOAT64], ids=lambda b: b.name)
def test_table_from_data_drops_a_cell_whose_rows_cancel(backend):
    one = {"i": 0, "j": 0, "k": 0, "c": "1"}
    cancelling = [{"i": 0, "j": 1, "k": 1, "c": "3"}, {"i": 0, "j": 1, "k": 1, "c": "-3"}]
    t = table_from_data(backend, {"structure": [one, *cancelling]})
    assert t == table_from_data(backend, {"structure": [one]})
    assert t == table_from_data(backend, table_to_data(t))
    assert table_from_data(backend, {"structure": cancelling}).entries == {}


@pytest.mark.parametrize("index", [1.9, 1.0, True, "01", "1_0", -1], ids=repr)
def test_table_from_data_rejects_non_canonical_indices(index):
    # a JSON number that is not an int (a bool included) is a TypeError, as for any index; text must be canonical
    error = ValueError if type(index) in (str, int) else TypeError
    for name in "ijk":
        row = {"i": 0, "j": 0, "k": 0, "c": "1", name: index}
        with pytest.raises(error):
            table_from_data(RATIONAL, {"structure": [row]})


def test_table_from_data_reads_integer_and_decimal_indices():
    rows = [{"i": 1, "j": "0", "k": "12", "c": "1"}]
    assert table_from_data(RATIONAL, {"structure": rows}).lookup(1, 0) == basis_vector(RATIONAL, 12)


def test_rule_backed_table_refuses_serialization():
    with pytest.raises(ValueError):
        table_to_data(poly())


def test_absent_pair_is_zero():
    t = StructureTable(RATIONAL, entries={(0, 0): {0: 1}})
    assert t.lookup(5, 7).is_zero()
    assert t.mul(basis_vector(RATIONAL, 5), basis_vector(RATIONAL, 7)).is_zero()


def test_using_an_extensional_table_leaves_its_entries():
    data = {"name": "one", "structure": [{"i": 0, "j": 0, "k": 0, "c": "1"}], "pairBound": "1"}
    t1, t2 = table_from_data(RATIONAL, data), table_from_data(RATIONAL, data)
    assert t1.mul(basis_vector(RATIONAL, 5), basis_vector(RATIONAL, 7)).is_zero()
    assert t1.lookup(5, 7).is_zero() and t1.lookup(5, 7).backend is RATIONAL
    assert t1.lookup(0, 0) == basis_vector(RATIONAL, 0)
    assert len(t1.entries) == 1
    assert t1 == t2
    assert table_to_data(t1) == table_to_data(t2)
