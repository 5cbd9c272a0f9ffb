import math
import operator
import random
import sys
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from falg import (
    BACKENDS,
    FLOAT64,
    INTEGER,
    RATIONAL,
    BackendMismatchError,
    HamelVector,
    Scalar,
    TailVector,
    embed_int,
    embed_rational,
    parse_scalar,
)

from falg.ring import MAX_LITERAL_DIGITS, MAX_LITERAL_EXPONENT
from support import rand_scalar


def test_backend_registry():
    assert set(BACKENDS) == {"int", "rat", "f64"}
    assert BACKENDS["rat"] is RATIONAL


def test_exact_rational_arithmetic():
    a = RATIONAL.scalar(Fraction(2, 3))
    b = RATIONAL.scalar(Fraction(1, 3))
    assert (a + b).value == 1
    assert (a * b).value == Fraction(2, 9)
    assert (a - a).is_zero()
    assert (-a).value == Fraction(-2, 3)


def test_integer_arithmetic():
    a = INTEGER.scalar(7)
    b = INTEGER.scalar(-3)
    assert (a + b).value == 4
    assert (a * b).value == -21
    assert a.norm() == 7 and b.norm() == 3


def test_embed_int_all_backends():
    for backend in BACKENDS.values():
        s = embed_int(backend, -4)
        assert s.backend is backend
        assert s + embed_int(backend, 4) == backend.zero


def test_embed_rational():
    assert embed_rational(RATIONAL, 3, 6).value == Fraction(1, 2)
    assert embed_rational(FLOAT64, 1, 4).value == 0.25
    with pytest.raises(ZeroDivisionError):
        embed_rational(RATIONAL, 1, 0)
    with pytest.raises(ValueError):
        embed_rational(INTEGER, 1, 2)


def test_embedding_is_ring_homomorphism():
    rng = random.Random(11)
    for _ in range(1000):
        m, n = rng.randint(-40, 40), rng.randint(-40, 40)
        for backend in BACKENDS.values():
            assert embed_int(backend, m) + embed_int(backend, n) == embed_int(backend, m + n)
            assert embed_int(backend, m) * embed_int(backend, n) == embed_int(backend, m * n)


def test_characteristic_zero_injectivity():
    # distinct integers stay distinct in every backend
    images = {embed_int(RATIONAL, n).value for n in range(-50, 51)}
    assert len(images) == 101


def test_backend_mismatch_raises():
    with pytest.raises(BackendMismatchError):
        RATIONAL.scalar(1) + INTEGER.scalar(1)
    with pytest.raises(BackendMismatchError):
        FLOAT64.scalar(1.0) * RATIONAL.scalar(1)


def test_norm_axioms_random_pairs():
    # |a| >= 0, |a| = 0 iff a = 0, |ab| = |a||b|, |a+b| <= |a|+|b|
    rng = random.Random(5)
    for _ in range(1000):
        for backend in BACKENDS.values():
            a = rand_scalar(rng, backend)
            b = rand_scalar(rng, backend)
            assert a.norm() >= 0
            assert (a.norm() == 0) == a.is_zero()
            assert (a * b).norm() == a.norm() * b.norm()
            assert (a + b).norm() <= a.norm() + b.norm()
            assert (-a).norm() == a.norm()


@given(st.fractions(), st.fractions())
def test_rational_add_commutes(x, y):
    a, b = RATIONAL.scalar(x), RATIONAL.scalar(y)
    assert a + b == b + a
    assert a * b == b * a


@given(st.fractions())
def test_rational_render_parse_round_trip(x):
    s = RATIONAL.scalar(x)
    assert parse_scalar(RATIONAL, s.render()) == s


@given(st.integers(min_value=-(10**12), max_value=10**12))
def test_integer_render_parse_round_trip(n):
    s = INTEGER.scalar(n)
    assert parse_scalar(INTEGER, s.render()) == s


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_float_render_parse_round_trip(x):
    s = FLOAT64.scalar(x)
    assert parse_scalar(FLOAT64, s.render()) == s


def test_render_forms():
    assert RATIONAL.scalar(Fraction(3, 2)).render() == "3/2"
    assert RATIONAL.scalar(Fraction(-3, 2)).render() == "-3/2"
    assert RATIONAL.scalar(2).render() == "2"
    assert INTEGER.scalar(-3).render() == "-3"


def test_integer_backend_rejects_fraction_text():
    with pytest.raises(ValueError):
        parse_scalar(INTEGER, "1/2")


def test_float_bound_arithmetic_rounds_up():
    rng = random.Random(3)
    for _ in range(500):
        x = abs(rng.random() * 10**rng.randint(-3, 3))
        y = abs(rng.random() * 10**rng.randint(-3, 3))
        # never below the true value: float sum/product rounds to nearest,
        # one extra ulp upward dominates that rounding error
        assert FLOAT64.norm_add(x, y) >= Fraction(x) + Fraction(y)
        assert FLOAT64.norm_mul(x, y) >= Fraction(x) * Fraction(y)
    # exact zero short-circuits, no spurious inflation
    assert FLOAT64.norm_mul(0.0, 0.3) == 0.0


def _chain(backend, values):
    """The sum of |x| as a norm_zero-started chain of exact additions."""
    total = backend.norm_zero
    for x in values:
        total = total + abs(x)
    return total


_INT_NORMS = st.one_of(st.integers(-10**30, 10**30), st.fractions(min_value=0, max_denominator=10**9))
_RAT_NORMS = st.one_of(st.fractions(max_denominator=10**9), st.integers(0, 10**30))


@given(backend=st.sampled_from([INTEGER, RATIONAL]), data=st.data())
def test_exact_mass_is_the_chained_sum_with_its_type(backend, data):
    # raw values and int or Fraction norm values mixed: a Fraction comes
    # back exactly when one went in, and 0 (not Fraction(0)) for none
    values = data.draw(st.lists(_INT_NORMS if backend is INTEGER else _RAT_NORMS, max_size=8))
    mass, expected = backend._mass(values), _chain(backend, values)
    assert type(mass) is type(expected) and mass == expected


def test_rational_mass_is_a_reduced_fraction():
    values = [Fraction(1, 6), Fraction(-1, 6), Fraction(1, 3), Fraction(2, 3), 1]
    mass = RATIONAL._mass(values)
    assert type(mass) is Fraction and (mass.numerator, mass.denominator) == (7, 3)


def _assert_chained_mass(mass, expected):
    """mass equals the chained sum expected, with its type, and a Fraction is reduced."""
    assert type(mass) is type(expected) and mass == expected
    if type(mass) is Fraction:
        assert (mass.numerator, mass.denominator) == (expected.numerator, expected.denominator)
        assert math.gcd(mass.numerator, mass.denominator) == 1


def _primes_from(start: int, count: int) -> list[int]:
    out, p = [], start
    while len(out) < count:
        if all(p % q for q in range(2, math.isqrt(p) + 1)):
            out.append(p)
        p += 1
    return out


def _grouped_values(groups: int) -> list:
    """Signed Fractions over `groups` distinct denominators 2p, each met twice.

    Each group's two numerators are odd, so the sum of their absolute values
    over 2p is not reduced.
    """
    rng = random.Random(groups)
    values = []
    for p in _primes_from(1000, groups):
        for _ in range(2):
            values.append(Fraction(rng.choice((-1, 1)) * (2 * rng.randint(0, 9) + 1), 2 * p))
    rng.shuffle(values)
    return values


@pytest.mark.parametrize("groups", range(1, 10))
def test_mass_over_several_denominator_groups_is_the_chained_sum(groups):
    # the ints join the group of denominator 1, one group more
    for values in (_grouped_values(groups), [3, *_grouped_values(groups), -2]):
        _assert_chained_mass(RATIONAL._mass(values), _chain(RATIONAL, values))


def test_mass_over_64_distinct_prime_denominators_is_the_chained_sum():
    rng = random.Random(64)
    values = [Fraction(rng.choice((-1, 1)) * rng.randint(1, 10**6), p) for p in _primes_from(10**6, 64)]
    _assert_chained_mass(RATIONAL._mass(values), _chain(RATIONAL, values))
    _assert_chained_mass(RATIONAL._mass([0, *values, 7]), _chain(RATIONAL, [0, *values, 7]))


@pytest.mark.parametrize("values", [
    [3, -4, Fraction(1, 2), Fraction(5, 6)],
    [Fraction(1, 3), -7, Fraction(2, 3)],
    [Fraction(7, 1), 5],
    [0, Fraction(0)],
], ids=["over-6", "whole-sum", "over-1", "zero"])
def test_fraction_norm_values_on_the_integer_backend(values):
    _assert_chained_mass(INTEGER._mass(values), _chain(INTEGER, values))


class _TailFraction(Fraction):
    """A Fraction subclass, which norm_check keeps as it is."""


@pytest.mark.parametrize("backend", [INTEGER, RATIONAL], ids=lambda b: b.name)
def test_truncate_sums_a_fraction_subclass_tail(backend):
    tail = _TailFraction(5, 6)
    coords = {0: 3, 1: -2, 2: 7, 3: -1} if backend is INTEGER else {
        0: Fraction(1, 6), 1: Fraction(-1, 3), 2: Fraction(7, 10), 3: Fraction(-1, 2)}
    v = TailVector(HamelVector(backend, coords), tail)
    assert v.tail is tail
    out = v.truncate([0, 2])
    moved = [v.prefix.coords[i].value for i in (1, 3)]
    _assert_chained_mass(out.tail, _chain(backend, [tail, *moved]))


_PRIMES_7 = _primes_from(10**6, 64)  # 64 distinct 7-digit primes

# 0 and 1, huge ints, integral Fractions, small and 7-digit prime denominators
_EXACT_NORMS = st.one_of(
    st.sampled_from([0, 1, Fraction(0), Fraction(1), 10**40 + 1, Fraction(-(10**40))]),
    st.integers(-(10**40), 10**40),
    st.builds(Fraction, st.integers(-(10**40), 10**40)),
    st.fractions(max_denominator=12),
    st.builds(Fraction, st.integers(-(10**12), 10**12), st.sampled_from(_PRIMES_7)),
)


def _assert_operator_result(got, expected):
    """got is what the operator gave, in value and type, and a Fraction has reduced slots over d > 0."""
    assert type(got) is type(expected) and got == expected
    if type(got) is Fraction:
        assert (got._numerator, got._denominator) == (expected._numerator, expected._denominator)
        assert got._denominator > 0 and math.gcd(got._numerator, got._denominator) == 1


@given(backend=st.sampled_from([INTEGER, RATIONAL]), x=_EXACT_NORMS, y=_EXACT_NORMS)
@example(backend=RATIONAL, x=Fraction(1, 6), y=Fraction(1, 6))  # the sum reduces by the second gcd
@example(backend=INTEGER, x=Fraction(2, 3), y=Fraction(3, 4))  # the product reduces by both cross gcds
@example(backend=RATIONAL, x=4, y=Fraction(3, 8))
def test_exact_norm_arithmetic_is_the_operators(backend, x, y):
    _assert_operator_result(backend.norm_add(x, y), x + y)
    _assert_operator_result(backend.norm_mul(x, y), x * y)


@given(
    backend=st.sampled_from([INTEGER, RATIONAL]),
    values=st.lists(st.builds(Fraction, st.integers(1, 10**7), st.sampled_from(_PRIMES_7)),
                    min_size=1, max_size=64, unique_by=lambda q: q.denominator),
)
def test_exact_norm_chains_over_distinct_prime_denominators(backend, values):
    # a sum and a product started from the int norm_zero and 1, each step against the operator
    total, product = backend.norm_zero, 1
    for v in values:
        got_total, got_product = backend.norm_add(total, v), backend.norm_mul(product, v)
        total, product = total + v, product * v
        _assert_operator_result(got_total, total)
        _assert_operator_result(got_product, product)


class _Count(int):
    """An int subclass, which the norm arithmetic leaves to the operators."""


_OTHER_NORMS = [True, _Count(3), _TailFraction(5, 6), 0.5, math.inf, Decimal("1.5"), "1", None]


@pytest.mark.parametrize("backend", [INTEGER, RATIONAL], ids=lambda b: b.name)
def test_norm_arithmetic_leaves_other_types_to_the_operators(backend):
    for x in _OTHER_NORMS:
        for y in _OTHER_NORMS + [0, 7, Fraction(0), Fraction(3, 4), Fraction(6, 1)]:
            for a, b in ((x, y), (y, x)):
                # _outcome (below) reads a method off its first argument, here the operator module too
                assert _outcome(backend, "norm_add", (a, b)) == _outcome(operator, "add", (a, b)), (a, b)
                assert _outcome(backend, "norm_mul", (a, b)) == _outcome(operator, "mul", (a, b)), (a, b)


_FLOAT_MAX_BELOW = Fraction(math.nextafter(sys.float_info.max, 0.0))


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=8))
def test_float_mass_rounds_the_exact_sum_once_upward(values):
    exact = sum(Fraction(abs(x)) for x in values)
    try:
        mass = FLOAT64._mass(values)
    except OverflowError as e:
        assert str(e) == "bound arithmetic left the finite range"
        assert exact > _FLOAT_MAX_BELOW
        return
    chain = 0.0  # one upward ulp per term
    for x in values:
        chain = math.nextafter(chain + abs(x), math.inf)
    assert type(mass) is float
    assert exact <= Fraction(mass) and mass <= chain
    assert (mass == 0.0) == (not any(values))
    assert math.copysign(1.0, mass) == 1.0


@pytest.mark.parametrize("values", [[1e308, 1e308], [sys.float_info.max, 1.0]], ids=["sum", "last-ulp"])
def test_float_mass_overflow_raises(values):
    with pytest.raises(OverflowError, match="finite range"):
        FLOAT64._mass(values)


def test_float_bound_overflow_detected():
    with pytest.raises(OverflowError):
        FLOAT64.norm_mul(1e308, 1e308)


def test_exact_bound_checks():
    assert RATIONAL.norm_check(Fraction(1, 2)) == Fraction(1, 2)
    with pytest.raises(ValueError):
        RATIONAL.norm_check(Fraction(-1, 2))
    with pytest.raises(TypeError):
        RATIONAL.norm_check(0.5)
    assert FLOAT64.norm_check(1) == 1.0
    with pytest.raises(ValueError):
        FLOAT64.norm_check(-0.5)


@pytest.mark.parametrize("bound", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
def test_float_bound_must_be_finite(bound):
    with pytest.raises(ValueError, match="finite"):
        FLOAT64.norm_check(bound)
    with pytest.raises(ValueError, match="finite"):
        FLOAT64.norm_parse(str(bound))


def test_float_rejects_non_finite():
    with pytest.raises(ValueError):
        FLOAT64.scalar(math.inf)
    with pytest.raises(ValueError):
        parse_scalar(FLOAT64, "nan")


@pytest.mark.parametrize(
    "text",
    ["1e100000000", "1E-100000000", "2.5e+4301", "1/" + "3" * 5000, "0." + "1" * 5000],
    ids=["1e100000000", "1E-100000000", "2.5e+4301", "fraction-5000-digits", "decimal-5000-digits"],
)
def test_exact_literal_caps(text):
    for parse in (RATIONAL.parse, RATIONAL.norm_parse, RATIONAL.norm_check, RATIONAL.check,
                  INTEGER.norm_parse):
        with pytest.raises(ValueError):
            parse(text)


def test_exact_literals_at_the_caps_parse():
    assert RATIONAL.parse(f"1e{MAX_LITERAL_EXPONENT}") == 10**MAX_LITERAL_EXPONENT
    assert RATIONAL.norm_parse(f"1e-{MAX_LITERAL_EXPONENT}") == Fraction(1, 10**MAX_LITERAL_EXPONENT)
    assert RATIONAL.parse("9" * MAX_LITERAL_DIGITS) == 10**MAX_LITERAL_DIGITS - 1
    assert INTEGER.parse("-" + "9" * MAX_LITERAL_DIGITS) == 1 - 10**MAX_LITERAL_DIGITS
    with pytest.raises(ValueError):
        INTEGER.parse("9" * (MAX_LITERAL_DIGITS + 1))


# Every backend method on fixed inputs: the type and repr of each result, or
# the type and message of the exception, for int, rat and f64 in that order.
# The inputs are shared by the three backends, so a method one backend
# inherits and another overrides shows up as a difference in its row.
_BACKEND_OUTCOMES = [
    ("check", (5,), "int 5", "Fraction Fraction(5, 1)", "float 5.0"),
    ("check", (True,),
     "TypeError: integer backend takes int, got bool",
     "TypeError: rational backend takes int/Fraction/str, got bool",
     "TypeError: float backend takes int/float, got bool"),
    ("check", (2.5,),
     "TypeError: integer backend takes int, got float",
     "TypeError: rational backend takes int/Fraction/str, got float",
     "float 2.5"),
    ("check", ("7/3",),
     "TypeError: integer backend takes int, got str",
     "Fraction Fraction(7, 3)",
     "TypeError: float backend takes int/float, got str"),
    ("check", ("1/0",),
     "TypeError: integer backend takes int, got str",
     "ValueError: zero denominator in '1/0'",
     "TypeError: float backend takes int/float, got str"),
    ("check", (None,),
     "TypeError: integer backend takes int, got NoneType",
     "TypeError: rational backend takes int/Fraction/str, got NoneType",
     "TypeError: float backend takes int/float, got NoneType"),
    ("check", (math.inf,),
     "TypeError: integer backend takes int, got float",
     "TypeError: rational backend takes int/Fraction/str, got float",
     "ValueError: float coefficients must be finite"),
    ("from_int", (-4,), "int -4", "Fraction Fraction(-4, 1)", "float -4.0"),
    ("from_rational", (3, 6),
     "ValueError: integer backend has no general quotients; use the rational backend",
     "Fraction Fraction(1, 2)",
     "float 0.5"),
    ("from_rational", (1, 0),
     "ZeroDivisionError: denominator is zero",
     "ZeroDivisionError: denominator is zero",
     "ZeroDivisionError: denominator is zero"),
    ("parse", ("-3/4",),
     "ValueError: invalid literal for int() with base 10: '-3/4'",
     "Fraction Fraction(-3, 4)",
     "ValueError: could not convert string to float: '-3/4'"),
    ("parse", ("1.5",),
     "ValueError: invalid literal for int() with base 10: '1.5'", "Fraction Fraction(3, 2)", "float 1.5"),
    ("parse", ("inf",),
     "ValueError: invalid literal for int() with base 10: 'inf'",
     "ValueError: Invalid literal for Fraction: 'inf'",
     "ValueError: float coefficients must be finite"),
    ("parse", ("1e5000",),
     "ValueError: literal exponent 5000 exceeds 4300 in magnitude",
     "ValueError: literal exponent 5000 exceeds 4300 in magnitude",
     "ValueError: float coefficients must be finite"),
    ("parse", ("1/0",),
     "ValueError: invalid literal for int() with base 10: '1/0'",
     "ValueError: zero denominator in '1/0'",
     "ValueError: could not convert string to float: '1/0'"),
    ("parse", (1,),
     "TypeError: exact coefficients and bounds are decimal strings, got int",
     "TypeError: exact coefficients and bounds are decimal strings, got int",
     "float 1.0"),
    ("render", (-3,), "str '-3'", "str '-3'", "str '-3'"),
    ("render", (Fraction(3, 2),), "str '3/2'", "str '3/2'", "str 'Fraction(3, 2)'"),
    ("render", (0.1,), "str '0.1'", "str '0.1'", "str '0.1'"),
    ("add", (2, 3), "int 5", "int 5", "int 5"),
    ("add", (1e308, 1e308), "float inf", "float inf", "ValueError: float coefficients must be finite"),
    ("mul", (Fraction(1, 2), 4),
     "Fraction Fraction(2, 1)", "Fraction Fraction(2, 1)", "Fraction Fraction(2, 1)"),
    ("mul", (1e308, 10.0), "float inf", "float inf", "ValueError: float coefficients must be finite"),
    ("neg", (Fraction(-1, 2),),
     "Fraction Fraction(1, 2)", "Fraction Fraction(1, 2)", "Fraction Fraction(1, 2)"),
    ("neg", (0.0,), "float -0.0", "float -0.0", "float -0.0"),
    ("norm", (-3,), "int 3", "int 3", "int 3"),
    ("norm", (Fraction(-3, 2),),
     "Fraction Fraction(3, 2)", "Fraction Fraction(3, 2)", "Fraction Fraction(3, 2)"),
    ("norm", (-0.5,), "float 0.5", "float 0.5", "float 0.5"),
    ("norm_check", (0,), "int 0", "int 0", "float 0.0"),
    ("norm_check", (Fraction(1, 2),), "Fraction Fraction(1, 2)", "Fraction Fraction(1, 2)", "float 0.5"),
    ("norm_check", (-1,),
     "ValueError: bound must be non-negative, got -1",
     "ValueError: bound must be non-negative, got -1",
     "ValueError: bound must be finite and non-negative, got -1.0"),
    ("norm_check", (True,),
     "TypeError: exact bound must be int or Fraction, got bool",
     "TypeError: exact bound must be int or Fraction, got bool",
     "float 1.0"),
    ("norm_check", (0.5,),
     "TypeError: exact bound must be int or Fraction, got float",
     "TypeError: exact bound must be int or Fraction, got float",
     "float 0.5"),
    ("norm_check", ("3/4",),
     "TypeError: exact bound must be int or Fraction, got str",
     "Fraction Fraction(3, 4)",
     "ValueError: could not convert string to float: '3/4'"),
    ("norm_check", (None,),
     "TypeError: exact bound must be int or Fraction, got NoneType",
     "TypeError: exact bound must be int or Fraction, got NoneType",
     "TypeError: float bound must be numeric, got NoneType"),
    ("norm_check", (math.inf,),
     "TypeError: exact bound must be int or Fraction, got float",
     "TypeError: exact bound must be int or Fraction, got float",
     "ValueError: bound must be finite and non-negative, got inf"),
    ("norm_add", (1, Fraction(1, 2)),
     "Fraction Fraction(3, 2)", "Fraction Fraction(3, 2)", "float 1.5000000000000002"),
    ("norm_add", (0.1, 0.2),
     "float 0.30000000000000004", "float 0.30000000000000004", "float 0.3000000000000001"),
    ("norm_add", (1e308, 1e308),
     "float inf", "float inf", "OverflowError: bound arithmetic left the finite range"),
    ("norm_add", (0.0, 0.1), "float 0.1", "float 0.1", "float 0.1"),
    ("norm_add", (sys.float_info.max, 1.0),
     "float 1.7976931348623157e+308", "float 1.7976931348623157e+308",
     "OverflowError: bound arithmetic left the finite range"),
    ("norm_mul", (Fraction(1, 2), 3),
     "Fraction Fraction(3, 2)", "Fraction Fraction(3, 2)", "float 1.5000000000000002"),
    ("norm_mul", (0.0, 5.0), "float 0.0", "float 0.0", "float 0.0"),
    ("norm_mul", (1e308, 1e308),
     "float inf", "float inf", "OverflowError: bound arithmetic left the finite range"),
    # the pair-bound check reads the lo end; f64 rounds a list only when two or more of its values are nonzero
    ("_mass_bounds", ([Fraction(3, 2)],),
     "tuple (Fraction(3, 2), Fraction(3, 2))", "tuple (Fraction(3, 2), Fraction(3, 2))", "tuple (1.5, 1.5)"),
    ("_mass_bounds", ([0, Fraction(3, 2)],),
     "tuple (Fraction(3, 2), Fraction(3, 2))", "tuple (Fraction(3, 2), Fraction(3, 2))", "tuple (1.5, 1.5)"),
    ("_mass_bounds", ([Fraction(1, 10), Fraction(1, 5)],),
     "tuple (Fraction(3, 10), Fraction(3, 10))", "tuple (Fraction(3, 10), Fraction(3, 10))",
     "tuple (0.3, 0.3000000000000001)"),
    ("_mass_bounds", ([1e308, 1e308],),
     "tuple (inf, inf)", "AttributeError: 'float' object has no attribute '_denominator'",
     "OverflowError: bound arithmetic left the finite range"),
    ("norm_render", (0,), "str '0'", "str '0'", "str '0.0'"),
    ("norm_render", (Fraction(5, 2),), "str '5/2'", "str '5/2'", "str '2.5'"),
    ("norm_render", (0.1,), "str '0.1'", "str '0.1'", "str '0.1'"),
    ("norm_parse", ("3/4",),
     "Fraction Fraction(3, 4)",
     "Fraction Fraction(3, 4)",
     "ValueError: could not convert string to float: '3/4'"),
    ("norm_parse", ("-1",),
     "ValueError: bound must be non-negative, got -1",
     "ValueError: bound must be non-negative, got -1",
     "ValueError: bound must be finite and non-negative, got -1.0"),
    ("norm_parse", ("abc",),
     "ValueError: Invalid literal for Fraction: 'abc'",
     "ValueError: Invalid literal for Fraction: 'abc'",
     "ValueError: could not convert string to float: 'abc'"),
    ("norm_parse", ("inf",),
     "ValueError: Invalid literal for Fraction: 'inf'",
     "ValueError: Invalid literal for Fraction: 'inf'",
     "ValueError: bound must be finite and non-negative, got inf"),
    ("norm_parse", (5,),
     "TypeError: exact coefficients and bounds are decimal strings, got int",
     "TypeError: exact coefficients and bounds are decimal strings, got int",
     "float 5.0"),
    ("norm_parse", ("1/0",),
     "ValueError: zero denominator in '1/0'",
     "ValueError: zero denominator in '1/0'",
     "ValueError: could not convert string to float: '1/0'"),
    ("norm_zero", None, "int 0", "int 0", "float 0.0"),
    ("_mass", ([],), "int 0", "int 0", "float 0.0"),
    ("_mass", ([2, -3],), "int 5", "int 5", "float 5.000000000000001"),
    ("_mass", ([Fraction(-1, 2), 3],),
     "Fraction Fraction(7, 2)", "Fraction Fraction(7, 2)", "float 3.5000000000000004"),
    ("_mass", ([Fraction(-5, 2)],), "Fraction Fraction(5, 2)", "Fraction Fraction(5, 2)", "float 2.5"),
]


def _outcome(backend, method, args) -> str:
    if args is None:  # an attribute, not a method
        value = getattr(backend, method)
        return f"{type(value).__name__} {value!r}"
    try:
        value = getattr(backend, method)(*args)
    except Exception as e:
        return f"{type(e).__name__}: {e}"
    return f"{type(value).__name__} {value!r}"


@pytest.mark.parametrize(
    "method, args, expected_int, expected_rat, expected_f64",
    _BACKEND_OUTCOMES,
    ids=[f"{row[0]}{row[1]!r}" for row in _BACKEND_OUTCOMES],
)
def test_backend_method_outcomes_are_pinned(method, args, expected_int, expected_rat, expected_f64):
    assert _outcome(INTEGER, method, args) == expected_int
    assert _outcome(RATIONAL, method, args) == expected_rat
    assert _outcome(FLOAT64, method, args) == expected_f64


def test_scalar_constructor_checks_its_value():
    assert type(Scalar(RATIONAL, 3).value) is Fraction
    assert type(Scalar(FLOAT64, 2).value) is float
    with pytest.raises(TypeError):
        Scalar(INTEGER, Fraction(1, 2))
    with pytest.raises(ValueError):
        Scalar(FLOAT64, math.inf)
    # the kernels read a rat value's Fraction slots
    v = HamelVector(RATIONAL, {0: Scalar(RATIONAL, 3)})
    assert v.scale(RATIONAL.scalar(Fraction(1, 2))) == HamelVector(RATIONAL, {0: Fraction(3, 2)})


def test_rational_check_shares_plain_fractions():
    x = Fraction(3, 7)
    assert RATIONAL.check(x) is x

    class Ratio(Fraction):
        pass

    y = RATIONAL.check(Ratio(3, 7))
    assert type(y) is Fraction and y == x
    assert type(RATIONAL.check(3)) is Fraction
    with pytest.raises(TypeError, match="got bool"):
        RATIONAL.check(True)
    v = HamelVector(RATIONAL, {0: x, 2: Fraction(-1, 2)})
    assert v.coords[0].value is x
