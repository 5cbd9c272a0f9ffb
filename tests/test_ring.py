import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from falg import (
    BACKENDS,
    FLOAT64,
    INTEGER,
    RATIONAL,
    BackendMismatchError,
    Scalar,
    embed_int,
    embed_rational,
    parse_scalar,
)

from falg.ring import MAX_LITERAL_DIGITS, MAX_LITERAL_EXPONENT
from support import rand_scalar


def test_backend_registry():
    assert set(BACKENDS) == {"int", "rat", "f64"}
    assert BACKENDS["rat"] is RATIONAL
    assert INTEGER.exact and RATIONAL.exact and not FLOAT64.exact


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
