"""Scalar backends: arbitrary-precision integers, exact rationals, binary64.

Every coefficient a caller reads is a :class:`Scalar`, a value tagged with
the backend it lives in; coordinate tables store raw values and wrap one
only when it is read (see ``hamel``).  The integer and rational backends
are exact, so algebraic laws hold as structural equalities.  The float
backend exists to feed the truncation layer, where only upper bounds
matter; it is kept out of exact law checking.

Norm values (absolute values, column sums, tail bounds) are plain numbers
rather than Scalars: ``int``/``Fraction`` on the exact backends, ``float``
on the float backend.  Derived bound arithmetic goes through
:meth:`Backend.norm_add` / :meth:`Backend.norm_mul`, which the float backend
rounds toward +inf, so a chain of bound computations can only overestimate.
The exact backends add and multiply a Fraction and an int or Fraction on
their slots with Henrici's gcds (Knuth, TAOCP 2, 4.5.1), returning what the
operator returns, reduced and of its type; other operands go to the operator.
The add, ``_rational_sum``, also adds the rat values of ``+``.

:class:`Backend` implements the exact arithmetic once, for raw values and
norm values alike.  The integer and rational backends supply only
``check``, ``from_int``, ``from_rational`` and ``parse`` (the rational one
also a ``norm_check`` that reads strings); the float backend overrides only
what finiteness and directed rounding change.  Its ``check``, ``parse``,
``add`` and ``mul`` reject a value that is not finite, and so does its
``_check_sums``, the hook through which the base ``_coords``, ``_merge`` and
``_exact`` check the values they store (a no-op on int and rat).  Its masses
round once (``_mass``, ``_mass_bounds``) and its bound arithmetic rounds up
(``norm_*``, ``_propagated``).  ``RationalBackend.check`` returns
a plain ``Fraction`` as it is, since it is immutable; a subclass or an int
is converted.

Each backend owns its representation in the kernels, each method
described in its own docstring: the numerator form of a raw table
(``_split``; on int and float64 the table itself) and the zero-free raw
table built back from a form (``_coords``; a zero filter on int and
float64, and the reduced Fractions on rat), sums of columns read in place
(``_column_sum``, ``_num_den``), the l1 mass behind every certified bound
(``_mass``, ``_mass_bounds``) and the tail formula of map application
(``_propagated``).  It also owns the small operations on zero-free tables
keyed by basis index: the merge behind ``+`` (``_merge``; native sums on
int and float64, slot sums on rat), negation (``_neg``) and the
constructors' exact-type pass (``_exact``), which takes a table only
when ``check`` would return every value unchanged.  Every rat value is a
Fraction, since ``check`` converts what it accepts and every stored value
passed ``check`` or was computed from values that did, so the rat methods
read and set a Fraction's two slots, ``_numerator`` and ``_denominator``,
directly.
float64 adds column entries in column order, so it rounds as a sequential
sum, and rounds each mass once from the exact ``math.fsum`` (one ulp up,
and one down for the lo ends of norm intervals and of the pair-bound
check, unless it is a single term), so no mass depends on the order of
its values.

Each backend holds one raw unit, ``_unit`` (``1``, ``Fraction(1)`` or
``1.0``): ``Backend.one`` and the basis builders ``hamel.basis_vector`` and
``hamel.dual_basis`` store that one object rather than a new 1 each, so a
memo of basis-vector entries holds no 1 of its own.  A backend pickles, and
copies, as its module global (``INTEGER``, ``RATIONAL``, ``FLOAT64``), so
values whose ``==`` compares backends by identity survive a round trip.

``_scalar(backend, value)`` builds a :class:`Scalar` without the type call,
setting its two slots through descriptors taken once at import.  It is for
values the backend has already checked or computed from checked values:
the Scalar operators and the tables' ``coords`` view use it.

Decimal text handed to the exact backends (``parse``, ``norm_parse``,
``norm_check`` and ``check`` on a string) may hold at most
``MAX_LITERAL_DIGITS`` digits and an exponent of magnitude at most
``MAX_LITERAL_EXPONENT``; longer text raises ``ValueError`` before int or
Fraction read it.  Fraction expands ``1e100000000`` into a
hundred-million-digit integer, so without the caps one short string could
stall a caller.  Text with a zero denominator (``"1/0"``) raises
``ValueError`` too, and a value that is not a string (a JSON number)
``TypeError``: exact coefficients and bounds travel as decimal strings.
The float backend reads a JSON number as well, but a bool raises
``TypeError`` in ``parse``, ``norm_parse`` and ``norm_check``, as in ``check``.

An error message quotes caller text through ``_excerpt``: its repr when it
is at most 40 characters, else the first 40 and the length.  Text that
``int``, ``Fraction`` or ``float`` cannot read raises their own message
with the excerpt in place of the whole text.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from math import gcd, lcm
from operator import attrgetter

_new = object.__new__
_set = object.__setattr__

NormValue = int | Fraction | float


MAX_LITERAL_DIGITS = 4300  # CPython's default int-from-string limit
MAX_LITERAL_EXPONENT = 4300

_EXPONENT = r"[eE]([-+]?[0-9][0-9_]*)"


def _literal(text: str) -> str:
    """text, if it is a string whose digit count and exponent are within the literal caps."""
    if not isinstance(text, str):
        raise TypeError(f"exact coefficients and bounds are decimal strings, got {type(text).__name__}")
    if len(text) > MAX_LITERAL_DIGITS:
        digits = sum(map(str.isdigit, text))
        if digits > MAX_LITERAL_DIGITS:
            raise ValueError(f"literal has {digits} digits, more than {MAX_LITERAL_DIGITS}")
    m = re.search(_EXPONENT, text)
    if m and abs(int(m.group(1))) > MAX_LITERAL_EXPONENT:
        raise ValueError(f"literal exponent {m.group(1)} exceeds {MAX_LITERAL_EXPONENT} in magnitude")
    return text


def _rational(n: int, d: int) -> Fraction:
    """The Fraction n / d built on its slots, for a reduced n / d with d > 0."""
    q = _new(Fraction)
    q._numerator = n
    q._denominator = d
    return q


def _rational_sum(na: int, da: int, nb: int, db: int) -> Fraction:
    """na / da + nb / db for reduced fractions with da, db > 0, reduced by Henrici's gcds.

    The canonical Fraction(0, 1) when the sum cancels, since then da == db.
    """
    g = gcd(da, db)
    if g == 1:
        return _rational(na * db + nb * da, da * db)
    s = da // g
    t = na * (db // g) + nb * s
    g = gcd(t, g)
    return _rational(t // g, s * (db // g))


def _slots(x, y):
    """The slots (na, da, nb, db) of a Fraction and an int or Fraction, by exact type, else None."""
    tx, ty = type(x), type(y)
    if tx is Fraction:
        if ty is Fraction:
            return x._numerator, x._denominator, y._numerator, y._denominator
        if ty is int:
            return x._numerator, x._denominator, y, 1
    elif tx is int and ty is Fraction:
        return x, 1, y._numerator, y._denominator
    return None


def _excerpt(text) -> str:
    """repr of text for an error message; a str longer than 40 characters is cut there and its length given."""
    if not isinstance(text, str) or len(text) <= 40:
        return repr(text)
    return f"{text[:40]!r}... ({len(text)} characters)"


def _fraction(text: str) -> Fraction:
    text = _literal(text)
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {_excerpt(text)}") from None
    except ValueError:
        raise ValueError(f"Invalid literal for Fraction: {_excerpt(text)}") from None


class _Frozen:
    """Immutable record whose fields are named once, in the class's ``_fields``.

    Equality holds between instances of the same class with equal fields
    (``NotImplemented`` across classes); the repr is ``Cls(field=value,
    ...)``; the hash is over the fields, so a record holding a dict is
    unhashable; assignment and deletion raise ``AttributeError``.  The
    default ``__init__`` takes the fields positionally.  A class that
    validates its fields defines its own, which passes them on to this one
    or, where the call costs too much, sets them with ``object.__setattr__``.
    Being immutable, a record is its own ``copy.copy`` and ``copy.deepcopy``;
    pickle restores its fields through ``__setstate__``, past the refusing
    ``__setattr__``.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "_fields" in cls.__dict__:
            cls._key = attrgetter(*cls._fields)

    def __init__(self, *values):
        if len(values) != len(self._fields):
            raise TypeError(f"{type(self).__name__} takes {len(self._fields)} fields, got {len(values)}")
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == other._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self

    def __setstate__(self, state):
        """Set the fields pickle saved: an attribute dict, a slot dict, or the pair (dict or None, slots)."""
        for part in state if isinstance(state, tuple) else (state,):
            for name, value in (part or {}).items():
                _set(self, name, value)


class BackendMismatchError(TypeError):
    """Scalars from two different backends met in one operation."""


class Backend:
    """A coefficient domain: representation, ring ops, norm, serialization.

    The base class is the exact arithmetic the integer and rational backends
    share: ``add``, ``mul``, ``neg``, ``norm`` and ``render`` on raw values,
    and bound arithmetic on int/Fraction norm values (``norm_check``,
    ``norm_add``, ``norm_mul``, ``norm_render``, ``norm_parse``,
    ``norm_zero``).  Each backend supplies ``check``, ``from_int``,
    ``from_rational`` and ``parse``; the float backend also overrides
    whatever finiteness checks and upward rounding change.
    """

    name: str
    _global: str  # the name of the module global that holds the backend
    _unit: object  # the raw 1 that ``one`` and the basis builders share
    norm_zero: NormValue = 0

    def __repr__(self):
        return self.name

    def __reduce__(self):
        """The name of the backend's module global, so a pickle or a copy of it is that one object."""
        return self._global

    # raw-value operations; Scalar wraps these

    def _check_sums(self, values) -> None:
        """Reject raw values summed or multiplied from checked ones that left
        the backend; exact arithmetic never does."""

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def norm(self, a) -> NormValue:
        return abs(a)

    def render(self, a) -> str:
        return str(a)  # Fraction prints reduced "p/q", integers bare

    # numerator forms (d, {k: n}), each value n / d, for the sums of products

    def _split(self, raw: dict) -> tuple[int, dict]:
        """The numerator form of raw (key -> raw value): the table itself, its values over 1."""
        return 1, raw

    def _coords(self, form: tuple[int, dict]) -> dict:
        """The inverse of _split: the nonzero numerators of form, here each its own value, past _check_sums."""
        self._check_sums(form[1].values())
        return {k: x for k, x in form[1].items() if x}

    # zero-free raw tables keyed by basis index: the constructors' fast pass, + and -

    _exact_type: type = int

    def _exact(self, raw: dict):
        """The nonzero entries of raw as a new table, or None unless every entry takes no conversion.

        An entry takes none when its key is an int >= 0 and its value of
        ``_exact_type``, which ``check`` returns unchanged once it passes
        ``_check_sums`` (float64 rejects a non-finite value with check's own
        message); the caller runs its checked loop on anything else, so no
        other rule or message is here.
        """
        out = {}
        exact = self._exact_type
        for k, x in raw.items():
            if type(k) is not int or k < 0 or type(x) is not exact:
                return None
            if x:
                out[k] = x
        self._check_sums(out.values())
        return out

    def _merge(self, a: dict, b: dict) -> dict:
        """a + b of two zero-free raw tables: a copy of a with b's values folded in.

        A key new to a is appended, a sum replaces a's value where it
        stands, and a sum that cancels is deleted, so keys, their order and
        values are those of a chain of canonical additions.  Neither operand
        holds a zero, so there is no zero term to skip.  The sums pass
        ``_check_sums``: two finite floats may add up to inf.
        """
        out = dict(a)
        for k, y in b.items():
            if k in out:
                y = out[k] + y
                if not y:
                    del out[k]
                    continue
            out[k] = y
        self._check_sums(out.values())
        return out

    def _neg(self, raw: dict) -> dict:
        """-raw, value by value: a zero-free table stays zero-free."""
        return {k: -x for k, x in raw.items()}

    def _column_sum(self, parts: list) -> tuple[int, dict]:
        """The form of the sum of s * col over parts [(s, raw), ...], each column read in place.

        Each s is a form numerator and each col a table of raw values, read
        where it is stored.  Here values are their own numerators over 1, so
        each term is s * x, added in column order.  A zero term (a float64
        product that underflows) is skipped and a sum that cancels is
        deleted.
        """
        acc: dict = {}
        for s, col in parts:
            for k, x in col.items():
                t = s * x
                if not t:
                    continue
                if k in acc:
                    t = acc[k] + t
                    if not t:
                        del acc[k]
                        continue
                acc[k] = t
        return 1, acc

    def _num_den(self, x) -> tuple:
        """The raw value x as (numerator, denominator): here x over 1."""
        return x, 1

    def _mass(self, values: list) -> NormValue:
        """Sum of |x| over raw or norm values; norm_zero when there are none."""
        return sum(map(abs, values))

    def _mass_bounds(self, values: list) -> tuple:
        """(lo, hi) around the exact sum of |x|: here the exact mass twice."""
        return (self._mass(values),) * 2

    # bound arithmetic on plain norm values; integer coefficients still
    # produce rational bounds (column sums etc.)

    def norm_check(self, x) -> NormValue:
        if isinstance(x, bool) or not isinstance(x, (int, Fraction)):
            raise TypeError(f"exact bound must be int or Fraction, got {type(x).__name__}")
        if x < 0:
            raise ValueError(f"bound must be non-negative, got {x}")
        return x

    def norm_add(self, x: NormValue, y: NormValue) -> NormValue:
        """x + y; when a Fraction meets an int or Fraction, added on their slots (``_rational_sum``)."""
        slots = _slots(x, y)
        if slots is None:
            return x + y
        return _rational_sum(*slots)

    def norm_mul(self, x: NormValue, y: NormValue) -> NormValue:
        """x * y; when a Fraction meets an int or Fraction, multiplied on their slots by Henrici's gcds."""
        slots = _slots(x, y)
        if slots is None:
            return x * y
        na, da, nb, db = slots
        g, h = gcd(na, db), gcd(nb, da)
        return _rational((na // g) * (nb // h), (da // h) * (db // g))

    def _propagated(self, stored: NormValue, tails: NormValue, mass: NormValue, tail: NormValue) -> NormValue:
        """stored * tail + tails * (mass + tail), the tail that map application propagates.

        It is the tail a node of stored mass stored and tail mass tails leaves
        when fed an operand of prefix mass mass and tail tail.  Here it is
        exact, the value and type the chain of norm_add and norm_mul returns,
        without a type dispatch per step: each value is read once as a
        numerator over a denominator, an int over 1 or a Fraction from its
        slots, and the sum is formed over the product of the four
        denominators and reduced by one gcd, a Fraction when any of the four
        is one, else an int.
        """
        fraction = False
        slots = []
        for x in (stored, tails, mass, tail):
            if isinstance(x, Fraction):
                fraction = True
                slots += (x._numerator, x._denominator)
            else:
                slots += (x, 1)
        a, p, b, q, c, r, t, s = slots
        num = a * t * q * r + b * (c * s + t * r) * p
        if not fraction:
            return num
        den = p * q * r * s
        g = gcd(num, den)
        return _rational(num // g, den // g)

    def norm_render(self, x: NormValue) -> str:
        return str(x)

    def norm_parse(self, text: str) -> NormValue:
        return self.norm_check(_fraction(text))

    # conveniences

    def scalar(self, value) -> "Scalar":
        return _scalar(self, self.check(value))

    @property
    def zero(self) -> "Scalar":
        return _scalar(self, self.from_int(0))

    @property
    def one(self) -> "Scalar":
        return _scalar(self, self._unit)


class IntegerBackend(Backend):
    name = "int"
    _global = "INTEGER"
    _unit = 1

    def check(self, value):
        if isinstance(value, bool) or not isinstance(value, int):
            raise TypeError(f"integer backend takes int, got {type(value).__name__}")
        return value

    def from_int(self, n):
        return int(n)

    def from_rational(self, p, q):
        if q == 0:
            raise ZeroDivisionError("denominator is zero")
        raise ValueError("integer backend has no general quotients; use the rational backend")

    def parse(self, text):
        text = _literal(text)
        try:
            return int(text)
        except ValueError:
            raise ValueError(f"invalid literal for int() with base 10: {_excerpt(text)}") from None


class RationalBackend(Backend):
    name = "rat"
    _global = "RATIONAL"
    _unit = Fraction(1)

    def check(self, value):
        if type(value) is Fraction:
            return value  # immutable, so it is shared rather than copied
        if isinstance(value, bool):
            raise TypeError("rational backend takes int/Fraction/str, got bool")
        if isinstance(value, (int, Fraction)):
            return Fraction(value)
        if isinstance(value, str):
            return _fraction(value)
        raise TypeError(f"rational backend takes int/Fraction/str, got {type(value).__name__}")

    def from_int(self, n):
        return Fraction(n)

    def from_rational(self, p, q):
        if q == 0:
            raise ZeroDivisionError("denominator is zero")
        return Fraction(p, q)

    def parse(self, text):
        return _fraction(text)

    def _split(self, raw):
        """Integer numerators over d, the lcm of the denominators, read from each Fraction's slots."""
        d = 1
        for x in raw.values():
            q = x._denominator
            if d % q:
                d = lcm(d, q)
        nums = {}
        for k, x in raw.items():
            nums[k] = x._numerator * (d // x._denominator)
        return d, nums

    def _coords(self, form):
        """A Fraction per nonzero numerator n of form (den, nums): n / den, reduced by one gcd.

        The Fraction's slots are set here: den is a product and lcm of
        Fraction denominators, so positive, and the result is canonical."""
        den, nums = form
        out = {}
        for k, n in nums.items():
            if n:
                g = gcd(n, den)
                q = out[k] = _new(Fraction)
                q._numerator = n // g
                q._denominator = den // g
        return out

    def _column_sum(self, parts):
        """Integer numerators over D, read from each Fraction's slots in two passes.

        The first pass takes each column's lcm d of its denominators, and D,
        the lcm of those, before any term is added, so no sum is rescaled.
        The second adds s * (D // d) times n * (d // q) for each entry n/q
        of each column, scaling once per column.  Numerators are nonzero, so
        no term is zero; a sum that cancels is deleted.
        """
        ds = []
        for _, col in parts:
            d = 1
            for x in col.values():
                q = x._denominator
                if d % q:
                    d = lcm(d, q)
            ds.append(d)
        den = lcm(*ds)
        acc: dict = {}
        for (s, col), d in zip(parts, ds):
            if d != den:
                s *= den // d
            for k, x in col.items():
                t = s * (x._numerator * (d // x._denominator))
                if k in acc:
                    t = acc[k] + t
                    if not t:
                        del acc[k]
                        continue
                acc[k] = t
        return den, acc

    _num_den = staticmethod(attrgetter("_numerator", "_denominator"))

    def _exact(self, raw):
        """As the base, a Fraction's zero read from its numerator slot."""
        out = {}
        for k, x in raw.items():
            if type(k) is not int or k < 0 or type(x) is not Fraction:
                return None
            if x._numerator:
                out[k] = x
        return out

    def _merge(self, a, b):
        """As the base, each sum added on its Fractions' slots (``_rational_sum``)."""
        out = dict(a)
        for k, y in b.items():
            if k in out:
                x = out[k]
                y = _rational_sum(x._numerator, x._denominator, y._numerator, y._denominator)
                if not y._numerator:
                    del out[k]
                    continue
            out[k] = y
        return out

    def _neg(self, raw):
        """As the base, each Fraction built on its slots."""
        return {k: _rational(-x._numerator, x._denominator) for k, x in raw.items()}

    def _mass(self, values):
        """|numerator| summed per denominator, read from each Fraction's slots.

        The ints (norm values) add up on their own and join as the group of
        1.  The group sums are joined left to right over their lcms (a
        coprime group by products alone, with no division), and the total
        is reduced by one gcd: a Fraction in, a Fraction out.
        """
        whole = 0
        groups: dict = {}
        for x in values:
            if isinstance(x, int):
                whole += abs(x)
            else:
                d = x._denominator
                n = abs(x._numerator)
                groups[d] = groups[d] + n if d in groups else n
        if not groups:
            return whole
        d, n = 1, whole
        for e, m in groups.items():
            g = gcd(d, e)
            if g == 1:
                n = n * e + m * d
            else:
                e //= g
                n = n * e + m * (d // g)
            d *= e
        g = gcd(n, d)
        return _rational(n // g, d // g)

    def norm_check(self, x):
        if type(x) is Fraction and x._numerator >= 0 or type(x) is int and x >= 0:
            return x  # a plain non-negative bound, after one type test
        if isinstance(x, str):
            x = _fraction(x)
        return super().norm_check(x)


def _finite(x: float) -> float:
    if not math.isfinite(x):
        raise ValueError("float coefficients must be finite")
    return x


def _float(text) -> float:
    """float(text), where a string float cannot read is quoted through _excerpt."""
    try:
        return float(text)
    except ValueError:
        if not isinstance(text, str):
            raise
        raise ValueError(f"could not convert string to float: {_excerpt(text)}") from None


def _up(x: float) -> float:
    """Round a float result toward +inf by one ulp; keeps bounds sound."""
    x = math.nextafter(x, math.inf)
    if not math.isfinite(x):
        raise OverflowError("bound arithmetic left the finite range")
    return x


def _not_bool(x):
    """x, unless it is a bool: float() reads JSON true and false as 1.0 and 0.0."""
    if isinstance(x, bool):
        raise TypeError("float coefficients and bounds are numbers or decimal strings, got bool")
    return x


class Float64Backend(Backend):
    """Binary64 coefficients: results must stay finite, and bound arithmetic
    rounds toward +inf; adding zero is exact."""

    name = "f64"
    _global = "FLOAT64"
    _unit = 1.0
    norm_zero = 0.0

    def check(self, value):
        if isinstance(value, bool):
            raise TypeError("float backend takes int/float, got bool")
        if isinstance(value, (int, float)):
            return _finite(float(value))
        raise TypeError(f"float backend takes int/float, got {type(value).__name__}")

    def _check_sums(self, values):
        """Reject a value that is not finite: a sum or product of finite floats may overflow."""
        if not all(map(math.isfinite, values)):
            raise ValueError("float coefficients must be finite")

    _exact_type = float

    def _mass(self, values):
        return self._mass_bounds(values)[1]

    def _mass_bounds(self, values):
        """The exact sum of |x| rounded once, then one ulp down and one up if two or more |x| are nonzero."""
        try:
            total = math.fsum(map(abs, values))
        except OverflowError:
            raise OverflowError("bound arithmetic left the finite range") from None
        if sum(map(bool, values)) > 1:
            return math.nextafter(total, -math.inf), _up(total)
        return total, total

    def add(self, a, b):
        return _finite(a + b)

    def mul(self, a, b):
        return _finite(a * b)

    def from_int(self, n):
        return float(n)

    def from_rational(self, p, q):
        if q == 0:
            raise ZeroDivisionError("denominator is zero")
        return float(Fraction(p, q))  # correctly rounded to nearest

    def parse(self, text):
        return _finite(_float(_not_bool(text)))

    def render(self, a):
        return repr(a)  # shortest round-trip decimal

    def norm_check(self, x):
        if isinstance(x, str):
            x = _float(x)
        if isinstance(x, Fraction):
            x = float(x)
        if isinstance(x, bool) or not isinstance(x, (int, float)):
            raise TypeError(f"float bound must be numeric, got {type(x).__name__}")
        x = float(x)
        if not math.isfinite(x) or x < 0:
            raise ValueError(f"bound must be finite and non-negative, got {x}")
        return x

    def norm_add(self, x, y):
        return x + y if x == 0.0 or y == 0.0 else _up(x + y)  # adding zero is exact

    def norm_mul(self, x, y):
        if x == 0.0 or y == 0.0:
            return 0.0
        return _up(x * y)

    def _propagated(self, stored, tails, mass, tail):
        """As the base, a step at a time, each step rounded up."""
        return self.norm_add(self.norm_mul(stored, tail), self.norm_mul(tails, self.norm_add(mass, tail)))

    def norm_render(self, x):
        return repr(float(x))

    def norm_parse(self, text):
        return self.norm_check(_float(_not_bool(text)))


INTEGER = IntegerBackend()
RATIONAL = RationalBackend()
FLOAT64 = Float64Backend()

BACKENDS = {b.name: b for b in (INTEGER, RATIONAL, FLOAT64)}


class Scalar(_Frozen):
    """One coefficient, tagged with its backend.  Mixing backends raises.

    The constructor checks the value with ``backend.check``, so a rat value
    is always a Fraction, whose slots ``RationalBackend._split`` reads.
    """

    _fields = __slots__ = ("backend", "value")

    def __init__(self, backend: Backend, value: object):
        _set_backend(self, backend)
        _set_value(self, backend.check(value))

    def _join(self, other: "Scalar") -> None:
        if other.backend is not self.backend:
            raise BackendMismatchError(
                f"cannot mix {self.backend.name} and {other.backend.name} scalars"
            )

    def __add__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        self._join(other)
        return _scalar(self.backend, self.backend.add(self.value, other.value))

    def __sub__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        self._join(other)
        return _scalar(self.backend, self.backend.add(self.value, self.backend.neg(other.value)))

    def __neg__(self):
        return _scalar(self.backend, self.backend.neg(self.value))

    def __mul__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        self._join(other)
        return _scalar(self.backend, self.backend.mul(self.value, other.value))

    def is_zero(self) -> bool:
        # raw values are int, Fraction or float, each falsy exactly when zero (-0.0 too)
        return not self.value

    def norm(self) -> NormValue:
        return self.backend.norm(self.value)

    def render(self) -> str:
        return self.backend.render(self.value)

    def __str__(self):
        return self.render()


# the slot descriptors, which bypass _Frozen.__setattr__
_set_backend = Scalar.backend.__set__
_set_value = Scalar.value.__set__


def _scalar(backend: Backend, value: object) -> Scalar:
    """Scalar(backend, value) without the type call, for a value backend already checked."""
    s = _new(Scalar)
    _set_backend(s, backend)
    _set_value(s, value)
    return s


def embed_int(backend: Backend, n: int) -> Scalar:
    """Image of an integer under the canonical characteristic-zero embedding."""
    if isinstance(n, bool) or not isinstance(n, int):
        raise TypeError(f"embed_int takes int, got {type(n).__name__}")
    return Scalar(backend, backend.from_int(n))


def embed_rational(backend: Backend, p: int, q: int) -> Scalar:
    """Image of p/q; rejects q = 0 and backends without quotients."""
    for v in (p, q):
        if isinstance(v, bool) or not isinstance(v, int):
            raise TypeError("embed_rational takes integers")
    return Scalar(backend, backend.from_rational(p, q))


def parse_scalar(backend: Backend, text: str) -> Scalar:
    return Scalar(backend, backend.parse(text))
