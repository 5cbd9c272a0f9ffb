"""Finite-support vectors over a countable basis, and the maps between them.

Everything here is exact: a vector is a finite table ``basis index ->
coefficient``, a linear map is a finite table of nonzero columns, and a
polylinear map is a nest of such tables curried on its first argument.
Storage is canonically zero-free -- constructors prune zero coefficients and
empty columns -- so structural equality coincides with mathematical equality
and the finiteness invariants can be checked by inspection.

Operations never mutate their inputs; treat all values as immutable.
Every immutable record of falg -- the values here, in ``tensor`` and in
``schauder``, the law and center reports and the catalog's fixtures -- is
slotted, as ``ring.Scalar`` is: its fields live in ``__slots__`` (a
coordinate table's are ``backend`` and ``_raw``, a tensor adds ``arity``),
so an instance has no attribute dict and takes no weak reference; nothing
in falg, its tests, its benchmark or its scripts takes one.  Being immutable, a record is its
own copy and pickles through its fields (``ring._Frozen``).

A coordinate table stores raw backend values (int, Fraction or float) in
``_raw``, a zero-free dict, and ``coords`` is a read-only view of it
(``_Coords``) that wraps a value in a Scalar when it is read.  Kernels
read and build ``_raw`` alone: a Scalar is built only where a caller reads
one (the view, ``coefficient``, ``ColumnFiniteMap.entries``).  Each kernel
adds raw values up and has the backend filter the surviving sums once at
the end, so no intermediate result is copied or re-validated.
``backend._coords`` builds the table of a sum of products and
``backend._merge`` that of ``+`` (see ``ring``).  Both drop a zero, and on
float64 both reject a sum or product that left the finite range with
``ValueError``.

Every sum of products works on numerator forms ``(d, {k: n})``, each value
being n / d: map application and composition, ``StructureTable.mul``,
``poly_apply``, ``tensor_pure``, the ``map_via_tensor`` sum, ``scale`` of
every coordinate table (so of maps and tail values too) and the truncation
layer's nest sums.  The backend owns its form (``ring.Backend``):
``backend._split(raw)`` writes an operand's table as a form, and
``backend._coords(form)`` is its inverse.  int and float64 values are
their own numerators over 1; on rat, n is an integer and d the lcm of the
denominators.  ``_combine`` adds terms ``s * n`` into a dict of
numerators over the lcm of all parts' denominators, taken first, so its
sums never rescale; only the table product (``StructureTable._mul_form``),
which meets table entries one pair at a time, keeps a running denominator
and multiplies its sum through when an entry's denominator does not
divide it.

Map application reads the stored columns in place, with no form per
column: ``ColumnFiniteMap.apply`` and everything that reaches
``_apply_split`` (``TailMap.apply``, the leaf level of ``poly_apply``,
``map_via_tensor``'s f(x)) and the leaf columns of the truncation layer's
nest sums call ``backend._column_sum``, which sums a list of (numerator,
column) parts straight from the columns' raw values.  On rat it takes each
column's lcm d first, then D, the lcm of those, and scales each part once
by D // d, not each entry by a map-wide factor: with many unrelated
denominators, D // q per entry is a big integer for every entry.
``compose`` does the converse.  A column of self feeds every column of g
that reaches it (about 8 in a banded map), so it is split into a form
once per call and reused, which is cheaper than reading it in place again
for each of them; each entry of g's columns is read in place as
``backend._num_den(value)``, a numerator p over q, and the form (d, nums)
it meets enters ``_combine`` as p over q * d.

All form denominators are positive, so a partial sum is zero exactly
when the rational sum it stands for is: key order and results equal those
of a chain of Fraction additions.  On float64 every kernel computes
``s * n`` (``s * x`` when reading a value x in place) and adds it to its
coordinate in the order the operands list their terms, so float sums
round as sequential Scalar additions do.

``+`` of two coordinate tables is a merge, not a sum of products:
``backend._merge`` copies the left operand's zero-free table and folds the
right one's values in, and ``-`` merges the negation ``backend._neg``
builds.  int and float64 add natively; rat adds on the Fractions' slots
with ``ring._rational_sum``, the slot add of ``norm_add`` too.  A merge
reads each value once, where forms would split both operands first, which
costs more than it saves on two operands (rat ``+`` through forms timed
35-44% slower).

Every sum deletes a coordinate whose sum cancels, and every sum of products
skips a zero term (a merge meets none: its operands are zero-free), exactly
as chained canonical vector additions would.

Every linear value -- a coordinate table, a map, and the truncation layer's
tail vectors and tail maps -- derives from ``_Linear``, which writes
``a - b`` as ``a + (-b)`` and ``d * a`` for a Scalar d as ``a.scale(d)``
once, from the class's own ``+``, unary ``-`` and ``scale``.  Every
operation that takes a falg value checks it with ``_operand``:
``TypeError`` for another class, ``BackendMismatchError`` for another
backend.  ``_Linear._join`` is that check for ``+`` (and
``TailMap.compose``): the operand must be of ``type(self)``, and one whose
``_shape`` fields differ (a tensor's arity) raises ``ValueError``.  So a
subclass's ``+`` refuses a plain operand, while a map's ``+`` and
``compose`` ask for ``ColumnFiniteMap`` itself and take a subclass of it
either way round.

Vectors, dual functionals and tensors (``tensor.TensorElement``) are one
kind of value, a zero-free coordinate table over one backend, and share one
implementation, ``_CoordTable``: cleaning, the ``coords`` view,
``coefficient``, ``is_zero``, ``+``, unary ``-``, ``scale`` and the wire
format.  Each subclass only names its key check (``_index``: a basis
index, or an index tuple of a tensor's arity) and the fields that fix its
shape (``_shape``: a tensor's arity), which results copy and operands must
agree on.  One wire-key codec serves them all: a key is written ``"i"`` or
``"i,j,..."`` and read back only in canonical decimal form
(``_wire_index``), so no two keys of one object name the same index.
One rule reads every integer: ``_check_index`` every int value (an index,
a count, an arity, a sample size: an int, not a bool, at or above its
floor) and ``_wire_index`` every decimal text (a wire key, a label's
number, a builtin's letter count).
Every JSON record falg reads goes through ``_wire_record``: an object with
every required field and no field its format does not define, so a
misspelt field or a ``"tail"`` on an exact value is refused, never dropped.
``_from_record`` builds a value from its fields' values, so a tail reader
(``schauder._Certified.from_data``) reads its part's fields and its own
``"tail"`` as one record, named after its own class.

Raw data from a caller (public constructors, ``from_data``) is checked
once, by one loop, ``_clean``: a table constructor runs it, and a map runs
it on each raw column and wraps the result with ``_table``.  A plain dict
of basis indices first takes one exact-type pass, ``backend._exact``: it
succeeds only when every key is an int >= 0 and every value of the
backend's own type (int, Fraction, or a finite float), which ``check``
returns unchanged, and otherwise the loop runs.  The loop sends every key
through ``_index``, every Scalar through ``_operand`` and every other value
through ``backend.check``, so what is accepted and every message stay
theirs; one zero test reads the value, so a Scalar's zero is never read
from an ``is_zero`` a subclass may redefine.

Trusted-builder invariant: kernel results are built without running
constructors, and so are the truncation layer's computed results (see
``schauder``) and the basis builders, which store ``backend._unit``
at an index ``_check_index`` passed.  ``_trusted`` sets a frozen value
class's fields without its ``__init__``, so it skips ``_check_index`` and
the backend re-check; ``_table`` does the same for a coordinate table's
``backend`` and ``_raw``, without packing them as keywords, and serves
every table a kernel builds.  Only an operation on already-constructed
values may use them -- one that has joined its operands (type and backend
checks) and builds its result only from their keys, raw values and sums or
products of them.  Those keys passed ``_check_index`` and those values
passed their backend's ``check`` when the operands were built.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping, Sequence
from math import lcm

from .ring import Backend, BackendMismatchError, NormValue, Scalar, _Frozen, _excerpt, _new, _scalar, _set


def _check_index(i, what: str = "basis index", least: int = 0) -> int:
    """i, an int (not a bool) >= least: the one check of every count, arity and index falg reads."""
    if isinstance(i, bool) or not isinstance(i, int):
        raise TypeError(f"{what} must be int, got {type(i).__name__}")
    if i < least:
        raise ValueError(f"{what} must be >= {least}, got {i}")
    return i


def _pairs(data, what: str):
    """The (key, value) pairs of data, a Mapping or an iterable of pairs; a str is neither."""
    if type(data) is dict or isinstance(data, Mapping):
        return data.items()
    if isinstance(data, str):
        raise TypeError(f"{what} must be a mapping or (key, value) pairs, got str")
    return data


def _clean(backend: Backend, coords, index=_check_index) -> dict:
    """The zero-free table key -> raw value of coords, a Mapping or (key, value) pairs, each checked once.

    A plain dict of basis indices first tries ``backend._exact``; when it declines, this loop runs.
    """
    if type(coords) is dict and index is _check_index:
        out = backend._exact(coords)
        if out is not None:
            return out
    out = {}
    for key, c in _pairs(coords, "coords"):
        key = index(key)
        x = _operand(c, Scalar, backend, "coefficient").value if isinstance(c, Scalar) else backend.check(c)
        if x:
            out[key] = x
    return out


def _combine(parts: list) -> tuple[int, dict]:
    """The form of sum s * form over parts [(s, form), ...], left to right.

    The denominator is the lcm of the parts' denominators, taken before any
    term is added, so no partial sum is rescaled: with many unrelated
    denominators, rescaling the sum at each new one would cost
    len(parts) * len(sum) big-integer products.  A zero term is skipped and
    a sum that cancels is deleted.
    """
    den = lcm(*(d for _, (d, _) in parts))
    acc: dict = {}
    for s, (d, nums) in parts:
        if d != den:
            s *= den // d
        for k, n in nums.items():
            x = s * n
            if not x:
                continue
            if k in acc:
                x = acc[k] + x
                if not x:
                    del acc[k]
                    continue
            acc[k] = x
    return den, acc


def _trusted(cls, **fields):
    """An instance of frozen value class cls with fields set as given, unchecked."""
    obj = _new(cls)
    for name, value in fields.items():
        _set(obj, name, value)
    return obj


def _table(cls, backend: Backend, raw: dict):
    """A coordinate table of class cls over backend holding raw, unchecked: ``_trusted`` without keywords."""
    obj = _new(cls)
    _set(obj, "backend", backend)
    _set(obj, "_raw", raw)
    return obj


def _form_vector(backend: Backend, form: tuple[int, dict]) -> "HamelVector":
    return _table(HamelVector, backend, backend._coords(form))


def _map(backend: Backend, cols: dict) -> "ColumnFiniteMap":
    return _trusted(
        ColumnFiniteMap, backend=backend, cols={j: col for j, col in cols.items() if col._raw}
    )


def _operand(value, cls, backend: Backend, what: str):
    """value, checked to be a cls over backend.

    Another class raises TypeError, another backend BackendMismatchError.
    """
    if not isinstance(value, cls):
        raise TypeError(f"{what} must be {cls.__name__}, got {type(value).__name__}")
    if value.backend is not backend:
        raise BackendMismatchError(f"{what} backend {value.backend.name} does not match {backend.name}")
    return value


def _wire_object(value, what: str) -> Mapping:
    """Reject non-object JSON where the wire format needs an object."""
    if not isinstance(value, Mapping):
        raise ValueError(f"{what} must be a JSON object, got {type(value).__name__}")
    return value


def _wire_record(data, what: str, required: tuple, optional: Mapping = {}) -> list:
    """The values of data's required fields, then of its optional ones (optional[name] when absent).

    data must be a JSON object with every required field and no field but those and the optional ones.
    """
    _wire_object(data, what)
    for name in required:
        if name not in data:
            raise ValueError(f"{what} has no {name!r} field")
    for name in data:
        if name not in required and name not in optional:
            raise ValueError(f"unexpected field {_excerpt(name)} in {what}")
    return [*(data[name] for name in required), *(data.get(name, d) for name, d in optional.items())]


def _wire_index(text) -> int:
    """The int that decimal text names: a wire key, one comma-separated part of it, or a label's number.

    Only the canonical decimal str(i) is read: "01", "1_0", "+1", "-0" or
    " 1" would name an index another key may name too, so they raise
    ValueError.  The sign is not checked here: a key's index goes through
    ``_check_index`` after, and a power label may be negative.
    """
    text = str(text)
    i = int(text)
    if str(i) != text:
        raise ValueError(f"wire key {_excerpt(text)} is not a canonical decimal index")
    return i


class _Coords(Mapping):
    """Read-only view key -> Scalar of a table's raw values: wraps each on read, and its repr
    and ``==`` are those of the dict of Scalars (two empty views are equal); unhashable."""

    __slots__ = ("_backend", "_raw")

    def __init__(self, backend: Backend, raw: dict):
        self._backend = backend
        self._raw = raw

    def __getitem__(self, key) -> Scalar:
        return _scalar(self._backend, self._raw[key])

    def __iter__(self):
        return iter(self._raw)

    def __len__(self):
        return len(self._raw)

    def __eq__(self, other):
        if isinstance(other, _Coords):
            return self._raw == other._raw and (self._backend is other._backend or not self._raw)
        return super().__eq__(other)

    def __repr__(self):
        return repr(dict(self.items()))


class _Linear(_Frozen):
    """A linear value: ``a - b`` and ``d * a`` from the subclass's ``+``, unary ``-`` and ``scale``."""

    __slots__ = ()
    _shape: tuple[str, ...] = ()

    def _join(self, other) -> None:
        _operand(other, type(self), self.backend, "operand")
        for name in self._shape:
            if getattr(other, name) != getattr(self, name):
                raise ValueError(
                    f"cannot combine {name} {getattr(self, name)} and {getattr(other, name)}"
                )

    def __sub__(self, other):
        return self + (-other)

    def __rmul__(self, d):
        if isinstance(d, Scalar):
            return self.scale(d)
        return NotImplemented


class _CoordTable(_Linear):
    """Zero-free finite table key -> raw value over one backend, read as Scalars.

    Fields are backend, the names in ``_shape`` and coords, in that order.
    Values are stored raw in ``_raw``; the ``coords`` view wraps each on read.
    ``_index`` checks one key and ``_from_wire`` reads one wire key.
    """

    _fields = ("backend", "coords")
    __slots__ = ("backend", "_raw")
    _index = staticmethod(_check_index)
    _from_wire = staticmethod(_wire_index)

    def __init__(self, backend: Backend, coords: Mapping = {}):
        _set(self, "backend", backend)
        _set(self, "_raw", coords)
        self.__post_init__()

    def __post_init__(self):
        _set(self, "_raw", _clean(self.backend, self._raw, self._index))

    @property
    def coords(self) -> Mapping:
        return _Coords(self.backend, self._raw)

    def coefficient(self, key) -> Scalar:
        x = self._raw.get(self._index(key))
        return self.backend.zero if x is None else _scalar(self.backend, x)

    def is_zero(self) -> bool:
        return not self._raw

    def _build(self, raw: dict):
        """A table of self's class and shape holding raw (trusted)."""
        out = _table(type(self), self.backend, raw)
        for name in self._shape:
            _set(out, name, getattr(self, name))
        return out

    def __add__(self, other):
        self._join(other)
        return self._build(self.backend._merge(self._raw, other._raw))

    def __neg__(self):
        return self._build(self.backend._neg(self._raw))

    def scale(self, d: Scalar):
        """d times self: self's numerators times d's, over both denominators."""
        b = self.backend
        _operand(d, Scalar, b, "scalar")
        p, q = b._num_den(d.value)
        if not p:
            return self._build({})
        den, nums = b._split(self._raw)
        return self._build(b._coords((den * q, {k: p * n for k, n in nums.items()})))

    def to_data(self) -> dict:
        data = {name: getattr(self, name) for name in self._shape}
        data["coords"] = {
            ",".join(map(str, k)) if isinstance(k, tuple) else str(k): self.backend.render(self._raw[k])
            for k in sorted(self._raw)
        }
        return data

    @classmethod
    def from_data(cls, backend: Backend, data):
        return cls._from_record(backend, *_wire_record(data, f"{cls.__name__} data", cls._fields[1:]))

    @classmethod
    def _from_record(cls, backend: Backend, *fields):
        """A cls from the values of its wire fields: its shape (the constructor checks each), then coords."""
        *shape, coords = fields
        raw = {}
        for key, text in _wire_object(coords, "'coords'").items():
            raw[cls._from_wire(key)] = backend.parse(text)  # the value is read first, then the key
        return cls(backend, *shape, raw)


class HamelVector(_CoordTable):
    """Finite-support vector: a zero-free table of basis coefficients."""

    __slots__ = ()
    # bound in each class body: bench/spans.py counts vector and functional builds apart
    __post_init__ = _CoordTable.__post_init__

    def support(self) -> tuple[int, ...]:
        return tuple(sorted(self._raw))

    def l1(self) -> NormValue:
        """Sum of coefficient norms; an upper bound for any unit-basis norm."""
        return self.backend._mass(self._raw.values())


def zero_vector(backend: Backend) -> HamelVector:
    return HamelVector(backend, {})


def basis_vector(backend: Backend, i: int) -> HamelVector:
    return _table(HamelVector, backend, {_check_index(i): backend._unit})


class DualFunctional(_CoordTable):
    """Finite combination of coordinate functionals; evaluates by pairing."""

    __slots__ = ()
    __post_init__ = _CoordTable.__post_init__

    def __call__(self, v: HamelVector) -> Scalar:
        return self.evaluate(v)

    def evaluate(self, v: HamelVector) -> Scalar:
        _operand(v, HamelVector, self.backend, "argument")
        total = self.backend.from_int(0)
        small, large = self._raw, v._raw
        if len(large) < len(small):
            small, large = large, small
        for i in small:
            if i in large:
                total = total + self._raw[i] * v._raw[i]
        return self.backend.scalar(total)


def dual_basis(backend: Backend, i: int) -> DualFunctional:
    """The functional that reads off coordinate i: e^i(e_j) = delta^i_j."""
    return _table(DualFunctional, backend, {_check_index(i): backend._unit})


def _clean_cols(backend: Backend, cols) -> dict[int, HamelVector]:
    out: dict[int, HamelVector] = {}
    for j, col in _pairs(cols, "cols"):
        j = _check_index(j)
        if isinstance(col, HamelVector):
            _operand(col, HamelVector, backend, "column")
        else:
            col = _table(HamelVector, backend, _clean(backend, col))
        if not col.is_zero():
            out[j] = col
    return out


class ColumnFiniteMap(_Linear):
    """Linear map stored by columns: column j is the image of e_j.

    Only finitely many columns are stored and each is finite, so the image
    of any finite-support vector is again finite-support.  Absent columns
    are zero.
    """

    _fields = __slots__ = ("backend", "cols")

    def __init__(self, backend: Backend, cols: Mapping[int, HamelVector] = {}):
        _set(self, "backend", backend)
        _set(self, "cols", _clean_cols(backend, cols))

    def column(self, j: int) -> HamelVector:
        col = self.cols.get(_check_index(j))
        return zero_vector(self.backend) if col is None else col

    def entry(self, i: int, j: int) -> Scalar:
        return self.column(j).coefficient(i)

    def entries(self) -> Iterator[tuple[int, int, Scalar]]:
        for j in sorted(self.cols):
            raw = self.cols[j]._raw
            for i in sorted(raw):
                yield i, j, _scalar(self.backend, raw[i])

    def is_zero(self) -> bool:
        return not self.cols

    def apply(self, v: HamelVector) -> HamelVector:
        _operand(v, HamelVector, self.backend, "argument")
        return _form_vector(self.backend, self._apply_split(self.backend._split(v._raw)))

    def _apply_split(self, v: tuple[int, dict]) -> tuple[int, dict]:
        """apply on a numerator form, reading the columns of self in place."""
        dv, xs = v
        cols = self.cols
        den, acc = self.backend._column_sum([(x, cols[j]._raw) for j, x in xs.items() if j in cols])
        return dv * den, acc

    def __call__(self, v: HamelVector) -> HamelVector:
        return self.apply(v)

    def __add__(self, other):
        _operand(other, ColumnFiniteMap, self.backend, "operand")
        cols = dict(self.cols)
        for j, col in other.cols.items():
            cols[j] = cols[j] + col if j in cols else col
        return _map(self.backend, cols)

    def __neg__(self):
        return _map(self.backend, {j: -c for j, c in self.cols.items()})

    def scale(self, d: Scalar) -> "ColumnFiniteMap":
        _operand(d, Scalar, self.backend, "scalar")
        return _map(self.backend, {j: col.scale(d) for j, col in self.cols.items()})

    def compose(self, g: "ColumnFiniteMap") -> "ColumnFiniteMap":
        """self after g: column j of the result is self(g(e_j)).

        Each column of self that g reaches is split into a form once per
        call, since it feeds every column of g that reaches it; each entry
        p/q of g's columns is read in place and scales the form (d, nums)
        it meets as p over q * d.
        """
        _operand(g, ColumnFiniteMap, self.backend, "operand")
        b = self.backend
        cols, num_den, forms = self.cols, b._num_den, {}
        out = {}
        for j, col in g.cols.items():
            parts = []
            for k, x in col._raw.items():
                form = forms.get(k)
                if form is None:
                    if k not in cols:
                        continue
                    form = forms[k] = b._split(cols[k]._raw)
                p, q = num_den(x)
                parts.append((p, (q * form[0], form[1])))
            out[j] = _form_vector(b, _combine(parts))
        return _map(b, out)

    def l1_total(self) -> NormValue:
        """Sum of |entry| over the whole table; finite by construction."""
        return self.backend._mass([x for col in self.cols.values() for x in col._raw.values()])

    def to_data(self) -> dict:
        return {"cols": {str(j): self.cols[j].to_data()["coords"] for j in sorted(self.cols)}}

    @classmethod
    def from_data(cls, backend: Backend, data) -> "ColumnFiniteMap":
        return cls._from_record(backend, *_wire_record(data, f"{cls.__name__} data", cls._fields[1:]))

    @classmethod
    def _from_record(cls, backend: Backend, cols) -> "ColumnFiniteMap":
        """A cls from the value of its one wire field, cols: index -> the coords object of a column."""
        out = {}
        for j, column in _wire_object(cols, "'cols'").items():
            _wire_object(column, f"column {_excerpt(j)}")
            out[_wire_index(j)] = HamelVector._from_record(backend, column)
        return cls(backend, out)


def zero_map(backend: Backend) -> ColumnFiniteMap:
    return ColumnFiniteMap(backend, {})


def basis_map(backend: Backend, i: int, j: int) -> ColumnFiniteMap:
    """E(i,j): sends e_j to e_i and every other basis vector to zero.

    Any column-finite map with columns in a finite index window is a finite
    combination sum f^i_j E(i,j) of these.
    """
    return ColumnFiniteMap(backend, {_check_index(j): basis_vector(backend, i)})


def identity_on(backend: Backend, indices) -> ColumnFiniteMap:
    """The identity restricted to a finite set of columns."""
    return ColumnFiniteMap(backend, {j: basis_vector(backend, j) for j in indices})


def _check_slots(nest_cls, leaf_cls, backend: Backend, arity: int, slots) -> dict:
    """The slots of a nest_cls of the given arity, a Mapping or (index, slot) pairs, validated.

    Keys are basis indices; each slot lives over backend and is a leaf_cls
    at arity 2, a nest_cls of arity - 1 above.  Shared by PolyMap and the
    truncation layer's TailPolyMap.
    """
    _check_index(arity, f"{nest_cls.__name__} arity", 2)
    out = {}
    for j, sub in _pairs(slots, "slots"):
        j = _check_index(j)
        _operand(sub, leaf_cls if arity == 2 else nest_cls, backend, f"arity-{arity} slot")
        if arity > 2 and sub.arity != arity - 1:
            raise TypeError(f"arity-{arity} slots must have arity {arity - 1}, got {sub.arity}")
        out[j] = sub
    return out


class PolyMap(_Frozen):
    """Polylinear map of arity >= 2, curried on its first argument.

    ``slots[j]`` is the arity-(n-1) map obtained by feeding e_j into the
    first argument; depth-1 nests are plain ColumnFiniteMaps.  Only finitely
    many first-argument slots are stored, each nonempty.
    """

    _fields = __slots__ = ("backend", "arity", "slots")

    def __init__(self, backend: Backend, arity: int, slots: Mapping[int, MapNode] = {}):
        slots = _check_slots(PolyMap, ColumnFiniteMap, backend, arity, slots)
        super().__init__(backend, arity, {j: sub for j, sub in slots.items() if not sub.is_zero()})

    def is_zero(self) -> bool:
        return not self.slots


MapNode = PolyMap | ColumnFiniteMap


def _check_nest(nest, nest_types) -> None:
    """TypeError unless nest is one of nest_types, a nest class and its leaf map class."""
    if not isinstance(nest, nest_types):
        raise TypeError(f"expected {' or '.join(t.__name__ for t in nest_types)}, got {type(nest).__name__}")


def _check_call(nest, nest_types, xs: Sequence, arg_cls) -> None:
    """The checks of a polylinear call, all made before the nest is read.

    nest is one of nest_types, its arity is len(xs) (a leaf map's is 1)
    and each of xs, in order, is an arg_cls over nest's backend.  Slots
    need no check: their constructor fixed their class, backend and arity.
    """
    _check_nest(nest, nest_types)
    arity = nest.arity if isinstance(nest, nest_types[0]) else 1
    if len(xs) != arity:
        raise ValueError(f"arity mismatch: nest of arity {arity} applied to {len(xs)} arguments")
    for x in xs:
        _operand(x, arg_cls, nest.backend, "argument")


def poly_apply(nest: MapNode, xs: Sequence[HamelVector]) -> HamelVector:
    """Evaluate a curried nest on a full argument tuple.

    Linear in every slot: peels the first argument against the stored
    slots, then recurses.  A depth-1 nest is ordinary map application.
    """
    _check_call(nest, (PolyMap, ColumnFiniteMap), xs, HamelVector)
    b = nest.backend
    return _form_vector(b, _poly_split(nest, [b._split(x._raw) for x in xs]))


def _poly_split(nest: MapNode, forms: list) -> tuple[int, dict]:
    """poly_apply over the arguments' numerator forms, unchecked."""
    if isinstance(nest, ColumnFiniteMap):
        return nest._apply_split(forms[0])
    dh, nums = forms[0]
    parts = [(x, _poly_split(nest.slots[j], forms[1:])) for j, x in nums.items() if j in nest.slots]
    den, acc = _combine(parts)
    return dh * den, acc
