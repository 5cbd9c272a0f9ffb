"""Certified-truncation arithmetic: finite prefixes with sound l1 tails.

A :class:`TailVector` is a finite prefix plus one number, the tail bound,
certifying that the l1 mass of the represented value outside the stored
prefix -- more precisely, the l1 distance between the represented value and
the stored prefix -- is at most that number.  :class:`TailMap` does the same
for the entry table of an l1-bounded map, and :class:`TailPolyMap` for a
curried polylinear nest.

TailVector and TailMap are one shape, an exact finite part plus a tail, and
share one implementation, ``_Certified``: ``lift``, ``is_exact``, ``+``,
unary ``-``, ``scale`` and the wire format (the finite part's, plus a
``"tail"`` field).  ``-x`` keeps x's tail, which is sound because the l1
norm is symmetric.  ``a - b``, ``d * a`` and the operand check of ``+`` and
``compose`` (``_join``) come from hamel's ``_Linear``, as they do for every
exact value.
TailPolyMap validates its slots, and ``tpoly_apply`` its call, with the same
helpers as hamel's PolyMap and ``poly_apply``.

The contract every operation preserves: if the input certificates hold for
the (unknown) represented values, the output certificate holds for the
represented result.  Inputs built from exact data carry tail 0 and the
contract degenerates to exact arithmetic.  Bounds are certificates, not
estimates, and the propagation formulas are deliberately conservative.
Every mass is one ``backend._mass``, and apply, compose and the nest peel
share one formula, ``backend._propagated``.  On the exact backends the
contract holds.  On the float backend each mass rounds up once and every
other bound step rounds upward, but the rounding of the prefix arithmetic
itself is not yet charged to the tail, so a float64 certificate can fail:
the prefix of ``{0: 1.0} + {0: 1e-17}`` drops 1e-17 and its tail is 0.0.

Norm reporting is honest about what finite data can know: `norm_interval`
returns [prefix mass, prefix mass + tail], and `bound` on a map returns
[best stored column sum, total stored mass + tail].  True norms of exactly
represented values land inside; a point interval means the value is exact.
On float64 each lo end is a mass rounded down (``_mass_bounds``).

Computed results are built trusted (``hamel._trusted``, ``_Certified._make``):
those of ``+``, ``scale``, ``-x``, ``truncate``, ``apply``, ``compose``,
``tail_mul``, ``norm_interval``, ``bound`` and ``tpoly_bound``, and the
nests ``_nest_sum`` builds; their bounds come from norm arithmetic on
checked norms.  Public constructors, ``make``, ``lift`` and ``from_data`` check.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from operator import attrgetter

from .ring import Backend, NormValue, _Frozen, _new, _set
from .hamel import (
    ColumnFiniteMap, HamelVector, _Linear, _check_call, _check_nest, _check_slots, _form_vector, _map, _operand,
    _trusted, _wire_record,
)
from .algebra import StructureTable


class NormInterval(_Frozen):
    """Two-sided enclosure of an l1 norm."""

    _fields = __slots__ = ("backend", "lo", "hi")

    def __init__(self, backend: Backend, lo: NormValue, hi: NormValue):
        lo, hi = backend.norm_check(lo), backend.norm_check(hi)
        if lo > hi:
            raise ValueError(f"interval out of order: lo {lo} > hi {hi}")
        super().__init__(backend, lo, hi)

    def is_point(self) -> bool:
        return self.lo == self.hi

    def render(self) -> str:
        return f"[{self.backend.norm_render(self.lo)}, {self.backend.norm_render(self.hi)}]"

    def to_data(self) -> dict:
        return {"lo": self.backend.norm_render(self.lo), "hi": self.backend.norm_render(self.hi)}

    def __str__(self):
        return self.render()


class _Certified(_Linear):
    """An exact finite part plus a certified bound on the l1 mass it leaves out.

    The shared core of TailVector and TailMap: the first field holds the
    finite part, an instance of ``_part_cls``, and ``tail`` the bound.
    Each subclass reads the first field as ``_part`` and its backend as
    ``backend``, two properties made from the field's name.
    """

    __slots__ = ()
    _part_cls: type

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._part = property(attrgetter(cls._fields[0]))
        cls.backend = property(attrgetter(f"{cls._fields[0]}.backend"))

    def __init__(self, part, tail: NormValue):
        if not isinstance(part, self._part_cls):
            raise TypeError(f"{self._fields[0]} must be {self._part_cls.__name__}, got {type(part).__name__}")
        _set(self, self._fields[0], part)
        _set(self, "tail", part.backend.norm_check(tail))

    @classmethod
    def _make(cls, part, tail: NormValue):
        """A cls of part and tail computed from checked values (trusted), its two fields set in place."""
        obj = _new(cls)
        _set(obj, cls._fields[0], part)
        _set(obj, "tail", tail)
        return obj

    @classmethod
    def lift(cls, part):
        """An exact value is its own finite part with nothing left out."""
        return cls(part, part.backend.norm_zero)

    def is_exact(self) -> bool:
        return self.tail == self.backend.norm_zero

    def __add__(self, other):
        self._join(other)
        return self._make(self._part + other._part, self.backend.norm_add(self.tail, other.tail))

    def __neg__(self):
        return self._make(-self._part, self.tail)

    def scale(self, d):
        return self._make(self._part.scale(d), self.backend.norm_mul(d.norm(), self.tail))

    def to_data(self) -> dict:
        data = self._part.to_data()
        data["tail"] = self.backend.norm_render(self.tail)
        return data

    @classmethod
    def from_data(cls, backend: Backend, data):
        """The part's wire fields plus an optional "tail", read as one record named after cls."""
        *fields, tail = _wire_record(data, f"{cls.__name__} data", cls._part_cls._fields[1:], {"tail": None})
        part = cls._part_cls._from_record(backend, *fields)
        return cls(part, backend.norm_parse(tail) if "tail" in data else backend.norm_zero)


class TailVector(_Certified):
    """Finite prefix plus a certified bound on the mass it leaves out."""

    _fields = __slots__ = ("prefix", "tail")
    _part_cls = HamelVector

    def __init__(self, prefix: HamelVector, tail: NormValue):
        super().__init__(prefix, tail)

    @classmethod
    def make(cls, backend: Backend, coords, tail=0) -> "TailVector":
        """Build from raw coordinates and a caller-certified tail bound."""
        return cls(HamelVector(backend, coords), tail)

    def truncate(self, keep) -> "TailVector":
        """Drop prefix coordinates outside `keep`, moving their mass into the tail."""
        keep, raw = set(keep), self.prefix._raw
        kept = {i: x for i, x in raw.items() if i in keep}
        moved = [x for i, x in raw.items() if i not in keep]
        return self._make(self.prefix._build(kept), self.backend._mass([self.tail, *moved]))

    def norm_interval(self) -> NormInterval:
        b = self.backend
        lo, mass = b._mass_bounds(self.prefix._raw.values())
        return _trusted(NormInterval, backend=b, lo=lo, hi=b.norm_add(mass, self.tail))


class TailMap(_Certified):
    """Finite entry table plus a certified bound on the entry mass left out."""

    _fields = __slots__ = ("finite", "tail")
    _part_cls = ColumnFiniteMap

    def __init__(self, finite: ColumnFiniteMap, tail: NormValue):
        super().__init__(finite, tail)

    def bound(self) -> NormInterval:
        """Operator-norm enclosure: [best stored column sum, total mass + tail]."""
        b = self.backend
        lo = b.norm_zero
        for col in self.finite.cols.values():
            mass = b._mass_bounds(col._raw.values())[0]
            if mass > lo:
                lo = mass
        hi = b.norm_add(self.finite.l1_total(), self.tail)
        return _trusted(NormInterval, backend=b, lo=lo, hi=hi)

    def apply(self, v: TailVector) -> TailVector:
        """Apply with certified error: stored part exactly, the rest bounded.

        tail(result) = Ff*tail(v) + Ft*(prefix mass of v + tail(v)) where Ff
        is the stored entry mass and Ft this map's tail.
        """
        _operand(v, TailVector, self.backend, "argument")
        prefix = self.finite.apply(v.prefix)
        tail = self.backend._propagated(self.finite.l1_total(), self.tail, v.prefix.l1(), v.tail)
        return TailVector._make(prefix, tail)

    def __call__(self, v: TailVector) -> TailVector:
        return self.apply(v)

    def compose(self, g: "TailMap") -> "TailMap":
        """self after g; tail = Ff*Gt + Ft*(Gf + Gt), total-mass submultiplicative."""
        self._join(g)
        tail = self.backend._propagated(self.finite.l1_total(), self.tail, g.finite.l1_total(), g.tail)
        return self._make(self.finite.compose(g.finite), tail)


def tail_mul(table: StructureTable, a: TailVector, b: TailVector) -> TailVector:
    """Product of tail vectors in an algebra with a declared pair bound K.

    Prefixes multiply exactly; the unseen cross terms are bounded by
    K*(Sa*tail(b) + tail(a)*Sb + tail(a)*tail(b)) with Sa, Sb the prefix
    masses.  Without a pair bound no finite certificate exists, so tables
    lacking one are refused.
    """
    if not isinstance(table, StructureTable):
        raise TypeError(f"expected StructureTable, got {type(table).__name__}")
    if table.pair_bound is None:
        raise ValueError(f"table {table.name!r} declares no pair bound; tail product undefined")
    _operand(a, TailVector, table.backend, "operand")
    _operand(b, TailVector, table.backend, "operand")
    be = a.backend
    k = table.pair_bound
    sa, sb = a.prefix.l1(), b.prefix.l1()
    cross = be.norm_add(
        be.norm_add(be.norm_mul(sa, b.tail), be.norm_mul(a.tail, sb)),
        be.norm_mul(a.tail, b.tail),
    )
    return TailVector._make(table.mul(a.prefix, b.prefix), be.norm_mul(k, cross))


class TailPolyMap(_Frozen):
    """Curried polylinear nest with certified tails at every node.

    ``slots[j]`` is the nest obtained by feeding e_j into the first
    argument; ``tail`` bounds the flattened entry mass this node's stored
    structure leaves out (unstored first-argument slots included).  The
    total certified mass of a nest is the stored entry mass plus the sum of
    all node tails.
    """

    _fields = __slots__ = ("backend", "arity", "slots", "tail")

    def __init__(self, backend: Backend, arity: int, slots: Mapping[int, TailNode] = {}, tail: NormValue = 0):
        slots = _check_slots(TailPolyMap, TailMap, backend, arity, slots)
        super().__init__(backend, arity, slots, backend.norm_check(tail))


TailNode = TailPolyMap | TailMap


def _nest_flat(nest: TailNode) -> tuple[list, list]:
    """(raw value of every stored entry, every node's tail) of nest, all levels flattened."""
    values, tails, todo = [], [], [nest]
    while todo:
        node = todo.pop()
        tails.append(node.tail)
        if isinstance(node, TailMap):
            values += [x for col in node.finite.cols.values() for x in col._raw.values()]
        else:
            todo += node.slots.values()
    return values, tails


def _nest_sum(b: Backend, arity: int, parts: list, d: int, tail: NormValue) -> TailNode:
    """The sum of x * sub / d over parts [(x, sub), ...] as a nest of the given arity.

    The parts' tails are dropped: the top node carries tail, inner nodes
    zero.  Each leaf column is summed by ``backend._column_sum``, reading
    the parts' columns in place in the order the parts list them, and d,
    the denominator of every x, goes on its form.  A slot reached by any
    part stays, even if it sums to zero.
    """
    table: dict = {}
    for x, sub in parts:
        if arity == 1:
            for j, col in sub.finite.cols.items():
                table.setdefault(j, []).append((x, col._raw))
        else:
            for j, inner in sub.slots.items():
                table.setdefault(j, []).append((x, inner))
    if arity == 1:
        cols = {}
        for j, cs in table.items():
            den, nums = b._column_sum(cs)
            cols[j] = _form_vector(b, (d * den, nums))
        return TailMap._make(_map(b, cols), tail)
    slots = {j: _nest_sum(b, arity - 1, ps, d, b.norm_zero) for j, ps in table.items()}
    return _trusted(TailPolyMap, backend=b, arity=arity, slots=slots, tail=tail)


def _peel(nest: TailPolyMap, x: TailVector) -> TailNode:
    """Feed one tail vector into the first slot; same bound shape as apply.

    The stored structures combine exactly over the prefix with their tails
    dropped; one top tail S*tail(x) + T*(prefix mass + tail(x)), with S the
    nest's stored mass and T its total tail mass, jointly covers the
    certificate slack and the prefix error -- the map-application formula
    one level up.  Keeping the scaled sub-tails as well would double-count
    and break the bound-product inequality.
    """
    b = nest.backend
    values, tails = _nest_flat(nest)
    tail = b._propagated(b._mass(values), b._mass(tails), x.prefix.l1(), x.tail)
    d, xs = b._split(x.prefix._raw)
    parts = [(c, nest.slots[j]) for j, c in xs.items() if j in nest.slots]
    return _nest_sum(b, nest.arity - 1, parts, d, tail)


def tpoly_apply(nest: TailNode, xs: Sequence[TailVector]) -> TailVector:
    """Evaluate a curried nest on tail vectors, peeling one slot at a time.

    Depth 1 is plain map application; the all-exact case reproduces the
    finite-support polylinear evaluation with tail 0.
    """
    _check_call(nest, (TailPolyMap, TailMap), xs, TailVector)
    while isinstance(nest, TailPolyMap):
        nest = _peel(nest, xs[0])
        xs = xs[1:]
    return nest.apply(xs[0])


def tpoly_bound(nest: TailNode) -> NormInterval:
    """Enclosure for the nest's bound constant: hi = stored mass + tail mass.

    The hi end equals the hi end computed from the top curried level alone
    (slot masses summed plus tails), so currying does not change the bound.
    The lo end is the largest single stored entry, the value at the best
    stored basis tuple.
    """
    _check_nest(nest, (TailPolyMap, TailMap))
    if isinstance(nest, TailMap):
        return nest.bound()
    b = nest.backend
    values, tails = _nest_flat(nest)
    lo = max(map(b.norm, values), default=b.norm_zero)
    return _trusted(NormInterval, backend=b, lo=lo, hi=b._mass(values + tails))
