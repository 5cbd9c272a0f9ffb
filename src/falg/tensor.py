"""Tensor products of free modules, in standard coordinates.

A tensor of arity n is a finite, zero-free table ``(i_1, ..., i_n) ->
coefficient`` over the basis tensors e_{i_1} x ... x e_{i_n}.  A pure tensor
of finite-support vectors expands to the product of its supports, so the
table is always finite.  The balanced-product relations (additivity and
scalar slides in each slot) hold exactly by construction and are probed in
the test suite rather than assumed.

``map_via_tensor`` builds the two-sided multiplication x -> sum t^{ij} *
(e_i * f(x)) * e_j that a rank-2 tensor induces on an associative algebra.
The bracketing of that sandwich only collapses when the algebra associates,
so the operation refuses tables that do not claim associativity and
spot-checks the claim on seeded random basis triples before evaluating.
The triples are drawn with ``algebra._below``, the stream
``random.Random(seed).randint(0, max_index)`` gives, so a seed names the
same triples.  The spot check and the sandwich sum work on numerator forms
with ``StructureTable._mul_form``, so no vector is built for a basis triple.
"""

from __future__ import annotations

import random
from collections.abc import Mapping, Sequence

from .ring import Backend, Scalar
from .hamel import (
    ColumnFiniteMap,
    HamelVector,
    _check_index,
    _combine,
    _CoordTable,
    _form_vector,
    _operand,
    _trusted,
    _wire_index,
)
from .algebra import StructureTable, _below


class NonAssociativeError(ValueError):
    """A sandwich map was requested over a table that fails associativity."""


class TensorElement(_CoordTable):
    """Element of an n-fold tensor product in basis-tensor coordinates.

    A coordinate table (see the hamel module) keyed by index tuples of
    length ``arity``, written "i,j,..." on the wire.
    """

    _fields = ("backend", "arity", "coords")
    __slots__ = ("arity",)
    _shape = ("arity",)

    def __init__(self, backend: Backend, arity: int, coords: Mapping[tuple[int, ...], Scalar] = {}):
        object.__setattr__(self, "arity", _check_index(arity, "tensor arity", 1))
        super().__init__(backend, coords)

    def _index(self, key) -> tuple[int, ...]:
        key = tuple(_check_index(i) for i in key)
        if len(key) != self.arity:
            raise ValueError(f"coordinate key {key} does not match arity {self.arity}")
        return key

    @staticmethod
    def _from_wire(text) -> tuple[int, ...]:
        return tuple(_wire_index(part) for part in str(text).split(","))

    def standard_components(self) -> dict[tuple[int, ...], Scalar]:
        """The finite coordinate table in the basis-tensor expansion."""
        return dict(self.coords)


def tensor_pure(factors: Sequence[HamelVector]) -> TensorElement:
    """x_1 x ... x x_n with components the products of the coordinates."""
    if not factors:
        raise ValueError("tensor_pure needs at least one factor")
    backend = getattr(factors[0], "backend", None)
    for v in factors:
        _operand(v, HamelVector, backend, "tensor factor")
    den, nums = 1, {(): 1}
    for v in factors:
        d, xs = backend._split(v._raw)
        den *= d
        nums = {key + (i,): x * n for key, x in nums.items() for i, n in xs.items()}
    raw = backend._coords((den, nums))  # drops float products that underflow to 0
    return _trusted(TensorElement, backend=backend, arity=len(factors), _raw=raw)


def zero_tensor(backend: Backend, arity: int) -> TensorElement:
    return TensorElement(backend, arity, {})


def map_via_tensor(
    table: StructureTable,
    t: TensorElement,
    f: ColumnFiniteMap,
    x: HamelVector,
    samples: int = 64,
    seed: int = 0,
    max_index: int = 16,
) -> HamelVector:
    """Evaluate the two-sided multiplication induced by a rank-2 tensor.

    Returns sum over (i, j) in t of t^{ij} * ((e_i * f(x)) * e_j), taking
    products in `table`.  Requires the table to claim associativity and
    verifies the claim on `samples` (an int >= 0) seeded random basis triples drawn from
    indices up to `max_index`; a failing triple raises NonAssociativeError
    rather than returning a bracketing-dependent value.
    """
    backend = table.backend
    _operand(t, TensorElement, backend, "tensor")
    _operand(f, ColumnFiniteMap, backend, "map")
    _operand(x, HamelVector, backend, "vector")
    if t.arity != 2:
        raise ValueError(f"map_via_tensor needs an arity-2 tensor, got arity {t.arity}")
    if not table.claims_associative:
        raise NonAssociativeError(
            f"table {table.name!r} does not claim associativity; sandwich map undefined"
        )
    _check_index(samples, "samples")
    _check_index(max_index, "max_index")
    rng = random.Random(seed)
    width = max_index + 1
    for _ in range(samples):
        i, j, k = _below(rng, width), _below(rng, width), _below(rng, width)
        ei, ej, ek = ((1, {n: 1}) for n in (i, j, k))
        # the associator (e_i e_j) e_k - e_i (e_j e_k) on numerator forms, formed as
        # table.associator forms it, so a float64 difference that overflows raises
        _, defect = table._sum(
            (1, table._product(table._product(ei, ej), ek)),
            (-1, table._product(ei, table._product(ej, ek))),
        )
        if defect:
            raise NonAssociativeError(
                f"table {table.name!r} fails associativity at basis triple ({i}, {j}, {k})"
            )
    fx = f._apply_split(backend._split(x._raw))
    backend._check_sums(fx[1].values())  # as f.apply checks its result
    dt, ts = backend._split(t._raw)
    parts = [
        (s, table._product(table._product((1, {i: 1}), fx), (1, {j: 1})))
        for (i, j), s in ts.items()
    ]
    den, nums = _combine(parts)
    return _form_vector(backend, (dt * den, nums))
