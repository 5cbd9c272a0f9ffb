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
"""

from __future__ import annotations

import random
from typing import Mapping, Sequence

from .ring import Backend, BackendMismatchError, Scalar, _Frozen
from .hamel import (
    ColumnFiniteMap,
    HamelVector,
    _accumulate,
    _canonical,
    _check_index,
    _check_scalar,
    _combine,
    _form_coords,
    _form_vector,
    _split,
    _trusted,
    _wire_object,
    basis_vector,
)
from .algebra import StructureTable


class NonAssociativeError(ValueError):
    """A sandwich map was requested over a table that fails associativity."""


def _clean_tensor_coords(backend: Backend, arity: int, coords) -> dict[tuple[int, ...], Scalar]:
    out: dict[tuple[int, ...], Scalar] = {}
    items = coords.items() if isinstance(coords, Mapping) else coords
    for key, c in items:
        key = tuple(_check_index(i) for i in key)
        if len(key) != arity:
            raise ValueError(f"coordinate key {key} does not match arity {arity}")
        if not isinstance(c, Scalar):
            c = backend.scalar(c)
        elif c.backend is not backend:
            raise BackendMismatchError("tensor coefficient backend does not match")
        if not c.is_zero():
            out[key] = c
    return out


def _tensor(backend: Backend, arity: int, acc: dict) -> "TensorElement":
    """Trusted TensorElement over raw sums (see the hamel module docstring)."""
    return _trusted(TensorElement, backend=backend, arity=arity, coords=_canonical(backend, acc))


class TensorElement(_Frozen):
    """Element of an n-fold tensor product in basis-tensor coordinates."""

    _fields = ("backend", "arity", "coords")

    def __init__(self, backend: Backend, arity: int, coords: Mapping[tuple[int, ...], Scalar] = {}):
        if not isinstance(arity, int) or arity < 1:
            raise ValueError(f"tensor arity must be >= 1, got {arity}")
        object.__setattr__(self, "backend", backend)
        object.__setattr__(self, "arity", arity)
        object.__setattr__(self, "coords", _clean_tensor_coords(backend, arity, coords))

    def coefficient(self, key: Sequence[int]) -> Scalar:
        return self.coords.get(tuple(key), self.backend.zero)

    def is_zero(self) -> bool:
        return not self.coords

    def _join(self, other: "TensorElement") -> None:
        if not isinstance(other, TensorElement):
            raise TypeError(f"expected TensorElement, got {type(other).__name__}")
        if other.backend is not self.backend:
            raise BackendMismatchError("cannot mix tensors from different backends")
        if other.arity != self.arity:
            raise ValueError(f"cannot combine tensors of arity {self.arity} and {other.arity}")

    def __add__(self, other):
        self._join(other)
        acc = _accumulate(_accumulate({}, self.coords), other.coords)
        return _tensor(self.backend, self.arity, acc)

    def __neg__(self):
        return _tensor(self.backend, self.arity, {k: -c.value for k, c in self.coords.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, d: Scalar) -> "TensorElement":
        _check_scalar(d, self.backend, "tensor")
        return _tensor(self.backend, self.arity, _accumulate({}, self.coords, d.value))

    def __rmul__(self, d):
        if isinstance(d, Scalar):
            return self.scale(d)
        return NotImplemented

    def standard_components(self) -> dict[tuple[int, ...], Scalar]:
        """The finite coordinate table in the basis-tensor expansion."""
        return dict(self.coords)

    def to_data(self) -> dict:
        return {
            "arity": self.arity,
            "coords": {
                ",".join(str(i) for i in key): self.coords[key].render()
                for key in sorted(self.coords)
            },
        }

    @classmethod
    def from_data(cls, backend: Backend, data) -> "TensorElement":
        if not isinstance(data, Mapping) or "arity" not in data or "coords" not in data:
            raise ValueError("tensor data must be an object with 'arity' and 'coords'")
        arity = int(data["arity"])
        coords = {}
        for key, text in _wire_object(data["coords"], "'coords'").items():
            idx = tuple(int(part) for part in str(key).split(","))
            coords[idx] = Scalar(backend, backend.parse(text))
        return cls(backend, arity, coords)


def tensor_pure(factors: Sequence[HamelVector]) -> TensorElement:
    """x_1 x ... x x_n with components the products of the coordinates."""
    if not factors:
        raise ValueError("tensor_pure needs at least one factor")
    backend = factors[0].backend
    for v in factors:
        if not isinstance(v, HamelVector):
            raise TypeError(f"expected HamelVector, got {type(v).__name__}")
        if v.backend is not backend:
            raise BackendMismatchError("tensor factors must share one backend")
    den, nums = 1, {(): 1}
    for v in factors:
        d, xs = _split(backend, v.coords)
        den *= d
        nums = {key + (i,): x * n for key, x in nums.items() for i, n in xs.items()}
    coords = _form_coords(backend, (den, nums))  # drops float products that underflow to 0
    return _trusted(TensorElement, backend=backend, arity=len(factors), coords=coords)


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
    verifies the claim on `samples` seeded random basis triples drawn from
    indices up to `max_index`; a failing triple raises NonAssociativeError
    rather than returning a bracketing-dependent value.
    """
    if t.arity != 2:
        raise ValueError(f"map_via_tensor needs an arity-2 tensor, got arity {t.arity}")
    backend = table.backend
    for value, kind in ((t, TensorElement), (f, ColumnFiniteMap), (x, HamelVector)):
        if not isinstance(value, kind):
            raise TypeError(f"expected {kind.__name__}, got {type(value).__name__}")
        if value.backend is not backend:
            raise BackendMismatchError("tensor, map and vector must share the table backend")
    if not table.claims_associative:
        raise NonAssociativeError(
            f"table {table.name!r} does not claim associativity; sandwich map undefined"
        )
    rng = random.Random(seed)
    for _ in range(max(0, samples)):
        i, j, k = (rng.randint(0, max_index) for _ in range(3))
        triple = tuple(basis_vector(backend, n) for n in (i, j, k))
        if not table.associator(*triple).is_zero():
            raise NonAssociativeError(
                f"table {table.name!r} fails associativity at basis triple ({i}, {j}, {k})"
            )
    fx = f.apply(x)
    dt, ts = _split(backend, t.coords)
    parts = []
    for (i, j), s in ts.items():
        left = table.mul(basis_vector(backend, i), fx)
        parts.append((s, _split(backend, table.mul(left, basis_vector(backend, j)).coords)))
    den, nums = _combine(parts)
    return _form_vector(backend, (dt * den, nums))
